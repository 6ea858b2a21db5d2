import random

import pytest

from shiftlab import (
    betti_leq,
    delta_lex,
    f_vector,
    full_simplex,
    hochster_betti,
    is_shifted,
    members_of,
    shifted_betti,
)
from shiftlab.faces import all_faces
from shiftlab.verify import random_complex

from support import brute_lex_greater


def faces_as_sets(cx):
    return {members_of(f) for f in cx.faces}


def test_delta_lex_path_example():
    out = delta_lex((3, 2), 3)
    # the single non-edge is the lex-greatest 2-subset {1,2}
    assert faces_as_sets(out) == {(), (1,), (2,), (3,), (1, 3), (2, 3)}


def test_delta_lex_full_simplex():
    out = delta_lex(f_vector(full_simplex(4)), 4)
    assert out.faces == full_simplex(4).faces


def test_delta_lex_vertices_only():
    out = delta_lex((5,), 5)
    assert f_vector(out) == (5,)
    assert out.n == 5


def test_delta_lex_is_lex_segment():
    # each non-face layer is an initial segment in the lex order
    cx = delta_lex((5, 7, 2), 5)
    for d in (2, 3):
        present = [m for m in all_faces(5, d) if m in cx.faces]
        absent = [m for m in all_faces(5, d) if m not in cx.faces]
        for a in present:
            for b in absent:
                assert brute_lex_greater(b, a)


def test_delta_lex_preserves_f_vector_and_idempotence():
    rng = random.Random(3)
    for t in range(15):
        n = rng.randint(2, 7)
        cx = random_complex(n, rng.choice([0.2, 0.5, 0.8]), 200 + t)
        f = f_vector(cx)
        out = delta_lex(f, n)
        assert is_shifted(out)
        got = list(f_vector(out))
        want = list(f)
        while want and want[-1] == 0:
            want.pop()
        assert got == want
        assert delta_lex(f_vector(out), n).faces == out.faces


def test_delta_lex_rejects_unrealizable():
    with pytest.raises(ValueError):
        delta_lex((2, 5), 4)  # 5 edges need more than 2 vertices' worth of lex room


@pytest.mark.parametrize("f", [(3, 3, 1, 1), (3, 3, 1, 0, 2), (3, -1)])
def test_delta_lex_refuses_entries_out_of_range(f):
    with pytest.raises(ValueError, match="f-vector"):
        delta_lex(f, 3)


def test_delta_lex_accepts_zeros_past_n():
    assert delta_lex((3, 3, 1, 0, 0), 3).faces == full_simplex(3).faces


def test_betti_dominated_by_delta_lex():
    rng = random.Random(4)
    for t in range(10):
        n = rng.randint(2, 6)
        cx = random_complex(n, rng.choice([0.3, 0.6]), 400 + t)
        dl = delta_lex(f_vector(cx), n)
        assert betti_leq(hochster_betti(cx, 2), shifted_betti(dl))
