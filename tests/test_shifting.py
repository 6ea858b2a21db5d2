import random

import pytest
from hypothesis import given, settings, strategies as st

from shiftlab import (
    InvariantError,
    ShiftlabError,
    enumerate_shifted,
    f_vector,
    from_facets,
    full_simplex,
    is_shifted,
    mask_of,
    members_of,
    replay,
    shift_ij,
    shift_to_shifted,
)
from shiftlab import shifting
from shiftlab.complexes import SimplicialComplex, ideal_slices
from shiftlab.verify import random_complex

from support import (
    all_strict_complexes,
    brute_enumerate_shifted,
    brute_is_shifted,
    brute_shift_ij,
    brute_shift_to_shifted,
    forbid_bit_view,
    SEEDED,
    s_ij_zero,
)


def facet_sets(cx):
    return {members_of(f) for f in cx.facets()}


def test_shift_ij_example():
    cx = from_facets(3, [[1, 2], [3]])
    out = shift_ij(cx, 1, 3)
    assert facet_sets(out) == {(2, 3), (1,)}


def test_shift_fixes_shifted():
    cx = from_facets(3, [[1, 3], [2, 3]])
    for i, j in [(1, 2), (1, 3), (2, 3)]:
        assert shift_ij(cx, i, j).faces == cx.faces


def test_shift_4cycle_identity():
    cyc = from_facets(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    assert shift_ij(cyc, 1, 3).faces == cyc.faces


def test_shift_ij_matches_face_by_face_oracle():
    """Every pair on every strict complex with n <= 5 (7,020 at n = 5)."""
    for n in range(2, 6):
        pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
        for cx in all_strict_complexes(n):
            for i, j in pairs:
                got = shift_ij(cx, i, j)
                assert got == brute_shift_ij(cx, i, j)
                if got == cx:
                    assert got is cx


def test_shift_pair_range():
    cx = from_facets(3, [[1, 2], [3]])
    with pytest.raises(ValueError):
        shift_ij(cx, 2, 2)
    with pytest.raises(ValueError):
        shift_ij(cx, 0, 1)


def test_shift_to_shifted_already_shifted():
    cx = from_facets(3, [[1, 3], [2, 3]])
    out, seq = shift_to_shifted(cx)
    assert out.faces == cx.faces and seq == ()


def test_shift_to_shifted_path():
    cx = from_facets(3, [[1, 2], [1, 3]])
    for strategy in ("sweep", "random"):
        out, seq = shift_to_shifted(cx, strategy, seed=5)
        assert is_shifted(out)
        assert f_vector(out) == (3, 2)
        assert facet_sets(out) == {(1, 3), (2, 3)}
        assert replay(cx, seq).faces == out.faces


def test_shift_to_shifted_matches_per_strategy_loops():
    # every strict complex with n <= 4, plus seeded ones with n = 6..9
    rng = random.Random(5)
    corpus = [cx for n in range(1, 5) for cx in all_strict_complexes(n)]
    corpus += [
        random_complex(n, rng.choice([0.05, 0.1, 0.2]), 1000 * n + t)
        for n in range(6, 10)
        for t in range(36)
    ]
    moved = 0
    for k, cx in enumerate(corpus):
        for strategy in ("sweep", "random"):
            got = shift_to_shifted(cx, strategy, seed=k)
            want = brute_shift_to_shifted(cx, strategy, seed=k)
            assert got[1] == want[1]
            assert got[0].faces == want[0].faces
            moved += bool(got[1])
    assert moved >= 100


def _phi(cx):
    """The sum of v over the faces F and the vertices v in F."""
    return sum(sum(members_of(f)) for f in cx.faces)


def test_shift_to_shifted_steps_are_bounded_by_the_vertex_sum():
    # each step raises Phi by j - i per moved face, so the loop needs no cap
    for k, cx in enumerate(cx for n in range(2, 5) for cx in all_strict_complexes(n)):
        for strategy in ("sweep", "random"):
            out, seq = shift_to_shifted(cx, strategy, seed=k)
            assert len(seq) <= _phi(out) - _phi(cx)
            assert (out is cx) == (not seq)


@pytest.mark.parametrize("n, density, seed", SEEDED, ids=[f"n{n}-seed{seed}" for n, _, seed in SEEDED])
def test_bit_view_matches_face_by_face_oracles(n, density, seed):
    """shift_ij, is_shifted, shift_to_shifted (both strategies) and
    enumerate_shifted against the face-by-face oracles of support.py."""
    cx = random_complex(n, density, seed)
    assert is_shifted(cx) == brute_is_shifted(cx)
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            got = shift_ij(cx, i, j)
            assert got == brute_shift_ij(cx, i, j)
            assert is_shifted(got) == brute_is_shifted(got)
    for strategy in ("sweep", "random"):
        got, seq = shift_to_shifted(cx, strategy, seed=seed)
        want, want_seq = brute_shift_to_shifted(cx, strategy, seed=seed)
        assert seq == want_seq and got.faces == want.faces
    # most of these closures run to thousands of states; with a small
    # limit both sides either finish with the same result or both refuse,
    # since either refuses exactly when more than the limit are reachable
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    try:
        got = enumerate_shifted(cx, state_limit=200)
    except ShiftlabError:
        got = None
    try:
        want = brute_enumerate_shifted(cx, pairs, state_limit=200)
    except RuntimeError:
        want = None
    assert got == want


@pytest.mark.parametrize(
    "call",
    [
        lambda cx: shift_ij(cx, 1, 2),
        lambda cx: shift_to_shifted(cx),
        lambda cx: enumerate_shifted(cx),
        is_shifted,
        lambda cx: replay(cx, [(1, 2)]),
    ],
    ids=["shift_ij", "shift_to_shifted", "enumerate_shifted", "is_shifted", "replay"],
)
def test_shifting_refuses_n_above_20(monkeypatch, call):
    # a complex on 21 vertices is refused when it is built, by a
    # constructor or directly, so no call ever gets one
    forbid_bit_view(monkeypatch)
    points = [0] + [1 << v for v in range(21)]
    with pytest.raises(ValueError, match="n must be at most 20"):
        call(from_facets(21, points))
    with pytest.raises(ValueError, match="n must be at most 20"):
        call(SimplicialComplex(21, sum(1 << f for f in points)))


def test_a_fixed_point_that_is_not_shifted_is_a_library_bug(monkeypatch):
    # an explicit raise, so it also fires under python -O
    monkeypatch.setattr(shifting, "_shifted_bits", lambda n, bits: False)
    with pytest.raises(InvariantError, match="not shifted"):
        shift_to_shifted(from_facets(3, [[1, 3], [2, 3]]))


def test_shift_to_shifted_unknown_strategy():
    with pytest.raises(ValueError, match="unknown strategy"):
        shift_to_shifted(from_facets(3, [[1, 2], [3]]), "greedy")


def test_replay_reproduces_random_strategy():
    cx = random_complex(6, 0.3, 11)
    out, seq = shift_to_shifted(cx, "random", seed=3)
    assert replay(cx, seq).faces == out.faces


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 7))
def test_f_vector_preserved_by_every_shift(seed, n):
    rng = random.Random(seed)
    cx = random_complex(n, rng.choice([0.2, 0.5, 0.8]), seed)
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            out = shift_ij(cx, i, j)
            assert f_vector(out) == f_vector(cx)
            # downward closure preserved
            for f in out.faces:
                for v in members_of(f):
                    assert f & ~(1 << (v - 1)) in out.faces


def test_singletons_survive_shifting():
    cx = random_complex(5, 0.4, 2)
    out = shift_ij(cx, 1, 5)
    for v in range(1, 6):
        assert mask_of([v]) in out.faces


def test_s4_replayed_inclusion():
    rng = random.Random(0)
    for t in range(20):
        n = rng.randint(3, 5)
        big = random_complex(n, 0.6, 1000 + t)
        # drop a random non-singleton facet to get a subcomplex
        facets = [f for f in big.facets() if f.bit_count() >= 2]
        if not facets:
            continue
        small = SimplicialComplex(n, big.bits ^ (1 << facets[0]))
        _, seq = shift_to_shifted(big, "sweep")
        assert replay(small, seq).faces <= replay(big, seq).faces


def test_enumerate_shifted_of_shifted_is_singleton():
    cx = from_facets(3, [[1, 3], [2, 3]])
    out = enumerate_shifted(cx)
    assert len(out) == 1 and next(iter(out)).faces == cx.faces


def test_enumerate_shifted_path():
    cx = from_facets(3, [[1, 2], [1, 3]])
    out = enumerate_shifted(cx)
    assert len(out) == 1
    assert facet_sets(next(iter(out))) == {(1, 3), (2, 3)}


@pytest.mark.parametrize("restricted", [False, True], ids=["all-pairs", "pairs-above-1"])
def test_enumerate_shifted_matches_brute_oracle(restricted):
    # the restricted pair set leaves many non-shifted states fixed
    for n in range(1, 5):
        pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1) if i > 1 or not restricted]
        for cx in all_strict_complexes(n):
            assert enumerate_shifted(cx, candidate_pairs=pairs) == brute_enumerate_shifted(cx, pairs)


def test_enumerate_shifted_skips_a_fixed_state_that_is_not_shifted():
    cx = from_facets(3, [[1, 2], [1, 3]])
    assert shift_ij(cx, 2, 3) is cx and not is_shifted(cx)
    assert enumerate_shifted(cx, candidate_pairs=[(2, 3)]) == set()


def test_enumerate_state_limit():
    cx = from_facets(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    with pytest.raises(RuntimeError):
        enumerate_shifted(cx, state_limit=1)


@pytest.mark.parametrize("limit", [0, -3])
def test_enumerate_refuses_a_state_limit_below_1(limit):
    # the input is a state: a shifted input, which no pair moves, must not
    # pass under a limit that admits no state at all
    for cx in (full_simplex(3), from_facets(4, [[1, 2], [2, 3], [3, 4], [1, 4]])):
        with pytest.raises(ValueError, match=f"state limit must be at least 1, not {limit}"):
            enumerate_shifted(cx, state_limit=limit)
    assert enumerate_shifted(full_simplex(3), state_limit=1) == {full_simplex(3)}


def test_s_ij_zero_examples():
    # monomial {1,3}: 2 not present -> unchanged
    slices = {2: frozenset({mask_of([1, 3])})}
    assert s_ij_zero(slices, 1, 2) == {2: frozenset({mask_of([1, 3])})}
    # monomial {2,3} with {1,3} absent -> moves to {1,3}
    slices = {2: frozenset({mask_of([2, 3])})}
    assert s_ij_zero(slices, 1, 2) == {2: frozenset({mask_of([1, 3])})}


def test_s_ij_zero_matches_shift_exhaustively_n4():
    # ideal-level exchange equals the face-level shift, all complexes on [4]
    for cx in all_strict_complexes(4):
        slices = ideal_slices(cx)
        for i in range(1, 4):
            for j in range(i + 1, 5):
                assert s_ij_zero(slices, i, j) == ideal_slices(shift_ij(cx, i, j))
