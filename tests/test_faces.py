import itertools

import pytest
from hypothesis import given, strategies as st

from shiftlab import binom, lex_compare, mask_of, members_of, revlex_compare
from shiftlab.faces import all_faces, degree, max_index, subsets_of

from support import brute_lex_greater, brute_revlex_greater


def test_mask_roundtrip():
    assert members_of(mask_of([3, 1, 5])) == (1, 3, 5)
    assert degree(mask_of([1, 3, 5])) == 3
    assert max_index(mask_of([2, 7])) == 7
    assert max_index(0) == 0


def test_members_of_refuses_negative_mask():
    with pytest.raises(ValueError, match="negative"):
        members_of(-1)


def test_subsets_of_refuses_negative_mask():
    with pytest.raises(ValueError, match="negative"):
        next(subsets_of(-1))


def test_mask_range_check():
    with pytest.raises(ValueError):
        mask_of([0])
    with pytest.raises(ValueError):
        mask_of([65])


def test_binom_conventions():
    assert binom(0, 0) == 1
    assert binom(4, -1) == 0
    assert binom(3, 5) == 0
    assert binom(5, 2) == 10


def test_all_faces_matches_vertex_tuples():
    for n in range(10):
        for d in range(n + 2):
            want = [mask_of(c) for c in itertools.combinations(range(1, n + 1), d)]
            assert list(all_faces(n, d)) == want


def test_subsets_of():
    subs = set(subsets_of(mask_of([1, 3])))
    assert subs == {0, mask_of([1]), mask_of([3]), mask_of([1, 3])}


def test_lex_compare_examples():
    assert lex_compare(mask_of([1, 2]), mask_of([1, 3])) == 1
    assert lex_compare(mask_of([1, 12, 13]), mask_of([2, 3, 4])) == 1
    assert lex_compare(mask_of([2, 3]), mask_of([2, 3])) == 0


def test_revlex_compare_examples():
    assert revlex_compare(mask_of([1, 2]), mask_of([1, 3])) == 1
    assert revlex_compare(mask_of([1, 4]), mask_of([2, 3])) == -1
    assert revlex_compare(mask_of([1, 4]), mask_of([1, 4])) == 0


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        lex_compare(mask_of([1]), mask_of([1, 2]))
    with pytest.raises(ValueError):
        revlex_compare(mask_of([1]), mask_of([1, 2]))


def test_orders_agree_with_brute_force_on_pairs_of_5():
    for a, b in itertools.permutations(all_faces(5, 2), 2):
        assert (lex_compare(a, b) == 1) == brute_lex_greater(a, b)
        assert (revlex_compare(a, b) == 1) == brute_revlex_greater(a, b)


@given(st.integers(2, 7), st.data())
def test_orders_are_strict_total_orders(n, data):
    d = data.draw(st.integers(1, n))
    layer = list(all_faces(n, d))
    a = data.draw(st.sampled_from(layer))
    b = data.draw(st.sampled_from(layer))
    c = data.draw(st.sampled_from(layer))
    for cmp in (lex_compare, revlex_compare):
        assert cmp(a, b) == -cmp(b, a)
        assert (cmp(a, b) == 0) == (a == b)
        # transitivity
        if cmp(a, b) >= 0 and cmp(b, c) >= 0:
            assert cmp(a, c) >= 0


def test_revlex_threshold_window():
    # faces with max index <= i are exactly those revlex-geq the window
    # {i-d+1..i}; exhaustive for n <= 6
    for n in range(1, 7):
        for d in range(1, n + 1):
            for i in range(d, n + 1):
                window = mask_of(range(i - d + 1, i + 1))
                for tau in all_faces(n, d):
                    above = revlex_compare(tau, window) >= 0
                    assert above == (max_index(tau) <= i)


def test_integer_order_sorts_by_max_blocks():
    masks = sorted(all_faces(5, 2))
    maxes = [max_index(m) for m in masks]
    assert maxes == sorted(maxes)

