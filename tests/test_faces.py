import itertools
from math import comb

import pytest
from hypothesis import given, strategies as st

from shiftlab import mask_of, members_of
from shiftlab.faces import all_faces

from support import brute_lex_greater, brute_revlex_greater, subsets_of


def test_mask_roundtrip():
    assert members_of(mask_of([3, 1, 5])) == (1, 3, 5)
    # size and largest vertex are the built-in popcount and bit length
    assert mask_of([1, 3, 5]).bit_count() == 3
    assert mask_of([2, 7]).bit_length() == 7
    assert (0).bit_length() == 0


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


def test_all_faces_matches_vertex_tuples():
    for n in range(10):
        for d in range(n + 2):
            want = [mask_of(c) for c in itertools.combinations(range(1, n + 1), d)]
            assert list(all_faces(n, d)) == want


def test_subsets_of():
    subs = set(subsets_of(mask_of([1, 3])))
    assert subs == {0, mask_of([1]), mask_of([3]), mask_of([1, 3])}


def _positions(layer):
    return {m: k for k, m in enumerate(layer)}


def test_lex_compare_examples():
    # all_faces lists a layer lex-descending: the lex-greater face comes first
    pos = _positions(all_faces(3, 2))
    assert pos[mask_of([1, 2])] < pos[mask_of([1, 3])]
    pos = _positions(all_faces(13, 3))
    assert pos[mask_of([1, 12, 13])] < pos[mask_of([2, 3, 4])]
    assert brute_lex_greater(mask_of([1, 12, 13]), mask_of([2, 3, 4]))


def test_revlex_compare_examples():
    # ascending masks are revlex-descending: the revlex-greater mask is smaller
    assert mask_of([1, 2]) < mask_of([1, 3])
    assert brute_revlex_greater(mask_of([1, 2]), mask_of([1, 3]))
    assert mask_of([2, 3]) < mask_of([1, 4])
    assert brute_revlex_greater(mask_of([2, 3]), mask_of([1, 4]))


def test_orders_agree_with_brute_force_on_pairs_of_5():
    for d in range(6):
        layer = list(all_faces(5, d))
        for (ka, a), (kb, b) in itertools.permutations(enumerate(layer), 2):
            assert (ka < kb) == brute_lex_greater(a, b)
            assert (a < b) == brute_revlex_greater(a, b)


@given(st.integers(2, 7), st.data())
def test_orders_are_strict_total_orders(n, data):
    # each order lists every d-subset once, and any two distinct faces
    # are ordered as the brute comparators order them
    d = data.draw(st.integers(1, n))
    layer = list(all_faces(n, d))
    assert len(set(layer)) == len(layer) == comb(n, d)
    pos = _positions(layer)
    a = data.draw(st.sampled_from(layer))
    b = data.draw(st.sampled_from(layer))
    if a != b:
        assert brute_lex_greater(a, b) != brute_lex_greater(b, a)
        assert brute_revlex_greater(a, b) != brute_revlex_greater(b, a)
        assert (pos[a] < pos[b]) == brute_lex_greater(a, b)
        assert (a < b) == brute_revlex_greater(a, b)


def test_revlex_threshold_window():
    # the first C(i, d) ascending masks, down to the window {i-d+1..i},
    # are exactly the faces with largest vertex <= i; exhaustive for n <= 6
    for n in range(1, 7):
        for d in range(1, n + 1):
            layer = sorted(all_faces(n, d))
            for i in range(d, n + 1):
                assert layer[comb(i, d) - 1] == mask_of(range(i - d + 1, i + 1))
                for k, tau in enumerate(layer):
                    assert (k < comb(i, d)) == (tau.bit_length() <= i)


def test_integer_order_sorts_by_max_blocks():
    masks = sorted(all_faces(5, 2))
    maxes = [m.bit_length() for m in masks]
    assert maxes == sorted(maxes)
