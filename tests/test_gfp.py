import functools

import numpy as np
import pytest

from shiftlab import from_facets, gin, gfp, hochster_betti

from support import brute_pivot_columns, columnwise_pivot_columns

# 8388593 is the largest prime that check_field admits
PRIMES = (2, 3, 32003, 8388593)


def planted(rng, m, nc, r, p):
    """An m x nc matrix of rank at most r mod p, with some columns zeroed."""
    a = rng.integers(0, p, size=(m, r)) @ rng.integers(0, p, size=(r, nc)) % p
    a[:, rng.random(nc) < 0.2] = 0
    return a


def late_pivots(rng, m, nc, p):
    """A wide m x nc matrix, the shape ``gin`` eliminates: its first two
    thirds of columns are nonzero but span rank at most 2, so most
    pivots come late."""
    a = rng.integers(0, p, size=(m, nc))
    s = 2 * nc // 3
    a[:, :s] = rng.integers(0, p, size=(m, 2)) @ rng.integers(0, p, size=(2, s)) % p
    return a


@functools.cache
def corpus(p):
    rng = np.random.default_rng(p)
    mats = [np.zeros((0, 0)), np.zeros((0, 5)), np.zeros((4, 0)), np.zeros((6, 7), dtype=int), np.eye(3, dtype=int)]
    for m, nc in ((1, 1), (3, 9), (9, 3), (12, 12), (20, 50), (40, 50), (40, 30), (30, 8)):
        for r in sorted({0, 1, min(m, nc) // 2, min(m, nc)}):
            mats.append(planted(rng, m, nc, r, p))
        mats.append(rng.integers(0, p, size=(m, nc)))
    for m, nc in ((2, 40), (5, 60), (8, 45)):
        mats.append(late_pivots(rng, m, nc, p))
    return [(mat, brute_pivot_columns(mat.astype(int).tolist(), p)) for mat in mats]


@pytest.mark.parametrize("panel", [1, 2, 5, None])
@pytest.mark.parametrize("p", PRIMES)
def test_pivot_columns_matches_pure_python_elimination(monkeypatch, panel, p):
    if panel is not None:
        monkeypatch.setattr(gfp, "_PANEL", panel)
    full_rank_seen = late_seen = 0
    for scan in (1, 3, gfp._SCAN):
        monkeypatch.setattr(gfp, "_SCAN", scan)
        for mat, want in corpus(p):
            assert gfp.pivot_columns(mat, p) == want
            full_rank_seen += 0 < len(want) == min(mat.shape)
            late_seen += len(want) > 2 and want[2] >= 2 * mat.shape[1] // 3
    assert full_rank_seen >= 15
    assert late_seen >= 9


@pytest.mark.parametrize("panel, scan", [(7, 5), (12, 2), (None, None)])
@pytest.mark.parametrize("p", PRIMES)
def test_pivot_columns_matches_columnwise_elimination_on_large_shapes(monkeypatch, panel, scan, p):
    if panel is not None:
        monkeypatch.setattr(gfp, "_PANEL", panel)
        monkeypatch.setattr(gfp, "_SCAN", scan)
    rng = np.random.default_rng(p + 1)
    mats = [
        planted(rng, 150, 260, 90, p),  # rank below both sides, live rows left over
        planted(rng, 220, 90, 90, p),  # tall, m > nc
        late_pivots(rng, 40, 400, p),  # wide with late pivots
        rng.integers(0, p, size=(120, 200)),
    ]
    for mat in mats:
        want = columnwise_pivot_columns(mat, p)
        assert gfp.pivot_columns(mat, p) == want
        if panel is not None:
            # the matrix crosses several blocks and several panel flushes
            assert len(want) > 3 * gfp._PANEL and mat.shape[1] > 3 * gfp._SCAN


def test_integer_entries_are_reduced_before_the_float_cast():
    big = [[2**60 + 1, 1], [1, 1]]  # 2**60 + 1 = 2 mod 3; float64 rounds it to 2**60 = 1 mod 3
    assert gfp.pivot_columns(big, 3) == [0, 1]
    inv = gfp.inverse(big, 3)
    assert (np.array([[2, 1], [1, 1]]) @ inv % 3 == np.eye(2)).all()
    huge = [[2**70, 3**50], [-(2**65), 1]]  # past int64: a numpy object array
    want = brute_pivot_columns(huge, 5)
    assert gfp.pivot_columns(huge, 5) == want == [0, 1]
    reduced = [[x % 5 for x in row] for row in huge]
    assert (gfp.inverse(huge, 5) == gfp.inverse(reduced, 5)).all()


@pytest.mark.parametrize(
    "mat",
    [
        [[1.5, 2]],
        np.eye(2),
        [[2**70, 0.5], [1, 1]],  # an object array holding a float
        [1, 2],
        np.ones((2, 2, 2), dtype=int),
        3,
    ],
    ids=["float-list", "float-array", "object-float", "1-D", "3-D", "scalar"],
)
def test_non_integer_or_non_2d_input_is_refused(mat):
    with pytest.raises(ValueError, match="matrix"):
        gfp.pivot_columns(mat, 3)
    with pytest.raises(ValueError, match="matrix"):
        gfp.inverse(mat, 3)


def test_bool_and_empty_input_is_accepted():
    assert gfp.pivot_columns([[False, True], [True, True]], 2) == [0, 1]
    assert (gfp.inverse(np.array([[True, False], [True, True]]), 2) == [[1, 0], [1, 1]]).all()
    assert gfp.pivot_columns([[]], 3) == []


def test_a_float_field_size_is_refused_after_its_integer_is_cached():
    cx = from_facets(3, [[1, 2], [3]])
    mat = np.eye(2, dtype=int)
    for p in (32003, np.int64(32003)):
        assert gin(cx, p=p).n == 3
        assert hochster_betti(cx, p) == hochster_betti(cx, 2)
        assert gfp.pivot_columns(mat, p) == [0, 1]
    for call in (lambda: gin(cx, p=32003.0), lambda: hochster_betti(cx, 32003.0),
                 lambda: gfp.pivot_columns(mat, 32003.0), lambda: gfp.check_field(np.float64(3))):
        with pytest.raises(ValueError, match="is not an integer"):
            call()
