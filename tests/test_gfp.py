import numpy as np
import pytest

from shiftlab import gfp

from support import brute_pivot_columns

PRIMES = (2, 3, 32003)


def planted(rng, m, nc, r, p):
    """An m x nc matrix of rank at most r mod p, with some columns zeroed."""
    a = rng.integers(0, p, size=(m, r)) @ rng.integers(0, p, size=(r, nc)) % p
    a[:, rng.random(nc) < 0.2] = 0
    return a


def corpus(p):
    rng = np.random.default_rng(p)
    mats = [np.zeros((0, 0)), np.zeros((0, 5)), np.zeros((4, 0)), np.zeros((6, 7)), np.eye(3)]
    for m, nc in ((1, 1), (3, 9), (9, 3), (12, 12), (20, 50), (40, 50), (40, 30)):
        for r in sorted({0, 1, min(m, nc) // 2, min(m, nc)}):
            mats.append(planted(rng, m, nc, r, p))
        mats.append(rng.integers(0, p, size=(m, nc)))
    return mats


@pytest.mark.parametrize("panel", [1, 2, 5, None])
@pytest.mark.parametrize("p", PRIMES)
def test_pivot_columns_matches_pure_python_elimination(monkeypatch, panel, p):
    if panel is not None:
        monkeypatch.setattr(gfp, "_PANEL", panel)
    full_rank_seen = 0
    for mat in corpus(p):
        want = brute_pivot_columns(mat.astype(int).tolist(), p)
        assert gfp.pivot_columns(mat, p) == want
        full_rank_seen += 0 < len(want) == min(mat.shape)
    assert full_rank_seen >= 5
