"""Exact dense linear algebra over GF(p).

Matrices are numpy arrays holding integer values reduced mod p.  All
arithmetic is done in float64.  Entries stay below p, and p must be a
prime with _PANEL * (p-1)**2 + p < 2**53 (hence p <= 2**23), so every
intermediate product sum is an exactly represented integer.

The one primitive everything else uses is :func:`pivot_columns`:
Gaussian elimination with a fixed left-to-right column order, returning
the columns that carry a pivot.  The rank of any column prefix is the
number of pivots inside that prefix.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_PANEL = 128


@lru_cache(maxsize=None)
def _check_field(p: int) -> None:
    """Refuse p unless it is a prime whose panel sums stay exact in float64."""
    exact = 2 <= p and _PANEL * (p - 1) ** 2 + p < 2**53
    if not exact or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
        raise ValueError(f"field size {p} is not a prime p with {_PANEL}*(p-1)^2 + p < 2^53")


def pivot_columns(mat, p: int) -> list[int]:
    """Pivot columns of ``mat`` under left-to-right elimination mod p.

    Uses delayed ("panel") updates: eliminations are accumulated as a
    rank-k correction F @ R and applied to single columns on demand,
    flushing to the whole trailing matrix via one matrix product every
    _PANEL pivots.  Exactness: entries are below p, so a panel update
    adds at most _PANEL products each at most (p-1)**2 to a value below
    p, which _check_field keeps below 2**53.
    """
    _check_field(p)
    M = np.ascontiguousarray(np.asarray(mat, dtype=np.float64) % p)
    m, nc = M.shape
    if m == 0 or nc == 0:
        return []
    pivots: list[int] = []
    eligible = np.ones(m, dtype=bool)
    fcols: list[np.ndarray] = []
    rrows: list[np.ndarray] = []
    F = np.zeros((m, 0))
    R = np.zeros((0, nc))

    for c in range(nc):
        col = M[:, c]
        if fcols:
            col = col - F[:, : len(fcols)] @ R[: len(rrows), c]
            col %= p
        cand = np.nonzero(eligible & (col != 0))[0]
        if cand.size == 0:
            continue
        t = int(cand[0])
        pivots.append(c)
        eligible[t] = False
        row = M[t, :]
        if rrows:
            row = row - F[t, : len(fcols)] @ R[: len(rrows)]
            row %= p
        else:
            row = row.copy()
        inv = pow(int(col[t]), p - 2, p)
        f = (col * inv) % p
        f[~eligible] = 0.0
        fcols.append(f)
        rrows.append(row)
        F = np.column_stack(fcols)
        R = np.vstack(rrows)
        if len(fcols) >= _PANEL:
            M = (M - F @ R) % p
            fcols, rrows = [], []
            F = np.zeros((m, 0))
            R = np.zeros((0, nc))
    return pivots


def rank(mat, p: int) -> int:
    """Rank over GF(p)."""
    return len(pivot_columns(mat, p))


def invertible(mat, p: int) -> bool:
    a = np.asarray(mat)
    return a.shape[0] == a.shape[1] and rank(a, p) == a.shape[0]
