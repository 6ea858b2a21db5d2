"""Exact dense linear algebra over GF(p).

Matrices are numpy arrays holding integer values reduced mod p.  All
arithmetic is done in float64.  Entries stay below p, and p must be a
prime with _PANEL * (p-1)**2 + p < 2**53 (hence p <= 2**23), so every
intermediate product sum is an exactly represented integer.

The primitive behind every rank and pivot set is :func:`pivot_columns`:
Gaussian elimination with a fixed left-to-right column order, returning
the columns that carry a pivot.  The rank of the matrix, or of any
column prefix, is the number of pivots inside it.  :func:`inverse` is a
separate Gauss-Jordan elimination for the small square coordinate
changes.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_PANEL = 128


class SingularMatrixError(ValueError):
    """A square matrix has no inverse mod p."""


@lru_cache(maxsize=None)
def check_field(p: int) -> None:
    """Refuse p unless it is a prime whose panel sums stay exact in float64."""
    exact = 2 <= p and _PANEL * (p - 1) ** 2 + p < 2**53
    if not exact or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
        raise ValueError(f"field size {p} is not a prime p with {_PANEL}*(p-1)^2 + p < 2^53")


def pivot_columns(mat, p: int) -> list[int]:
    """Pivot columns of ``mat`` under left-to-right elimination mod p.

    Uses delayed ("panel") updates: pivot k writes column k of F and
    row k of R, the rank-k correction F @ R is applied to single columns
    and rows on demand, and the whole trailing matrix is updated by one
    matrix product when the panel of w = min(_PANEL, m) pivots is full.
    Exactness: entries are below p, so a panel update adds at most
    _PANEL products each at most (p-1)**2 to a value below p, which
    check_field keeps below 2**53.
    """
    check_field(p)
    M = np.ascontiguousarray(np.asarray(mat, dtype=np.float64) % p)
    m, nc = M.shape
    if m == 0 or nc == 0:
        return []
    w = min(_PANEL, m)
    F = np.zeros((m, w))
    R = np.zeros((w, nc))
    k = 0
    pivots: list[int] = []
    eligible = np.ones(m, dtype=bool)

    for c in range(nc):
        col = M[:, c]
        if k:
            col = (col - F[:, :k] @ R[:k, c]) % p
        cand = np.nonzero(eligible & (col != 0))[0]
        if cand.size == 0:
            continue
        t = int(cand[0])
        pivots.append(c)
        if len(pivots) == m:
            # no row is left to pivot, and a panel of w = m needs no flush
            break
        eligible[t] = False
        R[k] = (M[t] - F[t, :k] @ R[:k]) % p if k else M[t]
        # rows already pivoted are never read again, so their entries of F
        # need no zeroing
        F[:, k] = col * pow(int(col[t]), p - 2, p) % p
        k += 1
        if k == w:
            M = (M - F @ R) % p
            k = 0
    return pivots


def inverse(mat, p: int) -> np.ndarray:
    """Inverse of a square matrix mod p, by Gauss-Jordan elimination.

    Raises :class:`SingularMatrixError` when the matrix is singular mod
    p.  Each update subtracts one product of two entries below p from a
    value below p, so every intermediate is exact in float64.
    """
    check_field(p)
    a = np.asarray(mat, dtype=np.float64) % p
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("only a square matrix has an inverse")
    aug = np.concatenate([a, np.eye(n)], axis=1)
    for c in range(n):
        cand = np.nonzero(aug[c:, c])[0]
        if cand.size == 0:
            raise SingularMatrixError(f"matrix is singular mod {p}")
        t = c + int(cand[0])
        aug[[c, t]] = aug[[t, c]]
        aug[c] = aug[c] * pow(int(aug[c, c]), p - 2, p) % p
        col = aug[:, c].copy()
        col[c] = 0.0
        aug = (aug - np.outer(col, aug[c])) % p
    return aug[:, n:].astype(np.int64)
