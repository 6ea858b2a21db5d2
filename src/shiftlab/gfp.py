"""Exact dense linear algebra over GF(p).

Matrices are 2-D with integer or bool entries, held as numpy arrays of
values reduced mod p; integer input is reduced before it is cast, so
entries of any size get exact residues.  All arithmetic is done in
float64.  Entries stay below p, and p must be a prime with
_PANEL * (p-1)**2 + p < 2**53 (hence p <= 2**23), so every
intermediate product sum is an exactly represented integer.

The primitive behind every rank and pivot set is :func:`pivot_columns`:
Gaussian elimination with a fixed left-to-right column order, returning
the columns that carry a pivot.  The rank of the matrix, or of any
column prefix, is the number of pivots inside it.  The pivot set is the
column rank profile, which depends only on the row space, so the
elimination is free to choose its pivot rows: it keeps the rows without
a pivot together, scans the columns in blocks and applies its delayed
updates only to those live rows and to the columns right of the scan
(the blocked elimination of Dumas, Pernet and Sultan, ISSAC 2013, keeps
the same profile).  :func:`inverse` is a separate Gauss-Jordan
elimination for the small square coordinate changes.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_PANEL = 128
_SCAN = 8


class SingularMatrixError(ValueError):
    """A square matrix has no inverse mod p."""


@lru_cache(maxsize=None, typed=True)
def check_field(p: int) -> int:
    """Refuse p unless it is an integer prime whose panel sums stay exact
    in float64, and return it as an int.  The cache is typed, so 32003.0
    is refused even after 32003 was accepted."""
    if not isinstance(p, (int, np.integer)):
        raise ValueError(f"field size {p!r} is not an integer")
    p = int(p)
    exact = 2 <= p and _PANEL * (p - 1) ** 2 + p < 2**53
    if not exact or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
        raise ValueError(f"field size {p} is not a prime p with {_PANEL}*(p-1)^2 + p < 2^53")
    return p


def _residues(mat, p: int) -> np.ndarray:
    """``mat`` reduced mod p as a contiguous float64 array.

    Refuses input that is not 2-D or whose entries are not integers or
    bools; the dtype decides, so only an object array is read entry by
    entry.  Integer entries are reduced before the cast, so an entry of
    2**53 or more still gets its exact residue.
    """
    a = np.asarray(mat)
    if a.ndim != 2:
        raise ValueError(f"a matrix must be 2-D, not {a.ndim}-D")
    if a.size and a.dtype.kind not in "biu":
        if a.dtype.kind != "O" or not all(isinstance(x, (int, np.integer, np.bool_)) for x in a.flat):
            raise ValueError(f"matrix entries must be integers or bools, not {a.dtype}")
    return np.ascontiguousarray(a % p, dtype=np.float64)


def pivot_columns(mat, p: int) -> list[int]:
    """Pivot columns of ``mat`` under left-to-right elimination mod p.

    The pivot set is the column rank profile: column c carries a pivot
    exactly when it raises the rank of the columns before it, so it
    does not depend on which row eliminates it.  The elimination uses
    that freedom to touch only what is read again:

    - Live rows.  The rows that hold no pivot yet are kept at the top
      of the matrix; a pivot row is retired by moving the last live
      row into its slot.
    - Delayed ("panel") updates.  Pivot k writes column k of F and the
      trailing columns of row k of R; the rank-k correction F @ R is
      applied on demand, and when the panel holds w = min(_PANEL, m)
      pivots one product updates the live rows on the trailing columns
      and the panel starts again.
    - A block scan.  Columns are read _SCAN at a time: one F @ R
      product brings a block up to date on the live rows, and the first
      column nonzero on them is the next pivot.  A rank-1 update then
      fixes the rest of the block for the new pivot.

    Exactness: entries are below p, so a panel product adds at most
    _PANEL products each at most (p-1)**2 to a value below p, and a
    rank-1 update adds one; check_field keeps both below 2**53.  Every
    update is reduced mod p before it is read, and restricting updates
    to live rows, trailing columns or a block changes which entries a
    product covers, not how many terms any of its sums holds.
    """
    p = check_field(p)
    M = _residues(mat, p)
    m, nc = M.shape
    if m == 0 or nc == 0:
        return []
    w = min(_PANEL, m)
    F = np.zeros((m, w))
    R = np.zeros((w, nc))
    k = 0  # pivots in the current panel
    live = m  # rows 0..live-1 hold no pivot
    pivots: list[int] = []

    for lo in range(0, nc, _SCAN):
        hi = min(lo + _SCAN, nc)
        # with no pending panel the block is a view of M; writing to it
        # touches only columns that are never read again
        block = M[:live, lo:hi]
        if k:
            block = (block - F[:live, :k] @ R[:k, lo:hi]) % p
        j = 0  # the block's columns before j are done
        while j < hi - lo:
            nonzero = block[:, j:].any(axis=0)
            step = int(nonzero.argmax())
            if not nonzero[step]:
                break
            j += step
            pivots.append(lo + j)
            col = block[:, j]
            t = int(col.argmax())  # any live row that is nonzero here will do
            R[k, hi:] = (M[t, hi:] - F[t, :k] @ R[:k, hi:]) % p if k else M[t, hi:]
            F[:live, k] = col * pow(int(col[t]), p - 2, p) % p
            j += 1
            block[:, j:] = (block[:, j:] - F[:live, k, None] * block[t, j:]) % p
            live -= 1
            if live == 0:
                return pivots
            # retire row t: the last live row takes its slot
            M[t, hi:] = M[live, hi:]
            F[t, : k + 1] = F[live, : k + 1]
            block[t] = block[live]
            block = block[:live]
            k += 1
            if k == w:
                trailing = M[:live, hi:]
                trailing -= F[:live] @ R[:, hi:]
                trailing %= p
                k = 0
    return pivots


def inverse(mat, p: int) -> np.ndarray:
    """Inverse of a square matrix mod p, by Gauss-Jordan elimination.

    Raises :class:`SingularMatrixError` when the matrix is singular mod
    p.  Each update subtracts one product of two entries below p from a
    value below p, so every intermediate is exact in float64.
    """
    p = check_field(p)
    a = _residues(mat, p)
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
