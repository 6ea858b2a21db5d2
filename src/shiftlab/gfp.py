"""Exact dense linear algebra over GF(p).

Matrices are 2-D with integer or bool entries, held as numpy arrays of
values reduced mod p; integer input is reduced before it is cast, so
entries of any size get exact residues.  All arithmetic is done in
float64.  Entries stay below p, and p must be a prime with
_PANEL * (p-1)**2 + p < 2**53 (hence p <= 2**23), so every
intermediate product sum is an exactly represented integer.

Large sums are reduced by :func:`_reduce`, x - p * floor((x + 0.5) / p)
with one multiply and one floor, exact for |x| <= 2**51 - 2 and several
times faster than numpy's float remainder; small arrays keep ``%``,
which costs less below about 150 entries.  The panel of
:func:`pivot_columns` is as wide as that bound allows for p: 128 pivots
up to p ~ 2**22, 32 at the largest prime ``check_field`` admits.

The primitive behind every rank and pivot set is :func:`pivot_columns`:
Gaussian elimination with a fixed left-to-right column order, returning
the columns that carry a pivot.  The rank of the matrix, or of any
column prefix, is the number of pivots inside it.  The pivot set is the
column rank profile, which depends only on the row space, so the
elimination is free to choose its pivot rows: it keeps the rows without
a pivot together and applies its delayed updates only to those live
rows and to the columns right of the current one (the blocked
elimination of Dumas, Pernet and Sultan, ISSAC 2013, keeps the same
profile).  :func:`inverse` is a separate Gauss-Jordan
elimination for the small square coordinate changes.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_PANEL = 128
# the largest |x| that _reduce maps exactly to x mod p
_REDUCE_BOUND = 2**51 - 2


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


def _reduce(x: np.ndarray, p: int, buf: np.ndarray | None = None) -> np.ndarray:
    """Reduce the float64 integers x mod p in place, as
    x - p * floor((x + 0.5) * (1/p)), and return x; ``buf``, an array of
    x's shape, is overwritten as scratch (one is allocated if it is None).

    Exact for every integer |x| <= _REDUCE_BOUND = 2**51 - 2.  Write
    x = kp + r with 0 <= r < p.  x + 0.5 is a half-integer below 2**51 in
    absolute value, so it is exact, and (x + 0.5) / p = k + (r + 0.5) / p
    has its fractional part in [0.5/p, 1 - 0.5/p].  The float 1/p and the
    product each carry a relative error of at most 2**-53, so the
    computed quotient lies within |x + 0.5| / p * (2**-52 + 2**-106) <
    0.5/p of the true one: strictly inside (k, k + 1), so its floor is
    k.  Then p * k and x - p * k are integers below 2**53, hence exact.
    """
    if buf is None:
        buf = np.empty_like(x)
    np.add(x, 0.5, out=buf)
    buf *= 1.0 / p
    np.floor(buf, out=buf)
    buf *= p
    x -= buf
    return x


def _panel_width(p: int) -> int:
    """The largest w <= _PANEL with w * (p-1)**2 + p <= _REDUCE_BOUND: a
    flush of w pivots, a value below p minus w products below p**2,
    stays inside the bound of :func:`_reduce`."""
    return min(_PANEL, (_REDUCE_BOUND - p) // (p - 1) ** 2)


def _residues(mat, p: int) -> np.ndarray:
    """``mat`` reduced mod p as a contiguous float64 array.

    Refuses input that is not 2-D or whose entries are not integers or
    bools; the dtype decides, so only an object array is read entry by
    entry.  Integer entries are reduced before the cast, so an entry of
    2**53 or more still gets its exact residue.  An integer or bool array
    whose entries already lie in [0, p) is cast without the reduction:
    its min and max cost far less than a mod.
    """
    a = np.asarray(mat)
    if a.ndim != 2:
        raise ValueError(f"a matrix must be 2-D, not {a.ndim}-D")
    if a.size and a.dtype.kind not in "biu":
        if a.dtype.kind != "O" or not all(isinstance(x, (int, np.integer, np.bool_)) for x in a.flat):
            raise ValueError(f"matrix entries must be integers or bools, not {a.dtype}")
    if a.size and a.dtype.kind in "biu" and a.min() >= 0 and a.max() < p:
        return np.ascontiguousarray(a, dtype=np.float64)
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
      trailing columns of row k of R.  Each column is brought up to
      date on the live rows by one F @ R product, and its largest live
      entry picks the pivot row; when the panel holds
      w = min(_panel_width(p), m) pivots one product updates the live
      rows on the trailing columns and the panel starts again.

    Exactness: entries are below p, so a panel product adds at most w
    products each at most (p-1)**2 to a value below p.  The flush
    reduces that sum with :func:`_reduce`, and ``_panel_width`` keeps
    it inside its bound of 2**51 - 2: w is 128 up to p ~ 2**22 and 32 at
    8388593.  A column or pivot row is updated by fewer than w pivots
    and reduced with ``%``, exact below 2**53.  Every update is reduced
    mod p before it is read, and restricting updates to live rows or
    trailing columns changes which entries a product covers, not how
    many terms any of its sums holds.
    """
    p = check_field(p)
    M = _residues(mat, p)
    m, nc = M.shape
    if m == 0 or nc == 0:
        return []
    w = min(_panel_width(p), m)
    F = np.zeros((m, w))
    R = np.zeros((w, nc))
    k = 0  # pivots in the current panel
    live = m  # rows 0..live-1 hold no pivot
    pivots: list[int] = []

    for c in range(nc):
        col = (M[:live, c] - F[:live, :k] @ R[:k, c]) % p
        t = int(col.argmax())
        if not col[t]:
            continue
        pivots.append(c)
        R[k, c + 1 :] = (M[t, c + 1 :] - F[t, :k] @ R[:k, c + 1 :]) % p
        F[:live, k] = col * pow(int(col[t]), p - 2, p) % p
        live -= 1
        if live == 0:
            return pivots
        # retire row t: the last live row takes its slot
        M[t, c + 1 :] = M[live, c + 1 :]
        F[t, : k + 1] = F[live, : k + 1]
        k += 1
        if k == w:
            update = F[:live] @ R[:, c + 1 :]
            trailing = M[:live, c + 1 :]
            trailing -= update
            _reduce(trailing, p, update)
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
