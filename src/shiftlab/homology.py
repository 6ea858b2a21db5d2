"""Reduced simplicial homology over GF(p) and graded Betti numbers.

Betti tables map (i, j) -> beta_{i,i+j}(I_Delta), the graded Betti
numbers of the Stanley-Reisner ideal.  Two independent computation
paths are provided:

* :func:`hochster_betti` sums reduced homology dimensions of induced
  subcomplexes over all vertex subsets (valid for any complex);
* :func:`shifted_betti` evaluates the closed formula in terms of the
  m_<= statistics of the ideal's degree slices (valid for shifted
  complexes, field independent).
"""

from __future__ import annotations

import numpy as np

from . import gfp
from .complexes import SimplicialComplex, ideal_slices, is_shifted, m_leq_counts, restriction
from .faces import binom, degree, members_of

BettiTable = dict[tuple[int, int], int]


def boundary_matrix(cx: SimplicialComplex, k: int, p: int) -> np.ndarray:
    """Matrix of the boundary map C_k -> C_{k-1} over GF(p).

    Rows are indexed by the sorted (k-1)-faces, columns by the sorted
    k-faces (a k-face has k+1 vertices).  For k = 0 the target is the
    augmentation: every vertex maps to the generator of C_{-1}.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    cols = sorted(f for f in cx.faces if degree(f) == k + 1)
    if k == 0:
        return np.ones((1, len(cols)), dtype=np.int64)
    rows = sorted(f for f in cx.faces if degree(f) == k)
    row_idx = {f: r for r, f in enumerate(rows)}
    M = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for c, f in enumerate(cols):
        for pos, v in enumerate(members_of(f)):
            sub = f & ~(1 << (v - 1))
            M[row_idx[sub], c] = (-1) ** pos % p
    return M


def reduced_homology_dims(cx: SimplicialComplex, p: int) -> tuple[int, ...]:
    """Dimensions of reduced homology (dim H~_{-1}, dim H~_0, ..., dim H~_dim).

    dim H~_k = nullity(d_k) - rank(d_{k+1}), with the reduced chain
    complex (C_{-1} = K spanned by the empty face).
    """
    top = cx.dim
    face_counts = [0] * (top + 2)
    for f in cx.faces:
        face_counts[degree(f)] += 1
    # rank of d_k for k = 0 .. top+1 (d_{top+1} = 0)
    ranks = [0] * (top + 3)
    for k in range(top + 1):
        B = boundary_matrix(cx, k, p)
        ranks[k] = gfp.rank(B, p)
    dims = []
    for k in range(-1, top + 1):
        n_k = face_counts[k + 1]  # dim C_k
        rank_k = ranks[k] if k >= 0 else 0  # d_{-1} = 0
        dims.append(n_k - rank_k - ranks[k + 1])
    return tuple(dims)


def hochster_betti(cx: SimplicialComplex, p: int) -> BettiTable:
    """Graded Betti numbers of I_Delta via Hochster's subset sum.

    beta_{i,i+j} = sum over W of size i+j of dim H~_{j-2}(Delta_W).
    Each induced subcomplex is computed once and credited to every
    (i, j) with i + j = |W|.
    """
    if cx.mode != "strict":
        raise ValueError("Hochster's formula requires a strict-mode complex")
    table: BettiTable = {}
    for w in range(1, 1 << cx.n):
        size = degree(w)
        dims = reduced_homology_dims(restriction(cx, w), p)
        for k, dim_k in enumerate(dims, start=-1):
            if dim_k == 0:
                continue
            j = k + 2
            i = size - j
            if i < 0:
                continue
            table[(i, j)] = table.get((i, j), 0) + dim_k
    return table


def shifted_betti(cx: SimplicialComplex) -> BettiTable:
    """Betti table of a shifted complex from m_<= counts alone.

    beta_{i,i+j} = m_<=n(I,j) C(n-j,i)
                   - sum_{k=j}^{n-1} m_<=k(I,j) C(k-j,i-1)
                   - sum_{k=j}^{n}   m_<=k-1(I,j-1) C(k-j,i)
    """
    if not is_shifted(cx):
        raise ValueError("shifted_betti requires a shifted complex")
    n = cx.n
    # m[d][k] = m_<=k(I, d), one pass per degree slice
    slices = ideal_slices(cx)
    m = [m_leq_counts(slices[d]) for d in range(n + 1)]
    table: BettiTable = {}
    for j in range(1, n + 1):
        if not m[j][n] and not m[j - 1][n]:
            continue
        for i in range(0, n - j + 1):
            val = m[j][n] * binom(n - j, i)
            val -= sum(m[j][k] * binom(k - j, i - 1) for k in range(j, n))
            val -= sum(m[j - 1][k - 1] * binom(k - j, i) for k in range(j, n + 1))
            if val < 0:
                raise AssertionError(f"negative Betti number at {(i, j)}: formula misuse")
            if val:
                table[(i, j)] = val
    return table


def betti_leq(a: BettiTable, b: BettiTable) -> bool:
    """Entrywise a <= b over the union of supports (missing entries are 0)."""
    keys = set(a) | set(b)
    return all(a.get(k, 0) <= b.get(k, 0) for k in keys)


def betti_tsv(table: BettiTable) -> str:
    """TSV rows ``i<TAB>j<TAB>beta`` sorted by (j, i)."""
    lines = [f"{i}\t{j}\t{table[(i, j)]}" for i, j in sorted(table, key=lambda k: (k[1], k[0]))]
    return "\n".join(lines)
