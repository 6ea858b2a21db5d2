"""Reduced simplicial homology over GF(p) and graded Betti numbers.

Betti tables map (i, j) -> beta_{i,i+j}(I_Delta), the graded Betti
numbers of the Stanley-Reisner ideal.  Two independent computation
paths are provided:

* :func:`hochster_betti` sums reduced homology dimensions of induced
  subcomplexes over all vertex subsets (valid for any complex), each
  read off a chain of element matchings on its vertices: counted when
  the unmatched faces all have one size, and otherwise eliminated
  relative to the closed star of its top vertex;
* :func:`shifted_betti` sums over the minimal generators, counted from
  the m_<= statistics of the ideal's degree slices (valid for shifted
  complexes, field independent).

Every boundary rank, over every field, comes from one sparse elimination
mod p with clearing (:func:`_reduced_dims`) over one flat list of face
masks, with no matrix and no numpy call per map.
:func:`boundary_matrix` builds the same maps as numpy arrays for
independent checks; it is not exported from ``shiftlab``, and the tests
import it from here.
"""

from __future__ import annotations

from math import comb

import numpy as np

from . import gfp
from .complexes import (
    InvariantError,
    SimplicialComplex,
    _layer_bits,
    _mask_list,
    _vertex_bits,
    is_shifted,
    m_leq_table,
)
from .faces import members_of

BettiTable = dict[tuple[int, int], int]


def boundary_matrix(cx: SimplicialComplex, k: int, p: int) -> np.ndarray:
    """Matrix of the boundary map C_k -> C_{k-1} over GF(p).

    Rows are indexed by the sorted (k-1)-faces, columns by the sorted
    k-faces (a k-face has k+1 vertices).  For k = 0 the rows are the
    empty face, so every vertex maps to the generator of C_{-1} (the
    augmentation).
    """
    p = gfp.check_field(p)
    if k < 0:
        raise ValueError("k must be nonnegative")
    masks = _mask_list(cx.bits)
    rows = [f for f in masks if f.bit_count() == k]
    cols = [f for f in masks if f.bit_count() == k + 1]
    row_idx = {f: r for r, f in enumerate(rows)}
    M = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for c, f in enumerate(cols):
        for pos, v in enumerate(members_of(f)):
            M[row_idx[f & ~(1 << (v - 1))], c] = (-1) ** pos % p
    return M


def _reduced_dims(masks: list[int], p: int) -> tuple[int, ...]:
    """Reduced homology dimensions, entry k for the k-vertex faces up to
    the largest, of the chain complex whose basis is the faces ``masks``:
    the faces of a complex, or, for homology relative to a subcomplex,
    the faces outside it.  A boundary face not in ``masks`` then lies in
    the subcomplex and is dropped (in Hochster's sum the empty face
    always does).

    The column of a k-vertex face is a dict from its (k-1)-vertex faces
    to the signs 1 and p-1, alternating from the lowest vertex up,
    reduced into a basis keyed by its largest face mask.  Faces run from
    the largest size down with clearing (Chen and Kerber, "Persistent
    homology computation with a twist"): a face keying a basis column is
    no column, since d d = 0 puts its boundary in the span of the
    boundaries of lower faces.  Neither the clearing nor the ranks depend
    on the order within a size.
    """
    faces = set(masks)
    basis: dict[int, dict[int, int]] = {}
    for f in sorted(masks, key=int.bit_count, reverse=True):
        if f in basis:
            continue
        col, sign, rest = {}, 1, f
        while rest:
            low = rest & -rest
            if (g := f ^ low) in faces:
                col[g] = sign
            sign, rest = p - sign, rest ^ low
        while col and (top := max(col)) in basis:
            pivot = basis[top]
            c = col[top] * pow(pivot[top], -1, p) % p
            for r, v in pivot.items():
                if x := (col.get(r, 0) - c * v) % p:
                    col[r] = x
                else:
                    del col[r]
        if col:
            basis[top] = col
    largest = max(map(int.bit_count, masks), default=-1)
    # keys[k] is the rank of the map onto the k-vertex faces; keys[-1] = 0
    size, keys = [0] * (largest + 2), [0] * (largest + 2)
    for f in masks:
        size[f.bit_count()] += 1
    for f in basis:
        keys[f.bit_count()] += 1
    return tuple(size[k] - keys[k] - keys[k - 1] for k in range(largest + 1))


def reduced_homology_dims(cx: SimplicialComplex, p: int) -> tuple[int, ...]:
    """Dimensions of reduced homology (dim H~_{-1}, dim H~_0, ..., dim H~_dim).

    dim H~_k = nullity(d_k) - rank(d_{k+1}), with the reduced chain
    complex (C_{-1} = K spanned by the empty face); the ranks come from
    :func:`_reduced_dims`, the one sparse elimination for every p.
    """
    p = gfp.check_field(p)
    return _reduced_dims(_mask_list(cx.bits), p)


def _subsets_below(n: int):
    """Every nonempty vertex set w < 2^n with the integer whose bit f is
    set iff f is a subset of w.

    The sets are walked depth first, each one its parent plus a vertex
    above the parent's top: the subsets of w | b are those of w and their
    copy shifted up by b, so each integer costs one shift and one or."""
    stack = [(0, 1)]
    while stack:
        w, below = stack.pop()
        for v in range(w.bit_length(), n):
            b = 1 << v
            child = (w | b, below | below << b)
            yield child
            stack.append(child)


def _outside_star(d: int, v: int, h_v: int) -> int:
    """The bit view of the faces F with F + v not a face, in the complex
    whose bit view is ``d``; ``h_v`` is H_v.  These are the faces without
    v, less the faces with v shifted down by v's bit; none has v, and the
    empty face is among them only if v is not a vertex."""
    star = d & h_v
    rest = d ^ star
    return rest ^ (rest & (star >> (1 << (v - 1))))


def _critical(relative: int, w: int, h: tuple[int, ...]) -> int:
    """The bit view of the faces that the element matchings on the
    vertices of W below its top leave unmatched in ``relative``.

    The vertices u run in ascending order, each matching F with F + u
    when both are still unmatched (Jonsson's element matching); with the
    top vertex's matching, which :func:`_outside_star` already made, the
    chain is one acyclic matching of Delta_W."""
    rest, others = relative, w ^ (1 << (w.bit_length() - 1))
    while others:
        s = others & -others  # u's bit, and the shift from F + u down to F
        others ^= s
        up = rest & h[s.bit_length()]
        pairs = (rest ^ up) & (up >> s)
        rest ^= pairs | pairs << s
    return rest


def hochster_betti(cx: SimplicialComplex, p: int) -> BettiTable:
    """Graded Betti numbers of I_Delta via Hochster's subset sum.

    beta_{i,i+j} = sum over W of size i+j of dim H~_{j-2}(Delta_W), and
    each W credits its homology to every (i, j) with i + j = |W|.  A W
    that is a face is skipped: Delta_W is then a simplex.

    Otherwise the homology is read off a chain of element matchings
    (J. Jonsson, "Simplicial Complexes of Graphs", LNM 1928, 2008), one
    acyclic matching in the sense of Forman's discrete Morse theory.  The
    first matches on the top vertex v of W: the star of v is a cone, so
    H~(Delta_W) is H(Delta_W, st v), whose chains are the faces F of
    Delta_W with F + v not a face (:func:`_outside_star`, on ``cx.bits``
    masked to the subsets of W).  When none is left, Delta_W is a cone on
    v and W is skipped.  The other vertices of W then match what is left
    (:func:`_critical`), and the homology is that of a complex on the
    unmatched (critical) faces:

    - no critical face: W adds nothing;
    - every critical face has k vertices: the boundary maps of that
      complex are zero, so dim H~_{k-1} is their count and every other
      dimension is 0;
    - otherwise :func:`_reduced_dims` eliminates the relative faces of v.
    """
    p = gfp.check_field(p)
    n, bits, h = cx.n, cx.bits, _vertex_bits(cx.n)
    table: BettiTable = {}
    for w, below in _subsets_below(n):
        if bits >> w & 1:
            continue
        v = w.bit_length()
        relative = _outside_star(bits & below, v, h[v])
        if not relative:
            continue
        rest = _critical(relative, w, h)
        if not rest:
            continue
        size = ((rest & -rest).bit_length() - 1).bit_count()  # of the lowest critical face
        if rest & _layer_bits(n, size) == rest:
            dims = ((size - 1, rest.bit_count()),)
        else:
            dims = enumerate(_reduced_dims(_mask_list(relative), p), start=-1)
        for k, dim_k in dims:
            if dim_k == 0:
                continue
            j = k + 2
            i = w.bit_count() - j  # i >= 0: a relative face has fewer than |W| vertices
            table[(i, j)] = table.get((i, j), 0) + dim_k
    return table


def shifted_betti(cx: SimplicialComplex) -> BettiTable:
    """Betti table of a shifted complex from m_<= counts alone.

    g = m_<=k(I,j) - m_<=k-1(I,j) - m_<=k-1(I,j-1) counts the minimal
    generators of degree j with largest index k: in a squarefree strongly
    stable ideal u is one iff u / x_k is not in the ideal.  Then
    beta_{i,i+j} = sum over k of g C(k-j, i) (Aramova, Herzog and Hibi).
    """
    if not is_shifted(cx):
        raise ValueError("shifted_betti requires a shifted complex")
    n = cx.n
    m = m_leq_table(cx)  # m[d][k] = m_<=k(I, d)
    table: BettiTable = {}
    for j in range(1, n + 1):
        for k in range(j, n + 1):
            g = m[j][k] - m[j][k - 1] - m[j - 1][k - 1]
            if g < 0:
                raise InvariantError(f"negative generator count in degree {j} at index {k}: formula misuse")
            if g:
                for i in range(k - j + 1):
                    table[(i, j)] = table.get((i, j), 0) + g * comb(k - j, i)
    return table


def betti_leq(a: BettiTable, b: BettiTable) -> bool:
    """Entrywise a <= b over the union of supports (missing entries are 0)."""
    keys = set(a) | set(b)
    return all(a.get(k, 0) <= b.get(k, 0) for k in keys)


def betti_tsv(table: BettiTable) -> str:
    """TSV rows ``i<TAB>j<TAB>beta`` sorted by (j, i)."""
    lines = [f"{i}\t{j}\t{table[(i, j)]}" for i, j in sorted(table, key=lambda k: (k[1], k[0]))]
    return "\n".join(lines)
