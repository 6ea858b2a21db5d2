"""Exterior generic initial ideals via exact rank computations mod p.

The generic initial ideal of the exterior face ideal is extracted
degree by degree: apply a random invertible change of coordinates, take
the matrix of the image of the degree-d slice in the monomial basis of
the d-th exterior power, and row-reduce.  The columns are sorted
revlex-descending, which on one degree layer is ascending mask order:
a >_rev b iff the largest element of a ^ b lies in b, iff a < b as
integers.  A monomial is in the generic initial ideal exactly when its
column carries a pivot.  The masks below 2^i, the first C(i, d)
columns, are the monomials with largest index <= i, so the m_<=i count
of the result in degree d (``complexes.m_leq_table``) is the rank of that
column prefix.

The same pivot set can be read from the faces (Kalai, "Algebraic
shifting", 2002).  The images of the d-faces of the complex under the
inverse transpose of the coordinate change span the orthogonal
complement of the transformed slice, so under the reversed
(revlex-ascending) column order their pivots are exactly the columns
without an ideal-side pivot: the d-faces of the shifted complex.  This
holds for every draw, not only a generic one.  Each degree eliminates
on the side with fewer rows, f_{d-1} faces or |I_d| ideal monomials,
so sparse complexes reduce a few hundred face rows where the slice has
thousands.

Either side's matrix is built in degree min(d, n - d), the direct one
on a tie.  By Jacobi's complementary-minor theorem, det g[s, t] =
(-1)^(sum s + sum t) det g * det g^{-T}[s^c, t^c], so the degree-d
minors of one matrix of the draw are, up to a nonzero scalar on each
row and a sign on each column, the degree-(n - d) minors of the other
on the complementary rows and columns.  Complementing reverses the
ascending column order.  Such scalings change neither the row space nor
the rank of any column prefix, so the pivots are the same for every
draw; a row of degree 9 at n = 12 takes 3 wedge steps instead of 9.

A matrix carries only the columns that can still hold a pivot.  For
every invertible draw g, not only a generic one, in(g J_Delta) is a
monomial ideal, so the draw's pivots are the non-faces of a complex: a
d-set inside a (d+1)-face of the draw is a face of it, and a d-set over
a (d-1)-non-face of the draw is a non-face of it.  A column without a
pivot lies in the span of the columns before it, so leaving it out
changes neither the rank nor the pivots of the others.  Each draw
therefore runs its ideal-side degrees first, descending, each leaving
out the d-sets inside a (d+1)-face when degree d + 1 is already known
(its slice empty or full, or on the ideal side), then its face-side
degrees ascending, each leaving out the d-sets over a (d-1)-non-face;
degree d - 1 is always known by then.  The face side's result is all
d-sets minus its pivots, not only the kept columns minus them.

``gin``'s two draws run in lockstep, one matrix per degree for both.
The two draws have the same rows, and the matrix keeps the union of the
columns each draw keeps.  It is exact for each draw: a column that
the draw itself would leave out carries no pivot for it, and the pivots
of any set of columns holding all of a draw's pivot columns are those
pivot columns.  ``phi_image_matrix`` builds it from the stack of both draws'
coordinate changes, with each wedge step computing only the subsets of
a kept column, and each draw eliminates its own block of rows and
passes its own rank check.

The infinite base field is approximated by GF(p) with uniform random
coordinate changes, and the result is Delta^e when they are generic.
No bound makes that sure: Schwartz-Zippel's sum_d d * r_d / p, r_d the
rank eliminated in degree d, is 0.50 on the 15-vertex complex at
p = 32003.  Checks guard the result instead: ``GenericityError`` means
that no attempt's two draws agreed on a shifted complex with the
input's reduced homology over GF(p), and ``InvariantError`` a failed
rank check or f-vector, which no invertible draw gives.  A degree slice
is one integer: its bits on the 2^n-bit view (``complexes._slice_bits``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from math import comb
from operator import and_
from typing import Sequence

import numpy as np

from . import gfp
from .complexes import (
    InvariantError,
    ShiftlabError,
    SimplicialComplex,
    _bits_of,
    _layer_bits,
    _mask_list,
    _shadow,
    _slice_bits,
    _upper_shadow,
    f_vector,
    from_nonfaces,
    is_shifted,
)
from .faces import all_faces
from .homology import reduced_homology_dims

_ROW_BLOCK = 256


class GenericityError(ShiftlabError):
    """Every attempt of ``gin`` failed: its draws disagreed, or agreed on a
    complex that is not shifted or has other reduced homology over GF(p)."""


@dataclass(frozen=True, eq=False)
class GenericMatrix:
    """An invertible n x n matrix over GF(p) together with its seed.

    ``entries`` are read as residues mod p, and refused with ValueError
    unless they are integers of shape (n, n).  ``dual`` is the transpose
    of their inverse mod p, computed once here; a singular matrix raises
    :class:`gfp.SingularMatrixError`.  Equality and hashing are by
    identity, since numpy arrays compare entrywise.
    """

    n: int
    p: int
    seed: int
    entries: np.ndarray
    dual: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        p = gfp.check_field(self.p)
        entries = gfp._residues(self.entries, p)
        if entries.shape != (self.n, self.n):
            raise ValueError(f"entries of shape {entries.shape} are not those of a {self.n} x {self.n} matrix")
        entries = entries.astype(np.int64)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "dual", gfp.inverse(entries, p).T)


def random_gl(n: int, p: int, seed: int) -> GenericMatrix:
    """Uniform random invertible matrix over GF(p); resamples until
    invertible.  Refuses a negative seed before it draws."""
    p = gfp.check_field(p)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, not {seed}")
    rng = np.random.default_rng(seed)
    while True:
        try:
            return GenericMatrix(n, p, seed, rng.integers(0, p, size=(n, n), dtype=np.int64))
        except gfp.SingularMatrixError:
            continue


@lru_cache(maxsize=None)
def revlex_column_order(n: int, d: int) -> tuple[int, ...]:
    """Degree-d face masks sorted revlex-descending, i.e. ascending."""
    return tuple(sorted(all_faces(n, d)))


def _members(masks, n: int, k: int) -> np.ndarray:
    """The elements of k-subsets of [n], one row per mask, ascending and
    counted from 0: a (len(masks), k) integer array."""
    m = np.asarray(masks, dtype=np.int64)
    return np.nonzero(m[:, None] >> np.arange(n) & 1)[1].reshape(len(m), k)


@lru_cache(maxsize=None)
def _wedge_step(n: int, k: int):
    """Gather tables for one wedge step from degree k to k+1.

    For each (k+1)-subset c' (in column order) and each position q of an
    element e in c', the contribution is sign * cur[c' - e] * row[e],
    sign = (-1)^(k - q).  Returns one (old_idx, elem_idx) pair of tables
    per position, indexed by the target subsets, from the last position
    q = k to the first, so the i-th pair has sign (-1)^i.
    """
    small = np.asarray(revlex_column_order(n, k), dtype=np.int64)
    targets = np.asarray(revlex_column_order(n, k + 1), dtype=np.int64)
    elems = _members(targets, n, k + 1)
    steps = []
    for q in range(k, -1, -1):
        e = np.ascontiguousarray(elems[:, q])
        steps.append((np.searchsorted(small, targets ^ (1 << e)), e))
    return tuple(steps)


def _kept_steps(n: int, d: int, at: np.ndarray) -> list:
    """The wedge-step tables of ``_wedge_step`` cut down to the subsets of
    the kept degree-d columns, whose indices in column order are the
    ascending ``at``.

    Walking down from degree d, a k-subset is needed when it is one
    element short of a needed (k+1)-subset; each step keeps the rows of
    its tables that build a needed target, and renumbers the sources by
    their rank among the needed k-subsets.
    """
    steps = []
    needed = at
    for k in range(d - 1, -1, -1):
        tables = _wedge_step(n, k)
        source = np.zeros(comb(n, k), dtype=bool)
        for old_idx, _ in tables:
            source[old_idx[needed]] = True
        rank = np.cumsum(source) - 1
        steps.append(tuple((rank[old_idx[needed]], elem_idx[needed]) for old_idx, elem_idx in tables))
        needed = np.flatnonzero(source)
    return steps[::-1]


def _wedge(cur: np.ndarray, row: np.ndarray, tables, p: int) -> np.ndarray:
    """One wedge step on a block, subset-major: ``cur`` holds one row per
    k-subset and ``row`` one per element of [n], each with one entry per
    row of the block.  Returns the signed sum of cur[old_idx] *
    row[elem_idx] over the step's tables, mod p, computed in place so
    that at most one term is alive beside the sum; the last term's
    buffer is the scratch of the reduction."""
    (old_idx, elem_idx), *rest = tables
    nxt = cur[old_idx]
    nxt *= row[elem_idx]
    term = None
    for i, (old_idx, elem_idx) in enumerate(rest):
        term = cur[old_idx]
        term *= row[elem_idx]
        if i % 2:
            nxt += term
        else:
            nxt -= term
    return gfp._reduce(nxt, p, term)


def _check_subsets(masks: Sequence[int], d: int, n: int, what: str) -> None:
    for m in masks:
        if not 0 <= m < 1 << n or m.bit_count() != d:
            raise ValueError(f"{what} mask {m} is not a {d}-subset of [{n}]")


def phi_image_matrix(
    rows: Sequence[int], d: int, g: np.ndarray, p: int, cols: Sequence[int] | None = None
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Rows of the degree-d compound matrix of g mod p, in the monomial basis.

    Row r holds the coefficients of the image of e_{rows[r]} under the
    coordinate change g: the coefficient on column tau is the d x d
    minor of g with rows sigma_r and columns tau.  Columns are sorted
    revlex-descending, all C(n, d) of them or only ``cols``; returns
    (matrix, column masks).  ``g`` may also be a (D, n, n) stack of
    coordinate changes: the matrix then holds D blocks of len(rows)
    rows, one per matrix of the stack, in stack order.  Raises
    ValueError unless p passes ``gfp.check_field``, g is a square matrix
    of integers or a stack of them (read as residues mod p, as ``gfp``
    reads a matrix), every row is a d-subset of [n] and ``cols``, if
    given, is an ascending list of distinct d-subsets of [n].

    The minors are built by d wedge steps, one row of g at a time, over
    blocks of ``_ROW_BLOCK`` rows of the whole stacked matrix, each held
    subset-major (one array row per subset) so that every gather copies
    whole rows.  Step k builds only the (k+1)-subsets of a returned
    column, and adds its k+1 <= n signed terms, each the product of two
    residues and so at most (p-1)**2 < 2**46 in absolute value, straight
    into the next degree's array.  A complex has n <= ``MAX_WALK_N``
    (20), so such a sum stays below 20 * 2**46 < 2**51 - 2, the bound
    inside which ``gfp._reduce`` is exact, for every p that
    ``gfp.check_field`` admits.  Raises ValueError for a stack that
    holds no matrix.
    """
    p = gfp.check_field(p)
    G = np.asarray(g)
    shape = G.shape
    if G.ndim == 3 and not shape[0]:
        raise ValueError("the stack of coordinate changes holds no matrix")
    # the stack's matrices, one above the other: (D * n, n)
    G = gfp._residues(G.reshape(shape[0] * shape[1], shape[2]) if G.ndim == 3 else G, p)
    n = shape[-1]
    if shape[-2] != n:
        raise ValueError(f"g of shape {shape} is not a square matrix or a stack of them")
    if not 1 <= d <= n:
        raise ValueError("degree out of range")
    _check_subsets(rows, d, n, "row")
    order = revlex_column_order(n, d)
    col_masks = order if cols is None else tuple(cols)
    _check_subsets(col_masks, d, n, "column")
    if any(a >= b for a, b in zip(col_masks, col_masks[1:])):
        raise ValueError("column masks must be ascending and distinct")
    at = np.searchsorted(np.asarray(order, dtype=np.int64), np.asarray(col_masks, dtype=np.int64))
    steps = _kept_steps(n, d, at)
    # row i of the stacked matrix reads rows n * (i // len(rows)) + sigma - 1 of G,
    # which are columns of its transpose
    sigmas = _members(rows, n, d)
    picks = (n * np.arange(len(G) // n)[:, None, None] + sigmas).reshape(-1, d)
    GT = np.ascontiguousarray(G.T)
    out = np.empty((len(picks), len(col_masks)), dtype=np.int64)

    for lo in range(0, len(picks), _ROW_BLOCK):
        block = picks[lo : lo + _ROW_BLOCK]
        cur = np.ones((1, len(block)), dtype=np.float64)
        for k in range(d):
            cur = _wedge(cur, GT[:, block[:, k]], steps[k], p)
        out[lo : lo + len(block)] = cur.T

    return out, col_masks


def _eliminate(slice_d: int, d: int, phis: Sequence[GenericMatrix], on_faces: bool, open_d: int) -> list[int]:
    """Degree-d non-faces of the generic initial complex for each draw, by
    elimination on one side; the slice, the open d-sets ``open_d`` and the
    results are bit views.

    Ideal side: the rows are the slice I_d under phi, and the pivots in
    revlex-descending column order are the gin monomials.  Face side:
    the rows are the d-faces under phi^{-T}, a row space orthogonal to
    the ideal side's and of complementary dimension; its pivots in the
    reversed column order are exactly the columns that carry no
    ideal-side pivot, for every draw.  Only the open d-sets are built as
    columns; each d-set left out must carry no pivot for any draw, so the
    pivots among the others are unchanged.  One ``phi_image_matrix`` call
    builds every draw's rows, and each draw eliminates its own block.

    When 2d > n the matrix is built from the complementary rows and
    columns (``flip`` is [n], else 0) in degree n - d under the other
    matrix of the draw (phi^{-T} on the ideal side, phi on the face
    side), and its pivots are mapped back to their complements: by
    Jacobi's theorem it differs from the degree-d matrix only by nonzero
    row scalars and column signs, which leave every pivot in place.
    Complementing reverses the ascending column order, so the columns
    are reversed exactly when phi^{-T} builds the matrix.  The rank
    check guards every route.
    """
    n, p = phis[0].n, phis[0].p
    layer = _layer_bits(n, d)
    rows = _mask_list(layer ^ slice_d if on_faces else slice_d)
    flip = (1 << n) - 1 if 2 * d > n else 0
    dual = on_faces != bool(flip)
    built = sorted(flip ^ c for c in _mask_list(open_d))
    g = np.stack([phi.dual if dual else phi.entries for phi in phis])
    M, built = phi_image_matrix([flip ^ m for m in rows], min(d, n - d), g, p, built)
    if dual:
        M, built = M[:, ::-1], built[::-1]
    out = []
    for block in np.split(M, len(phis)):
        pivots = gfp.pivot_columns(block, p)
        if len(pivots) != len(rows):
            raise InvariantError("rows of an invertible compound matrix must be independent")
        lead = _bits_of(n, (flip ^ built[c] for c in pivots))
        out.append(layer ^ lead if on_faces else lead)
    return out


def _gin_draw(slices: dict[int, int], *phis: GenericMatrix) -> tuple[dict[int, int], ...]:
    """The non-faces of the generic initial complex for each draw, by
    degree; the slices and the results are bit views.

    An empty or full slice is fixed by every change of coordinates.
    Every other degree eliminates on whichever side has fewer rows: the
    f_{d-1} faces or the |I_d| ideal monomials (the ideal side on a
    tie).  The ideal-side degrees run first, descending, then the
    face-side degrees, ascending, so that each matrix can leave out
    the columns that every draw's neighbouring degree already rules out
    (see the module docstring); an ideal-side degree whose degree d + 1
    is not yet known keeps the whole layer.  The draws run in lockstep,
    one ``_eliminate`` call per degree for all of them.
    """
    n = phis[0].n
    outs = tuple({} for _ in phis)
    ideal_side, face_side = [], []
    for d, slice_d in slices.items():
        size = slice_d.bit_count()
        faces_d = comb(n, d) - size
        if not size or not faces_d:
            for out in outs:
                out[d] = slice_d
        else:
            (face_side if faces_d < size else ideal_side).append(d)
    for d, on_faces in [(d, False) for d in reversed(ideal_side)] + [(d, True) for d in face_side]:
        ruled_out = 0  # the d-sets that no draw leaves open
        if on_faces:
            # a d-set over a (d-1)-non-face of a draw is a non-face of it
            ruled_out = reduce(and_, (_upper_shadow(n, out[d - 1]) for out in outs))
        elif d + 1 in outs[0]:
            # a d-set inside a (d+1)-face of a draw is a face of it
            ruled_out = reduce(and_, (_shadow(n, _slice_bits(n, out[d + 1], d + 1)) for out in outs))
        for out, nonfaces in zip(outs, _eliminate(slices[d], d, phis, on_faces, _slice_bits(n, ruled_out, d))):
            out[d] = nonfaces
    return outs


# attempts gin makes, each a pair of draws, before it gives up
_ATTEMPTS = 3


def gin(cx: SimplicialComplex, p: int = 32003, seed: int = 1) -> SimplicialComplex:
    """The exterior algebraic shifted complex Delta^e, when the draws are generic.

    Each attempt, with fresh seeds, extracts the pivots for two
    independent coordinate draws over GF(p), and passes when they agree
    on a shifted complex with the input's reduced homology over GF(p),
    which exterior shifting keeps (Bjoerner and Kalai, Acta Math. 161,
    1988).  Any other outcome fails the attempt; after three, it raises
    GenericityError.  A changed f-vector is a library bug: InvariantError.
    These checks, not a bound, guard the result: see the module docstring.
    """
    slices = {d: _slice_bits(cx.n, cx.bits, d) for d in range(cx.n + 1)}
    homology = reduced_homology_dims(cx, p)
    failures = []
    for attempt in range(_ATTEMPTS):
        s1 = seed + 1_000_003 * attempt
        nf1, nf2 = _gin_draw(slices, random_gl(cx.n, p, s1), random_gl(cx.n, p, s1 + 7919))
        failure = next((d for d in slices if nf1[d] != nf2[d]), None)
        if failure is None:
            # slices of different degrees share no bit: their sum is their union
            result = from_nonfaces(cx.n, sum(nf1.values()))
            if f_vector(result) != f_vector(cx):
                raise InvariantError("the rank check fixes each |I_d|, yet the f-vector changed")
            if not is_shifted(result):
                failure = "not shifted"
            elif reduced_homology_dims(result, p) != homology:
                failure = "H~"
            else:
                return result
        failures.append(failure)
    raise GenericityError(
        f"no generic pair of draws over GF({p}) across {_ATTEMPTS} attempts; first differing degree, or 'not shifted' "
        f"or 'H~' where agreeing draws gave a non-shifted complex or other reduced homology, per attempt: {failures}"
    )
