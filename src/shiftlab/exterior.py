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

The infinite base field is approximated by GF(p) with a uniform random
coordinate change; results are accepted only when two independent draws
agree, which bounds the failure probability by (degree of the relevant
minors)/p per draw.  ``gin`` makes at most three attempts, each a fresh
pair of draws.  A degree slice, of the input or of a draw's result, is
one integer: its bits on the 2^n-bit view (``complexes._slice_bits``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
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
from .faces import all_faces, members_of

_ROW_BLOCK = 256


class GenericityError(ShiftlabError):
    """Independent coordinate draws disagreed; p too small or draws unlucky."""


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
    """Uniform random invertible matrix over GF(p); resamples until invertible."""
    p = gfp.check_field(p)
    rng = np.random.default_rng(seed)
    while True:
        g = rng.integers(0, p, size=(n, n), dtype=np.int64)
        try:
            return GenericMatrix(n, p, seed, g)
        except gfp.SingularMatrixError:
            continue


@lru_cache(maxsize=None)
def revlex_column_order(n: int, d: int) -> tuple[int, ...]:
    """Degree-d face masks sorted revlex-descending, i.e. ascending."""
    return tuple(sorted(all_faces(n, d)))


@lru_cache(maxsize=None)
def _wedge_step(n: int, k: int):
    """Gather tables for one wedge step from degree k to k+1.

    For each (k+1)-subset c' (in column order) and each position q of an
    element e in c', the contribution is sign * cur[c' - e] * row[e],
    sign = (-1)^(k - q).  Returns one (old_idx, elem_idx) pair of tables
    per position, indexed by the target subsets, from the last position
    q = k to the first, so the i-th pair has sign (-1)^i.
    """
    small = {m: idx for idx, m in enumerate(revlex_column_order(n, k))}
    targets = [(mask, members_of(mask)) for mask in revlex_column_order(n, k + 1)]
    steps = []
    for q in range(k, -1, -1):
        elems = [c[q] for _, c in targets]
        old_idx = [small[mask ^ (1 << (e - 1))] for (mask, _), e in zip(targets, elems)]
        steps.append((np.asarray(old_idx, dtype=np.intp), np.asarray(elems, dtype=np.intp) - 1))
    return tuple(steps)


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
    (matrix, column masks).  Raises ValueError unless p passes
    ``gfp.check_field``, g is a square matrix of integers (read as
    residues mod p, as ``gfp`` reads a matrix), every row is a d-subset
    of [n] and ``cols``, if given, is an ascending list of distinct
    d-subsets of [n].

    The minors are built by d wedge steps, one row of g at a time.
    Step k adds its k+1 <= n signed terms, each the product of two
    residues and so below p**2 in absolute value, straight into the
    next degree's array.  For n <= 128 such a sum stays below 128 * p**2,
    inside the 2**53 that ``gfp.check_field`` keeps for 128 terms; a
    complex has n <= ``MAX_WALK_N`` (20).  The last step computes only
    the targets in ``cols``.
    """
    p = gfp.check_field(p)
    G = gfp._residues(g, p)
    n = G.shape[0]
    if G.shape != (n, n):
        raise ValueError(f"g of shape {G.shape} is not a square matrix")
    if not 1 <= d <= n:
        raise ValueError("degree out of range")
    _check_subsets(rows, d, n, "row")
    order = revlex_column_order(n, d)
    steps = [_wedge_step(n, k) for k in range(d)]
    if cols is None:
        col_masks = order
    else:
        col_masks = tuple(cols)
        _check_subsets(col_masks, d, n, "column")
        if any(a >= b for a, b in zip(col_masks, col_masks[1:])):
            raise ValueError("column masks must be ascending and distinct")
        at = np.searchsorted(np.asarray(order, dtype=np.int64), np.asarray(col_masks, dtype=np.int64))
        steps[-1] = tuple((old_idx[at], elem_idx[at]) for old_idx, elem_idx in steps[-1])
    if len(rows) == 0:
        return np.zeros((0, len(col_masks)), dtype=np.int64), col_masks

    sigmas = np.asarray([members_of(m) for m in rows], dtype=np.intp)
    rows_out = np.empty((len(rows), len(col_masks)), dtype=np.int64)

    for lo in range(0, len(rows), _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, len(rows))
        block = sigmas[lo:hi]
        cur = np.ones((hi - lo, 1), dtype=np.float64)
        for k in range(d):
            rows_k = G[block[:, k] - 1, :]  # (B, n)
            for i, (old_idx, elem_idx) in enumerate(steps[k]):
                term = cur[:, old_idx] * rows_k[:, elem_idx]
                if i == 0:
                    nxt = term
                elif i % 2:
                    nxt -= term
                else:
                    nxt += term
            cur = nxt % p
        rows_out[lo:hi] = cur

    return rows_out, col_masks


def _eliminate(slice_d: int, d: int, phi: GenericMatrix, on_faces: bool, cols: Sequence[int] | None = None) -> int:
    """Degree-d non-faces of the generic initial complex for one draw, by
    elimination on one side; the slice and the result are bit views.

    Ideal side: the rows are the slice I_d under phi, and the pivots in
    revlex-descending column order are the gin monomials.  Face side:
    the rows are the d-faces under phi^{-T}, a row space orthogonal to
    the ideal side's and of complementary dimension; its pivots in the
    reversed column order are exactly the columns that carry no
    ideal-side pivot, for every draw.  Only the ascending ``cols`` are
    built (all d-subsets by default); each column left out must carry
    no pivot, so the pivots among the others are unchanged.

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
    n = phi.n
    layer = _layer_bits(n, d)
    rows = _mask_list(layer ^ slice_d if on_faces else slice_d)
    flip = (1 << n) - 1 if 2 * d > n else 0
    dual = on_faces != bool(flip)
    built = None if cols is None else sorted(flip ^ c for c in cols)
    M, built = phi_image_matrix([flip ^ m for m in rows], min(d, n - d), phi.dual if dual else phi.entries, phi.p, built)
    if dual:
        M, built = M[:, ::-1], built[::-1]
    pivots = gfp.pivot_columns(M, phi.p)
    if len(pivots) != len(rows):
        raise InvariantError("rows of an invertible compound matrix must be independent")
    lead = _bits_of(n, (flip ^ built[c] for c in pivots))
    return layer ^ lead if on_faces else lead


def _gin_draw(slices: dict[int, int], phi: GenericMatrix) -> dict[int, int]:
    """The non-faces of the generic initial complex for one draw, by
    degree; the slices and the result are bit views.

    An empty or full slice is fixed by every change of coordinates.
    Every other degree eliminates on whichever side has fewer rows: the
    f_{d-1} faces or the |I_d| ideal monomials (the ideal side on a
    tie).  The ideal-side degrees run first, descending, then the
    face-side degrees, ascending, so that each matrix can leave out
    the columns that the draw's neighbouring degree already rules out
    (see the module docstring).
    """
    n = phi.n
    out: dict[int, int] = {}
    ideal_side, face_side = [], []
    for d, slice_d in slices.items():
        size = slice_d.bit_count()
        faces_d = comb(n, d) - size
        if not size or not faces_d:
            out[d] = slice_d
        else:
            (face_side if faces_d < size else ideal_side).append(d)
    for d in reversed(ideal_side):
        cols = None
        if d + 1 in out:
            # a d-set inside a (d+1)-face of the draw is a face of it
            cols = _mask_list(_slice_bits(n, _shadow(n, _slice_bits(n, out[d + 1], d + 1)), d))
        out[d] = _eliminate(slices[d], d, phi, False, cols)
    for d in face_side:
        # a d-set over a (d-1)-non-face of the draw is a non-face of it
        cols = _mask_list(_slice_bits(n, _upper_shadow(n, out[d - 1]), d))
        out[d] = _eliminate(slices[d], d, phi, True, cols)
    return out


# attempts gin makes, each a pair of draws, before it gives up
_ATTEMPTS = 3


def gin(cx: SimplicialComplex, p: int = 32003, seed: int = 1) -> SimplicialComplex:
    """The exterior algebraic shifted complex (generic initial complex).

    Runs the degreewise pivot extraction for two independent coordinate
    draws and requires agreement; on disagreement it tries again with
    fresh seeds, up to three attempts.  The result is asserted shifted
    with the f-vector of the input.
    """
    slices = {d: _slice_bits(cx.n, cx.bits, d) for d in range(cx.n + 1)}
    first_differing = []
    for attempt in range(_ATTEMPTS):
        s1 = seed + 1_000_003 * attempt
        phi1, phi2 = random_gl(cx.n, p, s1), random_gl(cx.n, p, s1 + 7919)
        nf1, nf2 = _gin_draw(slices, phi1), _gin_draw(slices, phi2)
        differing = [d for d in slices if nf1[d] != nf2[d]]
        if not differing:
            # slices of different degrees share no bit: their sum is their union
            result = from_nonfaces(cx.n, sum(nf1.values()))
            if not is_shifted(result):
                raise GenericityError("generic initial complex failed shiftedness check")
            if f_vector(result) != f_vector(cx):
                raise GenericityError("generic initial complex changed the f-vector")
            return result
        first_differing.append(differing[0])
    raise GenericityError(
        f"seed disagreement persisted across {_ATTEMPTS} attempts; "
        f"first differing degree per attempt: {first_differing}"
    )
