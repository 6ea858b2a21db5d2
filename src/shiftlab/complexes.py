"""Simplicial complexes on [n], 1 <= n <= MAX_WALK_N, stored as one
2^n-bit integer.

A complex is ``SimplicialComplex(n, bits)``: bit f of ``bits`` is set
iff the mask f is a face, so at n = 20 the whole face family takes
128 KB.  The constructor refuses a family that is not downward closed
or misses a vertex: every singleton {j}, j in [n], is a face, as in the
paper.  Complexes are immutable and compare and hash by (n, bits);
every operation returns a new value, so instances are safe to share
across threads.  ``faces`` (a frozenset of masks) and the facets are
views derived from ``bits`` when first read.

Closure, shiftedness, the exchange operators of ``shifting``, the
facets, the minimal non-faces and the degree slices of I_Delta run on
the bit view as a few big-integer operations against cached indicator
integers: H_v (the masks containing v) and L_d (the masks with d
members).  A set of monomials of one degree is a subset of the bits of
L_d; only ``faces``, ``ideal_degree_slice`` and ``ideal_slices`` unpack
frozensets of masks.  The ground-set bound is checked once, when a
complex is built, before anything of size 2^n is allocated.

``restriction``, ``ideal_degree_slice``, ``ideal_slices`` and ``m_leq``
have no caller in the library and are not exported from ``shiftlab``:
they are second paths for the tests, and ``perfbench/layers.py`` wraps
them by name.  The m_<= counts come from ``m_leq_table``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Mapping

import numpy as np

from .faces import MAX_WALK_N, mask_of, members_of

class ShiftlabError(RuntimeError):
    """A computation gave up: a user-set limit was passed (``enumerate_shifted``'s
    state limit), or, as ``GenericityError``, every attempt of ``gin`` failed."""


class InvariantError(AssertionError):
    """An internal invariant failed: a library bug, not bad input.

    Raised explicitly, so the checks also run under ``python -O``; not a
    :class:`ShiftlabError`, so the CLI does not turn it into a refusal.
    """


@dataclass(frozen=True)
class SimplicialComplex:
    n: int
    bits: int

    def __post_init__(self):
        """Refuse a bit view that is no complex on [n]: downward closed
        iff the shadow adds no bit, and every singleton (each bit of L_1)
        set, which puts the empty face in too."""
        n, bits = self.n, self.bits
        check_ground_set(n)
        if not isinstance(bits, int):
            raise TypeError(f"bits must be an int, not {type(bits).__name__}")
        if bits < 0 or bits.bit_length() > 1 << n:
            raise ValueError(f"bits must lie in [0, 2^(2^{n})): a face mask is below 2^{n}")
        below = _shadow(n, bits)
        if below ^ (below & bits):
            raise ValueError("face family is not downward-closed")
        singletons = _layer_bits(n, 1)
        if missing := singletons ^ (singletons & bits):
            vertices = [m.bit_length() for m in _mask_list(missing)]
            raise ValueError(f"every vertex of [{n}] must be a face; missing {vertices}")

    def __repr__(self) -> str:
        # hex, since a decimal bits has more than Python's 4300-digit limit for n >= 14
        return f"SimplicialComplex(n={self.n}, bits={self.bits:#x})"

    # -- structure ---------------------------------------------------------

    @cached_property
    def faces(self) -> frozenset[int]:
        """The face masks, unpacked from ``bits``."""
        return frozenset(_mask_list(self.bits))

    @property
    def dim(self) -> int:
        """Dimension: max face cardinality minus one."""
        return len(f_vector(self)) - 1

    @cached_property
    def _facets(self) -> tuple[int, ...]:
        # a face is a facet iff it is not one vertex short of another face
        return _by_degree(_mask_list(self.bits ^ (self.bits & _shadow(self.n, self.bits))))

    def facets(self) -> tuple[int, ...]:
        """Inclusion-maximal faces, sorted by (degree, members)."""
        return self._facets


def _pack(present: np.ndarray) -> int:
    """The integer whose bit f is set iff present[f] is nonzero."""
    return int.from_bytes(np.packbits(present, bitorder="little").tobytes(), "little")


def _bits_of(n: int, masks: Iterable[int]) -> int:
    """The 2^n-bit integer whose bit f is set iff f is one of ``masks``,
    each of which must lie in [0, 2^n)."""
    present = np.zeros(1 << n, dtype=bool)
    present[np.fromiter(masks, dtype=np.intp)] = True
    return _pack(present)


def _mask_list(bits: int) -> list[int]:
    """The masks f whose bit f is set in ``bits``, ascending."""
    raw = np.frombuffer(bits.to_bytes((bits.bit_length() + 7) >> 3, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little").view(bool)).tolist()


def _by_degree(masks: Iterable[int]) -> tuple[int, ...]:
    """The masks sorted by (degree, members)."""
    return tuple(sorted(masks, key=lambda m: (m.bit_count(), members_of(m))))


# The indicator integers are cached, one tuple per n and one integer per
# (n, d): 2n + 1 integers for one n, each of 2^n <= 2^20 bits (128 KB).
# The bit operations below keep every operand non-negative (x & ~y is
# written x ^ (x & y)): CPython handles a negative operand of & through
# two's-complement copies, which nearly doubles the cost of the operation
# on 2^20-bit operands.


@lru_cache(maxsize=None)
def _vertex_bits(n: int) -> tuple[int, ...]:
    """(0, H_1, ..., H_n): bit f of H_v is set iff the mask f < 2^n
    contains vertex v.

    The bits of H_v repeat with period 2^v, 2^(v-1) clear then 2^(v-1)
    set; one period is copied onto itself until it fills 2^n bits, in
    time linear in 2^n."""
    out = [0]
    for v in range(1, n + 1):
        period = 1 << v
        h = ((1 << (period >> 1)) - 1) << (period >> 1)
        while period < 1 << n:
            h |= h << period
            period <<= 1
        out.append(h)
    return tuple(out)


@lru_cache(maxsize=None)
def _layer_bits(n: int, d: int) -> int:
    """L_d: bit f is set iff the mask f < 2^n has d members."""
    return _pack(np.bitwise_count(np.arange(1 << n, dtype=np.uint32)) == d)


def _moved(n: int, bits: int, i: int, j: int) -> int:
    """What C_ij adds to a bit view: bit f + 2^(j-1) - 2^(i-1) for every
    face f that holds i and not j and whose exchanged image is not a
    face."""
    h = _vertex_bits(n)
    held = bits & h[i]
    raised = (held ^ (held & h[j])) << ((1 << (j - 1)) - (1 << (i - 1)))
    return raised ^ (raised & bits)


def _shadow(n: int, bits: int) -> int:
    """Bit f ^ 2^(v-1) for every set bit f and every vertex v in f: the
    masks one vertex short of a set one."""
    h = _vertex_bits(n)
    out = 0
    for v in range(1, n + 1):
        out |= (bits & h[v]) >> (1 << (v - 1))
    return out


def _upper_shadow(n: int, bits: int) -> int:
    """Bit f | 2^(v-1) for every set bit f < 2^n and every vertex v not
    in f: the masks one vertex past a set one."""
    h = _vertex_bits(n)
    out = 0
    for v in range(1, n + 1):
        out |= (bits ^ (bits & h[v])) << (1 << (v - 1))
    return out


def _shifted_bits(n: int, bits: int) -> bool:
    """``is_shifted`` on a bit view: no cover move i -> i+1 leaves it."""
    return not any(_moved(n, bits, i, i + 1) for i in range(1, n))


def check_ground_set(n: int) -> None:
    """Refuse a ground set [n] outside 1..MAX_WALK_N."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_WALK_N:
        raise ValueError(f"n must be at most {MAX_WALK_N}")


def _check_within(n: int, masks: Iterable[int], what: str = "face") -> None:
    full = (1 << n) - 1
    for f in masks:
        if f < 0:
            raise ValueError(f"{what} mask {f} not contained in [{n}]")
        if f & ~full:
            raise ValueError(f"{what} {members_of(f)} not contained in [{n}]")


def from_faces(n: int, faces: Iterable[int]) -> SimplicialComplex:
    """Build a complex from an already downward-closed face family.

    The family is checked for downward closure; use :func:`from_facets`
    to close an arbitrary generating family.
    """
    check_ground_set(n)
    masks = list(faces)
    _check_within(n, masks)
    return SimplicialComplex(n, _bits_of(n, masks) | 1)


def from_facets(n: int, facets: Iterable) -> SimplicialComplex:
    """Downward closure of the given facets (plus the empty face).

    Facets may be bitmasks or iterables of vertices.  The closure runs on
    the bit view: the shadow is added until it adds nothing.
    """
    check_ground_set(n)
    masks = [f if isinstance(f, int) else mask_of(f) for f in facets]
    _check_within(n, masks)
    bits = _bits_of(n, masks) | 1
    while (below := _shadow(n, bits)) ^ (below & bits):
        bits |= below
    return SimplicialComplex(n, bits)


def from_nonfaces(n: int, nonfaces: int) -> SimplicialComplex:
    """The complex on [n] whose faces are the masks f below 2^n with bit
    f clear in the bit view ``nonfaces``, and the empty face; the result
    is checked like :func:`from_faces`.  Bit 0 and the bits from 2^n on
    are ignored."""
    check_ground_set(n)
    full = (1 << (1 << n)) - 1
    return SimplicialComplex(n, (full ^ (full & nonfaces)) | 1)


def full_simplex(n: int) -> SimplicialComplex:
    return from_facets(n, [(1 << n) - 1])


# -- basic invariants -------------------------------------------------------


def f_vector(cx: SimplicialComplex) -> tuple[int, ...]:
    """(f_0, f_1, ...): f_i counts faces of cardinality i+1, up to the
    largest face; f_(d-1) is the popcount of bits & L_d."""
    counts = [(cx.bits & _layer_bits(cx.n, d)).bit_count() for d in range(1, cx.n + 1)]
    while counts and not counts[-1]:
        counts.pop()
    return tuple(counts)


def restriction(cx: SimplicialComplex, w) -> SimplicialComplex:
    """Induced subcomplex Delta_W, with the vertices of W renumbered
    1..|W| in order: the faces of cx inside W.

    Every vertex of W is a face of cx, so the result is a complex on
    [|W|].  W must be a nonempty subset of [n].  On the bit view: the
    2^n bits as an n-axis array (axis 0 is vertex n), read at 0 on the
    axis of each vertex outside W.
    """
    wmask = w if isinstance(w, int) else mask_of(w)
    _check_within(cx.n, (wmask,), "vertex set")
    if not wmask:
        raise ValueError("vertex set must be nonempty")
    n = cx.n
    raw = np.frombuffer(cx.bits.to_bytes(((1 << n) + 7) >> 3, "little"), dtype=np.uint8)
    present = np.unpackbits(raw, bitorder="little")[: 1 << n].reshape((2,) * n)
    kept = present[tuple(slice(None) if wmask >> (v - 1) & 1 else 0 for v in range(n, 0, -1))]
    return SimplicialComplex(wmask.bit_count(), _pack(kept.ravel()))


def is_shifted(cx: SimplicialComplex) -> bool:
    """Whether every face stays a face when any element is raised.

    For each face sigma, each i in sigma and each j > i outside sigma,
    (sigma - i) + j must again be a face.  Only the cover moves
    i -> i+1 are tested: when they stay inside the complex, any raise
    i -> j is a chain of them through faces (walk the largest member
    of sigma below j up to j, then the next one up into the slot it
    left, and so on down to i).

    On the bit view the move adds 2^(i-1) to the mask of every face that
    holds i and not i+1.
    """
    return _shifted_bits(cx.n, cx.bits)


def minimal_nonfaces(cx: SimplicialComplex) -> list[int]:
    """Inclusion-minimal non-faces; the generators of I_Delta and J_Delta.

    A non-face is minimal iff it is not one vertex past another non-face.
    Listed by (degree, members)."""
    nonfaces = ((1 << (1 << cx.n)) - 1) ^ cx.bits
    return list(_by_degree(_mask_list(nonfaces ^ (nonfaces & _upper_shadow(cx.n, nonfaces)))))


def _slice_bits(n: int, bits: int, d: int) -> int:
    """The d-member masks whose bit is clear in ``bits``, as a bit view:
    L_d & ~bits.  On a complex's bits, the degree-d slice of I_Delta."""
    layer = _layer_bits(n, d)
    return layer ^ (layer & bits)


def ideal_degree_slice(cx: SimplicialComplex, d: int) -> frozenset[int]:
    """All d-subsets of [n] that are not faces: the degree-d part of I_Delta."""
    if not 0 <= d <= cx.n:
        raise ValueError("degree out of range")
    return frozenset(_mask_list(_slice_bits(cx.n, cx.bits, d)))


def ideal_slices(cx: SimplicialComplex) -> dict[int, frozenset[int]]:
    """Degree slices of I_Delta for every degree 0..n, keyed by degree."""
    return {d: ideal_degree_slice(cx, d) for d in range(cx.n + 1)}


def m_leq(slices: Mapping[int, frozenset[int]], i: int, d: int) -> int:
    """Count degree-d ideal monomials whose largest variable index is <= i."""
    return sum(m.bit_length() <= i for m in slices.get(d, ()))


def m_leq_table(cx: SimplicialComplex) -> list[list[int]]:
    """table[d][i] = m_<=i(I_Delta, d) for d = 0 .. n and i = 0 .. n.
    A mask has largest index <= i iff it is below 2^i, so the count is
    the popcount of the degree-d slice below bit 2^i."""
    n = cx.n
    table = []
    for d in range(n + 1):
        s = _slice_bits(n, cx.bits, d)
        table.append([(s & ((1 << (1 << i)) - 1)).bit_count() for i in range(n)] + [s.bit_count()])
    return table


# -- JSON interchange --------------------------------------------------------


def to_json_dict(cx: SimplicialComplex) -> dict:
    return {
        "n": cx.n,
        "facets": [list(members_of(f)) for f in cx.facets()],
        "mode": "strict",
    }


def to_json(cx: SimplicialComplex) -> str:
    return json.dumps(to_json_dict(cx))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def from_json_dict(doc: dict) -> SimplicialComplex:
    if not isinstance(doc, dict):
        raise ValueError("a complex document must be a JSON object")
    n = doc.get("n")
    if not _is_int(n):
        raise ValueError("'n' must be an integer")
    facets = doc.get("facets")
    if not (
        isinstance(facets, list)
        and all(isinstance(f, list) and all(map(_is_int, f)) for f in facets)
    ):
        raise ValueError("'facets' must be a list of lists of integers")
    if doc.get("mode", "strict") != "strict":
        raise ValueError("'mode' must be \"strict\" or left out: every vertex of a complex is a face")
    return from_facets(n, facets)


def from_json(text: str) -> SimplicialComplex:
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("JSON document nested too deeply") from None
    return from_json_dict(doc)
