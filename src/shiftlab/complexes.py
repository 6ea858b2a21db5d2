"""Simplicial complexes on [n], 1 <= n <= MAX_WALK_N, stored as one
2^n-bit integer.

A complex is ``SimplicialComplex(n, bits, mode)``: bit f of ``bits`` is
set iff the mask f is a face, so at n = 20 the whole face family takes
128 KB.  Complexes are immutable and compare and hash by (n, bits,
mode); every operation returns a new value, so instances are safe to
share across threads.  ``faces`` (a frozenset of masks), ``layers``
and the facets are views derived from ``bits`` when first read.

The constructors close and check a face family on the bit view, and
shiftedness, the exchange operators of ``shifting``, the facets, the
minimal non-faces, the induced subcomplexes and the degree slices of
I_Delta run on it as a few big-integer operations against cached
indicator integers: H_v (the masks containing v) and L_d (the masks
with d members).  The ground-set bound is checked once, when a complex
is built, before anything of size 2^n is allocated.

Strict mode is the usual convention that every singleton {j}, j in [n],
is a face.  Relaxed mode drops that requirement so that an induced
subcomplex keeps its original labels; :func:`restriction` is its only
producer.  It stays while ``restriction`` serves as the test oracle for
the star-relative Hochster sum and as a layer the benchmark traces by
name.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Iterable, Mapping

import numpy as np

from .faces import MAX_WALK_N, mask_of, members_of

STRICT = "strict"
RELAXED = "relaxed"


class ShiftlabError(RuntimeError):
    """A computation gave up: a search or step limit was passed, or
    independent random draws kept disagreeing."""


class InvariantError(AssertionError):
    """An internal invariant failed: a library bug, not bad input.

    Raised explicitly, so the checks also run under ``python -O``; not a
    :class:`ShiftlabError`, so the CLI does not turn it into a refusal.
    """


@dataclass(frozen=True)
class SimplicialComplex:
    n: int
    bits: int
    mode: str = STRICT

    def __post_init__(self):
        check_ground_set(self.n)
        if not isinstance(self.bits, int):
            raise TypeError(f"bits must be an int, not {type(self.bits).__name__}")
        if self.bits < 0 or self.bits.bit_length() > 1 << self.n:
            raise ValueError(f"bits must lie in [0, 2^(2^{self.n})): a face mask is below 2^{self.n}")
        if self.mode not in (STRICT, RELAXED):
            raise ValueError(f"unknown mode {self.mode!r}")

    # -- structure ---------------------------------------------------------

    @cached_property
    def faces(self) -> frozenset[int]:
        """The face masks, unpacked from ``bits``."""
        return frozenset(_mask_list(self.bits))

    @cached_property
    def layers(self) -> tuple[tuple[int, ...], ...]:
        """The faces by size: layers[k] holds the k-vertex faces in
        ascending mask order, for k = 0 .. dim+1."""
        return _layers(self.bits)

    @property
    def dim(self) -> int:
        """Dimension: max face cardinality minus one (-1 for the empty complex)."""
        return len(self.layers) - 2

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


def _layers(bits: int) -> tuple[tuple[int, ...], ...]:
    """The masks f whose bit f is set in ``bits``, by size: entry k holds
    the k-member masks, ascending, for k up to the largest size present."""
    masks = _mask_list(bits)
    by_size: list[list[int]] = [[] for _ in range(max(map(int.bit_count, masks), default=-1) + 1)]
    for f in masks:
        by_size[f.bit_count()].append(f)
    return tuple(map(tuple, by_size))


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


def _build(n: int, bits: int, mode: str) -> SimplicialComplex:
    """The complex on [n] whose bit view is ``bits``, checked: downward
    closed iff the shadow adds no bit, and in strict mode every
    singleton (each bit of L_1) set."""
    below = _shadow(n, bits)
    if below ^ (below & bits):
        raise ValueError("face family is not downward-closed")
    if mode == STRICT:
        singletons = _layer_bits(n, 1)
        missing = singletons ^ (singletons & bits)
        if missing:
            vertices = [m.bit_length() for m in _mask_list(missing)]
            raise ValueError(f"strict mode requires all singletons; missing {vertices}")
    return SimplicialComplex(n, bits, mode)


def from_faces(n: int, faces: Iterable[int], mode: str = STRICT) -> SimplicialComplex:
    """Build a complex from an already downward-closed face family.

    The family is checked for downward closure; use :func:`from_facets`
    to close an arbitrary generating family.
    """
    check_ground_set(n)
    masks = list(faces)
    _check_within(n, masks)
    return _build(n, _bits_of(n, masks) | 1, mode)


def from_facets(n: int, facets: Iterable, mode: str = STRICT) -> SimplicialComplex:
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
    return _build(n, bits, mode)


def from_nonfaces(n: int, nonfaces: Iterable[int]) -> SimplicialComplex:
    """The strict complex on [n] whose faces are all masks below 2^n
    not in ``nonfaces``, and the empty face; the result is checked like
    :func:`from_faces`.  Masks outside [1, 2^n) are ignored."""
    check_ground_set(n)
    bad = _bits_of(n, (m for m in nonfaces if 0 < m < 1 << n))
    return _build(n, ((1 << (1 << n)) - 1) ^ bad, STRICT)


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
    """Induced subcomplex on W: faces of cx contained in W, labels kept.

    The result is relaxed-mode since vertices of W need not be faces.
    W must lie inside [n].  On the bit view: clear H_v for each v not in W.
    """
    wmask = w if isinstance(w, int) else mask_of(w)
    _check_within(cx.n, (wmask,), "vertex set")
    bits, h = cx.bits, _vertex_bits(cx.n)
    for v in range(1, cx.n + 1):
        if not wmask >> (v - 1) & 1:
            bits ^= bits & h[v]
    return SimplicialComplex(cx.n, bits, RELAXED)


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
    if cx.mode != STRICT:
        raise ValueError("shiftedness is defined for strict-mode complexes")
    return _shifted_bits(cx.n, cx.bits)


def minimal_nonfaces(cx: SimplicialComplex) -> list[int]:
    """Inclusion-minimal non-faces; the generators of I_Delta and J_Delta.

    A non-face is minimal iff it is not one vertex past another non-face.
    Listed by (degree, members)."""
    nonfaces = ((1 << (1 << cx.n)) - 1) ^ cx.bits
    return list(_by_degree(_mask_list(nonfaces ^ (nonfaces & _upper_shadow(cx.n, nonfaces)))))


def ideal_degree_slice(cx: SimplicialComplex, d: int) -> frozenset[int]:
    """All d-subsets of [n] that are not faces: the degree-d part of I_Delta,
    read off the bit view as L_d & ~bits."""
    if not 0 <= d <= cx.n:
        raise ValueError("degree out of range")
    layer = _layer_bits(cx.n, d)
    return frozenset(_mask_list(layer ^ (layer & cx.bits)))


def ideal_slices(cx: SimplicialComplex) -> dict[int, frozenset[int]]:
    """Degree slices of I_Delta for every degree 0..n, keyed by degree."""
    return {d: ideal_degree_slice(cx, d) for d in range(cx.n + 1)}


def m_leq_counts(monomials: Iterable[int]) -> list[int]:
    """All m_<= counts of one degree slice in a single pass.

    c[i] is the number of monomials whose largest variable index
    (the mask's bit length) is <= i, for i = 0 .. MAX_WALK_N: a
    histogram of largest indices, then a prefix sum.
    """
    hist = Counter(map(int.bit_length, monomials))
    return list(accumulate(hist[k] for k in range(MAX_WALK_N + 1)))


def m_leq(slices: Mapping[int, frozenset[int]], i: int, d: int) -> int:
    """Count degree-d ideal monomials whose largest variable index is <= i."""
    if d not in slices or i < 0:
        return 0
    return m_leq_counts(slices[d])[min(i, MAX_WALK_N)]


def m_leq_table(cx: SimplicialComplex) -> list[list[int]]:
    """table[d][i] = m_<=i(I_Delta, d): the ``m_leq_counts`` of every
    degree slice, d = 0 .. n."""
    return [m_leq_counts(s) for s in ideal_slices(cx).values()]


# -- JSON interchange --------------------------------------------------------


def to_json_dict(cx: SimplicialComplex) -> dict:
    return {
        "n": cx.n,
        "facets": [list(members_of(f)) for f in cx.facets()],
        "mode": cx.mode,
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
    return from_facets(n, facets, doc.get("mode", STRICT))


def from_json(text: str) -> SimplicialComplex:
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("JSON document nested too deeply") from None
    return from_json_dict(doc)
