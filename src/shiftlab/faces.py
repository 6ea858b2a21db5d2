"""Faces as bitmasks and the two monomial orders used throughout.

A face is a subset of [n] = {1, ..., n} stored as an integer bitmask:
vertex v occupies bit v-1.  The same mask doubles as the squarefree
monomial x_sigma (or e_sigma) supported on the face.  Ground sets are
capped at 64 vertices.

Both orders compare monomials of one degree with x_1 > ... > x_n.  Lex
is decided by the lowest bit of a ^ b, and ``all_faces`` lists a layer
lex-descending.  Revlex is decided by the highest bit of a ^ b, so
revlex-descending order is ascending integer order of the masks.
"""

from __future__ import annotations

import itertools
from math import comb

MAX_GROUND_SET = 64


def binom(a: int, b: int) -> int:
    """Binomial coefficient with C(a,b) = 0 outside 0 <= b <= a."""
    if b < 0 or b > a or a < 0:
        return 0
    return comb(a, b)


def mask_of(members) -> int:
    """Bitmask of an iterable of vertices in 1..64."""
    m = 0
    for v in members:
        if not 1 <= v <= MAX_GROUND_SET:
            raise ValueError(f"vertex {v} outside 1..{MAX_GROUND_SET}")
        m |= 1 << (v - 1)
    return m


def members_of(mask: int) -> tuple[int, ...]:
    """Sorted tuple of vertices of a face mask."""
    if mask < 0:
        raise ValueError(f"negative face mask {mask}")
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def degree(mask: int) -> int:
    """Cardinality of the face (popcount)."""
    return mask.bit_count()


def max_index(mask: int) -> int:
    """m(e_sigma): the largest vertex in the face.  0 for the empty face."""
    return mask.bit_length()


def subsets_of(mask: int):
    """All submasks of a face mask, including 0 and the mask itself."""
    if mask < 0:
        raise ValueError(f"negative face mask {mask}")
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def all_faces(n: int, d: int):
    """All d-subsets of [n] as masks, in ascending-tuple order.

    That is lex-descending monomial order: x_{1,2} comes before x_{1,3}.
    Each mask is the sum of d distinct powers of two, taken in the
    order itertools.combinations gives the vertices 1..n.
    """
    return map(sum, itertools.combinations([1 << v for v in range(n)], d))


def _check_same_degree(a: int, b: int) -> None:
    if degree(a) != degree(b):
        raise ValueError("monomial order comparisons require equal degrees")


def lex_compare(a: int, b: int) -> int:
    """Lex order: +1 if a > b, -1 if a < b, 0 if equal.

    a >_lex b iff the smallest element of the symmetric difference lies
    in a, i.e. iff a holds the lowest set bit of a ^ b.
    """
    _check_same_degree(a, b)
    diff = a ^ b
    if not diff:
        return 0
    return 1 if a & diff & -diff else -1


def revlex_compare(a: int, b: int) -> int:
    """Reverse lex order: +1 if a > b, -1 if a < b, 0 if equal.

    a >_rev b iff the largest element of the symmetric difference lies
    in b, i.e. iff b holds the highest set bit of a ^ b, which is
    a < b as integers.
    """
    _check_same_degree(a, b)
    return (a < b) - (a > b)
