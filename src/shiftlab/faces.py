"""Faces as bitmasks and the two monomial orders used throughout.

A face is a subset of [n] = {1, ..., n} stored as an integer bitmask:
vertex v occupies bit v-1.  The same mask doubles as the squarefree
monomial x_sigma (or e_sigma) supported on the face.  Its size is
``mask.bit_count()`` and its largest vertex m(sigma) is
``mask.bit_length()``.  A mask holds vertices 1..64; a complex has
1 <= n <= 20 vertices (``complexes.MAX_WALK_N``), refused when built.

Both orders compare monomials of one degree with x_1 > ... > x_n, and
neither has a comparator: each is realised as an order of the masks.
Lex is decided by the lowest bit of a ^ b, and ``all_faces`` lists a
layer lex-descending.  Revlex is decided by the highest bit of a ^ b,
so revlex-descending order is ascending integer order of the masks,
and its first C(i, d) masks in degree d are those with largest vertex
at most i.
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


def all_faces(n: int, d: int):
    """All d-subsets of [n] as masks, in ascending-tuple order.

    That is lex-descending monomial order: x_{1,2} comes before x_{1,3}.
    Each mask is the sum of d distinct powers of two, taken in the
    order itertools.combinations gives the vertices 1..n.
    """
    return map(sum, itertools.combinations([1 << v for v in range(n)], d))
