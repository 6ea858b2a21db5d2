"""Shared test helpers: exhaustive complex enumeration and brute-force oracles."""

import functools
import itertools

from shiftlab import SimplicialComplex, from_faces, mask_of, members_of
from shiftlab.complexes import STRICT


def all_strict_complexes(n):
    """Every strict-mode simplicial complex on [n], by level-wise DFS.

    Feasible up to n = 5 (a few thousand complexes).
    """
    singletons = [1 << v for v in range(n)]

    def extend(faces, d):
        if d > n:
            yield from_faces(n, faces, STRICT)
            return
        candidates = [
            mask_of(c)
            for c in itertools.combinations(range(1, n + 1), d)
            if all(mask_of(c) & ~(1 << (v - 1)) in faces for v in c)
        ]
        for r in range(len(candidates) + 1):
            for pick in itertools.combinations(candidates, r):
                yield from extend(faces | set(pick), d + 1)

    yield from extend({0, *singletons}, 2)


def brute_lex_greater(a, b):
    """Independent lex comparator: sort exponent vectors, compare tuples."""
    ta, tb = members_of(a), members_of(b)
    return ta < tb


def brute_revlex_greater(a, b):
    """Independent revlex comparator via descending member tuples."""
    ta = tuple(sorted(members_of(a), reverse=True))
    tb = tuple(sorted(members_of(b), reverse=True))
    return ta < tb


@functools.lru_cache(maxsize=1)
def classified_section4():
    """Shared classification of the 15-vertex construction (a few seconds)."""
    from shiftlab import section4_enumerate_and_classify

    return section4_enumerate_and_classify()


def brute_is_shifted(cx: SimplicialComplex) -> bool:
    """Quantifier spelled out face by face, independent of the library path."""
    for f in cx.faces:
        mem = members_of(f)
        for i in mem:
            for j in range(i + 1, cx.n + 1):
                if j in mem:
                    continue
                repl = set(mem) - {i} | {j}
                if mask_of(repl) not in cx.faces:
                    return False
    return True


def brute_shift_ij(cx: SimplicialComplex, i: int, j: int) -> SimplicialComplex:
    """C_ij applied face by face: replace i by j unless the image is a face."""
    bi, bj = 1 << (i - 1), 1 << (j - 1)
    out = set()
    for f in cx.faces:
        if f & bi and not f & bj:
            moved = (f & ~bi) | bj
            out.add(moved if moved not in cx.faces else f)
        else:
            out.add(f)
    return SimplicialComplex(cx.n, frozenset(out), STRICT)
