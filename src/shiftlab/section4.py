"""The 15-vertex complex whose combinatorial shifts behave badly.

The exterior face ideal is assembled from hard-coded blocks: for each
degree d in 3..8 a lex-terminal segment above a threshold monomial plus
a three-element block supported on {12, 13, 14, 15}, together with all
monomials of degree 9.  Every reachable shifted complex carries, in
each degree, one of two terminal blocks (called A and B); the
classification of realizable (Q_3, ..., Q_8) labels has exactly 16
members, none of them all-A or all-B, and no Betti table among the 16
dominates or is dominated by all others.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import takewhile
from time import perf_counter

from .complexes import (
    STRICT,
    SimplicialComplex,
    from_faces,
    ideal_degree_slice,
    m_leq_counts,
)
from .exterior import gin
from .faces import all_faces, mask_of
from .homology import betti_leq, shifted_betti
from .shifting import enumerate_shifted
from .verify import VerificationReport

N = 15
DEGREES = range(3, 9)

# supports of the degree-(d-2) prefix monomials h_1 .. h_6
_H_PREFIX = {
    3: (1,),
    4: (2, 3),
    5: (3, 4, 5),
    6: (4, 5, 6, 7),
    7: (5, 6, 7, 8, 9),
    8: (6, 7, 8, 9, 10, 11),
}

_H_BLOCK = {
    3: ((12, 13), (12, 15), (13, 14)),
    4: ((12, 13), (12, 14), (14, 15)),
    5: ((12, 13), (12, 15), (14, 15)),
    6: ((12, 13), (13, 14), (14, 15)),
    7: ((12, 13), (13, 15), (14, 15)),
    8: ((12, 14), (13, 15), (14, 15)),
}

BLOCK_A = ((12, 13), (12, 14), (13, 14))
BLOCK_B = ((12, 13), (12, 14), (12, 15))

QSequence = tuple[str, ...]

# realizable Q-sequences: exactly one B, exactly one A, plus four sporadic ones
EXPECTED_QSEQUENCES: frozenset[QSequence] = frozenset(
    [tuple("B" if k == pos else "A" for k in range(6)) for pos in range(6)]
    + [tuple("A" if k == pos else "B" for k in range(6)) for pos in range(6)]
    + [
        ("A", "A", "A", "B", "B", "B"),
        ("B", "A", "B", "A", "B", "A"),
        ("B", "B", "A", "B", "A", "A"),
        ("A", "B", "B", "A", "A", "B"),
    ]
)


@lru_cache(maxsize=None)
def terminal_segment(d: int) -> frozenset[int]:
    """T_d: degree-d monomials strictly lex-greater than the threshold,
    the prefix of the lex-descending ``all_faces`` before it."""
    threshold = mask_of(_H_PREFIX[d] + (12, 13))
    return frozenset(takewhile(lambda m: m != threshold, all_faces(N, d)))


def block_monomials(d: int, block) -> frozenset[int]:
    """T_d(H): the prefix monomial wedged with each pair of the block."""
    prefix = mask_of(_H_PREFIX[d])
    return frozenset(prefix | mask_of(pair) for pair in block)


def _complex_from_blocks(blocks: dict[int, tuple], all_above: int) -> SimplicialComplex:
    """Complex whose ideal is generated by the given per-degree blocks
    plus every monomial of degree ``all_above``.

    Asserts that each degree-d slice of the generated ideal is exactly
    T_d union T_d(block_d) (the construction's spanning property)."""
    gens = {d: terminal_segment(d) | block_monomials(d, blocks[d]) for d in blocks}
    degrees = sorted(blocks)
    slices: dict[int, frozenset[int]] = {}
    prev: frozenset[int] = frozenset()
    for d in degrees:
        lifted = {m | (1 << v) for m in prev for v in range(N) if not m >> v & 1}
        slices[d] = frozenset(lifted) | gens[d]
        if slices[d] != gens[d]:
            raise AssertionError(f"degree-{d} slice is not spanned by its blocks")
        prev = slices[d]
    nonfaces = set().union(*slices.values())
    for d in range(all_above, N + 1):
        nonfaces.update(all_faces(N, d))
    faces = [m for d in range(N + 1) for m in all_faces(N, d) if m not in nonfaces]
    return from_faces(N, faces, STRICT)


def section4_build() -> SimplicialComplex:
    """The 15-vertex complex of the construction."""
    return _complex_from_blocks({d: _H_BLOCK[d] for d in DEGREES}, all_above=9)


def _truncated_build() -> SimplicialComplex:
    """Degrees 3..4 only; used to validate the restricted-pair search."""
    return _complex_from_blocks({d: _H_BLOCK[d] for d in (3, 4)}, all_above=5)


def _tail_pairs() -> list[tuple[int, int]]:
    return [(i, j) for i in range(12, 16) for j in range(i + 1, 16)]


def classify_complex(cx: SimplicialComplex, degrees=DEGREES) -> QSequence:
    """Read off which terminal block each degree slice carries."""
    labels = []
    for d in degrees:
        extra = ideal_degree_slice(cx, d) - terminal_segment(d)
        if extra == block_monomials(d, BLOCK_A):
            labels.append("A")
        elif extra == block_monomials(d, BLOCK_B):
            labels.append("B")
        else:
            raise AssertionError(f"degree-{d} slice is not of terminal-block form")
    return tuple(labels)


def section4_enumerate_and_classify() -> dict[QSequence, SimplicialComplex]:
    """All shifted complexes reachable from the construction, by Q-label.

    Only exchange pairs inside {12..15} act nontrivially; this is
    validated by running the unrestricted search on a truncated variant
    and checking it agrees with the restricted one, after which the
    full complex is searched with the restricted pair set.
    """
    trunc = _truncated_build()
    if enumerate_shifted(trunc) != enumerate_shifted(trunc, candidate_pairs=_tail_pairs()):
        raise AssertionError("restricted pair set misses shifted states on the truncated variant")

    shifted = enumerate_shifted(section4_build(), candidate_pairs=_tail_pairs())
    out: dict[QSequence, SimplicialComplex] = {}
    for s in shifted:
        q = classify_complex(s)
        out[q] = s
    if len(out) != len(shifted):
        raise AssertionError("two shifted states share a Q-label")
    return out


def section4_negative_results(
    p: int = 32003,
    seed: int = 1,
    include_gin: bool = True,
    classified: dict[QSequence, SimplicialComplex] | None = None,
) -> VerificationReport:
    """No maximal or minimal Betti table among the shifted results, and
    (optionally, slow) the generic initial complex is not among them."""
    t0 = perf_counter()
    report = VerificationReport(trials=0)
    if classified is None:
        classified = section4_enumerate_and_classify()
    tables = {q: shifted_betti(cx) for q, cx in classified.items()}
    qs = sorted(tables)

    for q in qs:
        report.trials += 1
        if all(betti_leq(tables[r], tables[q]) for r in qs):
            report.add_failure(seed=seed, pairs=[], cell=None, lhs=str(q), rhs="dominates all")
        if all(betti_leq(tables[q], tables[r]) for r in qs):
            report.add_failure(seed=seed, pairs=[], cell=None, lhs=str(q), rhs="dominated by all")

    # the proof's witness: a candidate maximal table with leading B's and
    # first A in degree j loses the m_<=14 count in degree j against the
    # table with B in degrees j-1 and j
    witness_seen = False
    for q in qs:
        first_a = next((k for k, lab in enumerate(q) if lab == "A"), None)
        if first_a is None or first_a == 0 or any(lab != "B" for lab in q[:first_a]):
            continue
        j = first_a + 3
        partner = next(
            (r for r in qs if r[first_a - 1] == "B" and r[first_a] == "B"), None
        )
        if partner is None:
            continue
        # m_<= counts in degrees j-1 and j: all equal except m_<=14 in degree j
        sharp = [m_leq_counts(ideal_degree_slice(classified[q], d)) for d in (j - 1, j)]
        flat = [m_leq_counts(ideal_degree_slice(classified[partner], d)) for d in (j - 1, j)]
        ok = flat[1][14] < sharp[1][14] and all(
            flat[k][i] == sharp[k][i]
            for k in (0, 1)
            for i in range(1, N + 1)
            if (k, i) != (1, 14)
        )
        if ok:
            witness_seen = True
            break
    report.trials += 1
    if not witness_seen:
        report.add_failure(seed=seed, pairs=[], cell=None, lhs="m_<=14 witness", rhs="not reproduced")

    if include_gin:
        report.trials += 1
        shifted_faces = {cx.faces for cx in classified.values()}
        gin_cx = gin(section4_build(), p=p, seed=seed)
        if gin_cx.faces in shifted_faces:
            report.add_failure(
                seed=seed, pairs=[], cell=None,
                lhs="gin", rhs="coincides with a combinatorially shifted complex",
            )
    report.elapsed_ms = (perf_counter() - t0) * 1000.0
    return report
