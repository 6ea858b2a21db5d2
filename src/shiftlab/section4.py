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
    InvariantError,
    SimplicialComplex,
    _bits_of,
    _layer_bits,
    _slice_bits,
    _upper_shadow,
    from_nonfaces,
    m_leq_table,
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
def terminal_segment(d: int) -> int:
    """Bits of T_d: degree-d monomials strictly lex-greater than the
    threshold, the prefix of the lex-descending ``all_faces`` before it."""
    threshold = mask_of(_H_PREFIX[d] + (12, 13))
    return _bits_of(N, takewhile(lambda m: m != threshold, all_faces(N, d)))


def block_monomials(d: int, block) -> int:
    """Bits of T_d(H): the prefix monomial wedged with each pair of the block."""
    prefix = mask_of(_H_PREFIX[d])
    return _bits_of(N, (prefix | mask_of(pair) for pair in block))


def _complex_from_blocks(blocks: dict[int, tuple], all_above: int) -> SimplicialComplex:
    """Complex whose ideal is generated by the given per-degree blocks
    plus every monomial of degree ``all_above``.

    Asserts that each degree-d slice of the generated ideal is exactly
    T_d union T_d(block_d) (the construction's spanning property)."""
    nonfaces = prev = 0
    for d in sorted(blocks):
        # the previous slice times every variable, on the 2^N-bit view
        lifted = _upper_shadow(N, prev)
        prev = terminal_segment(d) | block_monomials(d, blocks[d])
        if lifted ^ (lifted & prev):
            raise InvariantError(f"degree-{d} slice is not spanned by its blocks")
        nonfaces |= prev
    for d in range(all_above, N + 1):
        nonfaces |= _layer_bits(N, d)
    return from_nonfaces(N, nonfaces)


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
        extra = _slice_bits(cx.n, cx.bits | terminal_segment(d), d)  # the slice less T_d
        if extra == block_monomials(d, BLOCK_A):
            labels.append("A")
        elif extra == block_monomials(d, BLOCK_B):
            labels.append("B")
        else:
            raise InvariantError(f"degree-{d} slice is not of terminal-block form")
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
        raise InvariantError("restricted pair set misses shifted states on the truncated variant")

    shifted = enumerate_shifted(section4_build(), candidate_pairs=_tail_pairs())
    out: dict[QSequence, SimplicialComplex] = {}
    for s in shifted:
        q = classify_complex(s)
        out[q] = s
    if len(out) != len(shifted):
        raise InvariantError("two shifted states share a Q-label")
    return out


def _witness_reproduced(classified: dict[QSequence, SimplicialComplex]) -> bool:
    """The proof's witness: a label of leading B's with its first A in
    degree j loses the m_<=14 count in degree j against a label with B
    in degrees j-1 and j, and every other m_<= count of degrees j-1 and
    j is equal."""
    qs = sorted(classified)
    for q in qs:
        k = next((k for k, lab in enumerate(q) if lab == "A"), 0)  # label k is degree k + 3
        if not k:
            continue
        partner = next((r for r in qs if r[k - 1 : k + 1] == ("B", "B")), None)
        if partner is None:
            continue
        sharp, flat = m_leq_table(classified[q]), m_leq_table(classified[partner])  # [d][i]
        if flat[k + 3][14] < sharp[k + 3][14] and all(
            flat[d][i] == sharp[d][i] for d in (k + 2, k + 3) for i in range(1, N + 1) if (d, i) != (k + 3, 14)
        ):
            return True
    return False


def section4_negative_results(
    classified: dict[QSequence, SimplicialComplex],
    p: int = 32003,
    seed: int = 1,
    include_gin: bool = True,
) -> VerificationReport:
    """No maximal or minimal Betti table among the shifted results, the
    m_<=14 witness, and (optionally, slow) the generic initial complex
    is not among them.  ``classified`` is the result of
    ``section4_enumerate_and_classify``."""
    t0 = perf_counter()
    report = VerificationReport()
    tables = {q: shifted_betti(cx) for q, cx in classified.items()}
    for q in sorted(tables):
        report.trials += 1
        if all(betti_leq(t, tables[q]) for t in tables.values()):
            report.fail("maximal table", "".join(q))
        if all(betti_leq(tables[q], t) for t in tables.values()):
            report.fail("minimal table", "".join(q))

    report.trials += 1
    if not _witness_reproduced(classified):
        report.fail("m_<=14 witness", "not reproduced")

    if include_gin:
        report.trials += 1
        gin_cx = gin(section4_build(), p=p, seed=seed)
        for q, cx in sorted(classified.items()):
            if cx == gin_cx:
                report.fail("gin not a combinatorial shift", "".join(q), seed=seed)
    report.elapsed_ms = (perf_counter() - t0) * 1000.0
    return report
