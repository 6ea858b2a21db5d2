"""End-to-end acceptance gate.

Each test covers one numbered criterion, prints a single PASS/FAIL line,
and compares integers exactly (zero tolerance everywhere).
"""

import random
from functools import lru_cache
from math import comb

from shiftlab import (
    betti_leq,
    delta_lex,
    f_vector,
    gin,
    hochster_betti,
    is_shifted,
    mask_of,
    random_complex,
    reduced_homology_dims,
    section4_negative_results,
    shift_ij,
    shift_to_shifted,
    shifted_betti,
)
from shiftlab.complexes import ideal_slices, m_leq
from shiftlab.faces import all_faces
from shiftlab.homology import boundary_matrix

from support import all_strict_complexes, brute_revlex_greater, classified_section4, s_ij_zero, section4_gin

P = 32003
DENSITIES = (0.1, 0.25, 0.4, 0.55, 0.7, 0.85)


def _record(num, name, ok, detail=""):
    print(f"criterion {num}: {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed {detail}"


@lru_cache(maxsize=None)
def _corpus(count, max_n, base_seed):
    rng = random.Random(base_seed)
    out = []
    for t in range(count):
        n = rng.randint(2, max_n)
        out.append(random_complex(n, rng.choice(DENSITIES), base_seed * 1000 + t))
    return tuple(out)


@lru_cache(maxsize=None)
def _betti_of_corpus2():
    return tuple(hochster_betti(cx, 2) for cx in _corpus(200, 8, 2))


@lru_cache(maxsize=None)
def _combinatorial_shifts_of_corpus2():
    out = []
    for k, cx in enumerate(_corpus(200, 8, 2)):
        sweep, _ = shift_to_shifted(cx, "sweep")
        rnd, _ = shift_to_shifted(cx, "random", seed=k)
        out.append((sweep, rnd))
    return tuple(out)


@lru_cache(maxsize=None)
def _gins_of_corpus3():
    return tuple(gin(cx, p=P, seed=10 + k) for k, cx in enumerate(_corpus(100, 7, 3)))


@lru_cache(maxsize=None)
def _combinatorial_shifts_of_corpus3():
    return tuple(shift_to_shifted(cx, "sweep")[0] for cx in _corpus(100, 7, 3))


def test_criterion_1_closed_formula_matches_homology_sums():
    rng = random.Random(1)
    ok = True
    for t in range(200):
        n = rng.randint(2, 7)
        cx, _ = shift_to_shifted(random_complex(n, rng.choice(DENSITIES), 1000 + t))
        closed = shifted_betti(cx)
        ok = ok and closed == hochster_betti(cx, 2) == hochster_betti(cx, P)
    _record(1, "closed Betti formula vs homology sums on 200 shifted complexes", ok)


def test_criterion_2_betti_dominated_by_combinatorial_shift():
    betti = _betti_of_corpus2()
    ok = True
    for k, (sweep, rnd) in enumerate(_combinatorial_shifts_of_corpus2()):
        for sc in (sweep, rnd):
            ok = ok and betti_leq(betti[k], shifted_betti(sc))
    _record(2, "beta(D) <= beta(D^c), 200 complexes, both strategies", ok)


def test_criterion_3_exterior_shift_below_combinatorial():
    corpus = _corpus(100, 7, 3)
    gins = _gins_of_corpus3()
    combs = _combinatorial_shifts_of_corpus3()
    ok = True
    for cx, ge, sc in zip(corpus, gins, combs):
        ok = ok and betti_leq(shifted_betti(ge), shifted_betti(sc))
        ge_slices, sc_slices = ideal_slices(ge), ideal_slices(sc)
        for d in range(1, cx.n + 1):
            for i in range(1, cx.n + 1):
                ok = ok and m_leq(ge_slices, i, d) >= m_leq(sc_slices, i, d)
    _record(3, "beta(D^e) <= beta(D^c) and m_leq domination, 100 complexes", ok)


def test_criterion_4_betti_dominated_by_lexsegment():
    betti = _betti_of_corpus2()
    ok = True
    for k, cx in enumerate(_corpus(200, 8, 2)):
        ok = ok and betti_leq(betti[k], shifted_betti(delta_lex(f_vector(cx), cx.n)))
    _record(4, "beta(D) <= beta(D^lex) on the 200-complex corpus", ok)


def test_criterion_5_shifting_axioms():
    ok = True
    for k, cx in enumerate(_corpus(200, 8, 2)):
        for sc in _combinatorial_shifts_of_corpus2()[k]:
            ok = ok and is_shifted(sc)                       # S1
            again, seq = shift_to_shifted(sc, "sweep")
            ok = ok and seq == () and again.faces == sc.faces  # S2
            ok = ok and f_vector(sc) == f_vector(cx)           # S3
    for cx, ge, sc in zip(_corpus(100, 7, 3), _gins_of_corpus3(), _combinatorial_shifts_of_corpus3()):
        ok = ok and is_shifted(ge) and is_shifted(sc)
        ok = ok and f_vector(ge) == f_vector(cx) == f_vector(sc)
        ok = ok and gin(sc, p=P, seed=99).faces == sc.faces  # gin idempotence
    _record(5, "axioms S1-S3 on both corpora plus gin idempotence", ok)


def test_criterion_6_homology_invariance_under_exterior_shift():
    ok = True
    for cx, ge in zip(_corpus(100, 7, 3), _gins_of_corpus3()):
        a = reduced_homology_dims(cx, P)
        b = reduced_homology_dims(ge, P)
        width = max(len(a), len(b))
        pad = lambda t: t + (0,) * (width - len(t))
        ok = ok and pad(a) == pad(b)
    _record(6, "reduced homology dims equal for D and D^e over GF(32003)", ok)


def test_criterion_7_counterexample_classification():
    classified = classified_section4()
    from shiftlab.section4 import EXPECTED_QSEQUENCES

    ok = set(classified) == set(EXPECTED_QSEQUENCES)
    ok = ok and ("A",) * 6 not in classified and ("B",) * 6 not in classified
    _record(7, "15-vertex complex realizes exactly the 16 expected Q-sequences", ok)


def test_criterion_8_no_extremal_betti_table():
    report = section4_negative_results(include_gin=False, classified=classified_section4())
    _record(
        8,
        "no Betti table among the 16 dominates or is dominated by all; witness reproduced",
        report.passed,
        detail=str(report.failures),
    )


def test_criterion_9_gin_not_among_combinatorial_shifts():
    keys = {cx.faces for cx in classified_section4().values()}
    g = section4_gin()
    _record(9, "generic initial complex differs from every combinatorial shift", g.faces not in keys)


def test_criterion_10_property_suites():
    ok = True

    # boundary-of-boundary vanishes and the Euler characteristic identity
    rng = random.Random(10)
    for t in range(25):
        cx = random_complex(rng.randint(2, 7), rng.choice(DENSITIES), 500 + t)
        for k in range(1, cx.dim + 1):
            prod = boundary_matrix(cx, k - 1, P) @ boundary_matrix(cx, k, P)
            ok = ok and not (prod % P).any()
        dims = reduced_homology_dims(cx, 2)
        euler = sum((-1) ** k * d for k, d in enumerate(dims, start=-1))
        ok = ok and euler == -1 + sum((-1) ** i * fi for i, fi in enumerate(f_vector(cx)))

    # rev-lex threshold property, exhaustive for n <= 6: ascending masks
    # are revlex-descending, and the first C(i, d) of them, down to the
    # window {i-d+1..i}, are the monomials with largest index <= i
    for n in range(1, 7):
        for d in range(1, n + 1):
            layer = sorted(all_faces(n, d))
            ok = ok and all(brute_revlex_greater(a, b) for a, b in zip(layer, layer[1:]))
            for i in range(d, n + 1):
                ok = ok and layer[comb(i, d) - 1] == mask_of(range(i - d + 1, i + 1))
                ok = ok and all((tau.bit_length() <= i) == (k < comb(i, d)) for k, tau in enumerate(layer))

    # ideal-level exchange equals the face-level shift, exhaustive for n <= 5
    for n in (2, 3, 4, 5):
        for cx in all_strict_complexes(n):
            slices = ideal_slices(cx)
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    ok = ok and s_ij_zero(slices, i, j) == ideal_slices(shift_ij(cx, i, j))

    # rank-statistic monotonicity under a single shift: exhaustive n <= 4,
    # seeded sample at n = 5
    def monotone(cx, seed):
        base = ideal_slices(gin(cx, p=P, seed=seed))
        good = True
        for i_ in range(1, cx.n):
            for j_ in range(i_ + 1, cx.n + 1):
                after = ideal_slices(gin(shift_ij(cx, i_, j_), p=P, seed=seed + 1))
                for d in range(1, cx.n + 1):
                    for i in range(d, cx.n + 1):
                        good = good and m_leq(after, i, d) <= m_leq(base, i, d)
        return good

    for n in (2, 3, 4):
        for cx in all_strict_complexes(n):
            ok = ok and monotone(cx, 17)
    for t in range(30):
        ok = ok and monotone(random_complex(5, random.Random(t).choice(DENSITIES), 700 + t), 23 + t)

    _record(10, "boundary/Euler/rev-lex-threshold/exchange/monotonicity property suites", ok)
