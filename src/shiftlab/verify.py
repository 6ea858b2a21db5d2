"""Randomized theorem checking: seeded corpora and inequality sweeps.

Every check compares two independently computed quantities (Hochster's
homology sums vs. the closed formula on a shifted companion, the m_<=
counts of the exterior shift vs. those of a combinatorial shift)
entrywise with zero tolerance.  A check is a function from a complex
and its companions to a list of failure details, empty when it holds;
violations are collected in a report rather than raised.  Like every
complex, a trial's complex has at most ``MAX_WALK_N`` (20) vertices.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from time import perf_counter

from . import gfp
from .complexes import (
    SimplicialComplex,
    check_ground_set,
    f_vector,
    from_facets,
    is_shifted,
    m_leq_table,
)
from .exterior import gin
from .homology import BettiTable, betti_leq, hochster_betti, shifted_betti
from .lexsegment import delta_lex
from .shifting import replay, shift_ij, shift_to_shifted


@dataclass
class VerificationReport:
    """Trials run and failures found.  Each failure is a JSON-ready
    record ``{"check": name, "detail": ...}``, plus ``seed``,
    ``strategy`` and ``pairs`` where the check has them."""

    trials: int = 0
    failures: list[dict] = field(default_factory=list)
    elapsed_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def fail(self, check: str, detail="", **where) -> None:
        self.failures.append({"check": check, "detail": detail, **where})

    def to_json(self) -> str:
        return json.dumps(
            {"trials": self.trials, "failures": self.failures, "elapsed_ms": self.elapsed_ms}
        )


def random_complex(n: int, density: float, seed: int) -> SimplicialComplex:
    """Seeded random complex on [n].

    Candidate faces are sampled by decreasing cardinality with the
    given inclusion probability and downward-closed; singletons are
    always present.
    """
    check_ground_set(n)
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be a probability")
    rng = random.Random(seed)
    chosen = [[v] for v in range(1, n + 1)]
    for d in range(n, 1, -1):
        for combo in itertools.combinations(range(1, n + 1), d):
            if rng.random() < density:
                chosen.append(list(combo))
    return from_facets(n, chosen)


def check_s1(shifted_cx: SimplicialComplex) -> list:
    """S1: the result of shifting is shifted."""
    return [] if is_shifted(shifted_cx) else ["result not shifted"]


def check_s2(cx: SimplicialComplex, shifted_cx: SimplicialComplex, seq) -> list:
    """S2: shifting leaves a shifted complex where it is."""
    moved = is_shifted(cx) and (shifted_cx != cx or seq)
    return ["shifted complex moved"] if moved else []


def check_s3(cx: SimplicialComplex, shifted_cx: SimplicialComplex) -> list:
    """S3: shifting keeps the f-vector; the detail is both f-vectors."""
    before, after = f_vector(cx), f_vector(shifted_cx)
    return [] if before == after else [[list(before), list(after)]]


def check_s4(sub: SimplicialComplex, cx: SimplicialComplex, seq) -> list:
    """S4, single-sequence form: replaying the pairs keeps sub inside cx."""
    small, big = replay(sub, seq).bits, replay(cx, seq).bits
    kept = small & big == small
    return [] if kept else ["replayed inclusion broken"]


def check_betti_leq(lower: BettiTable, upper: BettiTable) -> list:
    """Entrywise lower <= upper; the detail lists the cells [i, j] where
    lower is larger."""
    if betti_leq(lower, upper):
        return []
    return [[list(k) for k in sorted(lower) if lower[k] > upper.get(k, 0)]]


def check_m_leq(e_counts: list, c_counts: list) -> list:
    """m_<=(D^e) >= m_<=(D^c) over two ``m_leq_table`` results:
    one detail [i, d] per cell where it fails."""
    ns = range(1, len(c_counts))
    return [[i, d] for d in ns for i in ns if e_counts[d][i] < c_counts[d][i]]


def verify_theorems(
    n: int, trials: int, p: int = 32003, seed: int = 0
) -> VerificationReport:
    """Check the Betti-number inequalities on a seeded random corpus.

    Per trial: both shifting strategies, the shifting axioms S1-S4,
    the Betti comparison of the complex against its shifted and
    lexsegment companions, the exterior vs. combinatorial comparison,
    the m_<= domination, and a sampled single-step Betti monotonicity
    check.  Trial sizes are drawn from 2..n, so n outside
    2..MAX_WALK_N is refused before the first trial, as are a negative
    number of trials and a field size p that check_field refuses; zero
    trials is the empty run.
    """
    check_ground_set(n)
    if n < 2:
        raise ValueError("n must be at least 2: each trial draws a complex on 2..n vertices")
    if trials < 0:
        raise ValueError("trials must be at least 0")
    gfp.check_field(p)
    t0 = perf_counter()
    report = VerificationReport()
    rng = random.Random(seed)
    for _ in range(trials):
        report.trials += 1
        trial_seed = rng.randrange(1 << 30)
        trng = random.Random(trial_seed)
        nn = trng.randint(2, n)
        density = trng.choice([0.05, 0.15, 0.3, 0.5, 0.7, 0.9])
        cx = random_complex(nn, density, trial_seed)
        betti = hochster_betti(cx, 2)

        gin_cx = gin(cx, p=p, seed=trial_seed)
        betti_gin = shifted_betti(gin_cx)
        gin_counts = m_leq_table(gin_cx)
        # S4 replays each sequence on cx minus one seeded facet of two or more vertices
        closed = [f for f in cx.facets() if f.bit_count() >= 2]
        pick = random.Random(trial_seed ^ 0x5F5F)
        drop = 1 << closed[pick.randrange(len(closed))] if closed else 0
        sub = SimplicialComplex(nn, cx.bits ^ drop)

        def record(check, details, **where):
            for detail in details:
                report.fail(check, detail, seed=trial_seed, **where)

        for strategy in ("sweep", "random"):
            shifted_cx, seq = shift_to_shifted(cx, strategy, seed=trial_seed)
            betti_c = shifted_betti(shifted_cx)
            where = {"strategy": strategy, "pairs": [list(q) for q in seq]}
            record("S1", check_s1(shifted_cx), **where)
            record("S2", check_s2(cx, shifted_cx, seq), **where)
            record("S3", check_s3(cx, shifted_cx), **where)
            record("S4", check_s4(sub, cx, seq), **where)
            record("beta(D) <= beta(D^c)", check_betti_leq(betti, betti_c), **where)
            record("beta(D^e) <= beta(D^c)", check_betti_leq(betti_gin, betti_c), **where)
            c_counts = m_leq_table(shifted_cx)
            record("m_<=(D^e) >= m_<=(D^c)", check_m_leq(gin_counts, c_counts), **where)

        lex_betti = shifted_betti(delta_lex(f_vector(cx), nn))
        record("beta(D) <= beta(D^lex)", check_betti_leq(betti, lex_betti))

        # single-step Betti monotonicity on a couple of sampled pairs
        for _ in range(2):
            i = trng.randint(1, nn - 1)
            j = trng.randint(i + 1, nn)
            stepped = hochster_betti(shift_ij(cx, i, j), 2)
            record("single-step beta", check_betti_leq(betti, stepped), pairs=[[i, j]])
    report.elapsed_ms = (perf_counter() - t0) * 1000.0
    return report
