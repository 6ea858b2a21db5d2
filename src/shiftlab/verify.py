"""Randomized theorem checking: seeded corpora and inequality sweeps.

Every check compares two independently computed quantities (homology
sums vs. the closed formula, rank statistics vs. combinatorial counts)
entrywise with zero tolerance; violations are collected in a report
rather than raised.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from time import perf_counter

from .complexes import (
    STRICT,
    SimplicialComplex,
    f_vector,
    from_facets,
    ideal_slices,
    is_shifted,
    m_leq_counts,
)
from .exterior import gin
from .homology import betti_leq, hochster_betti, shifted_betti
from .lexsegment import delta_lex
from .shifting import replay, shift_ij, shift_to_shifted


@dataclass
class Failure:
    seed: int
    pairs: list
    cell: tuple | None
    lhs: object
    rhs: object

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "pairs": [list(p) for p in self.pairs],
            "cell": list(self.cell) if self.cell is not None else None,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


@dataclass
class VerificationReport:
    trials: int = 0
    failures: list[Failure] = field(default_factory=list)
    elapsed_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def add_failure(self, seed, pairs, cell, lhs, rhs) -> None:
        self.failures.append(Failure(seed, list(pairs), cell, lhs, rhs))

    def to_json(self) -> str:
        return json.dumps(
            {
                "trials": self.trials,
                "failures": [f.to_dict() for f in self.failures],
                "elapsed_ms": self.elapsed_ms,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        doc = json.loads(text)
        rep = cls(trials=doc["trials"], elapsed_ms=doc["elapsed_ms"])
        for f in doc["failures"]:
            rep.add_failure(
                f["seed"],
                [tuple(p) for p in f["pairs"]],
                tuple(f["cell"]) if f["cell"] is not None else None,
                f["lhs"],
                f["rhs"],
            )
        return rep


def random_complex(n: int, density: float, seed: int) -> SimplicialComplex:
    """Seeded random strict complex on [n].

    Candidate faces are sampled by decreasing cardinality with the
    given inclusion probability and downward-closed; singletons are
    always present.
    """
    if not 1 <= n <= 20:
        raise ValueError("n must be in 1..20")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be a probability")
    rng = random.Random(seed)
    chosen = [[v] for v in range(1, n + 1)]
    for d in range(n, 1, -1):
        for combo in itertools.combinations(range(1, n + 1), d):
            if rng.random() < density:
                chosen.append(list(combo))
    return from_facets(n, chosen, STRICT)


def _check_axioms(report, cx, shifted_cx, seq, seed):
    """S1-S3 plus the replayed-sequence flavor of S4 on a random subcomplex."""
    if not is_shifted(shifted_cx):
        report.add_failure(seed, seq, None, "S1", "result not shifted")
    if is_shifted(cx) and (shifted_cx.faces != cx.faces or seq):
        report.add_failure(seed, seq, None, "S2", "shifted complex moved")
    if f_vector(shifted_cx) != f_vector(cx):
        report.add_failure(seed, seq, None, "S3", (f_vector(cx), f_vector(shifted_cx)))
    # S4 (single-sequence form): removing a facet and replaying the same
    # pairs keeps the inclusion
    rng = random.Random(seed ^ 0x5F5F)
    closed_facets = [f for f in cx.facets() if f.bit_count() >= 2]
    if closed_facets:
        drop = closed_facets[rng.randrange(len(closed_facets))]
        sub = SimplicialComplex(cx.n, frozenset(cx.faces - {drop}), STRICT)
        if not replay(sub, seq).faces <= replay(cx, seq).faces:
            report.add_failure(seed, seq, None, "S4", "replayed inclusion broken")


def verify_theorems(
    n: int, trials: int, p: int = 32003, seed: int = 0
) -> VerificationReport:
    """Check the Betti-number inequalities on a seeded random corpus.

    Per trial: both shifting strategies, the Betti comparison of the
    complex against its shifted and lexsegment companions, the exterior
    vs. combinatorial comparison, the m_<= domination, the shifting
    axioms, and a sampled single-step Betti monotonicity check.
    """
    t0 = perf_counter()
    report = VerificationReport()
    rng = random.Random(seed)
    for _ in range(trials):
        report.trials += 1
        trial_seed = rng.randrange(1 << 30)
        trng = random.Random(trial_seed)
        nn = trng.randint(2, max(2, n))
        density = trng.choice([0.05, 0.15, 0.3, 0.5, 0.7, 0.9])
        cx = random_complex(nn, density, trial_seed)
        betti = hochster_betti(cx, 2)

        gin_cx = gin(cx, p=p, seed=trial_seed)
        betti_gin = shifted_betti(gin_cx)
        gin_counts = {d: m_leq_counts(s) for d, s in ideal_slices(gin_cx).items()}

        for strategy in ("sweep", "random"):
            shifted_cx, seq = shift_to_shifted(cx, strategy, seed=trial_seed)
            _check_axioms(report, cx, shifted_cx, seq, trial_seed)
            betti_c = shifted_betti(shifted_cx)
            if not betti_leq(betti, betti_c):
                report.add_failure(trial_seed, seq, None, "beta(D) <= beta(D^c)", strategy)
            if not betti_leq(betti_gin, betti_c):
                report.add_failure(trial_seed, seq, None, "beta(D^e) <= beta(D^c)", strategy)
            c_counts = {d: m_leq_counts(s) for d, s in ideal_slices(shifted_cx).items()}
            for d in range(1, nn + 1):
                for i in range(1, nn + 1):
                    if gin_counts[d][i] < c_counts[d][i]:
                        report.add_failure(
                            trial_seed, seq, (i, d), "m_<=(D^e) >= m_<=(D^c)", strategy
                        )

        lex_cx = delta_lex(f_vector(cx), nn)
        if not betti_leq(betti, shifted_betti(lex_cx)):
            report.add_failure(trial_seed, [], None, "beta(D) <= beta(D^lex)", "lex")

        # single-step Betti monotonicity on a couple of sampled pairs
        for _ in range(2):
            i = trng.randint(1, nn - 1)
            j = trng.randint(i + 1, nn)
            stepped = shift_ij(cx, i, j)
            if not betti_leq(betti, hochster_betti(stepped, 2)):
                report.add_failure(trial_seed, [(i, j)], None, "single-step beta", "")
    report.elapsed_ms = (perf_counter() - t0) * 1000.0
    return report
