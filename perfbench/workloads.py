"""The benchmark's four workloads: seeded inputs, the op, the output checks.

Every workload is a fixed batch of ops.  An op is one call into a public
``shiftlab`` function on one generated input.  Inputs come only from the
workload name and the seed, and are built through the public constructors
(``from_facets``, ``from_faces``, ``random_complex``).  Per-op parameters
(facet counts, densities, ground-set sizes) are stratified across the batch
rather than drawn, so that two seeds give batches of comparable size; the
seed picks the vertex sets.

The checks here are written independently of the library: they recompute
f-vectors, shiftedness and minimal non-faces from the face sets.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import operator
import random
from math import comb

import shiftlab as sl

HOCHSTER_FIELD = 2


# -- input families ---------------------------------------------------------


def random_facets(rng: random.Random, n: int, count: int, lo: int, hi: int):
    """``count`` random facets of size lo..hi on [n], plus every singleton."""
    facets = [[v] for v in range(1, n + 1)]
    for _ in range(count):
        facets.append(sorted(rng.sample(range(1, n + 1), rng.randint(lo, hi))))
    return sl.from_facets(n, facets)


def few_nonfaces(rng: random.Random, n: int, count: int, lo: int, hi: int) -> list[int]:
    """``count`` random vertex sets of size lo..hi on [n], as masks.

    The complex is every subset of [n] containing none of them; see
    :func:`without` and :func:`ideal_rows_of_nonfaces`.
    """
    return [sum(1 << (v - 1) for v in rng.sample(range(1, n + 1), rng.randint(lo, hi))) for _ in range(count)]


def without(n: int, bad: list[int]):
    """The complex of all subsets of [n] that contain none of ``bad``."""
    return sl.from_faces(n, [m for m in range(1 << n) if not any(m & b == b for b in bad)])


def low_density(rng: random.Random, n: int, density: float):
    """``random_complex`` at the given density, with a seed drawn from ``rng``."""
    return sl.random_complex(n, density, rng.randrange(1 << 31))


def _faces_by_size(n: int, faces) -> list[int]:
    counts = [0] * (n + 1)
    for f in faces:
        counts[f.bit_count()] += 1
    return counts


def ideal_rows(n: int, faces) -> list[int]:
    """|I_d| for d = 0..n: the d-subsets of [n] that are not faces."""
    counts = _faces_by_size(n, faces)
    return [comb(n, d) - counts[d] for d in range(n + 1)]


def ideal_rows_of_nonfaces(n: int, bad: list[int]) -> list[int]:
    """|I_d| for the complex ``without(n, bad)``, by inclusion-exclusion over ``bad``.

    This equals ``ideal_rows(n, without(n, bad).faces)`` without building the
    complex.  ``draw_near`` sizes 1080 candidates per ``gin-dense`` batch;
    building each one would cost about 15 s of set-up per seed on a 2-core
    Xeon, against about 0.07 s for this count.
    """
    rows = [0] * (n + 1)
    for k in range(1, len(bad) + 1):
        for group in itertools.combinations(bad, k):
            u = functools.reduce(operator.or_, group).bit_count()
            for d in range(u, n + 1):
                rows[d] += (-1) ** (k + 1) * comb(n - u, d - u)
    return rows


def gin_work(n: int, rows: list[int]) -> int:
    """sum of |I_d|^2 C(n,d) over the degrees where ``gin`` eliminates.

    The ideal-side elimination in degree d is |I_d| x C(n,d) with full row
    rank, so this tracks the op's time to within a few percent on these
    families.
    """
    return sum(r * r * comb(n, d) for d, r in enumerate(rows) if 0 < r < comb(n, d))


DRAWS = 60


def draw_near(rng: random.Random, draw, size, target: float):
    """The one of ``DRAWS`` draws of ``draw(rng)`` whose ``size`` is closest to ``target``.

    Each op of a batch has its own target, so seeds differ in which complexes
    they draw but not in how much work the batch is; without this the batch
    time moves by more than the benchmark's bounds from seed to seed.  The
    draw count is fixed rather than stopping at the first close draw, so that
    set-up work is the same for every seed: stopping early made
    ``betti-mixed`` set-up vary from 0.02 s to 0.08 s between seeds.  With 60
    draws the chosen size is within 0.4% of its target at the median and
    within 7% at worst, over seeds 1-10.
    """
    best = None
    for _ in range(DRAWS):
        cand = draw(rng)
        miss = abs(size(cand) - target)
        if best is None or miss < best[0]:
            best = (miss, cand)
    return best[1]


# -- batches ------------------------------------------------------------------

# (n, facet count, gin_work target): six ops of about 1.2 s and one of about 5 s.
# gin retries an op with fresh seeds when its two draws disagree, which doubles
# that op's time; six n = 11 ops keep one retry from moving op_p50_ms much.
GIN_SPARSE = (
    (11, 12, 2.05e8), (11, 15, 1.95e8), (11, 14, 2.0e8), (12, 13, 1.68e9),
    (11, 12, 2.05e8), (11, 15, 1.95e8), (11, 14, 2.0e8),
)
# (non-face count, gin_work target): the 30th, 50th and 70th percentiles of each count, twice
GIN_DENSE = tuple(
    (count, target)
    for count, targets in ((2, (0.95e6, 1.59e6, 2.46e6)), (3, (2.04e6, 3.04e6, 4.26e6)), (4, (3.47e6, 4.8e6, 6.78e6)))
    for target in targets
) * 2
# (family, parameter, share of the 2^n - 1 vertex subsets that are faces)
BETTI_MIXED = (
    ("density", 0.01, 0.30), ("facets", 6, 0.12), ("density", 0.02, 0.45), ("facets", 8, 0.15),
    ("density", 0.03, 0.60), ("facets", 12, 0.18), ("density", 0.05, 0.75), ("facets", 16, 0.23),
)


def make_inputs(name: str, seed: int) -> list:
    """The workload's batch: one argument tuple per op."""
    rng = random.Random(f"{name}/{seed}")
    if name == "section4":
        return [()]
    if name == "gin-sparse":
        return [
            (
                draw_near(
                    rng,
                    lambda r: random_facets(r, n, count, 4, 7),
                    lambda cx: gin_work(n, ideal_rows(n, cx.faces)),
                    target,
                ),
                rng.randrange(1, 1 << 31),
            )
            for n, count, target in GIN_SPARSE
        ]
    if name == "gin-dense":
        return [
            (
                without(
                    12,
                    draw_near(
                        rng,
                        lambda r: few_nonfaces(r, 12, count, 5, 7),
                        lambda bad: gin_work(12, ideal_rows_of_nonfaces(12, bad)),
                        target,
                    ),
                ),
                rng.randrange(1, 1 << 31),
            )
            for count, target in GIN_DENSE
        ]
    if name == "betti-mixed":
        n = 10
        batch = []
        for family, param, share in BETTI_MIXED:
            if family == "density":
                draw = lambda r: low_density(r, n, param)  # noqa: E731
            else:
                draw = lambda r: random_facets(r, n, param, 3, 6)  # noqa: E731
            batch.append((draw_near(rng, draw, lambda cx: len(cx.faces) - 1, share * ((1 << n) - 1)),))
        return batch
    raise ValueError(f"unknown workload {name!r}")


def run_op(name: str, args: tuple):
    """One op: the public call the workload measures."""
    if name == "section4":
        classified = sl.section4_enumerate_and_classify()
        report = sl.section4_negative_results(include_gin=False, classified=classified)
        return classified, report
    if name in ("gin-sparse", "gin-dense"):
        cx, seed = args
        return sl.gin(cx, seed=seed)
    if name == "betti-mixed":
        (cx,) = args
        return sl.hochster_betti(cx, HOCHSTER_FIELD)
    raise ValueError(f"unknown workload {name!r}")


# -- input properties ----------------------------------------------------------


def input_properties(name: str, inputs: list) -> dict[str, float]:
    """Input properties the ROADMAP items depend on, summed over the batch.

    ``ideal_rows`` and ``face_rows`` count |I_d| and f_{d-1} over the degrees
    where ``gin`` eliminates (the slice is neither empty nor full).
    ``face_subset_share`` is the share of nonempty vertex subsets W that are
    faces, where Hochster's summand is zero.
    """
    props = {"face_subset_share": 0.0, "ideal_rows": 0, "face_rows": 0}
    if name in ("gin-sparse", "gin-dense"):
        for cx, _ in inputs:
            for d, rows in enumerate(ideal_rows(cx.n, cx.faces)):
                if 0 < rows < comb(cx.n, d):
                    props["ideal_rows"] += rows
                    props["face_rows"] += comb(cx.n, d) - rows
    elif name == "betti-mixed":
        faces = sum(len(cx.faces) - 1 for (cx,) in inputs)
        subsets = sum((1 << cx.n) - 1 for (cx,) in inputs)
        props["face_subset_share"] = faces / subsets
    return props


# -- output checks -----------------------------------------------------------


def _shifted(n: int, faces) -> bool:
    for f in faces:
        for i in range(n):
            if f >> i & 1:
                base = f & ~(1 << i)
                for j in range(i + 1, n):
                    if not f >> j & 1 and base | (1 << j) not in faces:
                        return False
    return True


def _k_polynomial(n: int, faces) -> list[int]:
    """sum over faces F of t^|F| (1 - t)^(n - |F|), as coefficients."""
    out = [0] * (n + 1)
    for size, count in enumerate(_faces_by_size(n, faces)):
        for k in range(n - size + 1):
            out[size + k] += count * (-1) ** k * comb(n - size, k)
    return out


def _minimal_nonface_sizes(n: int, faces) -> dict[int, int]:
    out: dict[int, int] = {}
    for m in range(1, 1 << n):
        if m in faces:
            continue
        if all(m & ~(1 << v) in faces for v in range(n) if m >> v & 1):
            out[m.bit_count()] = out.get(m.bit_count(), 0) + 1
    return out


def check_output(name: str, args: tuple, out) -> str | None:
    """None when the op's output is right, else a one-line reason."""
    if name == "section4":
        classified, report = out
        if set(classified) != sl.EXPECTED_QSEQUENCES:
            return "Q-set differs from EXPECTED_QSEQUENCES"
        if not report.passed:
            return f"section 4 report failed: {len(report.failures)} failures"
        return None
    if name in ("gin-sparse", "gin-dense"):
        cx, _ = args
        if out.n != cx.n:
            return "gin changed the ground set"
        if not _shifted(out.n, out.faces):
            return "gin result is not shifted"
        if _faces_by_size(cx.n, out.faces) != _faces_by_size(cx.n, cx.faces):
            return "gin result changed the f-vector"
        return None
    if name == "betti-mixed":
        (cx,) = args
        n = cx.n
        expected = _k_polynomial(n, cx.faces)
        got = [1] + [0] * n
        for (i, j), beta in out.items():
            if beta < 0 or i < 0 or j < 0 or i + j > n:
                return f"impossible Betti entry {(i, j)}: {beta}"
            got[i + j] += (-1) ** (i + 1) * beta
        if got != expected:
            return "Betti table breaks the K-polynomial identity"
        linear = {j: beta for (i, j), beta in out.items() if i == 0 and beta}
        if linear != _minimal_nonface_sizes(n, cx.faces):
            return "beta_{0,j} differs from the count of size-j minimal non-faces"
        return None
    raise ValueError(f"unknown workload {name!r}")


def canonical(name: str, out):
    """A JSON-ready form of the output that names it exactly."""
    if name == "section4":
        classified, report = out
        return {
            "classified": {"".join(q): sorted(cx.faces) for q, cx in sorted(classified.items())},
            "trials": report.trials,
            "failures": len(report.failures),
        }
    if name in ("gin-sparse", "gin-dense"):
        return sorted(out.faces)
    return sorted([i, j, beta] for (i, j), beta in out.items())


def op_digest(name: str, out) -> str:
    """sha256 of one op's output in canonical form; a failed op's is of null."""
    blob = json.dumps(None if out is None else canonical(name, out), separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
