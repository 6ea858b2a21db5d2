"""The shiftlab benchmark: one workload, one seed, as a closed loop of ops.

    python3 perfbench/run.py --workload section4|gin-sparse|gin-dense|betti-mixed \\
        --seed N --seconds S --trace 0|1

Every batch runs in a fresh worker process (``worker.py``), because a user
of the CLI pays every lazy cost, such as the ``lru_cache`` wedge tables, on
each call.  Batches run one after another, each op after the previous one
returns, while another batch still ends within ``--seconds``.  Workers and
this process run numpy's OpenBLAS on one thread (``THREAD_ENV``).

With ``--trace 0`` the run reports the end-to-end metrics: medians over the
batches, and for ``setup_s`` over at least ``SETUP_SAMPLES`` set-ups, taken
in set-up-only workers between the batches.  Their times are scaled to a
nominal machine speed sampled while they run (``refspeed.py``), because the
speed of a shared host drifts by more than the bounds; the raw times are
printed and recorded beside them.  With ``--trace 1`` it
alternates untraced and traced batches and reports the per-layer metrics
read from the traced ones, plus ``trace.overhead_ratio``.

Every output is checked outside the timed interval.  Each op's output digest
must also equal the one stored in ``digests.json`` for that workload and
seed (``record_digests.py`` writes them), or, for a seed not stored there,
the digest of the same op in the run's first batch.  Workers run with
``SHIFTLAB_THREADS=1``, so Hochster sums stay on one thread.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every op succeeded, 1 when an op failed or an output check did not
hold, and 2 when a worker could not run, in which case no result is printed.
Each result is also written, with the machine it ran on, to
``.perfbench_out/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKER = HERE / "worker.py"
DIGESTS = HERE / "digests.json"

WORKLOADS = ("section4", "gin-sparse", "gin-dense", "betti-mixed")
SETUP_SAMPLES = 10
SETUP_PER_BATCH = 3  # set-up-only workers after each untraced batch
DEADLINE_S = 150.0  # no batch starts if it would end after this, whatever ``--seconds`` says


# One BLAS thread: at the default of two on a 2-core KVM guest, a gin-sparse op
# took 1.7-2.0 s against 1.0-1.1 s on one, and the speed samples taken during
# it were far more uneven, which no scaling could take out.
# Set here too, before numpy loads, so that machine() reports the workers' count.
THREAD_ENV = {"SHIFTLAB_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)
WORKER_ENV = dict(os.environ)


class WorkerFailed(Exception):
    pass


def run_worker(workload: str, seed: int, *extra: str, timeout: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=WORKER_ENV, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise WorkerFailed(f"worker printed no result:\n{proc.stdout}{proc.stderr}") from exc


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        # the ceiling keeps git from reporting a repository that merely contains the checkout
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        rev = ""
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "shiftlab_threads": int(WORKER_ENV["SHIFTLAB_THREADS"]),
        "git_revision": rev or "unknown (not a git checkout)",
        "src_sha256": src.hexdigest(),
    }


def run_batches(workload: str, seed: int, seconds: float, traced: bool, spans: Path) -> tuple[list, list]:
    """Batches and set-up samples while another cycle of them still ends within ``seconds``.

    Traced runs alternate untraced and traced batches.  Untraced runs follow
    each batch with ``SETUP_PER_BATCH`` set-up-only workers, so the set-up
    samples spread over the run rather than bunching at its end.
    """
    batches: list[dict] = []
    setups: list[dict] = []
    start = perf_counter()
    longest = 0.0
    while True:
        t = perf_counter()
        for trace in (False, True) if traced else (False,):
            extra = ("--trace", str(spans)) if trace else ()
            batch = run_worker(workload, seed, *extra, timeout=DEADLINE_S + 20 - (perf_counter() - start))
            batch["traced"] = trace
            batches.append(batch)
        if not traced:
            setups.append(batches[-1])
            for _ in range(SETUP_PER_BATCH):
                setups.append(run_worker(workload, seed, "--setup-only", timeout=60))
        longest = max(longest, perf_counter() - t)
        elapsed = perf_counter() - start
        # no cycle starts that would end after ``seconds``, so a run takes at most about that long
        if elapsed + longest > min(seconds, DEADLINE_S):
            return batches, setups


def stored_digests(workload: str, seed: int) -> list[str] | None:
    """The op digests stored for this workload and seed; ``section4`` has one set for every seed."""
    stored = json.loads(DIGESTS.read_text()).get(workload, {})
    return stored.get("any", stored.get(str(seed)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    try:
        batches, setups = run_batches(args.workload, args.seed, args.seconds, bool(args.trace), spans_path)
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(run_worker(args.workload, args.seed, "--setup-only", timeout=60))
    except WorkerFailed as exc:
        print(f"perfbench: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 2

    setups_raw = [s["setup_s_raw"] for s in setups]
    setups = [s["setup_s"] for s in setups]
    attempted = sum(b["attempted"] for b in batches)
    failed = sum(b["failed"] for b in batches)
    errors = [e for b in batches for e in b["errors"]]
    stored = stored_digests(args.workload, args.seed)
    reference = stored or batches[0]["op_digests"]
    for b in batches:
        for k, got in enumerate(b["op_digests"]):
            if k not in b["failed_ops"] and got != reference[k]:
                failed += 1
                errors.append(f"op {k}: output digest differs from {'digests.json' if stored else 'the first batch'}")
    digest = hashlib.sha256("".join(batches[0]["op_digests"]).encode()).hexdigest()

    untraced = [b for b in batches if not b["traced"]]
    wall_s = statistics.median(b["wall_s"] for b in untraced)
    if args.trace:
        traced = [b for b in batches if b["traced"]]
        metrics = {
            key: {"value": statistics.median(b["layers"][key] for b in traced), "unit": unit_of(key)}
            for key in traced[0]["layers"]
        }
        for key, value in traced[0]["inputs"].items():
            metrics[f"input.{key}"] = {"value": value, "unit": unit_of(key)}
        metrics["trace.overhead_ratio"] = {
            "value": statistics.median(b["wall_s"] for b in traced) / statistics.median(b["wall_s_raw"] for b in untraced),
            "unit": "ratio",
        }
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "op_p50_ms": {"value": 1000 * statistics.median(s for b in untraced for s in b["op_s"]), "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(b["peak_rss_mb"] for b in untraced), "unit": "MB"},
        }
    correct = failed == 0
    info = machine()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": info,
        "batches": batches,
        "setup_samples": setups if not args.trace else None,
        "setup_samples_raw": setups_raw if not args.trace else None,
        "digest": digest,
        "op_digests": batches[0]["op_digests"],
        "digests_stored": stored is not None,
        "errors": errors,
        "error_rate": failed / attempted,
        "metrics": metrics,
    }
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1))

    print(f"machine: {json.dumps(info)}")
    print(
        f"{args.workload} seed {args.seed}: {len(untraced)} untraced and {len(batches) - len(untraced)} traced"
        f" batches of {batches[0]['attempted']} ops, digest {digest[:16]}"
        f" ({'checked against digests.json' if stored else 'no stored digests for this seed'})"
    )
    for err in errors:
        print(f"FAILED: {err}")
    for key, m in metrics.items():
        print(f"  {key:48s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        raw = {
            "wall_s": statistics.median(b["wall_s_raw"] for b in untraced),
            "op_p50_ms": 1000 * statistics.median(s for b in untraced for s in b["op_s_raw"]),
            "setup_s": statistics.median(setups_raw),
        }
        print("  raw, before scaling to the nominal speed: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    print(f"  {'error_rate':48s} {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def unit_of(key: str) -> str:
    if key.endswith("self_s"):
        return "s"
    if key.endswith(("ratio", "share")):
        return "ratio"
    if key.endswith("flop_est"):
        return "flop"
    if key.endswith("rows"):
        return "rows"
    if key.endswith("cells"):
        return "cells"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
