"""Cross-check the traced per-layer times against cProfile.

    python3 perfbench/crosscheck.py [--seed N] [workload ...]

For each workload it runs one traced batch and one batch under cProfile, each
in a fresh worker, and prints a markdown table per workload.  Both sides are
compared on inclusive time (a span's duration; cProfile's cumulative time),
because cProfile keeps only direct caller edges, and traced functions often
reach each other through untraced helpers and generator expressions.  The
trace's self time is printed beside them.  cProfile also charges its own
per-call cost to every Python function, so its times lean towards code that
makes many small calls.
"""

from __future__ import annotations

import argparse
import json
import pstats
import sys

from layers import LAYERS
from run import OUT_DIR, WORKLOADS, run_worker


def profiled_times(stats_path) -> dict[str, float]:
    """cProfile cumulative seconds per traced function."""
    out: dict[str, float] = {}
    for (filename, _, func), (_, _, _, ct, _) in pstats.Stats(str(stats_path)).stats.items():
        for layer, names in LAYERS.items():
            if func in names and filename.replace("\\", "/").endswith(f"shiftlab/{layer}.py"):
                out[f"{layer}.{func}"] = out.get(f"{layer}.{func}", 0.0) + ct
    return out


def traced_times(spans_path) -> dict[str, float]:
    """Summed span durations per function; no traced function calls itself."""
    out: dict[str, float] = {}
    with open(spans_path) as fh:
        for line in fh:
            span = json.loads(line)
            out[span["name"]] = out.get(span["name"], 0.0) + span["end"] - span["start"]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = ap.parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    for workload in args.workloads:
        spans_path = OUT_DIR / f"crosscheck-spans-{workload}.jsonl"
        prof_path = OUT_DIR / f"crosscheck-{workload}.pstats"
        traced = run_worker(workload, args.seed, "--trace", str(spans_path), timeout=600)
        profiled = run_worker(workload, args.seed, "--profile", str(prof_path), timeout=600)
        incl, prof = traced_times(spans_path), profiled_times(prof_path)
        rows = sorted(incl, key=lambda name: -incl[name])
        print(f"\n### {workload} (seed {args.seed})\n")
        print(f"Traced batch {traced['wall_s']:.2f} s; profiled batch {profiled['wall_s']:.2f} s.\n")
        print("| function | traced self s | traced incl. s | share | cProfile cum. s | share |")
        print("|---|---:|---:|---:|---:|---:|")
        for name in rows:
            p = prof.get(name, 0.0)
            print(
                f"| {name} | {traced['layers'][name + '.self_s']:.3f} | {incl[name]:.3f}"
                f" | {incl[name] / traced['wall_s']:.1%} | {p:.3f} | {p / profiled['wall_s']:.1%} |"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
