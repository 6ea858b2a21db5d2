"""Write the expected op digests that ``run.py`` checks outputs against.

    python3 perfbench/record_digests.py 0-10 101-110
    python3 perfbench/record_digests.py --workload gin-sparse 0-20 101-110

Runs one batch per workload and seed and stores each op's output digest in
``digests.json``.  ``section4`` has no seeded input, so it is stored once,
under ``any``.  Every op must pass its own output check first.  The outputs
of ``gin``, ``hochster_betti`` and the section 4 job are canonical, so the
digests should hold across commits; rerun this only for a change meant to
alter an output, or to store more seeds.
"""

from __future__ import annotations

import json
import sys

from run import DIGESTS, WORKLOADS, run_worker


def seeds_of(specs: list[str]) -> list[int]:
    seeds = []
    for spec in specs:
        lo, _, hi = spec.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv: list[str]) -> int:
    workloads = WORKLOADS
    if argv[:1] == ["--workload"]:
        workloads, argv = argv[1:2], argv[2:]
    seeds = seeds_of(argv)
    if not seeds:
        print(__doc__, file=sys.stderr)
        return 2
    stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for workload in workloads:
        for seed in seeds[:1] if workload == "section4" else seeds:
            batch = run_worker(workload, seed, timeout=600)
            if batch["failed"]:
                print(f"{workload} seed {seed}: {batch['errors']}", file=sys.stderr)
                return 1
            key = "any" if workload == "section4" else str(seed)
            stored.setdefault(workload, {})[key] = batch["op_digests"]
            print(f"{workload} seed {key}: {len(batch['op_digests'])} ops", flush=True)
    DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
