"""One fresh process: set up one workload, run its batch once, check it.

Run by ``run.py``; prints one JSON object on its last line.  ``shiftlab`` is
imported from ``src/`` of the checkout this file sits in, never from an
installed copy, so the code measured is the code beside the benchmark.

Untraced, unprofiled workers sample the machine's speed while they run
(``refspeed.py``) and report every time both raw and scaled to the nominal
speed; the ``*_raw`` keys are the raw ones.

    python3 perfbench/worker.py --workload gin-dense --seed 1 [--trace SPANS | --profile STATS | --setup-only]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter, sleep

from refspeed import INTERVAL_S, MIN_SAMPLES, Sampler

ROOT = Path(__file__).resolve().parent.parent


def _import_shiftlab() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import shiftlab

    if not Path(shiftlab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"shiftlab imported from {shiftlab.__file__}, not from {ROOT / 'src'}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", help="trace the layers and write the spans to this file")
    ap.add_argument("--profile", help="run the batch under cProfile and dump the stats to this file")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # a set-up-only worker samples faster, so that its short life still gives MIN_SAMPLES
    sampler = None if args.trace or args.profile else Sampler(INTERVAL_S / 4 if args.setup_only else INTERVAL_S)
    if sampler:
        sampler.start()
    t0 = perf_counter()
    m0 = sampler.mark() if sampler else None
    _import_shiftlab()
    t_import = perf_counter()
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed)
    t_setup = perf_counter()
    m_setup = sampler.mark() if sampler else None
    result = {"setup_s": t_setup - t0, "import_s": t_import - t0}
    if args.setup_only:
        while len(sampler.samples) < MIN_SAMPLES:  # speed right after a set-up too short to sample
            sleep(0.005)
        sampler.stop()
        result["setup_s_raw"], result["setup_s"] = sampler.scaled(m0, m_setup, numpy=False)
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()

    if sampler:
        import numpy

        sampler.add_numpy(numpy)
    outputs, op_marks, failures = [], [], {}
    mark = sampler.mark if sampler else lambda: (perf_counter(), 0.0)
    if profiler:
        profiler.enable()
    for k, op_args in enumerate(inputs):
        if tracer:
            tracer.op = k
        begin = mark()
        try:
            outputs.append(workloads.run_op(args.workload, op_args))
        except Exception as exc:  # an op that raises counts as failed
            outputs.append(None)
            failures[k] = f"raised {type(exc).__name__}: {exc}"
        op_marks.append((begin, mark()))
    if profiler:
        profiler.disable()
    if sampler:
        sleep(INTERVAL_S * MIN_SAMPLES / 2)  # samples after the last op, for its speed
        sampler.stop()
        timed = [sampler.scaled(b, e) for b, e in op_marks]
        result["setup_s_raw"], result["setup_s"] = sampler.scaled(m0, m_setup, numpy=False)
        result["speed_samples"] = [(mid - t0, py, nps) for mid, py, nps in sampler.samples]
        result["op_marks"] = [(b[0] - t0, b[1], e[0] - t0, e[1]) for b, e in op_marks]
    else:
        timed = [(e[0] - b[0],) * 2 for b, e in op_marks]
    op_s = [scaled for _, scaled in timed]
    wall = sum(op_s)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for k, (op_args, out) in enumerate(zip(inputs, outputs)):
        if k not in failures:
            reason = workloads.check_output(args.workload, op_args, out)
            if reason:
                failures[k] = reason
    result.update(
        wall_s=wall,
        op_s=op_s,
        wall_s_raw=sum(raw for raw, _ in timed),
        op_s_raw=[raw for raw, _ in timed],
        peak_rss_mb=rss_mb,
        attempted=len(inputs),
        failed=len(failures),
        errors=[f"op {k}: {reason}" for k, reason in sorted(failures.items())],
        failed_ops=sorted(failures),
        op_digests=[workloads.op_digest(args.workload, out) for out in outputs],
        inputs=workloads.input_properties(args.workload, inputs),
    )
    if tracer:
        result["layers"] = tracer.metrics()
        tracer.write(args.trace)
    if profiler:
        profiler.dump_stats(args.profile)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
