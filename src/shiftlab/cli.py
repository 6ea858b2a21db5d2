"""Command-line interface.

Every command reads a complex JSON document
``{"n": int, "facets": [[int, ...], ...], "mode": "strict"}`` where
named, writes JSON or TSV to stdout, and exits 0 exactly when no check
failed.  ``mode`` may be left out; any other value, like a facet family
whose closure misses a vertex of [n], is refused with exit code 2.  So
are a ``--field`` or ``--prime`` that ``gfp.check_field`` refuses,
whether or not the command uses it, and a run out of memory.  All
commands are deterministic given flags and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import comb

from . import gfp, section4 as s4
from .complexes import (
    ShiftlabError,
    f_vector,
    from_json,
    minimal_nonfaces,
    to_json_dict,
)
from .exterior import gin
from .faces import members_of
from .homology import betti_tsv, hochster_betti, shifted_betti
from .lexsegment import delta_lex
from .shifting import enumerate_shifted, replay, shift_to_shifted
from .verify import verify_theorems


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return from_json(fh.read())


def _cmd_fvector(args) -> int:
    cx = _load(args.complex)
    print(json.dumps(list(f_vector(cx))))
    return 0


def _cmd_betti(args) -> int:
    cx = _load(args.complex)
    if args.method == "hochster":
        table = hochster_betti(cx, args.field)
    else:
        table = shifted_betti(cx)
    print(betti_tsv(table))
    return 0


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    pairs = []
    for token in text.split():
        try:
            i, j = map(int, token.split(","))
        except ValueError:
            raise ValueError(f"pair {token!r} is not of the form i,j with integers i and j") from None
        pairs.append((i, j))
    return pairs


def _cmd_shift(args) -> int:
    cx = _load(args.complex)
    if args.pairs is not None:
        seq = _parse_pairs(args.pairs)
        result = replay(cx, seq)
    else:
        result, seq = shift_to_shifted(cx, args.auto, seed=args.seed)
    doc = to_json_dict(result)
    doc["sequence"] = [list(p) for p in seq]
    print(json.dumps(doc))
    return 0


def _cmd_enumerate(args) -> int:
    cx = _load(args.complex)
    for faces in sorted(sorted(c.faces) for c in enumerate_shifted(cx, args.limit)):
        print(json.dumps(faces))
    return 0


def _cmd_gin(args) -> int:
    cx = _load(args.complex)
    result = gin(cx, p=args.prime, seed=args.seed)
    gens_by_degree: dict[int, list] = {}
    for g in minimal_nonfaces(result):
        gens_by_degree.setdefault(g.bit_count(), []).append(list(members_of(g)))
    f = f_vector(result) + (0,) * result.n  # f[d - 1] d-faces, the other d-sets are pivots
    pivots = {d: comb(result.n, d) - f[d - 1] for d in range(1, result.n + 1)}
    report = [
        {
            "degree": d,
            "pivot_count": count,
            "new_generators": gens_by_degree.get(d, []),
        }
        for d, count in pivots.items()
        if count
    ]
    print(json.dumps({"complex": to_json_dict(result), "pivot_report": report}))
    return 0


def _cmd_lex(args) -> int:
    cx = _load(args.complex)
    print(json.dumps(to_json_dict(delta_lex(f_vector(cx), cx.n))))
    return 0


def _cmd_verify(args) -> int:
    report = verify_theorems(args.n, args.trials, p=args.prime, seed=args.seed)
    print(report.to_json())
    return 0 if report.passed else 1


def _cmd_section4(args) -> int:
    if args.phase == "build":
        print(json.dumps(to_json_dict(s4.section4_build())))
        return 0
    classified = s4.section4_enumerate_and_classify()
    ok = set(classified) == set(s4.EXPECTED_QSEQUENCES)
    if args.phase == "classify":
        for q in sorted(classified):
            print("".join(q))
        return 0 if ok else 1
    report = s4.section4_negative_results(
        p=args.prime, seed=args.seed, include_gin=not args.skip_gin, classified=classified
    )
    print(report.to_json())
    return 0 if ok and report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="shiftlab")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fvector", help="f-vector of a complex")
    p.add_argument("complex")
    p.set_defaults(func=_cmd_fvector)

    p = sub.add_parser("betti", help="graded Betti numbers as TSV i/j/beta")
    p.add_argument("complex")
    p.add_argument("--method", choices=["hochster", "shifted"], default="hochster")
    p.add_argument("--field", type=int, default=2)
    p.set_defaults(func=_cmd_betti)

    p = sub.add_parser("shift", help="replay a shift sequence or shift to completion")
    p.add_argument("complex")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--pairs", help='sequence like "1,3 2,5"')
    g.add_argument("--auto", choices=["sweep", "random"])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_shift)

    p = sub.add_parser("enumerate", help="all reachable shifted complexes")
    p.add_argument("complex")
    p.add_argument("--limit", type=int, default=100_000)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("gin", help="exterior algebraic shifted complex")
    p.add_argument("complex")
    p.add_argument("--prime", type=int, default=32003)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_gin)

    p = sub.add_parser("lex", help="lexsegment complex with the same f-vector")
    p.add_argument("complex")
    p.set_defaults(func=_cmd_lex)

    p = sub.add_parser("verify", help="randomized inequality checks")
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prime", type=int, default=32003)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("section4", help="the 15-vertex counterexample")
    p.add_argument("--phase", choices=["build", "classify", "negatives"], required=True)
    p.add_argument("--prime", type=int, default=32003)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--skip-gin", action="store_true",
                   help="skip the slow generic-initial non-membership check")
    p.set_defaults(func=_cmd_section4)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # refused even where the command would not use the field
        for name in ("field", "prime"):
            if name in vars(args):
                gfp.check_field(vars(args)[name])
        return args.func(args)
    except MemoryError as exc:
        message = str(exc) or "out of memory"
    except (OSError, ValueError, ShiftlabError) as exc:
        message = str(exc)
    print(f"shiftlab: error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
