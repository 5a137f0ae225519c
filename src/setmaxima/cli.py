"""Command line interface.

Subcommands: gen (emit a JSON instance), solve (one instance, one
algorithm), verify (full cross-check), bench (sweep to CSV).
Exit codes: 0 ok, 1 verification failure or internal invariant failure
(``LatticeError``, ``InternalInconsistencyError``), 2 input error
(including ``GeometryError``).  Every error prints one ``error:`` line.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .bench import (
    COVERS,
    SOLVERS,
    BenchConfig,
    cross_check,
    default_cover,
    run_bench,
    verify_instance,
)
from .generators import KINDS, GenerationError, gen_instance, gen_keys
from .geometry import GeometryError
from .geomlattice import InternalInconsistencyError
from .instance_io import (
    InputError,
    ProblemInstance,
    instance_to_dict,
    load_instance,
    save_instance,
)
from .lattice import LatticeError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INTERNAL_ERROR = 1
EXIT_INPUT_ERROR = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setmaxima",
        description="Comparison-counting set-maxima solvers and benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a JSON instance")
    gen.add_argument("--kind", choices=KINDS, default="abstract")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--k", type=int, default=4, help="max polygon sides (convex kind)")
    gen.add_argument("--density", type=float, default=0.3)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", default="-", help="output path, '-' for stdout")

    solve = sub.add_parser("solve", help="run one algorithm on one instance")
    solve.add_argument("instance")
    solve.add_argument("--algo", choices=tuple(SOLVERS), default="lattice")
    solve.add_argument(
        "--cover",
        choices=COVERS,
        default=None,
        help="lattice cover strategy (default: geometric when the instance "
        "has geometry, else greedy)",
    )
    solve.add_argument("--seed", type=int, default=None, help="keys fallback seed")

    verify = sub.add_parser("verify", help="cross-check all solvers on an instance")
    verify.add_argument("instance")
    verify.add_argument("--seed", type=int, default=None, help="keys fallback seed")

    bench = sub.add_parser("bench", help="run a seeded sweep and emit CSV")
    bench.add_argument("--kind", choices=KINDS, default="convex")
    bench.add_argument("--n", required=True, help="comma list of point counts")
    bench.add_argument(
        "--m", default=None, help="comma list of set counts (default: n/10 each)"
    )
    bench.add_argument("--k", type=int, default=4)
    bench.add_argument("--density", type=float, default=0.3)
    bench.add_argument("--seeds", type=int, default=1, help="seeds 0..S-1 per size")
    bench.add_argument("--algos", default=",".join(SOLVERS))
    bench.add_argument("--cover", choices=COVERS, default=None)
    bench.add_argument("--jobs", type=int, default=1)
    bench.add_argument("--out", required=True, help="CSV output path")
    return parser


def _load_with_keys(path: str, seed: int | None) -> ProblemInstance:
    pinst = load_instance(path)
    if pinst.keys is None:
        if seed is None:
            raise InputError(f"{path} has no keys; pass --seed to derive them")
        pinst.keys = gen_keys(pinst.system.n, seed)
    return pinst


def cmd_gen(args) -> int:
    pinst = gen_instance(args.kind, args.n, args.m, args.k, args.density, args.seed)
    if args.out == "-":
        print(json.dumps(instance_to_dict(pinst)))
    else:
        save_instance(args.out, pinst)
    return EXIT_OK


def cmd_solve(args) -> int:
    pinst = _load_with_keys(args.instance, args.seed)
    system = pinst.system
    if args.algo == "bucket" and system.m > math.log2(max(2, system.n)):
        print(
            f"hint: the bucket baseline pays off only when m is well below "
            f"log2(n); here m={system.m}, log2(n)={math.log2(max(2, system.n)):.1f}",
            file=sys.stderr,
        )
    cover = args.cover or default_cover(pinst.geometry is not None)
    [check] = cross_check(pinst, (args.algo,), (cover,))[1]
    k = pinst.geometry.k if pinst.geometry is not None else None
    print(json.dumps(check.result.to_record(system, k=k, ok=check.ok)))
    return EXIT_OK if check.ok else EXIT_VERIFY_FAILED


def cmd_verify(args) -> int:
    pinst = _load_with_keys(args.instance, args.seed)
    report = verify_instance(pinst)
    print(report.text())
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def cmd_bench(args) -> int:
    ns = tuple(int(v) for v in args.n.split(","))
    if args.m is None:
        ms = tuple(max(1, n // 10) for n in ns)
    else:
        ms = tuple(int(v) for v in args.m.split(","))
    config = BenchConfig(
        kind=args.kind,
        ns=ns,
        ms=ms,
        k=args.k,
        density=args.density,
        seeds=tuple(range(args.seeds)),
        algos=tuple(args.algos.split(",")),
        cover=args.cover,
        jobs=args.jobs,
    )
    records = run_bench(config, out=args.out)
    bad = [r for r in records if not r.ok]
    print(f"wrote {len(records)} records to {args.out}; {len(bad)} failures")
    for rec in bad[:10]:
        print(f"  FAIL {rec.instance_id} {rec.algo}: "
              f"{rec.comparisons} vs bound {rec.bound}")
    return EXIT_OK if not bad else EXIT_VERIFY_FAILED


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": cmd_gen,
        "solve": cmd_solve,
        "verify": cmd_verify,
        "bench": cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except (InputError, GenerationError, GeometryError, FileNotFoundError, ValueError) as exc:
        _report(exc)
        return EXIT_INPUT_ERROR
    except (LatticeError, InternalInconsistencyError) as exc:
        _report(exc, type(exc).__name__)
        return EXIT_INTERNAL_ERROR


def _report(exc: Exception, kind: str | None = None) -> None:
    message = " ".join(str(exc).split())
    print(f"error: {kind + ': ' if kind else ''}{message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
