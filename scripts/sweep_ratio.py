#!/usr/bin/env python3
"""Sweep the lattice solver over growing convex instances and report the
ratio of comparisons to k(n+m).

The interesting question is whether that ratio stays flat as n grows; the
table printed here answers it directly, and the raw records land in a CSV
for further digging.

    python scripts/sweep_ratio.py --sizes 100,1000,10000,100000 --k 4 --out sweep.csv
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from setmaxima.bench import BenchConfig, run_bench  # noqa: E402
from setmaxima.generators import GenerationError  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="100,1000,10000,100000")
    parser.add_argument("--k", type=int, default=4)
    parser.add_argument("--m-ratio", type=float, default=0.1, help="m = m_ratio * n")
    parser.add_argument("--seeds", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", default="sweep.csv")
    args = parser.parse_args()

    start = time.time()
    try:
        ns = tuple(int(v) for v in args.sizes.split(","))
        ms = tuple(max(1, int(n * args.m_ratio)) for n in ns)
        config = BenchConfig(
            kind="convex",
            ns=ns,
            ms=ms,
            k=args.k,
            seeds=tuple(range(1, args.seeds + 1)),
            algos=("lattice",),
            jobs=args.jobs,
        )
        records = run_bench(config, out=args.out)
    except (ValueError, GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.time() - start

    print(f"{'n':>8} {'m':>7} {'k':>3} {'comparisons':>12} {'k(n+m)':>10} {'ratio':>7} ok")
    worst = 0.0
    for rec in records:
        denom = rec.k * (rec.n + rec.m)
        ratio = rec.comparisons / denom
        worst = max(worst, ratio)
        print(
            f"{rec.n:>8} {rec.m:>7} {rec.k:>3} {rec.comparisons:>12} "
            f"{denom:>10} {ratio:>7.3f} {'yes' if rec.ok else 'NO'}"
        )
    print(f"\nmax ratio: {worst:.3f}   records: {args.out}   ({elapsed:.1f}s)")
    return 0 if all(r.ok for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
