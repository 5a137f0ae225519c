#!/usr/bin/env python3
"""Set-maxima benchmark: one workload in one single-threaded process.

    python3 perfbench/run.py --workload convex-k4 --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload convex-k4 --seed 1 --seconds 38 --trace 1
    python3 perfbench/run.py --workload convex-k4 --seed 1 --repeat 10

Run from a checkout of the repository; the program is imported from its
``src`` directory.  The run generates the workload's instance from the
seed, writes it in the program's JSON format, and then repeats whole rounds
until ``--seconds`` have been spent measuring.  A round is:

* set-up: ``load_instance`` plus the build of the solve-ready structure;
* solve: the lattice solver over the lattice batch of key assignments;
* baseline: ``solve_sort`` + ``solve_bucket`` over the baseline batch.

Every answer is checked against the benchmark's own oracle (``checks.py``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
end-to-end metrics (medians over rounds), with ``--trace 1`` the per-layer
metrics of one traced round, run between two untraced rounds that give
the tracing overhead.  ``--repeat N`` runs the workload N times, on seeds
``seed .. seed+N-1``, each in a fresh process, and prints each end-to-end
metric's median, quartiles and spread against its bound.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
import zlib
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
sys.path.insert(0, str(HERE))

from checks import (  # noqa: E402
    Oracle,
    check_bucket,
    check_lattice,
    check_sort,
    check_structure,
    check_system,
)
from inputs import Spec, make_workload  # noqa: E402

# Batches are sized so that each timed phase of a round takes seconds.
WORKLOADS = {
    "convex-k4": Spec("convex", n=20000, m=2000, k=4, lattice_batch=60, baseline_batch=1),
    "convex-k8-rekey": Spec("convex", n=20000, m=200, k=8, lattice_batch=200, baseline_batch=5),
    "abstract-dense": Spec("abstract", n=2000, m=30, density=0.5, lattice_batch=80, baseline_batch=12),
}


def import_program():
    """The program's modules, from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "setmaxima" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program source not found under {src}")
    sys.path.insert(0, str(src))
    import setmaxima
    from setmaxima import geomlattice, instance_io, lattice, order, solvers

    if Path(setmaxima.__file__).resolve().parent != src / "setmaxima":
        raise SystemExit(f"perfbench: imported setmaxima from {setmaxima.__file__}, not {src}")
    return instance_io, lattice, geomlattice, solvers, order


@dataclass
class Built:
    """A structure ready to solve, as the set-up phase returns it."""

    system: object
    nodes: dict
    covers: dict
    fallbacks: int
    solve: object  # KeySpace -> MaximaResult


class Bench:
    def __init__(self, name: str, seed: int, trace_path: Path | None):
        self.spec = WORKLOADS[name]
        self.io, self.lattice, self.geomlattice, self.solvers, order = import_program()
        workload = make_workload(self.spec, seed, zlib.crc32(name.encode()))
        self.oracle = Oracle(workload)
        self.path = WORK / f"{name}-{seed}-{os.getpid()}.json"
        workload.write(self.path)
        # share one int object per key value across all assignments
        ints = list(range(self.spec.n + 1))

        def key_space(perm):
            return order.KeySpace(map(ints.__getitem__, perm.tolist()))

        self.lattice_keys = [key_space(p) for p in workload.lattice_keys]
        self.baseline_keys = [key_space(p) for p in workload.baseline_keys]
        self.lattice_expected = [self.oracle.maxima(p) for p in workload.lattice_keys]
        self.baseline_expected = [self.oracle.maxima(p) for p in workload.baseline_keys]
        self.trace_path = trace_path
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def setup(self) -> Built:
        pinst = self.io.load_instance(self.path)
        if self.spec.kind == "convex":
            glat = self.geomlattice.build_geometric_lattice(pinst.geometry)
            solve_geometric = self.geomlattice.solve_lattice_geometric
            return Built(
                glat.system,
                glat.lattice.nodes,
                glat.covers,
                glat.fallback_count,
                lambda keys: solve_geometric(glat, keys),
            )
        lat = self.lattice.build_lattice(pinst.system)
        self.lattice.compute_parents(lat)
        covers = self.lattice.good_covers(lat)
        solve_lattice = self.solvers.solve_lattice
        return Built(
            pinst.system,
            lat.nodes,
            covers,
            0,
            lambda keys: solve_lattice(pinst.system, keys, prebuilt=(lat, covers)),
        )

    def _phase(self, ops: int, span, fn):
        """Run one timed phase of ``ops`` operations; None if it raised."""
        self.attempted += ops
        gc.collect()
        try:
            with span:
                start = perf_counter()
                value = fn()
                elapsed = perf_counter() - start
        except Exception:
            traceback.print_exc()
            self.failed += ops
            return None
        return value, elapsed

    def _tally(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.correct = False
            for line in problems:
                print(f"CHECK FAILED: {line}", file=sys.stderr)

    def round(self, tracer=None) -> dict:
        """One set-up, one lattice batch, one baseline batch; all checked."""
        span = tracer.span if tracer else (lambda _name: nullcontext())
        nb = len(self.baseline_keys)
        out: dict = {}
        phase = self._phase(1, span("bench.setup"), self.setup)
        if phase is None:
            self.attempted += len(self.lattice_keys) + 2 * nb
            self.failed += len(self.lattice_keys) + 2 * nb
            return out
        built, out["setup_s"] = phase
        self._tally(
            check_system(built.system.sets, self.oracle)
            + check_structure(built.nodes, built.covers, built.fallbacks, self.oracle)
        )
        cover_total = sum(len(c) for c in built.covers.values())
        out["structure"] = {
            "lattice.nodes": len(built.nodes),
            "lattice.virtual_nodes": sum(1 for node in built.nodes.values() if node.virtual),
            "lattice.cover_total": cover_total,
            "lattice.fallbacks": built.fallbacks,
        }
        budget = self.spec.n + cover_total

        phase = self._phase(
            len(self.lattice_keys),
            span("bench.solve"),
            lambda: [built.solve(keys) for keys in self.lattice_keys],
        )
        if phase is not None:
            results, out["solve_s"] = phase
            for result, expected in zip(results, self.lattice_expected):
                self._tally(check_lattice(result, expected, budget))
            out["lattice_comparisons"] = sum(r.comparisons for r in results)
            out["budget"] = budget * len(results)

        system, sort, bucket = built.system, self.solvers.solve_sort, self.solvers.solve_bucket
        phase = self._phase(
            2 * nb,
            span("bench.baseline"),
            lambda: [(sort(system, keys), bucket(system, keys)) for keys in self.baseline_keys],
        )
        if phase is not None:
            results, out["baseline_s"] = phase
            for (by_sort, by_bucket), expected in zip(results, self.baseline_expected):
                self._tally(check_sort(by_sort, expected, self.oracle))
                self._tally(check_bucket(by_bucket, expected, self.oracle))
            out["sort_comparisons"] = sum(r.comparisons for r, _ in results)
            out["bucket_comparisons"] = sum(r.comparisons for _, r in results)
        return out

    def measure(self, seconds: float) -> dict:
        """Whole rounds while one more round is expected to end within ``seconds``."""
        rounds = []
        start = perf_counter()
        while not rounds or (perf_counter() - start) * (len(rounds) + 1) / len(rounds) <= seconds:
            rounds.append(self.round())
            print(
                f"round {len(rounds)}: "
                + " ".join(f"{k}={v:.4f}" for k, v in rounds[-1].items() if k.endswith("_s")),
                file=sys.stderr,
            )
        metrics = {}
        for name, unit in (
            ("setup_s", "s"),
            ("solve_s", "s"),
            ("baseline_s", "s"),
            ("lattice_comparisons", "count"),
        ):
            samples = [r[name] for r in rounds if name in r]
            metrics[name] = {"value": statistics.median(samples) if samples else 0.0, "unit": unit}
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = {"value": peak_kib / 1024, "unit": "MB"}
        return metrics

    def traced(self) -> dict:
        """One round traced between two untraced ones; per-layer metrics.

        The untraced rounds give the tracing overhead of each phase.
        """
        from tracing import COUNTED, TIMED, Tracer, layer_name

        before = self.round()
        tracer = Tracer()
        tracer.install()
        try:
            traced = self.round(tracer)
        finally:
            tracer.uninstall()
        after = self.round()
        tracer.write(self.trace_path)
        self_s = tracer.self_times()
        calls = tracer.calls
        metrics: dict = {}
        for module, attr in TIMED:
            name = layer_name(module, attr)
            metrics[f"{name}.s"] = (self_s.get(name, 0.0), "s")
        for name in ["geomlattice.geometric_cover"] + [layer_name(*t) for t in COUNTED]:
            metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        regions = calls.get("geomlattice.region", 0)
        clips = calls.get("geometry.clip_convex", 0)
        metrics["geomlattice.region.hit_ratio"] = (1 - clips / regions if regions else 0.0, "ratio")
        for name, value in traced.get("structure", {}).items():
            metrics[name] = (value, "count")
        lattice_cmp = traced.get("lattice_comparisons", 0)
        metrics["order.comparisons.lattice"] = (lattice_cmp, "count")
        metrics["order.comparisons.sort"] = (traced.get("sort_comparisons", 0), "count")
        metrics["order.comparisons.bucket"] = (traced.get("bucket_comparisons", 0), "count")
        budget = traced.get("budget", 0)
        metrics["order.budget_ratio"] = (lattice_cmp / budget if budget else 0.0, "ratio")
        spec = self.spec
        kn = spec.k * (spec.n + spec.m) * len(self.lattice_keys)
        metrics["order.ratio_kn"] = (lattice_cmp / kn if kn else 0.0, "ratio")
        overhead = {
            phase: 2 * traced[phase] / (before[phase] + after[phase]) - 1
            for phase in ("setup_s", "solve_s", "baseline_s")
            if phase in traced and phase in before and phase in after
        }
        metrics["trace.setup_overhead"] = (overhead.get("setup_s", 0.0), "ratio")
        for phase, share in overhead.items():
            print(f"tracing overhead on {phase}: {share:+.1%}", file=sys.stderr)
        for name in tracer.absent:
            print(f"absent: {name} (no longer in the program; reported as 0)", file=sys.stderr)
        return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}

    def close(self) -> None:
        self.path.unlink(missing_ok=True)


def run_once(args) -> int:
    WORK.mkdir(exist_ok=True)
    bench = Bench(args.workload, args.seed, WORK / f"trace-{args.workload}-{args.seed}.json")
    try:
        metrics = bench.traced() if args.trace else bench.measure(args.seconds)
    finally:
        bench.close()
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": bench.correct,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def repeat(args) -> int:
    """Run the workload ``args.repeat`` times and report the spread per metric."""
    bounds = {
        m["name"]: m["bound"]
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    values: dict[str, list[float]] = {}
    shares = []
    WORK.mkdir(exist_ok=True)
    for seed in range(args.seed, args.seed + args.repeat):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        (WORK / f"repeat-{args.workload}-{seed}.log").write_text(proc.stderr)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: seed {seed} exited with code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.append(f"{result['failed']}/{result['attempted']}")
        print(f"seed {seed}: correct={result['correct']} failed={shares[-1]} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    summary = {}
    print(f"{'metric':<22}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}{'/bound':>8}")
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        median = statistics.median(vals)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        ratio = spread / bound if bound else float("nan")
        print(f"{name:<22}{median:>12.6g}{q1:>12.6g}{q3:>12.6g}{spread:>9.3f}"
              f"{bound if bound is not None else '-':>7}{ratio:>8.2f}")
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
    print(f"failed/attempted per run: {' '.join(shares)}")
    print(json.dumps({"workload": args.workload, "runs": args.repeat, "metrics": summary}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="run N times on consecutive seeds")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    return repeat(args) if args.repeat else run_once(args)


if __name__ == "__main__":
    sys.exit(main())
