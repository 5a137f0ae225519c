"""Benchmark runner and instance verifier.

Every record cross-checks a solver against the brute-force oracle and its
own comparison budget; a single bad record fails the whole run (CI-grade:
the CLI exits non-zero).
"""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .generators import gen_convex_instance, gen_keys, gen_random_system, gen_rect_instance
from .geomlattice import GeometricLattice, build_geometric_lattice, solve_lattice_geometric
from .instance_io import ProblemInstance
from .order import KeySpace
from .setsystem import SetSystem
from .solvers import (
    MaximaResult,
    solve_bruteforce,
    solve_bucket,
    solve_lattice,
    solve_sort,
)

CSV_COLUMNS = (
    "instance_id",
    "n",
    "m",
    "p",
    "k",
    "algo",
    "comparisons",
    "bound",
    "ratio",
    "ok",
)


def _solve_lattice(system, keys, cover, glat):
    if cover == "geometric":
        if glat is None:
            raise ValueError("geometric cover mode needs a geometric instance")
        return solve_lattice_geometric(glat, keys)
    return solve_lattice(system, keys, cover_mode=cover)


# The one solver registry: name -> solve(system, keys, cover, glat).  The
# baseline entries look their solver up on each call, so it can be patched.
SOLVERS = {
    "lattice": _solve_lattice,
    "sort": lambda system, keys, cover, glat: solve_sort(system, keys),
    "bucket": lambda system, keys, cover, glat: solve_bucket(system, keys),
    "brute": lambda system, keys, cover, glat: solve_bruteforce(system, keys),
}


@dataclass(frozen=True)
class BenchRecord:
    instance_id: str
    n: int
    m: int
    p: int
    k: int | None
    algo: str
    comparisons: int
    bound: int
    ratio: float
    ok: bool


@dataclass(frozen=True)
class BenchConfig:
    kind: str = "abstract"  # abstract | convex | rect
    ns: tuple[int, ...] = (100,)
    ms: tuple[int, ...] = (10,)
    k: int = 4
    density: float = 0.3
    seeds: tuple[int, ...] = (0,)
    algos: tuple[str, ...] = tuple(SOLVERS)
    cover: str = "geometric"  # greedy | exact | geometric (geometric kinds only)
    jobs: int = 1

    def __post_init__(self):
        if len(self.ns) != len(self.ms):
            raise ValueError("ns and ms must have equal length")
        if self.kind not in ("abstract", "convex", "rect"):
            raise ValueError(f"unknown instance kind {self.kind!r}")
        if self.cover not in ("greedy", "exact", "geometric"):
            raise ValueError(f"unknown cover mode {self.cover!r}")
        unknown = [a for a in self.algos if a not in SOLVERS]
        if unknown:
            raise ValueError(f"unknown algorithm {unknown[0]!r}")


def run_solver(
    algo: str,
    system: SetSystem,
    keys: KeySpace,
    cover: str = "greedy",
    glat: GeometricLattice | None = None,
) -> MaximaResult:
    solve = SOLVERS.get(algo)
    if solve is None:
        raise ValueError(f"unknown algorithm {algo!r}")
    return solve(system, keys, cover, glat)


def _run_one(task: tuple) -> list[BenchRecord]:
    kind, n, m, k, density, seed, algos, cover = task
    if kind == "abstract":
        system = gen_random_system(n, m, density, seed)
        glat = None
        k_field = None
        effective_cover = cover if cover != "geometric" else "greedy"
    else:
        if kind == "convex":
            instance = gen_convex_instance(n, m, k, seed)
        else:
            instance = gen_rect_instance(n, m, seed)
        glat = build_geometric_lattice(instance)
        system = glat.system
        k_field = instance.k
        effective_cover = cover
    keys = gen_keys(n, seed + 1)
    oracle = solve_bruteforce(system, keys)
    instance_id = f"{kind}-n{n}-m{m}" + (f"-k{k_field}" if k_field else "") + f"-s{seed}"
    records = []
    for algo in algos:
        result = run_solver(algo, system, keys, cover=effective_cover, glat=glat)
        ok = result.maxima == oracle.maxima and result.comparisons <= result.bound
        ratio = result.comparisons / result.bound if result.bound else 0.0
        records.append(
            BenchRecord(
                instance_id=instance_id,
                n=system.n,
                m=system.m,
                p=system.p,
                k=k_field,
                algo=algo,
                comparisons=result.comparisons,
                bound=result.bound,
                ratio=ratio,
                ok=ok,
            )
        )
    return records


def run_bench(config: BenchConfig, out: str | Path | None = None) -> list[BenchRecord]:
    tasks = [
        (config.kind, n, m, config.k, config.density, seed, config.algos, config.cover)
        for n, m in zip(config.ns, config.ms)
        for seed in config.seeds
    ]
    records: list[BenchRecord] = []
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            for batch in pool.map(_run_one, tasks):
                records.extend(batch)
    else:
        for task in tasks:
            records.extend(_run_one(task))
    if out is not None:
        write_csv(records, out)
    return records


def write_csv(records: list[BenchRecord], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow(
                [
                    rec.instance_id,
                    rec.n,
                    rec.m,
                    rec.p,
                    "" if rec.k is None else rec.k,
                    rec.algo,
                    rec.comparisons,
                    rec.bound,
                    repr(rec.ratio),
                    "true" if rec.ok else "false",
                ]
            )


def read_csv(path: str | Path) -> list[BenchRecord]:
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV columns: {reader.fieldnames}")
        for row in reader:
            records.append(
                BenchRecord(
                    instance_id=row["instance_id"],
                    n=int(row["n"]),
                    m=int(row["m"]),
                    p=int(row["p"]),
                    k=int(row["k"]) if row["k"] else None,
                    algo=row["algo"],
                    comparisons=int(row["comparisons"]),
                    bound=int(row["bound"]),
                    ratio=float(row["ratio"]),
                    ok=row["ok"] == "true",
                )
            )
    return records


@dataclass
class VerifyReport:
    ok: bool
    lines: list[str]

    def text(self) -> str:
        return "\n".join(self.lines)


def verify_instance(
    pinst: ProblemInstance, keys: KeySpace | None = None
) -> VerifyReport:
    """Run every applicable solver on one instance and cross-check
    maxima, budgets, cover sizes, and the zero-comparison construction."""
    system = pinst.system
    keys = keys if keys is not None else pinst.keys
    if keys is None:
        raise ValueError("instance carries no keys and none were supplied")
    lines = []
    ok = True

    glat = None
    if pinst.geometry is not None:
        glat = build_geometric_lattice(pinst.geometry)
        system = glat.system
    # construction has no ledger channel at all; state it for the report
    lines.append("construction comparisons: 0")

    oracle = solve_bruteforce(system, keys)
    covers = ["geometric"] if glat is not None else ["greedy", "exact"]
    for algo in SOLVERS:
        for cover in covers if algo == "lattice" else [covers[0]]:
            result = run_solver(algo, system, keys, cover=cover, glat=glat)
            agree = result.maxima == oracle.maxima
            within = result.comparisons <= result.bound
            ok = ok and agree and within
            tag = f"{algo}" + (f"[{cover}]" if algo == "lattice" else "")
            lines.append(
                f"{'ok  ' if agree and within else 'FAIL'} {tag}: "
                f"comparisons={result.comparisons} bound={result.bound} "
                f"maxima {'agree' if agree else 'DISAGREE'}"
            )
    if glat is not None:
        fallback = set(glat.fallback_labels)
        oversize = [
            lb
            for lb, c in glat.covers.items()
            if len(c) > pinst.geometry.k and lb not in fallback
        ]
        k_ok = not oversize
        ok = ok and k_ok
        sizes: dict[int, int] = {}
        for c in glat.covers.values():
            sizes[len(c)] = sizes.get(len(c), 0) + 1
        max_cover = max(sizes, default=0)
        hist = " ".join(f"{s}x{sizes[s]}" for s in sorted(sizes))
        lines.append(
            f"{'ok  ' if k_ok else 'FAIL'} cover sizes: max={max_cover} "
            f"(k={pinst.geometry.k}), per-node sizes {{{hist}}}, "
            f"fallbacks={glat.fallback_count}"
        )
        virtual = sum(1 for nd in glat.lattice.nodes.values() if nd.virtual)
        lines.append(f"lattice nodes: {len(glat.lattice.nodes)} (virtual: {virtual})")
    lines.append("VERIFY " + ("PASS" if ok else "FAIL"))
    return VerifyReport(ok=ok, lines=lines)
