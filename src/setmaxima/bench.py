"""Benchmark runner and instance verifier.

``cross_check`` is the one solve-and-check path: every record it returns
checks a solver against the brute-force oracle and its own comparison
budget.  ``solve``, ``verify`` and ``bench`` only format what it returns,
and a single bad record fails the whole run (the CLI exits non-zero).
"""

from __future__ import annotations

import csv
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, fields
from pathlib import Path

from .generators import KINDS, gen_instance
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

COVERS = ("greedy", "exact", "geometric")


def default_cover(geometric: bool) -> str:
    """Geometric covers when the instance has geometry, else greedy ones."""
    return "geometric" if geometric else "greedy"


def _solve_lattice(system, keys, cover, glat):
    if cover == "geometric":
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


CSV_COLUMNS = tuple(field.name for field in fields(BenchRecord))


@dataclass(frozen=True)
class BenchConfig:
    kind: str = "abstract"  # one of KINDS
    ns: tuple[int, ...] = (100,)
    ms: tuple[int, ...] = (10,)
    k: int = 4
    density: float = 0.3
    seeds: tuple[int, ...] = (0,)
    algos: tuple[str, ...] = tuple(SOLVERS)
    cover: str | None = None  # one of COVERS; None picks default_cover
    jobs: int = 1

    def __post_init__(self):
        if len(self.ns) != len(self.ms):
            raise ValueError("ns and ms must have equal length")
        if not self.ns:
            raise ValueError("need at least one size")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown instance kind {self.kind!r}")
        if self.cover is None:
            object.__setattr__(self, "cover", default_cover(self.kind != "abstract"))
        if self.cover not in COVERS:
            raise ValueError(f"unknown cover mode {self.cover!r}")
        if self.cover == "geometric" and self.kind == "abstract":
            raise ValueError("geometric cover mode needs a geometric instance kind")
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


@dataclass(frozen=True)
class Check:
    """One solver run and its two checks against the oracle and the budget."""

    algo: str
    cover: str
    result: MaximaResult
    agree: bool  # maxima equal the brute-force oracle's
    within: bool  # comparisons <= bound

    @property
    def ok(self) -> bool:
        return self.agree and self.within


def cross_check(
    pinst: ProblemInstance, algos: tuple[str, ...], covers: tuple[str, ...]
) -> tuple[GeometricLattice | None, list[Check]]:
    """Run each algorithm on one keyed instance (the lattice solver once per
    cover mode, the others with the first) against one oracle run.  The
    geometric lattice is built only when a cover mode is geometric."""
    if pinst.keys is None:
        raise ValueError("instance carries no keys")
    glat = None
    if "geometric" in covers:
        if pinst.geometry is None:
            raise ValueError("geometric cover mode needs an instance with geometry")
        glat = build_geometric_lattice(pinst.geometry)
    system = pinst.system
    oracle = solve_bruteforce(system, pinst.keys)
    checks = []
    for algo in algos:
        for cover in covers if algo == "lattice" else covers[:1]:
            result = run_solver(algo, system, pinst.keys, cover=cover, glat=glat)
            agree = result.maxima == oracle.maxima
            checks.append(Check(algo, cover, result, agree, result.comparisons <= result.bound))
    return glat, checks


def _run_one(task: tuple) -> list[BenchRecord]:
    kind, n, m, k, density, seed, algos, cover = task
    pinst = gen_instance(kind, n, m, k, density, seed)
    system = pinst.system
    k_field = pinst.geometry.k if pinst.geometry is not None else None
    instance_id = f"{kind}-n{n}-m{m}" + (f"-k{k_field}" if k_field else "") + f"-s{seed}"
    return [
        BenchRecord(
            instance_id=instance_id,
            n=system.n,
            m=system.m,
            p=system.p,
            k=k_field,
            algo=check.algo,
            comparisons=check.result.comparisons,
            bound=check.result.bound,
            ratio=check.result.ratio,
            ok=check.ok,
        )
        for check in cross_check(pinst, algos, (cover,))[1]
    ]


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
            # csv writes None (the k of an abstract row) as "" and a float
            # as its repr
            writer.writerow([*astuple(rec)[:-1], "true" if rec.ok else "false"])


@dataclass
class VerifyReport:
    ok: bool
    lines: list[str]

    def text(self) -> str:
        return "\n".join(self.lines)


def verify_instance(pinst: ProblemInstance) -> VerifyReport:
    """Run every solver, the lattice solver with every applicable cover mode,
    on one keyed instance and cross-check maxima, budgets, cover sizes, and
    the zero-comparison construction."""
    covers = ("geometric",) if pinst.geometry is not None else ("greedy", "exact")
    glat, checks = cross_check(pinst, tuple(SOLVERS), covers)
    # construction has no ledger channel at all; state it for the report
    lines = ["construction comparisons: 0"]
    for check in checks:
        tag = check.algo + (f"[{check.cover}]" if check.algo == "lattice" else "")
        lines.append(
            f"{'ok  ' if check.ok else 'FAIL'} {tag}: "
            f"comparisons={check.result.comparisons} bound={check.result.bound} "
            f"maxima {'agree' if check.agree else 'DISAGREE'}"
        )
    ok = all(check.ok for check in checks)
    if glat is not None:
        fallback = set(glat.fallback_labels)
        k_ok = all(len(c) <= pinst.geometry.k or lb in fallback for lb, c in glat.covers.items())
        ok = ok and k_ok
        sizes = Counter(len(c) for c in glat.covers.values())
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
