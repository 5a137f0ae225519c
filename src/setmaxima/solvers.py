"""The four set-maxima solvers, all reporting exact comparison counts.

* lattice propagation over good-covers (the interesting one)
* merge-sort baseline
* bucket baseline
* brute-force oracle (unaudited key access, reference counts only)

Each solve owns one ledger; audited solvers never read raw keys.

The lattice and its covers depend only on the sets, never on the keys.
``solve_lattice`` therefore answers a key assignment from the lattice's
:class:`~setmaxima.lattice.SolvePlan`, compiled on the first solve over a
(lattice, covers) pair and reused by every later one: one
:meth:`~setmaxima.order.KeySpace.max_of_class` per non-empty class, then
one :meth:`~setmaxima.order.KeySpace.propagate` per layer, deepest first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .lattice import (
    Label,
    Lattice,
    build_lattice,
    compute_parents,
    good_covers,
    label_sort_key,
)
from .order import ComparisonLedger, KeySpace
from .setsystem import SetSystem


@dataclass(frozen=True)
class MaximaResult:
    algorithm: str
    maxima: tuple[int, ...]
    comparisons: int
    bound: int

    def to_record(self, system: SetSystem, k: int | None = None, ok: bool | None = None) -> dict:
        ratio = self.comparisons / self.bound if self.bound else 0.0
        rec = {
            "algorithm": self.algorithm,
            "n": system.n,
            "m": system.m,
            "p": system.p,
            "k": k,
            "comparisons": self.comparisons,
            "bound": self.bound,
            "ok": ok,
        }
        rec["ratio"] = ratio
        return rec


def solve_bruteforce(system: SetSystem, keys: KeySpace) -> MaximaResult:
    """Ground truth by direct scan of the raw keys (unaudited).

    The reported comparison count is the reference sum(|S_i| - 1): what a
    per-set scan would pay without sharing any work.
    """
    system.require_valid()
    raw = keys.oracle_keys()
    maxima = tuple(max(s, key=raw.__getitem__) for s in system.sets)
    reference = system.p - system.m
    return MaximaResult("brute", maxima, reference, reference)


def sort_comparison_bound(n: int) -> int:
    return n * math.ceil(math.log2(n)) if n > 1 else 0


def solve_sort(
    system: SetSystem, keys: KeySpace, ledger: ComparisonLedger | None = None
) -> MaximaResult:
    """Sort all of X by merge sort, then answer every set for free.

    After sorting, each element's rank is known, so per-set maxima are
    membership lookups with zero further comparisons.
    """
    system.require_valid()
    ledger = ledger if ledger is not None else ComparisonLedger()
    start = ledger.count
    order = _merge_sort(list(range(system.n)), keys, ledger)
    rank = [0] * system.n
    for r, e in enumerate(order):
        rank[e] = r
    maxima = tuple(max(s, key=rank.__getitem__) for s in system.sets)
    used = ledger.count - start
    bound = sort_comparison_bound(system.n)
    if used > bound:
        raise AssertionError(f"merge sort used {used} > bound {bound}")
    return MaximaResult("sort", maxima, used, bound)


def _merge_sort(items: list[int], keys: KeySpace, ledger: ComparisonLedger) -> list[int]:
    if len(items) <= 1:
        return items
    mid = len(items) // 2
    left = _merge_sort(items[:mid], keys, ledger)
    right = _merge_sort(items[mid:], keys, ledger)
    out = []
    i = j = 0
    while i < len(left) and j < len(right):
        if keys.compare(left[i], right[j], ledger) < 0:
            out.append(left[i])
            i += 1
        else:
            out.append(right[j])
            j += 1
    out.extend(left[i:])
    out.extend(right[j:])
    return out


def bucket_comparison_bound(
    system: SetSystem, signatures: list[frozenset[int]] | None = None
) -> int:
    """Closed form: sum(|bucket| - 1) + sum_i(b_i - 1) over signature buckets.

    ``signatures`` may pass in ``system.signatures()`` already computed.
    """
    if signatures is None:
        signatures = system.signatures()
    buckets: dict[frozenset[int], int] = {}
    per_set: dict[int, int] = {i: 0 for i in range(1, system.m + 1)}
    for sig in signatures:
        if not sig:
            continue
        if sig not in buckets:
            buckets[sig] = 0
            for i in sig:
                per_set[i] += 1
        buckets[sig] += 1
    total = sum(size - 1 for size in buckets.values())
    total += sum(b - 1 for b in per_set.values() if b)
    return total


def solve_bucket(
    system: SetSystem, keys: KeySpace, ledger: ComparisonLedger | None = None
) -> MaximaResult:
    """Group elements into signature buckets; answer each set from the
    champions of the buckets it intersects."""
    system.require_valid()
    ledger = ledger if ledger is not None else ComparisonLedger()
    start = ledger.count
    signatures = system.signatures()
    buckets: dict[frozenset[int], list[int]] = {}
    for element, sig in enumerate(signatures):
        if sig:
            buckets.setdefault(sig, []).append(element)
    if len(buckets) > min(system.n, (1 << system.m) - 1):
        raise AssertionError("more buckets than distinct signatures can exist")
    # buckets in label order; each set meets its bucket champions in that order
    hits: list[list[int]] = [[] for _ in range(system.m + 1)]
    for sig in sorted(buckets, key=label_sort_key):
        champion = keys.max_of_class(buckets[sig], ledger)
        for i in sig:
            hits[i].append(champion)
    maxima = tuple(keys.max_of_class(hits[i], ledger) for i in range(1, system.m + 1))
    used = ledger.count - start
    bound = bucket_comparison_bound(system, signatures)
    if used != bound:
        raise AssertionError(f"bucket count {used} != closed form {bound}")
    return MaximaResult("bucket", maxima=maxima, comparisons=used, bound=bound)


def solve_lattice(
    system: SetSystem,
    keys: KeySpace,
    cover_mode: str = "greedy",
    ledger: ComparisonLedger | None = None,
    prebuilt: tuple[Lattice, dict[Label, tuple[Label, ...]]] | None = None,
    debug_check: bool = False,
) -> MaximaResult:
    """Reduce each class to a champion, then push champions up the
    cover-pruned DAG, deepest layer first.

    With ``prebuilt`` the caller supplies the lattice and per-node covers
    (the geometric path does); otherwise covers come from the requested
    abstract mode.  Either way the solve runs the lattice's cached
    :class:`SolvePlan` for those covers, so a prebuilt structure pays for
    the plan once and every later key assignment only compares.  The
    comparison count is asserted against the budget n + sum(|cover|) on
    every run.
    """
    system.require_valid()
    ledger = ledger if ledger is not None else ComparisonLedger()
    start = ledger.count
    if prebuilt is not None:
        lattice, covers = prebuilt
    else:
        lattice = compute_parents(build_lattice(system))
        covers = good_covers(lattice, mode=cover_mode)
    if (lattice.n, lattice.m) != (system.n, system.m):
        raise ValueError(
            f"lattice of n={lattice.n}, m={lattice.m} does not fit "
            f"the system of n={system.n}, m={system.m}"
        )
    plan = lattice.solve_plan(covers)

    champion: list[int | None] = [None] * len(plan.labels)
    for slot, members in plan.classes:
        champion[slot] = keys.max_of_class(members, ledger)
    for layer, steps in plan.layers:
        if debug_check:
            _check_loop_invariant(lattice, covers, dict(zip(plan.labels, champion)), keys, layer)
        keys.propagate(steps, champion, ledger)

    maxima = tuple(champion[slot] for slot in plan.outputs)
    if None in maxima:
        raise AssertionError(f"no champion reached set {maxima.index(None) + 1}")
    used = ledger.count - start
    if used > plan.budget:
        raise AssertionError(f"lattice count {used} > budget {plan.budget}")
    return MaximaResult("lattice", maxima, used, plan.budget)


def _check_loop_invariant(lattice, covers, champion, keys, layer):
    """Debug mode: before processing a layer, every node at or below it must
    already hold the max over its reachable classes (checked unaudited)."""
    raw = keys.oracle_keys()
    children: dict[Label, list[Label]] = {lb: [] for lb in lattice.nodes}
    for label, cover in covers.items():
        for parent in cover:
            children[parent].append(label)

    reach_best: dict[Label, int | None] = {}

    def best_of(label: Label) -> int | None:
        if label in reach_best:
            return reach_best[label]
        node = lattice.nodes[label]
        cands = [max(node.phi, key=raw.__getitem__)] if node.phi else []
        for child in children[label]:
            b = best_of(child)
            if b is not None:
                cands.append(b)
        result = max(cands, key=raw.__getitem__) if cands else None
        reach_best[label] = result
        return result

    for label, node in lattice.nodes.items():
        if node.layer >= layer:
            expected = best_of(label)
            if champion[label] != expected:
                raise AssertionError(
                    f"loop invariant broken at layer {layer}: node holds "
                    f"{champion[label]}, reachable max is {expected}"
                )


ALGORITHMS = {
    "lattice": solve_lattice,
    "sort": solve_sort,
    "bucket": solve_bucket,
    "brute": solve_bruteforce,
}
