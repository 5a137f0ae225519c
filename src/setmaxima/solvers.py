"""The four set-maxima solvers, all reporting exact comparison counts.

* lattice propagation over good-covers (the interesting one)
* merge-sort baseline
* bucket baseline
* brute-force oracle (unaudited key access, reference counts only)

Each solve owns one ledger; audited solvers never read raw keys.  A
:class:`~setmaxima.setsystem.SetSystem` is well formed from the moment it
is made, so no solver checks its input again.

The lattice and its covers depend only on the sets, never on the keys.
``solve_lattice`` therefore answers a key assignment from the lattice's
:class:`~setmaxima.lattice.SolvePlan`, compiled into numpy arrays on the
first solve over a (lattice, covers) pair and reused by every later one.
A solve is one :meth:`~setmaxima.order.KeySpace.propagate` call: it
reduces every class to its champion, a slot per lattice node, then pushes
every layer, deepest first, and returns the champions.  It range-checks
the plan's largest member against the keys once, before the first
comparison, and runs as an array kernel over the key space's ranks, so a
solve makes no Python call per comparison.

The sort baseline's split tree depends only on n: ``solve_sort`` compiles
a :class:`SortPlan` (the sort batch of all n elements, and the sets'
members end to end as the system's signature grouping holds them) on its
first solve over a :class:`~setmaxima.setsystem.SetSystem` and remembers
it on that system.
Each solve is one :meth:`~setmaxima.order.KeySpace.merge_sort` of the
plan's batch, a numpy kernel over the ranks with no Python call per
comparison, and one ``np.maximum.reduceat`` over the members for the
maxima.

Grouping elements by signature is key-independent too: ``solve_bucket``
compiles the system's signature grouping
(:meth:`~setmaxima.setsystem.SetSystem.signatures`, made once per
system and shared with the lattice build and the sort plan) into a
:class:`BucketPlan` on its first solve, remembers it on that (frozen)
system and reuses it.  The grouping's arrays are the plan's buckets as
they stand, and one sort of its (set, bucket) pairs lays out the per-set
layer.  Every later solve is one ``propagate`` call that reduces the
buckets and pushes each bucket's champion into the slot of every set it
meets, a single layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import sort_pairs
from .lattice import (
    Label,
    Lattice,
    build_lattice,
    compute_parents,
    good_covers,
)
from .order import (
    ComparisonLedger,
    KeySpace,
    Scan,
    SortBatch,
    compile_classes,
    compile_layer,
    compile_sort,
)
from .setsystem import SetSystem


@dataclass(frozen=True)
class MaximaResult:
    algorithm: str
    maxima: tuple[int, ...]
    comparisons: int
    bound: int

    @property
    def ratio(self) -> float:
        return self.comparisons / self.bound if self.bound else 0.0

    def to_record(self, system: SetSystem, k: int | None = None, ok: bool | None = None) -> dict:
        return {
            "algorithm": self.algorithm,
            "n": system.n,
            "m": system.m,
            "p": system.p,
            "k": k,
            "comparisons": self.comparisons,
            "bound": self.bound,
            "ok": ok,
            "ratio": self.ratio,
        }


def solve_bruteforce(system: SetSystem, keys: KeySpace) -> MaximaResult:
    """Ground truth by direct scan of the raw keys (unaudited).

    The reported comparison count is the reference sum(|S_i| - 1): what a
    per-set scan would pay without sharing any work.
    """
    raw = keys.oracle_keys()
    maxima = tuple(max(s, key=raw.__getitem__) for s in system.sets)
    reference = system.p - system.m
    return MaximaResult("brute", maxima, reference, reference)


def sort_comparison_bound(n: int) -> int:
    """n * ceil(log2 n), in integers: the float log2 rounds down just above
    large powers of two."""
    return n * (n - 1).bit_length() if n > 1 else 0


@dataclass(frozen=True, eq=False)
class SortPlan:
    """Key-independent schedule of a sort solve over one set system: the
    sort batch of all n elements (see :class:`~setmaxima.order.SortBatch`),
    and every set's members end to end in ``members``, set i from
    ``starts[i - 1]`` on."""

    batch: SortBatch
    members: np.ndarray
    starts: np.ndarray


def _compile_sort_plan(system: SetSystem) -> SortPlan:
    groups = system.signatures()
    return SortPlan(compile_sort(range(system.n)), groups.members, groups.starts)


def sort_plan(system: SetSystem) -> SortPlan:
    """The system's sort plan, compiled on first use and remembered on the
    system (see :meth:`SetSystem.compiled`)."""
    return system.compiled(_compile_sort_plan)


def solve_sort(
    system: SetSystem, keys: KeySpace, ledger: ComparisonLedger | None = None
) -> MaximaResult:
    """Sort all of X with one audited :meth:`KeySpace.merge_sort` of the
    system's :class:`SortPlan` batch, then answer every set for free.

    After sorting, each element's place in the order is known, so a set's
    maximum is its member of the latest place: one ``np.maximum.reduceat``
    over the plan's members answers every set, with no further comparison.
    """
    ledger = ledger if ledger is not None else ComparisonLedger()
    start = ledger.count
    plan = sort_plan(system)
    order = keys.merge_sort(plan.batch, ledger)
    used = ledger.count - start
    bound = sort_comparison_bound(system.n)
    if used > bound:
        raise AssertionError(f"merge sort used {used} > bound {bound}")
    place = np.empty(system.n, dtype=np.int64)
    place[order] = np.arange(system.n)
    maxima = order[np.maximum.reduceat(place[plan.members], plan.starts)]
    return MaximaResult("sort", tuple(maxima.tolist()), used, bound)


@dataclass(frozen=True, eq=False)
class BucketPlan:
    """Key-independent schedule of a bucket solve over one set system.

    Slots 0..b-1 number the buckets (the elements of one non-empty
    signature) in ``label_sort_key`` order of their signatures, as
    :class:`~setmaxima.setsystem.SignatureGroups` holds them, and slot
    b + i - 1 holds set i.  ``buckets`` holds every bucket's ascending
    members (see :func:`~setmaxima.order.compile_classes`).  ``per_set`` is
    one push layer from bucket slots into set slots, set by set, each set's
    buckets in slot order: the first push into an empty set slot is free and
    every later one compares, so its pairs are those of a reduction of each
    set's bucket champions.  Every set meets a bucket, so
    ``per_set.targets`` are the set slots in order and ``per_set.span`` is
    b + m.  ``bound`` is the closed form sum(|bucket| - 1) + sum_i(b_i - 1).
    """

    buckets: Scan
    per_set: Scan
    bound: int


def _compile_bucket_plan(system: SetSystem) -> BucketPlan:
    groups = system.signatures()
    count = groups.sizes.size
    if count > min(system.n, (1 << system.m) - 1):
        raise AssertionError("more buckets than distinct signatures can exist")
    buckets = compile_classes(np.arange(count), groups.sizes, groups.elements)
    # the (set, bucket slot) pairs, sorted set by set
    sets, slots = sort_pairs(groups.labels, np.repeat(np.arange(count), groups.degrees))
    (per_set,) = compile_layer(slots, sets + count - 1)
    bound = buckets.pushes.size + slots.size - system.m
    return BucketPlan(buckets, per_set, bound)


def bucket_plan(system: SetSystem) -> BucketPlan:
    """The system's bucket plan, compiled on first use and remembered on
    the system (see :meth:`SetSystem.compiled`)."""
    return system.compiled(_compile_bucket_plan)


def bucket_comparison_bound(system: SetSystem) -> int:
    """Closed form: sum(|bucket| - 1) + sum_i(b_i - 1) over signature buckets."""
    return bucket_plan(system).bound


def solve_bucket(
    system: SetSystem, keys: KeySpace, ledger: ComparisonLedger | None = None
) -> MaximaResult:
    """Reduce each signature bucket to its champion, then each set to the
    best champion of the buckets it meets.

    The grouping is the system's :class:`BucketPlan`, compiled on the first
    solve and reused by every later one, so a solve only compares, in one
    :meth:`~setmaxima.order.KeySpace.propagate` call over the buckets and
    the plan's per-set layer.
    """
    ledger = ledger if ledger is not None else ComparisonLedger()
    start = ledger.count
    plan = bucket_plan(system)
    champion = keys.propagate(plan.buckets, (plan.per_set,), ledger)
    used = ledger.count - start
    if used != plan.bound:
        raise AssertionError(f"bucket count {used} != closed form {plan.bound}")
    maxima = tuple(champion[plan.per_set.targets].tolist())
    return MaximaResult("bucket", maxima=maxima, comparisons=used, bound=plan.bound)


def solve_lattice(
    system: SetSystem,
    keys: KeySpace,
    cover_mode: str = "greedy",
    ledger: ComparisonLedger | None = None,
    prebuilt: tuple[Lattice, dict[Label, tuple[Label, ...]]] | None = None,
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
    champion = keys.propagate(plan.classes, [push for _, push in plan.layers], ledger)
    if champion.size < len(plan.labels):  # the slots no class or push names are empty
        champion = np.pad(champion, (0, len(plan.labels) - champion.size), constant_values=-1)
    maxima = champion[plan.outputs]
    if maxima.size and maxima.min() < 0:
        raise AssertionError(f"no champion reached set {int(maxima.argmin()) + 1}")
    maxima = tuple(maxima.tolist())
    used = ledger.count - start
    if used > plan.budget:
        raise AssertionError(f"lattice count {used} > budget {plan.budget}")
    return MaximaResult("lattice", maxima, used, plan.budget)

