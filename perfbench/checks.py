"""Answer checks that share no code with the program.

The expected maxima come from the benchmark's own containment test (see
``inputs.py``) and the keys it generated.  Each ``check_*`` function returns
a list of problems; an empty list means the result passed.  Every failed
check counts as a failed operation in ``run.py``.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from inputs import Workload


class Oracle:
    """Everything the checks need, computed from the generated workload alone."""

    def __init__(self, workload: Workload):
        spec = workload.spec
        sets = workload.sets
        self.n = spec.n
        self.k = spec.k if spec.kind == "convex" else None
        self.labels = tuple(frozenset(s.tolist()) for s in sets)
        self.flat = np.concatenate(sets)
        self.starts = np.cumsum([0] + [len(s) for s in sets[:-1]])
        self.bucket_count = bucket_count(self.n, sets)
        self.sort_bound = self.n * math.ceil(math.log2(self.n)) if self.n > 1 else 0

    def maxima(self, keys: np.ndarray) -> np.ndarray:
        """Per-set index of the largest key; ``keys`` is a permutation of 1..n."""
        element_of = np.empty(self.n + 1, dtype=np.int64)
        element_of[keys] = np.arange(self.n)
        return element_of[np.maximum.reduceat(keys[self.flat], self.starts)]


def bucket_count(n: int, sets) -> int:
    """Sum(|bucket| - 1) + sum_i(b_i - 1): the bucket solver's exact cost.

    A bucket holds the elements of one non-empty signature (the labels of
    the sets containing them); b_i counts the buckets inside set i.
    """
    signature: list[list[int]] = [[] for _ in range(n)]
    for label, members in enumerate(sets, start=1):
        for e in members.tolist():
            signature[e].append(label)
    buckets = Counter(tuple(sig) for sig in signature if sig)
    per_set = Counter(label for sig in buckets for label in sig)
    return sum(size - 1 for size in buckets.values()) + sum(b - 1 for b in per_set.values())


def check_system(sets, oracle: Oracle) -> list[str]:
    """The program's set system must be the one the benchmark generated."""
    if tuple(sets) == oracle.labels:
        return []
    if len(sets) != len(oracle.labels):
        return [f"system has {len(sets)} sets, expected {len(oracle.labels)}"]
    bad = [i + 1 for i, (got, want) in enumerate(zip(sets, oracle.labels)) if got != want]
    return [f"system sets differ from the generated ones at labels {bad[:5]}"]


def check_structure(nodes, covers, fallbacks: int, oracle: Oracle) -> list[str]:
    """Covers are good covers by lattice nodes; on convex workloads each has
    at most k members and no node fell back to an abstract cover.

    ``nodes`` is keyed by lattice label; ``covers`` maps the labels
    of layer >= 2 to their cover members.
    """
    problems = []
    for label in nodes:
        if len(label) >= 2 and label not in covers:
            problems.append(f"node {sorted(label)} has no cover")
    for label, cover in covers.items():
        if frozenset().union(*cover) != label:
            problems.append(f"cover of {sorted(label)} does not union to its label")
        if any(not member < label or member not in nodes for member in cover):
            problems.append(f"cover of {sorted(label)} has a member that is not a smaller node")
        if oracle.k is not None and len(cover) > oracle.k:
            problems.append(f"cover of {sorted(label)} has {len(cover)} > k={oracle.k} members")
    if oracle.k is not None and fallbacks:
        problems.append(f"{fallbacks} fallback covers on a convex workload")
    return problems[:5]


def _maxima_problems(name: str, result, expected: np.ndarray) -> list[str]:
    got = np.asarray(result.maxima, dtype=np.int64)
    if got.shape != expected.shape:
        return [f"{name}: {got.size} maxima for {expected.size} sets"]
    wrong = np.flatnonzero(got != expected)
    if wrong.size:
        return [f"{name}: wrong maximum for sets {(wrong[:5] + 1).tolist()}"]
    return []


def check_lattice(result, expected: np.ndarray, budget: int) -> list[str]:
    """Right maxima within the n + sum(|cover|) budget (computed by the caller)."""
    problems = _maxima_problems("lattice", result, expected)
    if result.comparisons > budget:
        problems.append(f"lattice: {result.comparisons} comparisons > n + sum|cover| = {budget}")
    return problems


def check_sort(result, expected: np.ndarray, oracle: Oracle) -> list[str]:
    """Right maxima within n * ceil(log2 n) comparisons."""
    problems = _maxima_problems("sort", result, expected)
    if result.comparisons > oracle.sort_bound:
        problems.append(f"sort: {result.comparisons} comparisons > n*ceil(log2 n) = {oracle.sort_bound}")
    return problems


def check_bucket(result, expected: np.ndarray, oracle: Oracle) -> list[str]:
    """Right maxima with exactly the closed-form bucket cost."""
    problems = _maxima_problems("bucket", result, expected)
    if result.comparisons != oracle.bucket_count:
        problems.append(f"bucket: {result.comparisons} comparisons != closed form {oracle.bucket_count}")
    return problems
