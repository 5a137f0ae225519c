"""Hidden total order on element keys, plus the audited comparison gateway.

Every key comparison in the library is made by a :class:`KeySpace` method
that records it in a :class:`ComparisonLedger`.  :meth:`KeySpace.compare`
makes one comparison.  The audited batch operations make many in one call:
:meth:`KeySpace.max_of_class` reduces a class to its largest element,
:meth:`KeySpace.reduce_classes` reduces every class of a compiled solve
plan, :meth:`KeySpace.propagate` pushes champions into their cover members,
one or several lattice layers per call, and :meth:`KeySpace.merge_sort`
sorts a list of elements.  A batch validates its indices once, before its
first comparison (for ``reduce_classes``, the plan's largest index, as the
plan checked the rest when it was compiled; for ``propagate``, the whole
champion list it starts from), then compares inline, and records each
comparison as the same (i, j) pair, in the same order, as the equivalent
sequence of :meth:`KeySpace.compare` calls would.  Raw key values are
private; the single unaudited escape hatch is :meth:`KeySpace.oracle_keys`,
which exists only for brute-force oracles and tests.
"""

from __future__ import annotations

import random
from itertools import islice
from typing import Collection, Iterable, Sequence


class ComparisonLedger:
    """Monotone counter of key comparisons, optionally recording (i, j) pairs."""

    __slots__ = ("count", "_transcript")

    def __init__(self, record_transcript: bool = False):
        self.count = 0
        self._transcript: list[tuple[int, int]] | None = (
            [] if record_transcript else None
        )

    def note(self, i: int, j: int) -> None:
        self.count += 1
        if self._transcript is not None:
            self._transcript.append((i, j))

    @property
    def transcript(self) -> tuple[tuple[int, int], ...] | None:
        if self._transcript is None:
            return None
        return tuple(self._transcript)

    def __repr__(self) -> str:
        return f"ComparisonLedger(count={self.count})"


class KeySpace:
    """Immutable store of n pairwise-distinct integer keys.

    Indexing is stable for the lifetime of the object; ordering information
    leaks only through :meth:`compare` (audited) and :meth:`oracle_keys`
    (unaudited, oracle/test use only).
    """

    __slots__ = ("_keys",)

    def __init__(self, keys: Iterable[int]):
        ks = tuple(keys)
        if len(set(ks)) != len(ks):
            raise ValueError("keys must be pairwise distinct")
        self._keys = ks

    @property
    def n(self) -> int:
        return len(self._keys)

    @classmethod
    def random(cls, n: int, seed: int) -> "KeySpace":
        """A random permutation of 1..n."""
        rng = random.Random(seed)
        keys = list(range(1, n + 1))
        rng.shuffle(keys)
        return cls(keys)

    def compare(self, i: int, j: int, ledger: ComparisonLedger) -> int:
        """Return -1 if key i < key j, +1 if key i > key j; costs one comparison."""
        if i == j:
            raise ValueError(f"compare({i}, {j}): indices must be distinct")
        if not (0 <= i < len(self._keys)) or not (0 <= j < len(self._keys)):
            raise IndexError(f"element index out of range: compare({i}, {j})")
        ledger.note(i, j)
        return -1 if self._keys[i] < self._keys[j] else 1

    def _require_in_range(self, indices: Collection[int], where: str) -> None:
        if not indices:
            return
        lo, hi = min(indices), max(indices)
        if lo < 0 or hi >= len(self._keys):
            raise IndexError(f"element index out of range in {where}: {lo if lo < 0 else hi}")

    def max_of_class(self, indices: Sequence[int], ledger: ComparisonLedger) -> int:
        """Index of the largest key among ``indices``; exactly len-1 comparisons.

        Records the pairs ``compare(idx, best)`` would, for each later index
        against the running best.
        """
        if len(indices) == 0:
            raise ValueError("max_of_class of an empty class")
        if len(set(indices)) != len(indices):
            raise ValueError("max_of_class indices contain duplicates")
        self._require_in_range(indices, "max_of_class")
        champion: list[int | None] = [None]
        self.reduce_classes(((0, indices),), max(indices), champion, ledger)
        return champion[0]

    def reduce_classes(
        self,
        classes: Sequence[tuple[int, Sequence[int]]],
        top: int,
        champion: list[int | None],
        ledger: ComparisonLedger,
    ) -> None:
        """``champion[slot] = max_of_class(members)`` for each (slot, members).

        For classes checked once in advance, as a compiled solve plan's are:
        each must be non-empty, duplicate-free and non-negative, and ``top``
        must be the largest member of all.  Only ``top`` is range-checked
        here, once per call; comparisons and transcript equal the
        :meth:`max_of_class` calls'.
        """
        if top >= len(self._keys):
            raise IndexError(f"element index out of range in reduce_classes: {top}")
        keys = self._keys
        transcript = ledger._transcript
        count = 0
        for slot, members in classes:
            best = members[0]
            best_key = keys[best]
            for idx in islice(members, 1, None):
                if transcript is not None:
                    transcript.append((idx, best))
                if keys[idx] > best_key:
                    best, best_key = idx, keys[idx]
            champion[slot] = best
            count += len(members) - 1
        ledger.count += count

    def propagate(
        self,
        steps: Iterable[tuple[int, Sequence[int]]],
        champion: list[int | None],
        ledger: ComparisonLedger,
    ) -> None:
        """Push each child slot's champion into its parent slots, in order.

        ``champion`` maps slots to element indices (None for an empty slot)
        and is updated in place.  A champion that meets another costs one
        comparison, recorded as ``compare(child champion, parent champion)``
        would.  Every index in ``champion`` is range-checked once, before the
        first comparison.  Pushes only move those indices between slots, so
        every key read is of a checked index, even when a slot that received
        pushes later pushes as a child: several lattice layers, deepest
        first, may share one call.
        """
        self._require_in_range([v for v in champion if v is not None], "propagate")
        keys = self._keys
        transcript = ledger._transcript
        count = 0
        for child, parents in steps:
            value = champion[child]
            if value is None:
                continue
            value_key = keys[value]
            for parent in parents:
                cur = champion[parent]
                if cur is None or cur == value:
                    # absorbing into an empty slot is free, and an element never
                    # needs comparing with itself when it arrives on two paths
                    champion[parent] = value
                    continue
                count += 1
                if transcript is not None:
                    transcript.append((value, cur))
                if value_key > keys[cur]:
                    champion[parent] = value
        ledger.count += count

    def merge_sort(self, items: Iterable[int], ledger: ComparisonLedger) -> list[int]:
        """``items`` in ascending key order, by top-down merge sort.

        A run splits at ``len // 2`` and sorts its left half first; each merge
        compares the heads of its two halves, recorded as
        ``compare(left head, right head)`` would.  The items must be distinct
        and in range, which is checked before the first comparison.
        """
        items = list(items)
        if len(set(items)) != len(items):
            raise ValueError("merge_sort items contain duplicates")
        self._require_in_range(items, "merge_sort")
        keys = self._keys
        transcript = ledger._transcript
        count = 0

        def sort(run: list[int]) -> list[int]:
            nonlocal count
            size = len(run)
            if size <= 1:
                return run
            mid = size // 2
            left, right = sort(run[:mid]), sort(run[mid:])
            out: list[int] = []
            take = out.append
            i = j = 0
            a, b = left[0], right[0]
            a_key, b_key = keys[a], keys[b]
            while True:
                if transcript is not None:
                    transcript.append((a, b))
                if a_key < b_key:
                    take(a)
                    i += 1
                    if i == mid:
                        break
                    a = left[i]
                    a_key = keys[a]
                else:
                    take(b)
                    j += 1
                    if j == size - mid:
                        break
                    b = right[j]
                    b_key = keys[b]
            # every comparison moved one head to the output
            count += i + j
            out += left[i:]
            out += right[j:]
            return out

        result = sort(items)
        ledger.count += count
        return result

    def oracle_keys(self) -> tuple[int, ...]:
        """Unaudited raw key access. Oracle and test use only: production
        solver paths must never call this."""
        return self._keys

    def __repr__(self) -> str:
        return f"KeySpace(n={len(self._keys)})"
