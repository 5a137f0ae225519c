"""Hidden total order on element keys, plus the audited comparison gateway.

Every key comparison in the library is made by a :class:`KeySpace` method
that records it in a :class:`ComparisonLedger`.  :meth:`KeySpace.compare`
makes one comparison.  The audited batch operations make many in one call:
:meth:`KeySpace.max_of_class` reduces a class to its largest element, and
:meth:`KeySpace.propagate` pushes one lattice layer's champions into their
cover members.  A batch validates its indices once, then compares inline,
and records each comparison as the same (i, j) pair, in the same order, as
the equivalent sequence of :meth:`KeySpace.compare` calls would.  Raw key
values are private; the single unaudited escape hatch is
:meth:`KeySpace.oracle_keys`, which exists only for brute-force oracles and
tests.
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
        keys = self._keys
        transcript = ledger._transcript
        best = indices[0]
        best_key = keys[best]
        for idx in islice(indices, 1, None):
            if transcript is not None:
                transcript.append((idx, best))
            if keys[idx] > best_key:
                best, best_key = idx, keys[idx]
        ledger.count += len(indices) - 1
        return best

    def propagate(
        self,
        steps: Sequence[tuple[int, Sequence[int]]],
        champion: list[int | None],
        ledger: ComparisonLedger,
    ) -> None:
        """Push each child slot's champion into its parent slots, in order.

        ``champion`` maps slots to element indices (None for an empty slot)
        and is updated in place.  A champion that meets another costs one
        comparison, recorded as ``compare(child champion, parent champion)``
        would.  Children must not be parents within one call (one lattice
        layer at a time), so every key read is of an index range-checked
        before the first comparison.
        """
        read = {champion[child] for child, _ in steps}
        read.update(champion[p] for _, parents in steps for p in parents)
        read.discard(None)
        self._require_in_range(read, "propagate")
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

    def oracle_keys(self) -> tuple[int, ...]:
        """Unaudited raw key access. Oracle and test use only: production
        solver paths must never call this."""
        return self._keys

    def __repr__(self) -> str:
        return f"KeySpace(n={len(self._keys)})"
