"""Hidden total order on element keys, plus the audited comparison gateway.

Every key comparison in the library is made by a :class:`KeySpace` method
that records it in a :class:`ComparisonLedger`.  :meth:`KeySpace.compare`
makes one comparison.  The audited batch operations make many in one call:
:meth:`KeySpace.reduce_classes` reduces classes of elements to their
largest members, :meth:`KeySpace.propagate` pushes champions from slot to
slot, one or several layers per call, and :meth:`KeySpace.merge_sort`
sorts a list of elements.  A batch validates its indices once, before its
first comparison, then records each comparison as the same (i, j) pair,
in the same order, as the equivalent sequence of :meth:`KeySpace.compare`
calls would.

A key space ranks its keys once, when it is built, into an int32 array.
The two slot batches are numpy kernels over that array, run on inputs
compiled once and without keys (:func:`compile_classes`,
:func:`compile_layer`) into a :class:`Scan`: one run of buffer positions
per segment, laid out so that a single ``np.maximum.accumulate`` gives the
running maximum of every segment at once (a segmented scan; Blelloch,
"Prefix sums and their applications", CMU-CS-90-190, 1990).  The running
maximum just before a push is the champion the push meets, so the counts
and the transcript come from the same arrays as the champions.  Raw key
values are private; the single unaudited escape hatch is
:meth:`KeySpace.oracle_keys`, which exists only for brute-force oracles
and tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, pairwise
from numbers import Integral
from typing import Collection, Iterable, Sequence

import numpy as np

# A scan value is (segment << 32) + rank; the low 32 bits give the rank back.
_RANK = (1 << 32) - 1


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


@dataclass(frozen=True, eq=False)
class Scan:
    """Key-independent layout of one segmented running maximum.

    Buffer position p reads the rank of ``source[p]``: of an element for a
    class batch, of a slot's champion for a push layer.  Segment s is a run
    of consecutive positions ending at ``ends[s]``; it adds ``offset = s <<
    32`` to what it reads, so one running maximum over the whole buffer
    restarts at every segment, and its final maximum goes to slot
    ``targets[s]``.  The first position of a segment is its head; every
    other one is a push, and ``pushes`` lists them in the order in which the
    equivalent ``compare`` calls would meet them.  ``span`` is one more than
    the largest index in ``source`` (0 when empty).
    """

    source: np.ndarray
    offset: np.ndarray
    pushes: np.ndarray
    ends: np.ndarray
    targets: np.ndarray
    span: int


def _scan(
    source: np.ndarray, lengths: np.ndarray, targets: np.ndarray, pushes: np.ndarray | None = None
) -> Scan:
    """Lay ``source`` out in segments of ``lengths``; ``pushes`` defaults to
    every position after its segment's head, in buffer order."""
    ends = np.cumsum(lengths) - 1
    offset = np.repeat(np.arange(lengths.size, dtype=np.int64) << 32, lengths)
    if pushes is None:
        tail = np.ones(source.size, dtype=bool)
        tail[ends - lengths + 1] = False
        pushes = np.flatnonzero(tail)
    span = int(source.max()) + 1 if source.size else 0
    return Scan(source, offset, pushes, ends, targets, span)


def _meet(rank: np.ndarray, scan: Scan) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The segmented running maximum of ``rank`` laid out by ``scan``, the
    rank of each push, and the rank of the champion it meets (0 if none)."""
    run = rank + scan.offset
    np.maximum.accumulate(run, out=run)
    return run, rank[scan.pushes], run[scan.pushes - 1] & _RANK


@dataclass(frozen=True, eq=False)
class ClassBatch:
    """Classes compiled for :meth:`KeySpace.reduce_classes`.

    A one-member class needs no comparison: its member is written to its
    slot (``seed_slots`` receive ``seed_members``).  Each larger class is
    one segment of ``scan``, members in the given order, starting at
    ``starts``: the first member heads it and every later one costs one
    comparison.  ``top`` is the largest member of any class, one-member
    classes included (-1 without classes).
    """

    seed_slots: np.ndarray
    seed_members: np.ndarray
    scan: Scan
    starts: np.ndarray
    top: int

    @property
    def count(self) -> int:
        """The comparisons of one reduction: sum(|class| - 1)."""
        return int(self.scan.pushes.size)


def compile_classes(classes: Iterable[tuple[int, Sequence[int]]]) -> ClassBatch:
    """Compile (slot, members) pairs into a :class:`ClassBatch`.

    Every class must be non-empty (else ValueError) and duplicate-free
    (else ValueError), and slots and members must be non-negative (else
    IndexError), so a reduction only range-checks ``top`` against its keys.
    """
    seeds: list[tuple[int, int]] = []
    slots: list[int] = []
    runs: list[Sequence[int]] = []
    for slot, members in classes:
        if len(members) == 0:
            raise ValueError(f"the class of slot {slot} is empty")
        if len(members) == 1:
            seeds.append((slot, members[0]))
        else:
            slots.append(slot)
            runs.append(members)
    lengths = np.fromiter(map(len, runs), np.int64, len(runs))
    source = np.fromiter(chain.from_iterable(runs), np.int64, int(lengths.sum()))
    scan = _scan(source, lengths, np.array(slots, dtype=np.int64))
    starts = np.cumsum(lengths) - lengths
    order = np.lexsort((source, scan.offset))
    if np.any((np.diff(scan.offset[order]) == 0) & (np.diff(source[order]) == 0)):
        raise ValueError("a class holds an element twice")
    seed_slots = np.array([slot for slot, _ in seeds], dtype=np.int64)
    seed_members = np.array([member for _, member in seeds], dtype=np.int64)
    indices = np.concatenate((seed_slots, seed_members, scan.targets, source))
    if indices.size and indices.min() < 0:
        raise IndexError(f"negative index in a class batch: {indices.min()}")
    members = np.concatenate((seed_members, source))
    top = int(members.max()) if members.size else -1
    return ClassBatch(seed_slots, seed_members, scan, starts, top)


def compile_layer(children: Sequence[int], parents: Sequence[int]) -> Scan:
    """Compile one push layer: push i moves the champion of slot
    ``children[i]`` into slot ``parents[i]``, in order.

    No slot may both push and receive within a layer (else ValueError), so
    the pushes are independent and run at once: each parent slot is one
    segment, headed by its own champion and followed by the pushes into it
    in push order (a stable sort by parent).  Slots must be non-negative
    (else IndexError).
    """
    child = np.asarray(children, dtype=np.int64)
    parent = np.asarray(parents, dtype=np.int64)
    if child.shape != parent.shape:
        raise ValueError("a push needs one child and one parent slot")
    if child.size:
        if min(child.min(), parent.min()) < 0:
            raise IndexError(f"negative slot in a push layer: {min(child.min(), parent.min())}")
        receives = np.zeros(max(child.max(), parent.max()) + 1, dtype=bool)
        receives[parent] = True
        if receives[child].any():
            raise ValueError("a slot both pushes and receives in one layer")
    order = np.argsort(parent, kind="stable")
    targets, counts = np.unique(parent, return_counts=True)
    heads = np.cumsum(counts + 1) - (counts + 1)
    # the k-th push in parent order follows k earlier pushes and the heads
    # of its own and every earlier segment
    placed = np.arange(parent.size) + np.repeat(np.arange(1, targets.size + 1), counts)
    source = np.empty(parent.size + targets.size, dtype=np.int64)
    source[heads] = targets
    source[placed] = child[order]
    pushes = np.empty(parent.size, dtype=np.int64)
    pushes[order] = placed
    return _scan(source, counts + 1, targets, pushes)


class KeySpace:
    """Immutable store of n pairwise-distinct integer keys (Python or
    numpy integers; anything else is a TypeError).

    Indexing is stable for the lifetime of the object; ordering information
    leaks only through the audited methods and :meth:`oracle_keys`
    (unaudited, oracle/test use only).  ``_raw`` keeps the keys for
    :meth:`oracle_keys` in the narrowest dtype that holds them exactly:
    int32, int64, or Python ints beyond int64.  They are ranked once, by
    ``np.argsort``, or by a Python sort beyond int64: ``_rank`` holds 1 +
    the rank of each key among all n, as int32 (a permutation of 1..n),
    then a 0 that an empty slot, -1, reads.
    """

    __slots__ = ("_raw", "_rank")

    def __init__(self, keys: Iterable[int]):
        ks = tuple(keys)
        # a float would truncate into the int dtypes below
        if not all(issubclass(kind, Integral) for kind in set(map(type, ks))):
            i, key = next((i, k) for i, k in enumerate(ks) if not isinstance(k, Integral))
            raise TypeError(f"key {i} is not an integer: {key!r}")
        for dtype in (np.int32, np.int64):
            try:
                raw = np.array(ks, dtype=dtype)
                break
            except OverflowError:  # a key beyond this dtype
                pass
        else:
            ks = tuple(map(int, ks))  # numpy scalars too, so oracle keys stay ints
            raw = np.array(ks, dtype=object)
        if raw.dtype == object:
            order = sorted(range(len(ks)), key=ks.__getitem__)
            tied = any(ks[a] == ks[b] for a, b in pairwise(order))
        else:
            order = np.argsort(raw)
            ordered = raw[order]
            tied = bool(np.any(ordered[1:] == ordered[:-1]))
        if tied:
            raise ValueError("keys must be pairwise distinct")
        rank = np.zeros(len(ks) + 1, dtype=np.int32)
        rank[order] = np.arange(1, len(ks) + 1, dtype=np.int32)
        self._raw = raw
        self._rank = rank

    @property
    def n(self) -> int:
        return len(self._raw)

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
        if not (0 <= i < self.n) or not (0 <= j < self.n):
            raise IndexError(f"element index out of range: compare({i}, {j})")
        ledger.note(i, j)
        return -1 if self._rank[i] < self._rank[j] else 1

    def _require_in_range(self, indices: Collection[int], where: str) -> None:
        if not indices:
            return
        lo, hi = min(indices), max(indices)
        if lo < 0 or hi >= self.n:
            raise IndexError(f"element index out of range in {where}: {lo if lo < 0 else hi}")

    def reduce_classes(
        self, batch: ClassBatch, champion: np.ndarray, ledger: ComparisonLedger
    ) -> None:
        """``champion[slot]`` = the member of largest key, for each class of
        ``batch``.

        ``champion`` is an int64 array of element indices.  The batch was
        checked when it was compiled, so only ``batch.top`` is range-checked
        here, once per call, before the first comparison.  A class costs
        |class| - 1 comparisons, recorded class by class as ``compare(member,
        best)`` would, for each later member against the running best.
        """
        if batch.top >= self.n:
            raise IndexError(f"element index out of range in reduce_classes: {batch.top}")
        champion[batch.seed_slots] = batch.seed_members
        scan = batch.scan
        rank = self._rank[scan.source]
        # a class's largest (rank, member) pair names its champion
        key = rank.astype(np.int64) << 32
        key |= scan.source
        champion[scan.targets] = np.maximum.reduceat(key, batch.starts) & _RANK
        ledger.count += batch.count
        if ledger._transcript is not None:
            _, pushed, met = _meet(rank, scan)
            self._record(ledger, self._elements(rank, scan.source), pushed, met)

    def propagate(
        self, layers: Iterable[Scan], champion: np.ndarray, ledger: ComparisonLedger
    ) -> None:
        """Run compiled push layers (see :func:`compile_layer`) in order.

        ``champion`` is an int64 array mapping slots to element indices, -1
        for an empty slot, and is updated in place.  A push that meets a
        champion costs one comparison, recorded as ``compare(pushed,
        champion)`` would; absorbing into an empty slot is free, and so is
        meeting the same element again after it arrived on another path.
        Every index in ``champion`` is range-checked once, before the first
        comparison.  Pushes only move those indices between slots, so
        several layers, deepest first, may share one call.
        """
        layers = tuple(layers)
        if champion.size:
            lo, hi = int(champion.min()), int(champion.max())
            if lo < -1 or hi >= self.n:
                raise IndexError(
                    f"element index out of range in propagate: {lo if lo < -1 else hi}"
                )
        span = max((layer.span for layer in layers), default=0)
        if span > champion.size:
            raise IndexError(f"slot out of range in propagate: {span - 1}")
        rank = self._rank[champion]
        element = self._elements(rank, champion)
        for layer in layers:
            run, pushed, met = _meet(rank[layer.source], layer)
            # a push compares unless it or the champion it meets is empty
            # (rank 0), or both are the same element
            compared = (np.minimum(pushed, met) > 0) & (pushed != met)
            ledger.count += int(np.count_nonzero(compared))
            if ledger._transcript is not None:
                self._record(ledger, element, pushed[compared], met[compared])
            rank[layer.targets] = run[layer.ends] & _RANK
        champion[:] = element[rank]

    def _elements(self, rank: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Maps each rank in ``rank`` (1-based, as ``_rank`` holds them) to
        its element in ``indices``, and rank 0, the empty slot, to -1."""
        element = np.empty(self.n + 1, dtype=np.int64)
        element[rank] = indices
        element[0] = -1
        return element

    @staticmethod
    def _record(
        ledger: ComparisonLedger, element: np.ndarray, pushed: np.ndarray, met: np.ndarray
    ) -> None:
        ledger._transcript.extend(zip(element[pushed].tolist(), element[met].tolist()))

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
        keys = self._rank.tolist()
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
        return tuple(self._raw.tolist())

    def __repr__(self) -> str:
        return f"KeySpace(n={self.n})"
