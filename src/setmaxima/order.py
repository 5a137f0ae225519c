"""Hidden total order on element keys, plus the audited comparison gateway.

Every key comparison in the library is made by a :class:`KeySpace` method
that records it in a :class:`ComparisonLedger`.  :meth:`KeySpace.compare`
makes one comparison.  The audited batch operations make many in one call:
:meth:`KeySpace.propagate` reduces classes of elements to their largest
members, one per slot, then pushes those champions from slot to slot, any
number of layers in order, and returns every slot's champion;
:meth:`KeySpace.merge_sort` sorts a list of elements.  A batch validates
its indices once, before its first comparison, then records each
comparison as the same (i, j) pair, in the same order, as the equivalent
sequence of :meth:`KeySpace.compare` calls would.

A key space ranks its keys once, when it is built, into an int32 array.
Every batch is a numpy kernel over that array, run on inputs compiled once
and without keys (:func:`compile_classes`, :func:`compile_layer`,
:func:`compile_sort`).  The classes and each push layer are a
:class:`Scan`: one run of buffer positions per segment, laid out so that a
single ``np.maximum.accumulate`` gives the running maximum of every
segment at once (a segmented scan; Blelloch, "Prefix sums and their
applications", CMU-CS-90-190, 1990).  The running maximum just before a
push is the champion the push meets, so the counts and the transcript come
from the same arrays as the champions.  A merge sort runs on a
:class:`SortBatch`, its split tree one depth at a time: a merge compares
until the half with the smaller maximum runs out, so one
``np.maximum.reduceat`` per depth counts every merge of that depth.  Raw
key values are private; the single unaudited escape hatch is
:meth:`KeySpace.oracle_keys`, which exists only for brute-force oracles
and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise
from numbers import Integral
from typing import Iterable, Sequence

import numpy as np

from .arrays import sort_pairs

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
    the largest index in ``source`` (0 when empty).  ``heads`` holds each
    segment's first position, ``met`` the position before each push, where
    the running maximum it meets stands, and ``pushed`` the index each push
    reads, ``source[pushes]``, so a solve reads all three as compiled.
    """

    source: np.ndarray
    offset: np.ndarray
    pushes: np.ndarray
    ends: np.ndarray
    targets: np.ndarray
    span: int
    heads: np.ndarray
    met: np.ndarray
    pushed: np.ndarray


def _scan(
    source: np.ndarray, lengths: np.ndarray, targets: np.ndarray, pushes: np.ndarray | None = None
) -> Scan:
    """Lay ``source`` out in segments of ``lengths``; ``pushes`` defaults to
    every position after its segment's head, in buffer order."""
    ends = np.cumsum(lengths) - 1
    heads = ends - lengths + 1
    offset = np.repeat(np.arange(lengths.size, dtype=np.int64) << 32, lengths)
    if pushes is None:
        tail = np.ones(source.size, dtype=bool)
        tail[heads] = False
        pushes = np.flatnonzero(tail)
    span = int(source.max()) + 1 if source.size else 0
    return Scan(source, offset, pushes, ends, targets, span, heads, pushes - 1, source[pushes])


def _meet(rank: np.ndarray, scan: Scan) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The segmented running maximum of ``rank[scan.source]``, the rank of
    each push, and the int32 rank of the champion it meets (0 if none)."""
    run = rank[scan.source] + scan.offset
    np.maximum.accumulate(run, out=run)
    return run, rank[scan.pushed], run[scan.met].astype(np.int32)


def compile_classes(slots: Sequence[int], lengths: Sequence[int], members: Sequence[int]) -> Scan:
    """Compile classes into the class :class:`Scan` of
    :meth:`KeySpace.propagate`: class c, of slot ``slots[c]``, is the run
    of ``lengths[c]`` members that follows the earlier classes' runs in
    ``members``.

    Each class is one segment, its members in the given order: the first
    heads it and every later one costs one comparison, so a one-member
    class is a segment without a push.  Its final maximum goes to the
    class's slot.  Every class must be non-empty (else ValueError) and
    duplicate-free (else ValueError), and slots and members must be
    non-negative (else IndexError), so a call only range-checks ``span``,
    one more than the largest member, against its keys.
    """
    slots = np.asarray(slots, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    source = np.asarray(members, dtype=np.int64)
    if slots.shape != lengths.shape or int(lengths.sum()) != source.size:
        raise ValueError("a class needs one slot and one length, summing to the members")
    empty = np.flatnonzero(lengths <= 0)
    if empty.size:
        raise ValueError(f"the class of slot {slots[empty[0]]} is empty")
    scan = _scan(source, lengths, slots)
    segment, member = sort_pairs(scan.offset >> 32, source)
    if np.any((segment[1:] == segment[:-1]) & (member[1:] == member[:-1])):
        raise ValueError("a class holds an element twice")
    indices = np.concatenate((scan.targets, source))
    if indices.size and indices.min() < 0:
        raise IndexError(f"negative index in a class batch: {indices.min()}")
    return scan


def compile_layer(
    children: Sequence[int], parents: Sequence[int], sizes: Sequence[int] | None = None
) -> tuple[Scan, ...]:
    """Compile consecutive push layers, one :class:`Scan` each: push i
    moves the champion of slot ``children[i]`` into slot ``parents[i]``;
    the first ``sizes[0]`` pushes are the first layer, the next
    ``sizes[1]`` the second, and so on (one layer by default).

    No slot may both push and receive within a layer (else ValueError), so
    a layer's pushes are independent and run at once: each of its parent
    slots is one segment, headed by its own champion and followed by the
    pushes into it in push order, as one sort by (layer, parent, push)
    lays them out.  Slots must be non-negative (else IndexError).
    """
    child = np.asarray(children, dtype=np.int64)
    parent = np.asarray(parents, dtype=np.int64)
    sizes = np.array([child.size] if sizes is None else sizes, dtype=np.int64)
    if child.shape != parent.shape or int(sizes.sum()) != child.size:
        raise ValueError("a push needs one child and one parent slot, and one layer")
    low = min(child.min(initial=0), parent.min(initial=0))
    if low < 0:
        raise IndexError(f"negative slot in a push layer: {low}")
    # slot s of layer l as l * top + s
    top = int(max(child.max(initial=0), parent.max(initial=0))) + 1
    slot = np.repeat(np.arange(sizes.size) * top, sizes)
    pushing = slot + child
    slot += parent
    keys, order = sort_pairs(slot, np.arange(child.size))
    del slot  # each push-sized temporary goes once read, which bounds the peak
    # keys holds every receiving slot of every layer
    if keys.size and np.any(keys[np.searchsorted(keys, pushing) % keys.size] == pushing):
        raise ValueError("a slot both pushes and receives in one layer")
    del pushing
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    counts = np.diff(starts, append=child.size)
    segment_layer, targets = np.divmod(keys[starts], top)
    del keys
    # the k-th push in (layer, parent) order follows k earlier pushes and
    # the heads of its own and every earlier segment
    placed = np.arange(child.size) + np.repeat(np.arange(1, starts.size + 1), counts)
    source = np.empty(child.size + starts.size, dtype=np.int64)
    source[np.cumsum(counts + 1) - (counts + 1)] = targets
    source[placed] = child[order]
    pushes = np.empty(child.size, dtype=np.int64)
    pushes[order] = placed
    del order, placed
    # layer l has the pushes from firsts[l] on and the segments cuts[l]:
    # cuts[l + 1]; its buffer follows the earlier layers' pushes and heads
    firsts = np.cumsum(sizes) - sizes
    cuts = np.searchsorted(segment_layer, np.arange(sizes.size + 1)).tolist()
    return tuple(
        _scan(source[p + s:p + size + t], counts[s:t] + 1, targets[s:t], pushes[p:p + size] - (p + s))
        for p, size, s, t in zip(firsts.tolist(), sizes.tolist(), cuts, cuts[1:])
    )


@dataclass(frozen=True, eq=False)
class SortBatch:
    """Items compiled for :meth:`KeySpace.merge_sort`.

    Merge sort splits a run at ``len // 2``, so which positions of ``items``
    each merge meets depends only on their number.  ``levels`` holds the
    split tree one depth at a time, root first, as (``bounds``,
    ``partner``, ``lengths``): the positions are cut into consecutive
    segments that start at ``bounds`` and have ``lengths``.  A segment is
    one half of a run that merges at that depth, and ``partner[s]`` is the
    other half, or a run of one, which does not merge and is its own
    partner.  ``size`` is the summed length of every run that merges;
    ``top`` is the largest item (-1 without items).
    """

    items: np.ndarray
    levels: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    size: int
    top: int


def compile_sort(items: Iterable[int]) -> SortBatch:
    """Compile the items of one merge sort into a :class:`SortBatch`.

    The items must be distinct (else ValueError) and non-negative (else
    IndexError), so a sort only range-checks ``top`` against its keys.
    """
    items = np.fromiter(items, np.int64)
    ordered = np.sort(items)
    if items.size and ordered[0] < 0:
        raise IndexError(f"negative index in a sort batch: {ordered[0]}")
    if np.any(ordered[1:] == ordered[:-1]):
        raise ValueError("merge_sort items contain duplicates")
    levels = []
    size = 0
    starts = np.zeros(1, dtype=np.int64)
    lengths = np.array([items.size], dtype=np.int64)
    while lengths.max() > 1:
        # the runs of this depth, each cut into its two halves if it merges
        merges = lengths > 1
        cuts = 1 + merges
        first = np.cumsum(cuts) - cuts
        left = first[merges]
        bounds = np.empty(int(cuts.sum()), dtype=np.int64)
        bounds[first] = starts
        bounds[left + 1] = starts[merges] + lengths[merges] // 2
        partner = np.arange(bounds.size)
        partner[left], partner[left + 1] = left + 1, left
        size += int(lengths[merges].sum())
        starts, lengths = bounds, np.diff(bounds, append=items.size)
        levels.append((bounds, partner, lengths))
    top = int(items.max()) if items.size else -1
    return SortBatch(items, tuple(levels), size, top)


def _merge_pairs(rank: np.ndarray, batch: SortBatch) -> Iterable[tuple[int, int]]:
    """The (left head, right head) pair of every comparison of a merge sort
    of ``batch`` over ``rank``, the ranks of its items, in recursion order.

    At each depth, one sort by (run, rank) merges every run at once.  Step t
    of a run compares while both halves still have an element at merged
    position t or later; its heads are the first such element of each half,
    which a reverse running minimum finds.  The recursion finishes a run
    after every run that ends before it and every deeper run that ends with
    it, so the pairs go out by (run end, depth from the bottom).
    """
    positions = np.arange(rank.size)
    depths = len(batch.levels)
    keys, lefts, rights = [], [], []
    for depth, (bounds, partner, lengths) in enumerate(batch.levels):
        segment = np.repeat(np.arange(bounds.size), lengths)
        mate = partner[segment]
        merged = np.lexsort((rank, np.minimum(segment, mate)))
        # > 0 in a left half, < 0 in a right half, 0 in a run of one
        side = (mate - segment)[merged]
        # runs fill the same positions before and after the merge
        end = (bounds + lengths)[np.maximum(segment, mate)]
        head = []
        for half in (side > 0, side < 0):
            ahead = np.where(half, positions, rank.size)[::-1]
            head.append(np.minimum.accumulate(ahead)[::-1])
        step = np.flatnonzero((head[0] < end) & (head[1] < end))
        keys.append(end[step] * (depths + 1) + (depths - depth))
        lefts.append(merged[head[0][step]])
        rights.append(merged[head[1][step]])
    if not keys:
        return ()
    order = np.argsort(np.concatenate(keys), kind="stable")
    items = batch.items
    return zip(
        items[np.concatenate(lefts)[order]].tolist(),
        items[np.concatenate(rights)[order]].tolist(),
    )


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

    def compare(self, i: int, j: int, ledger: ComparisonLedger) -> int:
        """Return -1 if key i < key j, +1 if key i > key j; costs one comparison."""
        if i == j:
            raise ValueError(f"compare({i}, {j}): indices must be distinct")
        if not (0 <= i < self.n) or not (0 <= j < self.n):
            raise IndexError(f"element index out of range: compare({i}, {j})")
        ledger.note(i, j)
        return -1 if self._rank[i] < self._rank[j] else 1

    def propagate(
        self, classes: Scan, layers: Iterable[Scan], ledger: ComparisonLedger
    ) -> np.ndarray:
        """Reduce ``classes`` (see :func:`compile_classes`) into their slots,
        then run compiled push layers (see :func:`compile_layer`) in order.

        Returns the champion of every slot, up to the largest slot that a
        class or a layer names, as an int64 array of element indices with -1
        for an empty slot.  A class costs |class| - 1 comparisons, recorded
        class by class as ``compare(member, best)`` would, for each later
        member against the running best.  A push that meets a champion costs
        one comparison, recorded as ``compare(pushed, champion)`` would;
        absorbing into an empty slot is free, and so is meeting the same
        element again after it arrived on another path.  Pushes only move
        class champions between slots, and the classes were checked when they
        were compiled, so only ``classes.span`` is range-checked, once, before
        the first comparison.
        """
        if classes.span > self.n:
            raise IndexError(f"element index out of range in propagate: {classes.span - 1}")
        layers = tuple(layers)
        slots = max([int(classes.targets.max(initial=-1)) + 1, *(layer.span for layer in layers)])
        # rank r (1-based, as ``_rank`` holds them) is held by element[r];
        # rank 0, the empty slot, by -1
        rank = np.zeros(slots, dtype=np.int32)
        element = np.empty(self.n + 1, dtype=np.int64)
        element[0] = -1
        members = self._rank[classes.source]
        # a class's largest (rank, member) pair names its champion
        key = members.astype(np.int64) << 32
        key |= classes.source
        best = np.maximum.reduceat(key, classes.heads)
        rank[classes.targets] = best >> 32
        element[best >> 32] = best & _RANK
        ledger.count += int(classes.pushes.size)
        if ledger._transcript is not None:
            element[members] = classes.source
            _, pushed, met = _meet(self._rank, classes)
            self._record(ledger, element, pushed, met)
        for layer in layers:
            run, pushed, met = _meet(rank, layer)
            # a push compares unless it or the champion it meets is empty
            # (rank 0; no rank is negative), or both are the same element
            compared = np.logical_and(pushed, met)
            compared &= pushed != met
            ledger.count += int(np.count_nonzero(compared))
            if ledger._transcript is not None:
                self._record(ledger, element, pushed[compared], met[compared])
            rank[layer.targets] = run[layer.ends] & _RANK
        return element[rank]

    @staticmethod
    def _record(
        ledger: ComparisonLedger, element: np.ndarray, pushed: np.ndarray, met: np.ndarray
    ) -> None:
        ledger._transcript.extend(zip(element[pushed].tolist(), element[met].tolist()))

    def merge_sort(self, batch: SortBatch, ledger: ComparisonLedger) -> np.ndarray:
        """The items of ``batch`` (see :func:`compile_sort`) in ascending key
        order, as an int64 array, by top-down merge sort.

        A run splits at ``len // 2`` and sorts its left half first; each merge
        compares the heads of its two halves, recorded as ``compare(left head,
        right head)`` would.  The batch was checked when it was compiled, so
        only ``batch.top`` is range-checked here, before the first comparison.

        A merge compares until one half runs out, which happens at the smaller
        of the two half maxima, so it costs |run| less the elements of the run
        above that maximum.  Each level of the split tree is one
        ``np.maximum.reduceat`` over the item ranks and one count of the
        elements above their run's threshold; the sorted order itself is an
        argsort of the ranks.
        """
        if batch.top >= self.n:
            raise IndexError(f"element index out of range in merge_sort: {batch.top}")
        rank = self._rank[batch.items]
        tails = 0
        for bounds, partner, lengths in batch.levels:
            halves = np.maximum.reduceat(rank, bounds)
            ends = np.minimum(halves, halves[partner])
            tails += int(np.count_nonzero(rank > np.repeat(ends, lengths)))
        ledger.count += batch.size - tails
        if ledger._transcript is not None:
            ledger._transcript.extend(_merge_pairs(rank, batch))
        return batch.items[rank.argsort()]

    def oracle_keys(self) -> tuple[int, ...]:
        """Unaudited raw key access. Oracle and test use only: production
        solver paths must never call this."""
        return tuple(self._raw.tolist())

    def __repr__(self) -> str:
        return f"KeySpace(n={self.n})"
