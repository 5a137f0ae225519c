"""Sparse intersection lattice over a set system.

Nodes are index sets I over the 1-based set labels [1..m]: one node per
distinct non-empty element signature, plus all m first-layer singletons
(kept whether or not elements map to them).  Each node carries the class
``phi`` of elements whose signature is exactly its label.  Parent edges
connect a node to the maximal lattice nodes strictly contained in it.

Parents and greedy covers come from numpy kernels that run over all nodes
at once.  They number the nodes internally and hold each label as packed
64-bit words, keeping only the non-zero ones; results are written back as
frozenset parents and cover tuples keyed by label.  The solve plan is
compiled from node ids too, its slot order, classes and push layers by
array sorts.

Building the lattice, computing parents, computing covers and compiling a
solve plan never touch element keys: no ledger is involved anywhere in
this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress
from typing import Iterable

import numpy as np

from .arrays import ranges, sort_pairs, spread
from .order import Scan, compile_classes, compile_layer
from .setsystem import SetSystem


class LatticeError(Exception):
    """Structurally impossible request, e.g. a cover for an uncoverable node."""


class CoverBudgetExceeded(Exception):
    """Exact cover search refused: too many parents for exhaustive search."""


Label = frozenset[int]


def label_sort_key(label: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(label))


def format_label(label: Iterable[int]) -> str:
    return "{" + ",".join(str(i) for i in sorted(label)) + "}"


@dataclass
class LatticeNode:
    label: Label
    phi: frozenset[int]
    virtual: bool = False
    parents: frozenset[Label] | None = None

    def __post_init__(self):
        if not self.label:
            raise LatticeError("empty node label")

    @property
    def layer(self) -> int:
        return len(self.label)


@dataclass(frozen=True, eq=False)
class SolvePlan:
    """Key-independent schedule of one lattice solve over fixed covers.

    Slots number the lattice labels in ``labels_by_layer()`` order.
    ``classes`` holds every non-empty class, by slot, members sorted (see
    :func:`~setmaxima.order.compile_classes`).  ``layers`` holds (layer,
    push layer) for layers >= 2, deepest first; a layer pushes each node's
    slot into the slots of its cover members, nodes in slot order and
    members in cover order (one :func:`~setmaxima.order.compile_layer`).
    ``outputs`` is the slot of the singleton {i} for i = 1..m, and
    ``budget`` is n + sum(|cover|).  Class members come from frozensets, so
    they are duplicate-free; compiling checks they are non-negative, and
    ``classes.span`` is one more than the largest member of every class, so
    a solve range-checks every index it can return at once.
    """

    labels: tuple[Label, ...]
    classes: Scan
    layers: tuple[tuple[int, Scan], ...]
    outputs: np.ndarray
    budget: int


class Lattice:
    """Mutable container for the node map; immutable once construction ends."""

    def __init__(self, m: int, n: int):
        self.m = m
        self.n = n
        self.nodes: dict[Label, LatticeNode] = {}
        self._plan: tuple[dict[Label, tuple[Label, ...]], SolvePlan] | None = None

    def add_node(self, label: Label, phi: frozenset[int], virtual: bool = False) -> LatticeNode:
        if label in self.nodes:
            raise LatticeError(f"duplicate node {format_label(label)}")
        node = LatticeNode(label=label, phi=phi, virtual=virtual)
        self.nodes[label] = node
        self._plan = None
        return node

    def solve_plan(self, covers: dict[Label, tuple[Label, ...]]) -> SolvePlan:
        """The solve plan for these covers, compiled on first use.

        The plan is cached for the covers dict it was compiled from (by
        identity, so the dict must not change afterwards); adding a node
        drops it.  A class with a negative member raises LatticeError
        first, then the first node of layer >= 2, in slot order, that has
        no cover or a cover member that is not a node.
        """
        if self._plan is None or self._plan[0] is not covers:
            self._plan = (covers, self._compile_plan(covers))
        return self._plan[1]

    def _compile_plan(self, covers: dict[Label, tuple[Label, ...]]) -> SolvePlan:
        labels = list(self.nodes)
        count = len(labels)
        ids = dict(zip(labels, range(count)))
        order, layer = _slot_order(labels)
        slot = np.argsort(order)  # each node's slot
        ordered = list(map(labels.__getitem__, order.tolist()))
        # every class, by (slot, member)
        phis = [node.phi for node in self.nodes.values()]
        lengths = np.fromiter(map(len, phis), np.int64, count)
        members = np.fromiter(chain.from_iterable(phis), np.int64, int(lengths.sum()))
        if members.size and members.min() < 0:
            raise LatticeError("a class holds a negative element index")
        owner, members = sort_pairs(np.repeat(slot, lengths), members)
        heads = np.flatnonzero(np.diff(owner, prepend=-1))
        classes = compile_classes(owner[heads], np.diff(heads, append=owner.size), members)
        # the covers of the nodes of layer >= 2, in slot order, as slots
        first = int(np.searchsorted(layer, 2))
        upper = ordered[first:]
        chosen = list(map(covers.get, upper))
        try:
            sizes = np.fromiter(map(len, chosen), np.int64, len(chosen))
            cover_ids = map(ids.__getitem__, chain.from_iterable(chosen))
            parents = slot[np.fromiter(cover_ids, np.int64, sizes.sum())]
        except (TypeError, KeyError):
            for label, cover in zip(upper, chosen):
                if cover is None:
                    raise LatticeError(f"node {format_label(label)} has no cover") from None
                missing = [c for c in cover if c not in ids]
                if missing:
                    raise LatticeError(
                        f"cover member {format_label(missing[0])} of "
                        f"{format_label(label)} is not a lattice node"
                    ) from None
            raise
        cuts = np.flatnonzero(np.diff(layer[first:], prepend=0))  # each layer's first node
        children = np.repeat(np.arange(first, count), sizes)
        pushes = compile_layer(children, parents, np.add.reduceat(sizes, cuts))
        layers = tuple(zip(layer[first:][cuts].tolist(), pushes))[::-1]
        outputs = slot[[ids[frozenset((i,))] for i in range(1, self.m + 1)]]
        budget = self.n + sum(map(len, covers.values()))
        return SolvePlan(tuple(ordered), classes, layers, outputs, budget)

    def add_virtual(self, label: Label) -> LatticeNode:
        return self.add_node(label, frozenset(), virtual=True)

    def node(self, label: Iterable[int]) -> LatticeNode:
        return self.nodes[frozenset(label)]

    def labels_by_layer(self) -> list[Label]:
        """The labels by layer, then by their ascending members."""
        labels = list(self.nodes)
        return list(map(labels.__getitem__, _slot_order(labels)[0].tolist()))

    def dump(self, covers: dict[Label, tuple[Label, ...]]) -> str:
        """One node per line: 'label | phi | parents | cover', layers ascending."""
        lines = []
        for label in self.labels_by_layer():
            node = self.nodes[label]
            phi = "{" + ",".join(str(e) for e in sorted(node.phi)) + "}"
            if node.parents is None:
                parents = "-"
            else:
                parents = ";".join(
                    format_label(p) for p in sorted(node.parents, key=label_sort_key)
                )
            cover = covers.get(label)
            cover_text = "-" if cover is None else ";".join(format_label(c) for c in cover)
            lines.append(f"{format_label(label)} | {phi} | {parents} | {cover_text}")
        return "\n".join(lines)


def build_lattice(system: SetSystem) -> Lattice:
    """One node per distinct non-empty signature plus the m singletons.

    Runs in O(p); performs no key comparisons.
    """
    lat = Lattice(m=system.m, n=system.n)
    classes = system.signature_classes()
    for i in range(1, system.m + 1):
        label = frozenset((i,))
        lat.add_node(label, frozenset(classes.get(label, ())))
    for label, elems in classes.items():
        if len(label) > 1:
            lat.add_node(label, frozenset(elems))
    return lat


# Pairs expanded at once (node and candidate subset, or node and parent),
# which bounds every per-pair temporary of the parent and cover kernels.
_BLOCK = 4096


@dataclass(frozen=True)
class _Words:
    """Labels as packed bit rows: label ``j`` holds index ``i`` when bit
    ``(i - 1) % 64`` of its word ``(i - 1) // 64`` is set.  Only non-zero
    words are kept, label after label, by ascending word ``index``; label
    ``j`` owns ``start[j]:start[j + 1]``.  ``size`` is each label's index
    count and ``members`` holds its indices minus one, ascending, label after
    label.  A full row is ``width`` words long.
    """

    start: np.ndarray
    index: np.ndarray
    bits: np.ndarray
    size: np.ndarray
    members: np.ndarray
    width: int


def _slot_order(labels: list[Label]) -> tuple[np.ndarray, np.ndarray]:
    """The label ids in ``labels_by_layer()`` order, and each one's layer:
    the ids by size, then one lexsort per layer of its labels' ascending
    members, rows of one length, so nothing is padded."""
    size = np.fromiter(map(len, labels), np.int64, len(labels))
    first = np.cumsum(size) - size
    members = np.fromiter(chain.from_iterable(labels), np.int64, int(size.sum()))
    order = np.argsort(size, kind="stable")
    layer = size[order]
    cuts = [*np.flatnonzero(np.diff(layer, prepend=-1)).tolist(), len(labels)]
    for lo, hi in zip(cuts, cuts[1:]):
        ids = order[lo:hi]
        rows = np.sort(members[spread(first[ids], size[ids])].reshape(hi - lo, -1))
        order[lo:hi] = ids[np.lexsort(rows.T[::-1])]
    return order, layer


def _pack(labels: list[Label]) -> _Words:
    """The labels as :class:`_Words`, label ``j`` at ``labels[j]``."""
    size = np.fromiter(map(len, labels), np.int64, len(labels))
    key = np.repeat(np.arange(len(labels), dtype=np.int64), size)
    members = np.fromiter(chain.from_iterable(labels), np.int64, len(key))
    members -= 1
    width = (int(members.max(initial=0)) >> 6) + 1
    key *= width << 6
    key += members
    key.sort()
    np.remainder(key, width << 6, out=members)
    key >>= 6  # global word number: label * width + word index
    heads = np.flatnonzero(np.diff(key, prepend=-1))
    shift = (members & 63).astype(np.uint64)
    bits = np.add.reduceat(np.left_shift(np.uint64(1), shift, out=shift), heads)
    key = key[heads]
    start = np.searchsorted(key, np.arange(len(labels) + 1) * width)
    return _Words(start, key % width, bits, size, members, width)


def _rows(words: _Words, labels: np.ndarray) -> np.ndarray:
    """The full rows of these labels, one after another."""
    n_words = words.start[labels + 1] - words.start[labels]
    at = spread(words.start[labels], n_words)
    rows = np.zeros(len(labels) * words.width, np.uint64)
    rows[np.repeat(np.arange(len(labels)) * words.width, n_words) + words.index[at]] = words.bits[at]
    return rows


def _subsets(words: _Words, j: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Which pairs have label ``k`` a subset of label ``j``; ``j`` ascending.

    The complements of the rows of this block's labels J are laid out, one
    row per distinct J, and each pair reads K's non-zero words, one at a
    time, until one misses.
    """
    new = np.diff(j, prepend=-1) != 0
    outside = ~_rows(words, j[new])
    base = (np.cumsum(new) - 1) * words.width
    at, end = words.start[k], words.start[k + 1]
    pair = np.arange(len(k))
    fits = np.zeros(len(k), bool)
    while len(pair):
        held = words.bits[at] & outside[base + words.index[at]] == 0
        at += 1
        fits[pair[held & (at == end)]] = True
        more = np.flatnonzero(held & (at < end))
        pair, at, end, base = pair[more], at[more], end[more], base[more]
    return fits


def _files(words: _Words):
    """Each label filed under its rarest index, and where its candidates lie.

    Returns the labels in file order (by rarest index, then size) and, for
    each (label J, index i of J) entry of ``words.members``: J, the start of
    file i and the number of its labels smaller than J, a prefix of it.
    """
    size, members = words.size, words.members
    freq = np.bincount(members)
    rarest = np.minimum.reduceat(freq[members] * len(freq) + members, np.cumsum(size) - size)
    rarest %= len(freq)
    top = int(size.max()) + 1
    filed = np.lexsort((size, rarest))
    file_key = (rarest * top + size)[filed]
    owner = np.repeat(np.arange(len(size)), size)
    file_start = np.searchsorted(file_key, members * top)
    smaller = np.searchsorted(file_key, members * top + size[owner]) - file_start
    return filed, owner, file_start, smaller


def _strict_subsets(labels: list[Label]) -> np.ndarray:
    """Every pair (J, K) of label ids with K a strict subset of J, as
    ``J * len(labels) + K``, ascending."""
    words = _pack(labels)
    filed, owner, file_start, smaller = _files(words)
    subs = []
    for entry, at in ranges(file_start, smaller, _BLOCK):
        j, k = owner[entry], filed[at]
        fits = _subsets(words, j, k)
        subs.append(j[fits] * len(labels) + k[fits])
    return np.sort(np.concatenate(subs)) if subs else np.zeros(0, np.int64)


def _undominated(subs: np.ndarray, count: int) -> np.ndarray:
    """Mask of the pairs (J, K) of ``subs`` with K in no subs(K') for K' in
    subs(J): a join on ids, since subs(K') is a run of ``subs`` itself."""
    j, k = np.divmod(subs, count)
    start = np.searchsorted(j, np.arange(count + 1))
    kept = np.ones(len(subs), bool)
    for entry, at in ranges(start[k], np.diff(start)[k], _BLOCK):
        kept[np.searchsorted(subs, j[entry] * count + k[at])] = False
    return kept


def compute_parents(lattice: Lattice) -> Lattice:
    """Populate each node's parents: maximal lattice nodes strictly below it.

    Each node is filed once, under the index of its label that the fewest
    nodes contain (ties to the smallest index).  A strict subset K of J is
    filed under an index of K, hence of J, so the files of J's indices hold
    every candidate exactly once.  The search runs over all nodes at once on
    packed label words: (J, K) candidate pairs with |K| < |J| are expanded
    ``_BLOCK`` at a time, and K is tested against J one non-zero word of K
    at a time.  The strict subsets found, subs, give the parents as
    subs - subs o subs: K is dominated in subs(J) exactly when it lies in
    subs(K') for some K' in subs(J), so no further subset test is needed
    (P. Pritchard, "On computing the subset graph of a collection of sets",
    J. Algorithms 33, 1999).  Parents are written back as frozensets.
    """
    labels = list(lattice.nodes)
    count = len(labels)
    if not count:
        return lattice
    subs = _strict_subsets(labels)
    owner, parent = np.divmod(subs[_undominated(subs, count)], count)
    del subs
    parents = np.fromiter(labels, object, count)[parent]
    ends = np.searchsorted(owner, np.arange(1, count + 1)).tolist()
    for node, lo, hi in zip(lattice.nodes.values(), [0, *ends], ends):
        node.parents = frozenset(parents[lo:hi])
    return lattice


def _require_parents(node: LatticeNode) -> list[Label]:
    if node.parents is None:
        raise LatticeError("parents not computed; call compute_parents first")
    if node.layer < 2:
        raise LatticeError("first-layer nodes have no cover")
    return sorted(node.parents, key=label_sort_key)


def _uncoverable(label: Label) -> LatticeError:
    return LatticeError(
        f"node {format_label(label)} has no good-cover: some index is in no parent"
    )


def _greedy_picks(words: _Words, targets: np.ndarray, parents: np.ndarray, count: np.ndarray):
    """Greedy set covers of a block of labels at once.

    Target t, label ``targets[t]``, owns the next ``count[t]`` labels of
    ``parents``, in tie-break order.  The targets' uncovered rows are laid
    out for the block.  Each round picks, for every target not yet covered,
    the parent that covers most of its uncovered indices, the first such on
    ties: one ``np.bitwise_count`` of every parent word AND the uncovered
    word of the same index, and one segmented maximum of
    ``gain * stride + (stride - 1 - position)``.  Returns a mask of the
    picked entries of ``parents`` and a mask of the targets whose parents
    miss an index.
    """
    uncovered = _rows(words, targets)
    stride = max(int(count.max(initial=0)), 1)
    pair = np.arange(len(parents))
    position = pair - np.repeat(np.cumsum(count) - count, count)
    n_words = words.start[parents + 1] - words.start[parents]
    at = spread(words.start[parents], n_words)
    bits = words.bits[at]
    row = np.arange(len(targets)) * words.width
    slot = np.repeat(np.repeat(row, count), n_words) + words.index[at]
    left = words.size[targets]
    failed = count == 0
    live = np.flatnonzero(~failed)
    pair_count = count[live]
    picked = np.zeros(len(parents), bool)
    while len(live):
        word_first = np.cumsum(n_words) - n_words
        gain = np.add.reduceat(np.bitwise_count(bits & uncovered[slot]), word_first, dtype=np.int64)
        first = np.cumsum(pair_count) - pair_count
        best = np.maximum.reduceat(gain * stride + (stride - 1 - position), first)
        gained = best // stride
        took = gained > 0
        failed[live[~took]] = True
        pick = (first + stride - 1 - best % stride)[took]
        picked[pair[pick]] = True
        cleared = spread(word_first[pick], n_words[pick])
        uncovered[slot[cleared]] &= ~bits[cleared]
        left[live] -= gained
        alive = took & (left[live] > 0)
        pair_alive = np.repeat(alive, pair_count)
        word_alive = np.repeat(pair_alive, n_words)
        live, pair_count = live[alive], pair_count[alive]
        pair, position, n_words = pair[pair_alive], position[pair_alive], n_words[pair_alive]
        bits, slot = bits[word_alive], slot[word_alive]
    return picked, failed


def good_cover_greedy(node: LatticeNode, lattice: Lattice) -> tuple[Label, ...]:
    """Greedy set cover of the node label by parent labels.

    Largest marginal coverage first; ties broken by the lexicographically
    smallest label, so covers are deterministic.  This is the kernel of
    ``good_covers`` run on one node.
    """
    parents = _require_parents(node)
    picked, failed = _greedy_picks(
        _pack([node.label, *parents]),
        np.zeros(1, np.int64),
        np.arange(1, len(parents) + 1),
        np.array([len(parents)]),
    )
    if failed[0]:
        raise _uncoverable(node.label)
    return tuple(compress(parents, picked))


def _greedy_covers(lattice: Lattice) -> tuple[dict[Label, tuple[Label, ...]], LatticeNode | None]:
    """Greedy covers of every node of layer >= 2, in one batched kernel, or
    the first node, in ``labels_by_layer()`` order, left without one (its
    parents miss an index or were never computed).

    Labels are numbered in ``label_sort_key`` order, so parent ids sort in
    tie-break order and a stable sort by size gives ``labels_by_layer()``.
    """
    labels = sorted(lattice.nodes, key=label_sort_key)
    words = _pack(labels)
    by_layer = np.argsort(words.size, kind="stable")
    targets = by_layer[words.size[by_layer] >= 2]
    if not len(targets):
        return {}, None
    parent_sets = [lattice.nodes[labels[t]].parents or () for t in targets.tolist()]
    count = np.fromiter(map(len, parent_sets), np.int64, len(parent_sets))
    ids = dict(zip(labels, range(len(labels))))
    parents = np.fromiter(map(ids.__getitem__, chain.from_iterable(parent_sets)), np.int64, int(count.sum()))
    del ids, parent_sets
    _, parents = sort_pairs(np.repeat(np.arange(len(targets)), count), parents)
    # blocks of whole nodes, about _BLOCK parents each
    picked = np.zeros(len(parents), bool)
    failed = np.zeros(len(targets), bool)
    ends = np.cumsum(count)
    weight = np.cumsum(np.maximum(count, 1))  # a node without parents still has a row
    cuts = [0, *(np.flatnonzero(np.diff(weight // _BLOCK)) + 1).tolist(), len(targets)]
    for lo, hi in zip(cuts, cuts[1:]):
        pairs = slice(ends[lo] - count[lo], ends[hi - 1])
        picked[pairs], failed[lo:hi] = _greedy_picks(words, targets[lo:hi], parents[pairs], count[lo:hi])
    if failed.any():
        return {}, lattice.nodes[labels[targets[np.argmax(failed)]]]
    ends = np.cumsum(picked)[ends - 1].tolist()
    labels = np.fromiter(labels, object, len(labels))
    cover = labels[parents[picked]]
    return {
        label: tuple(cover[lo:hi])
        for label, lo, hi in zip(labels[targets], [0, *ends], ends)
    }, None


def good_cover_exact(
    node: LatticeNode, lattice: Lattice, budget: int = 20
) -> tuple[Label, ...]:
    """Minimum-cardinality good-cover: the first parent subset, smallest
    size first and in lexicographic order of parent positions, that covers
    the node.

    A depth-first search picks parents in that order and abandons a branch
    once the parents left cannot cover what is still missing: when their
    union misses an index, or when even the widest of them, times the picks
    left, is too few indices.  Both cuts only drop branches that hold no
    cover, so the search returns the subset a plain enumeration would.
    Raises CoverBudgetExceeded when the node has more than ``budget``
    parents (the caller falls back to the greedy cover).
    """
    parents = _require_parents(node)
    if len(parents) > budget:
        raise CoverBudgetExceeded(
            f"{len(parents)} parents > budget {budget} for {format_label(node.label)}"
        )
    # index i of a label as bit i - 1
    *masks, target = (sum(1 << (i - 1) for i in label) for label in (*parents, node.label))
    # union and widest parent of each suffix masks[i:]
    union, widest = [0] * (len(masks) + 1), [0] * (len(masks) + 1)
    for i in range(len(masks) - 1, -1, -1):
        union[i] = union[i + 1] | masks[i]
        widest[i] = max(widest[i + 1], masks[i].bit_count())

    def search(start: int, picks: int, missing: int) -> list[int] | None:
        if picks == 0:
            return [] if missing == 0 else None
        for i in range(start, len(masks) - picks + 1):
            # both bounds only shrink as i grows, so no later i can succeed
            if union[i] & missing != missing or widest[i] * picks < missing.bit_count():
                return None
            rest = search(i + 1, picks - 1, missing & ~masks[i])
            if rest is not None:
                return [i, *rest]
        return None

    for size in range(1, len(parents) + 1):
        found = search(0, size, target)
        if found is not None:
            return tuple(parents[i] for i in found)
    raise LatticeError(f"node {format_label(node.label)} has no good-cover")


def good_covers(lattice: Lattice, mode: str = "greedy", budget: int = 20) -> dict[Label, tuple[Label, ...]]:
    """Covers for every node of layer >= 2, in ``labels_by_layer()`` order.

    Greedy covers come from one batched kernel.  Mode 'exact' then replaces
    the cover of each node with at most ``budget`` parents by its exact
    cover, so the greedy cover stays exactly where the budget trips.  The
    first node without a cover names the error, as a per-node loop would.
    """
    if mode not in ("greedy", "exact"):
        raise ValueError(f"unknown cover mode {mode!r}")
    covers, stuck = _greedy_covers(lattice)
    exact = mode == "exact"
    if stuck is not None:
        _require_parents(stuck)
        if exact and len(stuck.parents) <= budget:
            good_cover_exact(stuck, lattice, budget=budget)
        raise _uncoverable(stuck.label)
    if exact:
        for label in covers:
            node = lattice.nodes[label]
            if len(node.parents) <= budget:
                covers[label] = good_cover_exact(node, lattice, budget=budget)
    return covers
