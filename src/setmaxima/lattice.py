"""Sparse intersection lattice over a set system.

Nodes are index sets I over the 1-based set labels [1..m]: one node per
distinct non-empty element signature, plus all m first-layer singletons
(kept whether or not elements map to them).  Each node carries the class
``phi`` of elements whose signature is exactly its label.  Parent edges
connect a node to the maximal lattice nodes strictly contained in it.

Building the lattice, computing parents, computing covers and compiling a
solve plan never touch element keys: no ledger is involved anywhere in
this module.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import groupby
from typing import Iterable

import numpy as np

from .order import Scan, compile_classes, compile_layer
from .setsystem import SetSystem


class LatticeError(Exception):
    """Structurally impossible request, e.g. a cover for an uncoverable node."""


class CoverBudgetExceeded(Exception):
    """Exact cover search refused: too many parents for exhaustive search."""


Label = frozenset[int]


def label_sort_key(label: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(label))


def label_to_mask(label: Iterable[int]) -> int:
    mask = 0
    for i in label:
        mask |= 1 << (i - 1)
    return mask


def format_label(label: Iterable[int]) -> str:
    return "{" + ",".join(str(i) for i in sorted(label)) + "}"


@dataclass
class LatticeNode:
    label: Label
    phi: frozenset[int]
    virtual: bool = False
    parents: frozenset[Label] | None = None
    mask: int = field(default=0, repr=False)

    def __post_init__(self):
        if not self.label:
            raise LatticeError("empty node label")
        if not self.mask:
            self.mask = label_to_mask(self.label)

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
    members in cover order (see :func:`~setmaxima.order.compile_layer`).
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
        drops it.
        """
        if self._plan is None or self._plan[0] is not covers:
            self._plan = (covers, self._compile_plan(covers))
        return self._plan[1]

    def _compile_plan(self, covers: dict[Label, tuple[Label, ...]]) -> SolvePlan:
        labels = self.labels_by_layer()
        slot = {label: i for i, label in enumerate(labels)}
        members = [sorted(self.nodes[label].phi) for label in labels]
        if any(phi and phi[0] < 0 for phi in members):
            raise LatticeError("a class holds a negative element index")
        classes = compile_classes((i, phi) for i, phi in enumerate(members) if phi)
        layers = []
        for layer, group in groupby(labels, key=len):
            if layer < 2:
                continue
            children: list[int] = []
            parents: list[int] = []
            for label in group:
                cover = covers.get(label)
                if cover is None:
                    raise LatticeError(f"node {format_label(label)} has no cover")
                missing = [c for c in cover if c not in slot]
                if missing:
                    raise LatticeError(
                        f"cover member {format_label(missing[0])} of "
                        f"{format_label(label)} is not a lattice node"
                    )
                children += [slot[label]] * len(cover)
                parents += [slot[c] for c in cover]
            layers.append((layer, compile_layer(children, parents)))
        layers.reverse()
        outputs = np.array([slot[frozenset((i,))] for i in range(1, self.m + 1)], dtype=np.int64)
        budget = self.n + sum(len(c) for c in covers.values())
        return SolvePlan(tuple(labels), classes, tuple(layers), outputs, budget)

    def add_virtual(self, label: Label) -> LatticeNode:
        return self.add_node(label, frozenset(), virtual=True)

    def node(self, label: Iterable[int]) -> LatticeNode:
        return self.nodes[frozenset(label)]

    def labels_by_layer(self) -> list[Label]:
        return sorted(self.nodes, key=lambda lb: (len(lb), label_sort_key(lb)))

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


def compute_parents(lattice: Lattice) -> Lattice:
    """Populate each node's parents: maximal lattice nodes strictly below it.

    Each node is filed once, under the index of its label that the fewest
    nodes contain (ties to the smallest index).  A strict subset K of J is
    filed under an index of K, hence of J, so scanning the files of J's
    indices meets every candidate exactly once: never more tests than all
    pairs, nor than an inverted index over every index.
    """
    nodes = list(lattice.nodes.values())
    freq = Counter(i for node in nodes for i in node.label)
    files: dict[int, list[LatticeNode]] = {}
    for node in nodes:
        rarest = min(node.label, key=lambda i: (freq[i], i))
        files.setdefault(rarest, []).append(node)
    order = {node.label: (-node.layer, label_sort_key(node.label)) for node in nodes}

    for node in nodes:
        jm = node.mask
        subs = [
            cand
            for i in node.label
            for cand in files.get(i, ())
            if cand.mask & jm == cand.mask and cand.mask != jm
        ]
        # maximality filter: largest candidates first, keep those below no kept one
        subs.sort(key=lambda s: order[s.label])
        kept: list[LatticeNode] = []
        for cand in subs:
            cm = cand.mask
            if not any(cm & keep.mask == cm for keep in kept):
                kept.append(cand)
        node.parents = frozenset(c.label for c in kept)
    return lattice


def _require_parents(node: LatticeNode) -> list[Label]:
    if node.parents is None:
        raise LatticeError("parents not computed; call compute_parents first")
    if node.layer < 2:
        raise LatticeError("first-layer nodes have no cover")
    return sorted(node.parents, key=label_sort_key)


def good_cover_greedy(node: LatticeNode, lattice: Lattice) -> tuple[Label, ...]:
    """Greedy set cover of the node label by parent labels.

    Largest marginal coverage first; ties broken by the lexicographically
    smallest label, so covers are deterministic.
    """
    parents = _require_parents(node)
    masks = [label_to_mask(p) for p in parents]
    uncovered = node.mask
    chosen: list[Label] = []
    remaining = list(zip(parents, masks))
    while uncovered:
        best = -1
        best_gain = 0
        for idx, (_, pm) in enumerate(remaining):
            gain = (pm & uncovered).bit_count()
            if gain > best_gain:
                best, best_gain = idx, gain
        if best_gain == 0:
            raise LatticeError(
                f"node {format_label(node.label)} has no good-cover: "
                "some index is in no parent"
            )
        label, pm = remaining.pop(best)
        chosen.append(label)
        uncovered &= ~pm
    return tuple(sorted(chosen, key=label_sort_key))


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
    masks = [label_to_mask(p) for p in parents]
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
        found = search(0, size, node.mask)
        if found is not None:
            return tuple(parents[i] for i in found)
    raise LatticeError(f"node {format_label(node.label)} has no good-cover")


def good_covers(lattice: Lattice, mode: str = "greedy", budget: int = 20) -> dict[Label, tuple[Label, ...]]:
    """Covers for every node of layer >= 2.

    mode 'exact' falls back to greedy per node when the budget trips.
    """
    if mode not in ("greedy", "exact"):
        raise ValueError(f"unknown cover mode {mode!r}")
    covers: dict[Label, tuple[Label, ...]] = {}
    for label in lattice.labels_by_layer():
        node = lattice.nodes[label]
        if node.layer < 2:
            continue
        if mode == "exact":
            try:
                cover = good_cover_exact(node, lattice, budget=budget)
            except CoverBudgetExceeded:
                cover = good_cover_greedy(node, lattice)
        else:
            cover = good_cover_greedy(node, lattice)
        covers[label] = cover
    return covers
