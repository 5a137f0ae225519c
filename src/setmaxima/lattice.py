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

from dataclasses import dataclass, field
from itertools import combinations, groupby
from typing import Iterable

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
    good_cover: tuple[Label, ...] | None = None
    mask: int = field(default=0, repr=False)

    def __post_init__(self):
        if not self.label:
            raise LatticeError("empty node label")
        if not self.mask:
            self.mask = label_to_mask(self.label)

    @property
    def layer(self) -> int:
        return len(self.label)


@dataclass(frozen=True)
class SolvePlan:
    """Key-independent schedule of one lattice solve over fixed covers.

    Slots number the lattice labels in ``labels_by_layer()`` order.
    ``classes`` holds (slot, sorted members) for every non-empty class.
    ``layers`` holds (layer, steps) for layers >= 2, deepest first; each
    step is (child slot, cover member slots), children in slot order.
    ``outputs`` is the slot of the singleton {i} for i = 1..m, and
    ``budget`` is n + sum(|cover|).
    """

    labels: tuple[Label, ...]
    classes: tuple[tuple[int, tuple[int, ...]], ...]
    layers: tuple[tuple[int, tuple[tuple[int, tuple[int, ...]], ...]], ...]
    outputs: tuple[int, ...]
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
        classes = tuple(
            (i, tuple(sorted(self.nodes[label].phi)))
            for i, label in enumerate(labels)
            if self.nodes[label].phi
        )
        layers = []
        for layer, group in groupby(labels, key=len):
            if layer < 2:
                continue
            steps = []
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
                steps.append((slot[label], tuple(slot[c] for c in cover)))
            layers.append((layer, tuple(steps)))
        layers.reverse()
        outputs = tuple(slot[frozenset((i,))] for i in range(1, self.m + 1))
        budget = self.n + sum(len(c) for c in covers.values())
        return SolvePlan(tuple(labels), classes, tuple(layers), outputs, budget)

    def add_virtual(self, label: Label) -> LatticeNode:
        return self.add_node(label, frozenset(), virtual=True)

    def node(self, label: Iterable[int]) -> LatticeNode:
        return self.nodes[frozenset(label)]

    @property
    def first_layer(self) -> list[LatticeNode]:
        return [self.nodes[frozenset((i,))] for i in range(1, self.m + 1)]

    def labels_by_layer(self, descending: bool = False) -> list[Label]:
        return sorted(
            self.nodes,
            key=lambda lb: ((-len(lb) if descending else len(lb)), label_sort_key(lb)),
        )

    def dump(self) -> str:
        """One node per line: 'label | phi | parents | good_cover', layers ascending."""
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
            if node.good_cover is None:
                cover = "-"
            else:
                cover = ";".join(format_label(c) for c in node.good_cover)
            lines.append(f"{format_label(label)} | {phi} | {parents} | {cover}")
        return "\n".join(lines)


def build_lattice(system: SetSystem) -> Lattice:
    """One node per distinct non-empty signature plus the m singletons.

    Runs in O(p); performs no key comparisons.
    """
    system.require_valid()
    lat = Lattice(m=system.m, n=system.n)
    classes: dict[Label, set[int]] = {}
    for element, sig in enumerate(system.signatures()):
        if sig:
            classes.setdefault(sig, set()).add(element)
    for i in range(1, system.m + 1):
        label = frozenset((i,))
        lat.add_node(label, frozenset(classes.pop(label, ())))
    for label, elems in classes.items():
        lat.add_node(label, frozenset(elems))
    return lat


# All-pairs subset testing is fastest for small lattices; big lattices
# (sweep-scale geometric ones) have small labels and sparse overlap, where
# the inverted index wins.
_DENSE_NODE_LIMIT = 1500


def compute_parents(lattice: Lattice, dense_limit: int = _DENSE_NODE_LIMIT) -> Lattice:
    """Populate each node's parents: maximal lattice nodes strictly below it."""
    nodes = list(lattice.nodes.values())
    if len(nodes) <= dense_limit:
        candidates = {node.label: _subsets_dense(node, nodes) for node in nodes}
    else:
        by_index: dict[int, list[LatticeNode]] = {}
        for node in nodes:
            for i in node.label:
                by_index.setdefault(i, []).append(node)
        candidates = {node.label: _subsets_indexed(node, by_index) for node in nodes}

    for node in nodes:
        subs = sorted(candidates[node.label], key=lambda s: (-len(s.label), label_sort_key(s.label)))
        kept: list[LatticeNode] = []
        for cand in subs:
            cm = cand.mask
            if not any(cm & keep.mask == cm for keep in kept):
                kept.append(cand)
        node.parents = frozenset(c.label for c in kept)
    return lattice


def _subsets_dense(node: LatticeNode, nodes: list[LatticeNode]) -> list[LatticeNode]:
    jm = node.mask
    return [k for k in nodes if k.mask != jm and k.mask & jm == k.mask]


def _subsets_indexed(node: LatticeNode, by_index: dict[int, list[LatticeNode]]) -> list[LatticeNode]:
    jm = node.mask
    out = []
    seen = set()
    for i in node.label:
        for cand in by_index[i]:
            cm = cand.mask
            if cm not in seen:
                seen.add(cm)
                if cm != jm and cm & jm == cm:
                    out.append(cand)
    return out


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
    """Minimum-cardinality good-cover by exhaustive search over parent subsets.

    Raises CoverBudgetExceeded when the node has more than ``budget``
    parents (the caller falls back to the greedy cover).
    """
    parents = _require_parents(node)
    if len(parents) > budget:
        raise CoverBudgetExceeded(
            f"{len(parents)} parents > budget {budget} for {format_label(node.label)}"
        )
    masks = [label_to_mask(p) for p in parents]
    target = node.mask
    for size in range(1, len(parents) + 1):
        for combo in combinations(range(len(parents)), size):
            u = 0
            for idx in combo:
                u |= masks[idx]
            if u & target == target:
                return tuple(parents[idx] for idx in combo)
    raise LatticeError(f"node {format_label(node.label)} has no good-cover")


def good_covers(lattice: Lattice, mode: str = "greedy", budget: int = 20) -> dict[Label, tuple[Label, ...]]:
    """Covers for every node of layer >= 2, stored on the nodes as well.

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
        node.good_cover = cover
        covers[label] = cover
    return covers
