"""Abstract input model: m distinct subsets over n element indices.

Elements are 0-based indices into the key space; set labels are 1-based
(set i is ``sets[i-1]``), matching the labelling used by the lattice.

The elements of one signature (the labels of the sets that hold them) form
a class; the classes are the coarsest partition of the elements in a set
that every set refines (Paige and Tarjan, "Three partition refinement
algorithms", SIAM J. Comput. 16, 1987).  They are found once per system
by one numpy kernel over the (set, member) pairs, as the arrays of
:class:`SignatureGroups` (:meth:`SetSystem.signatures`), which the lattice
build (through :meth:`SetSystem.signature_classes`) and the sort and
bucket plans all read.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, TypeVar

import numpy as np

from .arrays import spread

T = TypeVar("T")


@dataclass(frozen=True)
class SetSystem:
    """A collection of distinct non-empty index sets S_1..S_m over [0..n).

    Checked once, when it is made: a negative n, an empty set, two equal
    sets or an element outside [0..n) raise ``ValueError``, so every
    instance is well formed.
    """

    n: int
    sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(frozenset(s) for s in self.sets))
        violations = [f"n={self.n} is negative"] if self.n < 0 else []
        seen: dict[frozenset[int], int] = {}
        for label, s in enumerate(self.sets, start=1):
            if not s:
                violations.append(f"set {label} is empty")
            if s in seen:
                violations.append(f"sets {seen[s]} and {label} are duplicates")
            else:
                seen[s] = label
            bad = [e for e in s if not (0 <= e < self.n)]
            if bad:
                violations.append(
                    f"set {label} has out-of-range elements: {sorted(bad)}"
                )
        if violations:
            raise ValueError("invalid set system: " + "; ".join(violations))

    @property
    def m(self) -> int:
        return len(self.sets)

    @property
    def p(self) -> int:
        """The total size sum(|S_i|)."""
        return sum(map(len, self.sets))

    def compiled(self, compile: Callable[["SetSystem"], T]) -> T:
        """``compile(self)``, run on the first call with that function and
        then remembered on the instance.

        The fields are frozen, so a result that depends only on them stays
        valid for the life of the instance.  If ``compile`` raises, nothing
        is remembered.
        """
        done = self.__dict__.setdefault("_compiled", {})
        if compile not in done:
            done[compile] = compile(self)
        return done[compile]

    def signature(self, element: int) -> frozenset[int]:
        """The 1-based labels of all sets containing ``element``.

        Empty for elements that appear in no set (legal; such elements are
        inert for every solver).
        """
        if not (0 <= element < self.n):
            raise IndexError(f"element {element} out of range [0, {self.n})")
        return frozenset(i for i, s in enumerate(self.sets, start=1) if element in s)

    def signatures(self) -> SignatureGroups:
        """The system's signature classes as arrays (see
        :class:`SignatureGroups`), grouped once per system (see
        :meth:`compiled`)."""
        return self.compiled(_group_signatures)

    def signature_classes(self) -> dict[frozenset[int], tuple[int, ...]]:
        """Each non-empty signature's elements, ascending, in order of each
        signature's first element: a view made from
        :meth:`signatures`, which the lattice build reads."""
        groups = self.signatures()
        elements, labels = groups.elements.tolist(), groups.labels.tolist()
        ends = np.cumsum(groups.sizes)
        cuts, bounds = ends.tolist(), np.cumsum(groups.degrees).tolist()
        sigs = [frozenset(labels[a:b]) for a, b in zip([0, *bounds], bounds)]
        runs = [tuple(elements[a:b]) for a, b in zip([0, *cuts], cuts)]
        # the classes' runs are disjoint, so their first elements differ
        return {sigs[c]: runs[c] for c in np.argsort(groups.elements[ends - groups.sizes]).tolist()}


@dataclass(frozen=True, eq=False)
class SignatureGroups:
    """The signature classes of a set system, as arrays.

    ``members`` holds every set's members end to end, set i from
    ``starts[i - 1]`` on, each set in its own iteration order.  ``elements``
    holds every element that lies in a set, by signature in
    ``label_sort_key`` order (the tuple order of the ascending labels) and
    ascending within one signature; class c is the run of ``sizes[c]`` of
    them that follows the earlier classes, and its signature is the run of
    ``degrees[c]`` ascending labels in ``labels`` that follows theirs.
    """

    members: np.ndarray
    starts: np.ndarray
    elements: np.ndarray
    sizes: np.ndarray
    labels: np.ndarray
    degrees: np.ndarray


def _group_signatures(system: SetSystem) -> SignatureGroups:
    """Group the elements by signature, in ``label_sort_key`` order.

    One sort of the (member, set) pairs gives each element's labels in
    ascending order.  The elements are then sorted by their label
    sequences, first label first.  Each round packs an element's next
    labels into one int64 as base-(m + 1) digits, with 0 past its last
    label, so that a sequence sorts before every longer one it starts; it
    then re-sorts each open class by that number, stably.  As in Larsson
    and Sadakane's suffix sorting, a class is named by its first position,
    keeps the positions it holds and splits in place.  A class closes when
    it has one element or its labels have run out.  Equal numbers mean
    equal labels, so the grouping is exact, and memory is O(n + p).
    """
    n, m = system.n, system.m
    lengths = np.fromiter(map(len, system.sets), np.int64, m)
    members = np.fromiter(chain.from_iterable(system.sets), np.int64, int(lengths.sum()))
    degree = np.bincount(members, minlength=n)
    first = np.cumsum(degree) - degree
    # the pairs by (member, set) as one number each (n (m + 1) < 2^63)
    label = members * (m + 1) + np.repeat(np.arange(1, m + 1), lengths)
    label.sort()
    label %= m + 1
    elements = np.flatnonzero(degree)
    # the position of the first element of each position's class
    head = np.zeros(elements.size, np.int64)
    width = 63 // (m + 1).bit_length()  # digits per int64
    depth = 0
    live = np.arange(elements.size)  # the positions of the open classes
    while live.size:
        element = elements[live]
        count = degree[element] - depth
        at = first[element] + depth
        key = np.zeros(live.size, np.int64)
        for digit in range(width):
            key *= m + 1
            more = count > digit
            key[more] += label[at[more] + digit]
        order = np.lexsort((key, head[live]))
        element, key, count = element[order], key[order], count[order]
        elements[live] = element
        split = np.ones(live.size, bool)
        split[1:] = (head[live[1:]] != head[live[:-1]]) | (key[1:] != key[:-1])
        starts = np.flatnonzero(split)
        sizes = np.diff(starts, append=live.size)
        head[live] = np.repeat(live[starts], sizes)
        # a class's elements share their key, so either all of them had
        # labels to fill every digit, and may have more, or none of them
        live = live[np.repeat(sizes > 1, sizes) & (count >= width)]
        depth += width
    heads = np.flatnonzero(head == np.arange(elements.size))
    firsts = elements[heads]
    degrees = degree[firsts]
    return SignatureGroups(
        members=members,
        starts=np.cumsum(lengths) - lengths,
        elements=elements,
        sizes=np.diff(heads, append=elements.size),
        labels=label[spread(first[firsts], degrees)],
        degrees=degrees,
    )


def system_from_lists(n: int, sets: Iterable[Iterable[int]]) -> SetSystem:
    return SetSystem(n=n, sets=tuple(frozenset(s) for s in sets))
