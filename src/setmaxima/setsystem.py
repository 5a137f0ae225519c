"""Abstract input model: m distinct subsets over n element indices.

Elements are 0-based indices into the key space; set labels are 1-based
(set i is ``sets[i-1]``), matching the labelling used by the lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, TypeVar

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

    def signatures(self) -> list[frozenset[int]]:
        """All element signatures in one O(p) pass over the sets."""
        members: list[list[int]] = [[] for _ in range(self.n)]
        for i, s in enumerate(self.sets, start=1):
            for e in s:
                members[e].append(i)
        return [frozenset(ms) for ms in members]

    def signature_classes(self) -> dict[frozenset[int], tuple[int, ...]]:
        """Each non-empty signature's elements, ascending, in order of each
        signature's first element.

        Grouped once per system (see :meth:`compiled`); the lattice's
        classes and the bucket plan's buckets both come from it.
        """
        return self.compiled(SetSystem._group_by_signature)

    def _group_by_signature(self) -> dict[frozenset[int], tuple[int, ...]]:
        groups: dict[frozenset[int], list[int]] = {}
        for element, sig in enumerate(self.signatures()):
            if sig:
                groups.setdefault(sig, []).append(element)
        return {sig: tuple(members) for sig, members in groups.items()}


def system_from_lists(n: int, sets: Iterable[Iterable[int]]) -> SetSystem:
    return SetSystem(n=n, sets=tuple(frozenset(s) for s in sets))
