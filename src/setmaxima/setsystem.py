"""Abstract input model: m distinct subsets over n element indices.

Elements are 0-based indices into the key space; set labels are 1-based
(set i is ``sets[i-1]``), matching the labelling used by the lattice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


@dataclass(frozen=True)
class SetSystem:
    """A collection of distinct non-empty index sets S_1..S_m over [0..n).

    ``p`` is the cached total size sum(|S_i|); it is computed on
    construction unless explicitly supplied (validate() recomputes it).
    """

    n: int
    sets: tuple[frozenset[int], ...]
    p: int = field(default=-1)

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(frozenset(s) for s in self.sets))
        if self.p < 0:
            object.__setattr__(self, "p", sum(len(s) for s in self.sets))

    @property
    def m(self) -> int:
        return len(self.sets)

    def validate(self) -> list[str]:
        """Return a list of violations; empty means the system is well formed."""
        violations = []
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
        actual_p = sum(len(s) for s in self.sets)
        if self.p != actual_p:
            violations.append(f"cached p={self.p} but sum of sizes is {actual_p}")
        return violations

    def require_valid(self) -> "SetSystem":
        """Raise ValueError unless the system is well formed.

        A success is remembered on the instance (its fields are frozen), so
        only the first call pays the O(p) scan.
        """
        if self.__dict__.get("_valid"):
            return self
        violations = self.validate()
        if violations:
            raise ValueError("invalid set system: " + "; ".join(violations))
        object.__setattr__(self, "_valid", True)
        return self

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


def system_from_lists(n: int, sets: Iterable[Iterable[int]]) -> SetSystem:
    return SetSystem(n=n, sets=tuple(frozenset(s) for s in sets))
