import random
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from setmaxima.setsystem import SetSystem, system_from_lists


def test_validate_ok():
    system = system_from_lists(3, [{0, 1}, {1, 2}])
    assert system.sets == (frozenset({0, 1}), frozenset({1, 2}))


def test_validate_duplicates():
    with pytest.raises(ValueError, match=r"^invalid set system: sets 1 and 2 are duplicates$"):
        system_from_lists(2, [{0}, {0}])


def test_validate_out_of_range():
    with pytest.raises(
        ValueError, match=r"^invalid set system: set 1 has out-of-range elements: \[5\]$"
    ):
        system_from_lists(3, [{0, 5}])


def test_validate_empty_set():
    with pytest.raises(ValueError, match=r"^invalid set system: set 1 is empty$"):
        system_from_lists(3, [set()])


def test_validate_negative_n():
    with pytest.raises(ValueError, match=r"^invalid set system: n=-1 is negative$"):
        system_from_lists(-1, [])
    assert system_from_lists(0, []).m == 0


def test_p_is_the_sum_of_set_sizes():
    system = system_from_lists(4, [{0, 1}, {1, 2, 3}])
    assert system.p == 5
    assert system.m == 2


def test_signature_examples():
    system = system_from_lists(3, [{0, 1}, {1, 2}])
    assert system.signature(1) == {1, 2}
    assert system.signature(0) == {1}


def test_signature_empty_for_stray_element():
    system = system_from_lists(5, [{0, 1}])
    assert system.signature(4) == frozenset()


def test_signature_out_of_range():
    with pytest.raises(IndexError):
        system_from_lists(3, [{0}]).signature(3)


def _random_system(rng):
    n = rng.randint(1, 30)
    m = rng.randint(1, 10)
    sets = []
    seen = set()
    for _ in range(m):
        s = frozenset(e for e in range(n) if rng.random() < 0.4)
        if s and s not in seen:
            seen.add(s)
            sets.append(s)
    return SetSystem(n=n, sets=tuple(sets)) if sets else None


def test_signatures_match_membership_oracle():
    for seed in range(50):
        rng = random.Random(seed)
        system = _random_system(rng)
        if system is None:
            continue
        sigs = system.signatures()
        for e in range(system.n):
            oracle = frozenset(
                i for i, s in enumerate(system.sets, start=1) if e in s
            )
            assert sigs[e] == oracle == system.signature(e)


@given(st.integers(1, 20), st.integers(0, 2**30))
def test_signature_grouping_is_partition(n, seed):
    rng = random.Random(seed)
    system = _random_system(rng)
    if system is None:
        return
    groups = {}
    for e, sig in enumerate(system.signatures()):
        if sig:
            groups.setdefault(sig, set()).add(e)
    covered = set().union(*system.sets)
    grouped = set().union(*groups.values()) if groups else set()
    assert grouped == covered
    assert sum(len(g) for g in groups.values()) == len(covered)
    assert len(groups) <= system.n


def test_every_violation_is_reported_and_copies_are_checked_too():
    with pytest.raises(ValueError, match="set 2 is empty; sets 1 and 3 are duplicates"):
        system_from_lists(2, [{0}, set(), {0}])
    system = system_from_lists(3, [{0, 1}, {1, 2}])
    with pytest.raises(ValueError, match="out-of-range"):
        replace(system, n=2)
