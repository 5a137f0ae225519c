import random
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from setmaxima.setsystem import SetSystem, system_from_lists


def test_validate_ok():
    assert system_from_lists(3, [{0, 1}, {1, 2}]).validate() == []


def test_validate_duplicates():
    violations = system_from_lists(2, [{0}, {0}]).validate()
    assert any("duplicates" in v for v in violations)


def test_validate_out_of_range():
    violations = system_from_lists(3, [{0, 5}]).validate()
    assert any("out-of-range" in v for v in violations)


def test_validate_empty_set():
    violations = system_from_lists(3, [set()]).validate()
    assert any("empty" in v for v in violations)


def test_validate_negative_n():
    assert system_from_lists(-1, []).validate() == ["n=-1 is negative"]
    assert system_from_lists(0, []).validate() == []


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


def test_require_valid_scans_once_per_valid_instance(monkeypatch):
    system = system_from_lists(3, [{0, 1}, {1, 2}])
    calls = []
    original = SetSystem.validate

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(SetSystem, "validate", counted)
    assert system.require_valid() is system
    assert system.require_valid() is system
    assert len(calls) == 1
    # the remembered success is no field: equality and copies are unchanged
    assert system == system_from_lists(3, [{0, 1}, {1, 2}])
    # a copy with an element out of range does not inherit the success
    with pytest.raises(ValueError, match="out-of-range"):
        replace(system, n=2).require_valid()


def test_require_valid_raises_on_every_call():
    system = system_from_lists(3, [{0, 5}])
    for _ in range(3):
        with pytest.raises(ValueError, match="out-of-range"):
            system.require_valid()
