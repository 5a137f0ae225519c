import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from corpora import abstract_systems
from setmaxima.generators import gen_convex_instance, gen_random_system
from setmaxima.lattice import label_sort_key
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
        sigs = element_signatures(system)
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
    groups = system.signature_classes()
    for sig, members in groups.items():
        assert all(system.signature(e) == sig for e in members)
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


def element_signatures(system):
    """Every element's signature as a frozenset, in one pass over the sets."""
    members = [[] for _ in range(system.n)]
    for i, s in enumerate(system.sets, start=1):
        for e in s:
            members[e].append(i)
    return [frozenset(ms) for ms in members]


def reference_signature_classes(system):
    """The per-element dict loop that the grouping kernel replaced: each
    element's signature as a frozenset, grouped by hashing it."""
    groups = {}
    for element, sig in enumerate(element_signatures(system)):
        if sig:
            groups.setdefault(sig, []).append(element)
    return {sig: tuple(members) for sig, members in groups.items()}


def assert_grouped_as_reference(system):
    want = reference_signature_classes(system)
    assert list(system.signature_classes().items()) == list(want.items())
    # the arrays hold the same classes, by signature in label_sort_key order
    groups = system.signatures()
    order = sorted(want, key=label_sort_key)
    assert groups.sizes.tolist() == [len(want[sig]) for sig in order]
    assert groups.elements.tolist() == [e for sig in order for e in want[sig]]
    assert groups.degrees.tolist() == [len(sig) for sig in order]
    assert groups.labels.tolist() == [i for sig in order for i in sorted(sig)]
    assert groups.members.tolist() == [e for s in system.sets for e in s]
    assert groups.starts.tolist() == np.cumsum([0, *map(len, system.sets)])[:-1].tolist()
    for array in (groups.members, groups.starts, groups.elements, groups.sizes):
        assert array.dtype == np.int64


@st.composite
def set_systems(draw):
    """Small systems of any shape; with few elements and many sets, the
    elements lie in many sets whose labels share long prefixes."""
    n = draw(st.integers(0, 9))
    masks = draw(st.lists(st.integers(1, 2**n - 1), unique=True, max_size=min(2**n - 1, 300))) if n else []
    draw(st.randoms()).shuffle(masks)
    return SetSystem(n=n, sets=tuple(frozenset(e for e in range(n) if mask >> e & 1) for mask in masks))


@given(set_systems())
def test_signature_grouping_matches_the_dict_loop(system):
    assert_grouped_as_reference(system)


@given(st.integers(0, 60), st.integers(0, 40), st.floats(0.02, 0.95), st.integers(0, 2**20))
def test_signature_grouping_matches_the_dict_loop_on_random_systems(n, m, density, seed):
    rng = random.Random(seed)
    sets = {frozenset(e for e in range(n) if rng.random() < density) for _ in range(m)}
    assert_grouped_as_reference(SetSystem(n=n, sets=tuple(sorted(filter(None, sets), key=sorted))))


def test_signature_grouping_edge_cases():
    for system in (
        system_from_lists(0, []),
        system_from_lists(4, []),
        # elements 0, 2, 3, 5 and 7 lie in no set
        system_from_lists(8, [{1, 4}, {4, 6}, {6}]),
        # element 0 lies in every set, and only 0 and 1 share a signature
        system_from_lists(12, [{0, 1, i} for i in range(2, 12)] + [{0, 1}]),
        # 300 sets over 10 elements: signatures of up to 300 labels
        SetSystem(n=10, sets=tuple(
            frozenset(e for e in range(10) if mask >> e & 1) for mask in range(1, 301)
        )),
        # m = 250: one int64 holds 7 labels, as 251^8 > 2^63.  Elements 0
        # and 1 share labels 1..144 and differ next in 146 < 147; packed 8
        # at a time, their keys from label 145 on would fall just below and
        # just above 2^63.  Elements 2..9 spell each label in binary.
        system_from_lists(10, [
            {e + 2 for e in range(8) if i >> e & 1}
            | {x for x, last in ((0, 146), (1, 147)) if i <= 144 or i == last}
            for i in range(1, 251)
        ]),
    ):
        assert_grouped_as_reference(system)
    # nested sets: signature {1..k} for k = 1..30, twice each for k = 11, 12,
    # 13 and 24, so signatures end at, just before and just after the
    # last label a round of the kernel packs (12 labels when m = 30)
    ks = [*range(1, 31), 11, 12, 13, 24]
    assert_grouped_as_reference(
        system_from_lists(len(ks), [{e for e, k in enumerate(ks) if k >= i} for i in range(1, 31)])
    )
    everywhere = system_from_lists(5, [{0}, {0, 1}, {0, 2, 3}, {0, 4}])
    assert everywhere.signature_classes()[frozenset({1, 2, 3, 4})] == (0,)


def test_signature_grouping_on_acceptance_and_workload_systems(geometric_corpus):
    for _, system in abstract_systems(1000):
        assert_grouped_as_reference(system)
    for case in geometric_corpus:
        assert_grouped_as_reference(case.glat.system)
    # the shapes of the benchmark's workloads
    assert_grouped_as_reference(gen_convex_instance(20000, 2000, 4, seed=1).system)
    assert_grouped_as_reference(gen_convex_instance(20000, 200, 8, seed=1).system)
    assert_grouped_as_reference(gen_random_system(2000, 30, 0.5, seed=1))


def test_signature_grouping_is_compiled_once():
    system = gen_random_system(40, 8, 0.4, seed=3)
    assert system.signatures() is system.signatures()
    assert system.signature_classes() == system.signature_classes()
