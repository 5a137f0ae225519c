import math
import random
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from setmaxima.generators import gen_keys, gen_random_system
from setmaxima.lattice import (
    CoverBudgetExceeded,
    Lattice,
    LatticeError,
    build_lattice,
    compute_parents,
    good_cover_exact,
    good_cover_greedy,
    good_covers,
    label_sort_key,
)
from setmaxima.order import ComparisonLedger, KeySpace
from setmaxima.setsystem import system_from_lists
from setmaxima.solvers import solve_lattice
from test_solvers import _seeded_systems

DATA = Path(__file__).parent / "data"


def fs(*items):
    return frozenset(items)


def test_build_two_sets():
    lat = build_lattice(system_from_lists(3, [{0, 1}, {1, 2}]))
    assert set(lat.nodes) == {fs(1), fs(2), fs(1, 2)}
    assert lat.node({1}).phi == {0}
    assert lat.node({2}).phi == {2}
    assert lat.node({1, 2}).phi == {1}


def test_build_single_set():
    lat = build_lattice(system_from_lists(5, [set(range(5))]))
    assert set(lat.nodes) == {fs(1)}
    assert lat.node({1}).phi == set(range(5))


def test_first_layer_nodes_kept_even_when_empty():
    # every element of set 1 is also in set 2, so phi({1}) is empty
    lat = build_lattice(system_from_lists(3, [{0, 1}, {0, 1, 2}]))
    assert lat.node({1}).phi == frozenset()
    assert lat.node({1, 2}).phi == {0, 1}
    assert lat.node({2}).phi == {2}


def test_phi_partition_matches_signature_oracle():
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(1, 40)
        m = min(rng.randint(1, 10), 2**n - 1)
        system = gen_random_system(n=n, m=m, density=0.35, seed=seed)
        lat = build_lattice(system)
        seen = set()
        for node in lat.nodes.values():
            for e in node.phi:
                assert system.signature(e) == node.label
                assert e not in seen
                seen.add(e)
        assert seen == set().union(*system.sets)
        distinct_sigs = {system.signature(e) for e in range(system.n)} - {frozenset()}
        assert len(lat.nodes) <= system.m + len(distinct_sigs)
        assert len(lat.nodes) <= system.m + system.n


def test_parents_two_singletons():
    lat = compute_parents(build_lattice(system_from_lists(3, [{0, 1}, {1, 2}])))
    assert lat.node({1, 2}).parents == {fs(1), fs(2)}
    assert lat.node({1}).parents == frozenset()


def test_parents_shadowing():
    # artificial lattice: {1} is shadowed by the intermediate node {1,2}
    lat = Lattice(m=3, n=0)
    lat.add_node(fs(1), frozenset())
    lat.add_node(fs(1, 2), frozenset())
    lat.add_node(fs(1, 2, 3), frozenset())
    compute_parents(lat)
    assert lat.node({1, 2, 3}).parents == {fs(1, 2)}
    assert lat.node({1, 2}).parents == {fs(1)}


def _brute_parents(labels):
    """Maximal labels strictly below each label, straight from the definition."""
    out = {}
    for j in labels:
        below = [i for i in labels if i < j]
        out[j] = frozenset(i for i in below if not any(i < k for k in below))
    return out


def _assert_parents_match_brute_force(lat):
    expected = _brute_parents(set(lat.nodes))
    for label, node in lat.nodes.items():
        assert node.parents == expected[label], label


@pytest.mark.parametrize("first_seed", [0, 1500])
def test_parents_match_brute_force(first_seed):
    for seed in range(first_seed, first_seed + 25):
        rng = random.Random(seed)
        n, m = rng.randint(1, 25), rng.randint(1, 9)
        # n elements admit at most 2**n - 1 distinct non-empty sets
        m = min(m, 2**n - 1)
        system = gen_random_system(n=n, m=m, density=rng.uniform(0.2, 0.8), seed=seed)
        _assert_parents_match_brute_force(compute_parents(build_lattice(system)))


@pytest.mark.parametrize("seed", [0, 1])
def test_parents_match_brute_force_dense_abstract(seed):
    # the shape of the abstract-dense benchmark, scaled down: wide labels, ~m
    # nodes per index, few subset pairs beyond the singletons
    system = gen_random_system(n=300, m=30, density=0.5, seed=seed)
    lat = compute_parents(build_lattice(system))
    assert len(lat.nodes) > 250
    _assert_parents_match_brute_force(lat)


def test_parents_of_a_nested_chain():
    # set i holds elements i-1.., so element e has signature {1..e+1}
    m = 12
    system = system_from_lists(m, [set(range(i - 1, m)) for i in range(1, m + 1)])
    lat = compute_parents(build_lattice(system))
    _assert_parents_match_brute_force(lat)
    for top in range(2, m + 1):
        assert lat.node(range(1, top + 1)).parents == {fs(*range(1, top)), fs(top)}


def test_parents_when_rarest_indices_tie():
    # every index lies in the same number of labels, so each node is filed
    # under its smallest index
    lat = Lattice(m=5, n=0)
    for size in (1, 2, 4):
        for label in combinations(range(1, 6), size):
            lat.add_node(frozenset(label), frozenset())
    compute_parents(lat)
    _assert_parents_match_brute_force(lat)
    assert lat.node({1, 2, 3, 4}).parents == {
        fs(*pair) for pair in combinations((1, 2, 3, 4), 2)
    }


def test_greedy_cover_two_of_three():
    lat = Lattice(m=3, n=0)
    node = lat.add_node(fs(1, 2, 3), frozenset())
    node.parents = frozenset({fs(1, 2), fs(2, 3), fs(1, 3)})
    cover = good_cover_greedy(node, lat)
    assert len(cover) == 2
    assert frozenset().union(*cover) == fs(1, 2, 3)


def test_greedy_cover_singletons():
    lat = compute_parents(build_lattice(system_from_lists(3, [{0, 1}, {1, 2}])))
    cover = good_cover_greedy(lat.node({1, 2}), lat)
    assert cover == (fs(1), fs(2))


def test_exact_cover_prefers_minimum():
    lat = Lattice(m=3, n=0)
    node = lat.add_node(fs(1, 2, 3), frozenset())
    node.parents = frozenset({fs(1), fs(2), fs(3), fs(1, 2)})
    cover = good_cover_exact(node, lat)
    assert sorted(tuple(sorted(c)) for c in cover) == [(1, 2), (3,)]


def test_exact_cover_budget_exceeded():
    lat = Lattice(m=40, n=0)
    node = lat.add_node(frozenset(range(1, 31)), frozenset())
    node.parents = frozenset(fs(i) for i in range(1, 31))
    with pytest.raises(CoverBudgetExceeded):
        good_cover_exact(node, lat, budget=20)


def test_good_covers_exact_falls_back_past_budget():
    system = gen_random_system(n=40, m=8, density=0.5, seed=11)
    lat = compute_parents(build_lattice(system))
    covers = good_covers(lat, mode="exact", budget=2)
    greedy = good_covers(compute_parents(build_lattice(system)), mode="greedy")
    for label, cover in covers.items():
        assert frozenset().union(*cover) >= label
        if len(lat.nodes[label].parents) > 2:
            assert cover == greedy[label]


def test_uncoverable_node_is_structural_error():
    lat = Lattice(m=3, n=0)
    node = lat.add_node(fs(1, 2, 3), frozenset())
    node.parents = frozenset({fs(1, 2)})
    with pytest.raises(LatticeError):
        good_cover_greedy(node, lat)
    with pytest.raises(LatticeError):
        good_cover_exact(node, lat)


def _exact_by_enumeration(node, lat, budget=20):
    """The reference search: every parent subset, in ``combinations`` order."""
    parents = sorted(node.parents, key=label_sort_key)
    if len(parents) > budget:
        raise CoverBudgetExceeded(f"{len(parents)} parents > budget {budget}")
    masks = [sum(1 << (i - 1) for i in p) for p in parents]
    target = sum(1 << (i - 1) for i in node.label)
    for size in range(1, len(parents) + 1):
        for combo in combinations(range(len(parents)), size):
            u = 0
            for idx in combo:
                u |= masks[idx]
            if u & target == target:
                return tuple(parents[idx] for idx in combo)
    raise LatticeError("no good-cover")


def _exact_mode_systems():
    """The systems the exact-mode tests build covers for (here, in
    test_solvers.py and criterion 8), and a spread of larger random ones."""
    yield gen_random_system(n=40, m=8, density=0.5, seed=11)
    for seed in range(30):
        rng = random.Random(seed + 100)
        n = rng.randint(2, 30)
        m = min(rng.randint(2, 9), 2**n - 1)
        yield gen_random_system(n=n, m=m, density=rng.uniform(0.3, 0.8), seed=seed)
    for seed in range(20):
        rng = random.Random(seed + 7)
        yield gen_random_system(n=rng.randint(2, 40), m=rng.randint(2, 10), density=0.4, seed=seed)
    for seed in range(5):
        yield gen_random_system(60, 10, 0.4, seed=seed)
    yield from (system for _, system in _seeded_systems(60))
    yield from (system for _, system in _seeded_systems(12, n_max=80, offset=500))
    for seed in range(30):
        rng = random.Random(seed + 4000)
        yield gen_random_system(
            n=rng.randint(5, 200), m=rng.randint(2, 14),
            density=rng.choice((0.2, 0.5, 0.8)), seed=seed,
        )


def test_exact_cover_search_equals_enumeration():
    nodes = 0
    for system in _exact_mode_systems():
        lat = compute_parents(build_lattice(system))
        for node in lat.nodes.values():
            if node.layer < 2:
                continue
            for budget in (20, 3):
                try:
                    want = _exact_by_enumeration(node, lat, budget)
                except CoverBudgetExceeded:
                    with pytest.raises(CoverBudgetExceeded):
                        good_cover_exact(node, lat, budget)
                    continue
                assert good_cover_exact(node, lat, budget) == want
                nodes += 1
    assert nodes > 500


def test_exact_never_larger_than_greedy_and_harmonic_bound():
    for seed in range(30):
        rng = random.Random(seed + 100)
        n = rng.randint(2, 30)
        m = min(rng.randint(2, 9), 2**n - 1)
        system = gen_random_system(n=n, m=m, density=rng.uniform(0.3, 0.8), seed=seed)
        lat = compute_parents(build_lattice(system))
        for node in lat.nodes.values():
            if node.layer < 2 or len(node.parents) > 16:
                continue
            greedy = good_cover_greedy(node, lat)
            exact = good_cover_exact(node, lat)
            assert len(exact) <= len(greedy)
            h = sum(1 / i for i in range(1, node.layer + 1))
            assert len(greedy) <= math.ceil(h * len(exact)) + 1e-9


def test_good_covers_cover_their_labels():
    for seed in range(20):
        rng = random.Random(seed + 7)
        system = gen_random_system(
            n=rng.randint(2, 40), m=rng.randint(2, 10), density=0.4, seed=seed
        )
        lat = compute_parents(build_lattice(system))
        for mode in ("greedy", "exact"):
            covers = good_covers(lat, mode=mode)
            for label, cover in covers.items():
                assert frozenset().union(*cover) >= label
                # members are strict subsets, so one can never cover alone
                assert len(cover) >= 2
                for member in cover:
                    assert member < label
                    assert member in lat.nodes


def test_reachability_in_pruned_dag():
    # from {i}, following cover edges downward reaches exactly the labels
    # containing i
    for seed in range(15):
        rng = random.Random(seed + 55)
        system = gen_random_system(
            n=rng.randint(2, 30), m=rng.randint(2, 8), density=0.5, seed=seed
        )
        lat = compute_parents(build_lattice(system))
        covers = good_covers(lat, mode="greedy")
        children = {label: [] for label in lat.nodes}
        for label, cover in covers.items():
            for parent in cover:
                children[parent].append(label)
        for i in range(1, system.m + 1):
            start = fs(i)
            reached = set()
            stack = [start]
            while stack:
                cur = stack.pop()
                if cur in reached:
                    continue
                reached.add(cur)
                stack.extend(children[cur])
            assert reached == {label for label in lat.nodes if i in label}


def test_dump_golden():
    lat = compute_parents(build_lattice(system_from_lists(3, [{0, 1}, {1, 2}])))
    covers = good_covers(lat)
    expected = (DATA / "two_sets_dump.txt").read_text().rstrip("\n")
    assert lat.dump(covers) == expected


# ------------------------------------------------------------- solve plans


def _covered(system, mode="greedy"):
    lat = compute_parents(build_lattice(system))
    return lat, good_covers(lat, mode=mode)


def _segments(scan):
    """A compiled scan's segments: (target slot, the indices it reads)."""
    starts = [0] + (scan.ends[:-1] + 1).tolist()
    return [
        (target, tuple(scan.source[start:end + 1].tolist()))
        for target, start, end in zip(scan.targets.tolist(), starts, scan.ends.tolist())
    ]


def _pushes(layer):
    """A compiled push layer's (child slot, parent slot) pairs, in push order."""
    segment = np.searchsorted(layer.ends, layer.pushes)
    return list(zip(layer.source[layer.pushes].tolist(), layer.targets[segment].tolist()))


def _check_scan(scan):
    # segment s adds s << 32 to each of its positions, and every position
    # but a segment's first is pushed exactly once
    segments = _segments(scan)
    lengths = [len(read) for _, read in segments]
    assert scan.offset.tolist() == [s << 32 for s, size in enumerate(lengths) for _ in range(size)]
    heads = {end - size + 1 for end, size in zip(scan.ends.tolist(), lengths)}
    assert sorted(scan.pushes.tolist()) == [p for p in range(len(scan.source)) if p not in heads]
    assert scan.span == (max(scan.source.tolist()) + 1 if len(scan.source) else 0)


def test_solve_plan_layout():
    # the same lattice twice: every class has one member, then classes
    # {1} and {1,2,3} gain a second member
    for system in (
        system_from_lists(6, [{0, 1, 2, 3}, {1, 2, 4}, {2, 3, 5}]),
        system_from_lists(8, [{0, 1, 2, 3, 6, 7}, {1, 2, 4, 7}, {2, 3, 5, 7}]),
    ):
        lat, covers = _covered(system)
        plan = lat.solve_plan(covers)
        assert list(plan.labels) == lat.labels_by_layer()
        slot = {label: i for i, label in enumerate(plan.labels)}
        phi = {slot[label]: tuple(sorted(node.phi)) for label, node in lat.nodes.items()}
        classes = plan.classes
        # every non-empty class is a segment of its sorted members, in slot
        # order, a one-member class a segment without a push; each holds
        # its class exactly once
        assert _segments(classes) == [(s, members) for s, members in sorted(phi.items()) if members]
        _check_scan(classes)
        assert classes.pushes.tolist() == sorted(classes.pushes.tolist())
        assert classes.pushes.size == sum(len(members) - 1 for members in phi.values() if members)
        assert classes.span - 1 == max(e for node in lat.nodes.values() for e in node.phi)
        assert [layer for layer, _ in plan.layers] == [3, 2]
        for layer, push in plan.layers:
            children = [lb for lb in plan.labels if len(lb) == layer]
            assert _pushes(push) == [
                (slot[child], slot[member]) for child in children for member in covers[child]
            ]
            # one segment per parent slot, ascending, headed by that slot
            assert push.targets.tolist() == sorted(
                {slot[member] for child in children for member in covers[child]}
            )
            assert all(read[0] == target for target, read in _segments(push))
            _check_scan(push)
        assert [plan.labels[s] for s in plan.outputs] == [fs(1), fs(2), fs(3)]
        assert plan.budget == system.n + sum(len(c) for c in covers.values())


def test_solve_plan_cached_per_covers_dict():
    system = gen_random_system(40, 8, 0.5, seed=3)
    lat, greedy = _covered(system, "greedy")
    plan = lat.solve_plan(greedy)
    assert lat.solve_plan(greedy) is plan
    # an equal dict is another covers dict: the plan is compiled again
    copy = dict(greedy)
    assert lat.solve_plan(copy) is not plan
    # a different cover for one node shows in the plan compiled for it
    label = next(lb for lb in lat.labels_by_layer() if len(lb) >= 2)
    other = dict(greedy)
    other[label] = tuple(fs(i) for i in sorted(label))
    other_plan = lat.solve_plan(other)
    slot = {lb: i for i, lb in enumerate(other_plan.labels)}
    pushed = [pair for _, layer in other_plan.layers for pair in _pushes(layer)]
    assert [p for c, p in pushed if c == slot[label]] == [slot[fs(i)] for i in sorted(label)]
    assert other_plan.budget == plan.budget - len(greedy[label]) + len(label)
    assert lat.solve_plan(greedy) is not other_plan


def test_add_virtual_after_solve_drops_plan():
    system = system_from_lists(4, [{0, 1}, {1, 2}, {2, 3}])
    lat, covers = _covered(system)
    first = solve_lattice(system, gen_keys(4, 1), prebuilt=(lat, covers))
    plan = lat.solve_plan(covers)
    lat.add_virtual(fs(1, 3))
    covers[fs(1, 3)] = (fs(1), fs(3))
    replanned = lat.solve_plan(covers)
    assert replanned is not plan and fs(1, 3) in replanned.labels
    again = solve_lattice(system, gen_keys(4, 1), prebuilt=(lat, covers))
    assert again.maxima == first.maxima
    assert again.bound == first.bound + 2


def test_solve_plan_rejects_bad_covers():
    system = system_from_lists(3, [{0, 1}, {1, 2}])
    lat, covers = _covered(system)
    with pytest.raises(LatticeError, match="no cover"):
        lat.solve_plan({})
    with pytest.raises(LatticeError, match="not a lattice node"):
        lat.solve_plan({fs(1, 2): (fs(1), fs(5))})


def test_solve_plan_checks_classes_once():
    lat, covers = _covered(system_from_lists(5, [{0, 1, 4}, {1, 2}]))
    assert lat.solve_plan(covers).classes.span == 5
    bad = Lattice(m=1, n=2)
    bad.add_node(fs(1), frozenset({-1, 0}))
    with pytest.raises(LatticeError, match="negative"):
        bad.solve_plan({})
    empty = Lattice(m=1, n=0)
    empty.add_node(fs(1), frozenset())
    assert empty.solve_plan({}).classes.span == 0


def test_solve_plan_never_reads_keys(monkeypatch):
    def forbidden(self):
        raise AssertionError("plan compilation read raw keys")

    monkeypatch.setattr(KeySpace, "oracle_keys", forbidden)
    for seed in range(5):
        system = gen_random_system(60, 10, 0.4, seed=seed)
        for mode in ("greedy", "exact"):
            lat, covers = _covered(system, mode)
            lat.solve_plan(covers)
            ledger = ComparisonLedger()
            result = solve_lattice(system, gen_keys(60, seed), ledger=ledger,
                                   prebuilt=(lat, covers))
            assert ledger.count == result.comparisons <= result.bound
