import math
import random
from pathlib import Path

import pytest

from setmaxima.generators import gen_random_system
from setmaxima.lattice import (
    CoverBudgetExceeded,
    Lattice,
    LatticeError,
    build_lattice,
    compute_parents,
    good_cover_exact,
    good_cover_greedy,
    good_covers,
)
from setmaxima.order import ComparisonLedger, KeySpace
from setmaxima.setsystem import system_from_lists
from setmaxima.solvers import solve_lattice

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
        distinct_sigs = {s for s in system.signatures() if s}
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
    out = {}
    for j in labels:
        out[j] = frozenset(
            i
            for i in labels
            if i < j and not any(i < k < j for k in labels)
        )
    return out


@pytest.mark.parametrize("dense_limit", [1500, 0])
def test_parents_match_brute_force(dense_limit):
    for seed in range(25):
        rng = random.Random(seed)
        system = gen_random_system(
            n=rng.randint(1, 25), m=rng.randint(1, 9), density=rng.uniform(0.2, 0.8), seed=seed
        )
        lat = compute_parents(build_lattice(system), dense_limit=dense_limit)
        expected = _brute_parents(set(lat.nodes))
        for label, node in lat.nodes.items():
            assert node.parents == expected[label], label


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
    good_covers(lat)
    expected = (DATA / "two_sets_dump.txt").read_text().rstrip("\n")
    assert lat.dump() == expected


# ------------------------------------------------------------- solve plans


def _covered(system, mode="greedy"):
    lat = compute_parents(build_lattice(system))
    return lat, good_covers(lat, mode=mode)


def test_solve_plan_layout():
    system = system_from_lists(6, [{0, 1, 2, 3}, {1, 2, 4}, {2, 3, 5}])
    lat, covers = _covered(system)
    plan = lat.solve_plan(covers)
    assert list(plan.labels) == lat.labels_by_layer()
    slot = {label: i for i, label in enumerate(plan.labels)}
    assert plan.classes == tuple(
        (slot[label], tuple(sorted(lat.nodes[label].phi)))
        for label in plan.labels
        if lat.nodes[label].phi
    )
    assert [layer for layer, _ in plan.layers] == [3, 2]
    for layer, steps in plan.layers:
        assert [plan.labels[child] for child, _ in steps] == [
            lb for lb in plan.labels if len(lb) == layer
        ]
        for child, parents in steps:
            assert tuple(plan.labels[p] for p in parents) == covers[plan.labels[child]]
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
    steps = dict(step for _, layer_steps in other_plan.layers for step in layer_steps)
    assert steps[slot[label]] == tuple(slot[fs(i)] for i in sorted(label))
    assert other_plan.budget == plan.budget - len(greedy[label]) + len(label)
    assert lat.solve_plan(greedy) is not other_plan


def test_add_virtual_after_solve_drops_plan():
    system = system_from_lists(4, [{0, 1}, {1, 2}, {2, 3}])
    lat, covers = _covered(system)
    first = solve_lattice(system, KeySpace.random(4, 1), prebuilt=(lat, covers))
    plan = lat.solve_plan(covers)
    lat.add_virtual(fs(1, 3))
    covers[fs(1, 3)] = (fs(1), fs(3))
    replanned = lat.solve_plan(covers)
    assert replanned is not plan and fs(1, 3) in replanned.labels
    again = solve_lattice(system, KeySpace.random(4, 1), prebuilt=(lat, covers))
    assert again.maxima == first.maxima
    assert again.bound == first.bound + 2


def test_solve_plan_rejects_bad_covers():
    system = system_from_lists(3, [{0, 1}, {1, 2}])
    lat, covers = _covered(system)
    with pytest.raises(LatticeError, match="no cover"):
        lat.solve_plan({})
    with pytest.raises(LatticeError, match="not a lattice node"):
        lat.solve_plan({fs(1, 2): (fs(1), fs(5))})


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
            result = solve_lattice(system, KeySpace.random(60, seed), ledger=ledger,
                                   prebuilt=(lat, covers))
            assert ledger.count == result.comparisons <= result.bound
