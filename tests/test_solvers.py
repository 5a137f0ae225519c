import math
import random
from dataclasses import replace

import pytest

from setmaxima.generators import gen_convex_instance, gen_keys, gen_random_system
from setmaxima.geomlattice import build_geometric_lattice, solve_lattice_geometric
from setmaxima.lattice import build_lattice, compute_parents, good_covers, label_sort_key
from setmaxima.order import ComparisonLedger, KeySpace
from setmaxima.setsystem import system_from_lists
from setmaxima.solvers import (
    MaximaResult,
    _check_loop_invariant,
    bucket_comparison_bound,
    solve_bruteforce,
    solve_bucket,
    solve_lattice,
    solve_sort,
    sort_comparison_bound,
)


def _feasible(rng, n_max, m_max):
    n = rng.randint(1, n_max)
    m = min(rng.randint(1, m_max), 2**n - 1)
    return n, m


# ---------------------------------------------------------------- brute force


def test_brute_singleton_set():
    system = system_from_lists(6, [{5}])
    keys = KeySpace([10, 20, 30, 40, 50, 60])
    assert solve_bruteforce(system, keys).maxima == (5,)


def test_brute_full_set_finds_position_of_n():
    rng = random.Random(0)
    keys = list(range(1, 13))
    rng.shuffle(keys)
    system = system_from_lists(12, [set(range(12))])
    assert solve_bruteforce(system, KeySpace(keys)).maxima == (keys.index(12),)


def test_brute_agrees_with_sort_on_many_instances():
    from setmaxima.generators import GenerationError

    skipped = 0
    for seed in range(1000):
        rng = random.Random(seed)
        n, m = _feasible(rng, 12, 4)
        try:
            system = gen_random_system(n, m, density=rng.uniform(0.2, 1.0), seed=seed)
        except GenerationError:
            skipped += 1  # near-saturated (n, m, density) combos may not exist
            continue
        keys = gen_keys(n, seed + 1)
        assert solve_bruteforce(system, keys).maxima == solve_sort(system, keys).maxima
    assert skipped < 50


# ----------------------------------------------------------------------- sort


def test_sort_single_element():
    system = system_from_lists(1, [{0}])
    result = solve_sort(system, KeySpace([7]))
    assert result.comparisons == 0 and result.bound == 0


def test_sort_four_elements_worst_case():
    # merge sort on 4 elements needs at most 5 comparisons
    for seed in range(24):
        keys = KeySpace.random(4, seed)
        result = solve_sort(system_from_lists(4, [{0, 1, 2, 3}]), keys)
        assert result.comparisons <= 5


def test_sort_bound_formula():
    assert sort_comparison_bound(1) == 0
    assert sort_comparison_bound(4) == 8
    assert sort_comparison_bound(100) == 700


def test_sort_within_bound_random():
    for seed in range(40):
        rng = random.Random(seed)
        n, m = _feasible(rng, 200, 10)
        system = gen_random_system(n, m, 0.4, seed)
        result = solve_sort(system, gen_keys(n, seed))
        assert result.comparisons <= sort_comparison_bound(n)


# --------------------------------------------------------------------- bucket


def test_bucket_disjoint_sets_cost_p_minus_m():
    system = system_from_lists(6, [{0, 1}, {2, 3, 4}, {5}])
    result = solve_bucket(system, KeySpace.random(6, 1))
    assert result.comparisons == system.p - system.m


def test_bucket_hand_example():
    system = system_from_lists(3, [{0, 1}, {1, 2}])
    result = solve_bucket(system, KeySpace([3, 1, 2]))
    assert result.maxima == (0, 2)
    assert result.comparisons == 2


def test_bucket_matches_independent_recount():
    for seed in range(60):
        rng = random.Random(seed)
        n, m = _feasible(rng, 40, 8)
        system = gen_random_system(n, m, rng.uniform(0.2, 0.9), seed)
        result = solve_bucket(system, gen_keys(n, seed + 2))
        # recount from scratch: group by per-element membership double loop
        groups = {}
        for e in range(n):
            sig = frozenset(i for i, s in enumerate(system.sets, 1) if e in s)
            if sig:
                groups.setdefault(sig, []).append(e)
        expected = sum(len(g) - 1 for g in groups.values())
        for i in range(1, m + 1):
            b = sum(1 for sig in groups if i in sig)
            expected += b - 1
        assert result.comparisons == expected == bucket_comparison_bound(system)


# -------------------------------------------------------------------- lattice


def test_lattice_single_set_costs_n_minus_1():
    n = 30
    system = system_from_lists(n, [set(range(n))])
    keys = KeySpace.random(n, 5)
    result = solve_lattice(system, keys)
    assert result.comparisons == n - 1
    assert result.maxima == solve_bruteforce(system, keys).maxima


def test_lattice_hand_example_two_comparisons():
    system = system_from_lists(3, [{0, 1}, {1, 2}])
    result = solve_lattice(system, KeySpace([3, 1, 2]))
    assert result.maxima == (0, 2)
    assert result.comparisons == 2


@pytest.mark.parametrize("cover_mode", ["greedy", "exact"])
def test_lattice_matches_oracle_100_instances(cover_mode):
    for seed in range(100):
        rng = random.Random(seed)
        n, m = _feasible(rng, 40, 12)
        system = gen_random_system(n, m, rng.uniform(0.15, 0.9), seed)
        keys = gen_keys(n, seed + 3)
        result = solve_lattice(system, keys, cover_mode=cover_mode)
        assert result.maxima == solve_bruteforce(system, keys).maxima
        assert result.comparisons <= result.bound


def test_lattice_debug_check_loop_invariant():
    for seed in range(10):
        rng = random.Random(seed + 77)
        n, m = _feasible(rng, 25, 8)
        system = gen_random_system(n, m, 0.5, seed)
        keys = gen_keys(n, seed)
        result = solve_lattice(system, keys, debug_check=True)
        assert result.maxima == solve_bruteforce(system, keys).maxima


def test_lattice_obliviousness_under_order_preserving_remaps():
    for seed in range(8):
        rng = random.Random(seed)
        n, m = _feasible(rng, 30, 8)
        system = gen_random_system(n, m, 0.5, seed)
        base_keys = list(gen_keys(n, seed + 9).oracle_keys())

        def transcript_of(keys_list):
            ledger = ComparisonLedger(record_transcript=True)
            solve_lattice(system, KeySpace(keys_list), ledger=ledger)
            return ledger.transcript

        base = transcript_of(base_keys)
        order = sorted(range(n), key=base_keys.__getitem__)
        for rep in range(10):
            remap_rng = random.Random(1000 * seed + rep)
            # strictly increasing fresh values assigned by rank
            values = []
            cur = remap_rng.randint(-(2**40), 2**40)
            for _ in range(n):
                cur += remap_rng.randint(1, 2**20)
                values.append(cur)
            remapped = [0] * n
            for rank, e in enumerate(order):
                remapped[e] = values[rank]
            assert transcript_of(remapped) == base


def test_all_solvers_agree_and_respect_budgets():
    for seed in range(60):
        rng = random.Random(seed + 31)
        n, m = _feasible(rng, 60, 10)
        system = gen_random_system(n, m, rng.uniform(0.2, 0.8), seed)
        keys = gen_keys(n, seed)
        results = [
            solve_bruteforce(system, keys),
            solve_sort(system, keys),
            solve_bucket(system, keys),
            solve_lattice(system, keys, cover_mode="greedy"),
            solve_lattice(system, keys, cover_mode="exact"),
        ]
        maxima = {r.maxima for r in results}
        assert len(maxima) == 1
        for r in results:
            assert r.comparisons <= r.bound
            for i, e in enumerate(r.maxima):
                assert e in system.sets[i]


def test_result_record_fields():
    system = system_from_lists(3, [{0, 1}, {1, 2}])
    result = solve_lattice(system, KeySpace([3, 1, 2]))
    rec = result.to_record(system, k=None, ok=True)
    assert rec["algorithm"] == "lattice"
    assert rec["n"] == 3 and rec["m"] == 2 and rec["p"] == 4
    assert rec["comparisons"] == 2
    assert rec["ok"] is True
    assert 0 <= rec["ratio"] <= 1


def test_audited_solvers_never_touch_raw_keys(monkeypatch):
    system = system_from_lists(8, [{0, 1, 2}, {2, 3, 4}, {5, 6, 7}])
    keys = KeySpace.random(8, 3)

    def forbidden(self):
        raise AssertionError("audited path read raw keys")

    monkeypatch.setattr(KeySpace, "oracle_keys", forbidden)
    solve_sort(system, keys)
    solve_bucket(system, keys)
    solve_lattice(system, keys, cover_mode="greedy")
    solve_lattice(system, keys, cover_mode="exact")
    with pytest.raises(AssertionError):
        solve_bruteforce(system, keys)


# ------------------------------------------------- per-pair reference solvers
#
# Straightforward per-node lattice and quadratic bucket loops, in which every
# comparison is a separate ``KeySpace.compare`` call.  The production solvers
# (solve plan, batch comparisons, one bucket pass) must give the same maxima,
# counts and transcripts.


def _reference_max(keys, indices, ledger):
    if len(indices) == 0:
        raise ValueError("empty class")
    if len(set(indices)) != len(indices):
        raise ValueError("duplicate indices")
    best = indices[0]
    for idx in indices[1:]:
        if keys.compare(idx, best, ledger) > 0:
            best = idx
    return best


def reference_solve_lattice(system, keys, cover_mode="greedy", ledger=None, prebuilt=None,
                            debug_check=False):
    """The per-node lattice loop: champions keyed by label, covers pushed
    one node at a time in descending layer order."""
    system.require_valid()
    ledger = ledger if ledger is not None else ComparisonLedger()
    start = ledger.count
    if prebuilt is not None:
        lattice, covers = prebuilt
    else:
        lattice = compute_parents(build_lattice(system))
        covers = good_covers(lattice, mode=cover_mode)
    champion = {}
    for label in lattice.labels_by_layer():
        phi = lattice.nodes[label].phi
        champion[label] = _reference_max(keys, sorted(phi), ledger) if phi else None
    prev_layer = None
    for label in lattice.labels_by_layer(descending=True):
        if len(label) < 2:
            continue
        if debug_check and len(label) != prev_layer:
            _check_loop_invariant(lattice, covers, champion, keys, len(label))
            prev_layer = len(label)
        value = champion[label]
        if value is None:
            continue
        for parent in covers[label]:
            cur = champion[parent]
            if cur is None or cur == value:
                champion[parent] = value
            elif keys.compare(value, cur, ledger) > 0:
                champion[parent] = value
    maxima = tuple(champion[frozenset((i,))] for i in range(1, system.m + 1))
    bound = system.n + sum(len(c) for c in covers.values())
    return MaximaResult("lattice", maxima, ledger.count - start, bound)


def reference_solve_bucket(system, keys, ledger=None):
    """The quadratic bucket loop: all buckets re-sorted for every set."""
    ledger = ledger if ledger is not None else ComparisonLedger()
    start = ledger.count
    buckets = {}
    for element, sig in enumerate(system.signatures()):
        if sig:
            buckets.setdefault(sig, []).append(element)
    champion = {}
    for sig in sorted(buckets, key=label_sort_key):
        champion[sig] = _reference_max(keys, sorted(buckets[sig]), ledger)
    maxima = []
    for i in range(1, system.m + 1):
        hits = [champion[sig] for sig in sorted(buckets, key=label_sort_key) if i in sig]
        best = hits[0]
        for cand in hits[1:]:
            if keys.compare(cand, best, ledger) > 0:
                best = cand
        maxima.append(best)
    used = ledger.count - start
    return MaximaResult("bucket", tuple(maxima), used, bucket_comparison_bound(system))


def _transcribed(solver, *args, **kwargs):
    ledger = ComparisonLedger(record_transcript=True)
    result = solver(*args, ledger=ledger, **kwargs)
    assert ledger.count == result.comparisons
    return result, ledger.transcript


def _assert_same_run(got, want):
    (res, transcript), (ref, ref_transcript) = got, want
    assert res.maxima == ref.maxima
    assert res.comparisons == ref.comparisons
    assert res.bound == ref.bound
    assert transcript == ref_transcript


def _seeded_systems(count, n_max=50, m_max=12, offset=0):
    for seed in range(offset, offset + count):
        rng = random.Random(seed)
        n, m = _feasible(rng, n_max, m_max)
        yield seed, gen_random_system(n, m, rng.uniform(0.15, 0.9), seed)


@pytest.mark.parametrize("cover_mode", ["greedy", "exact"])
def test_lattice_matches_per_node_reference(cover_mode):
    for seed, system in _seeded_systems(60):
        keys = gen_keys(system.n, seed + 5)
        _assert_same_run(
            _transcribed(solve_lattice, system, keys, cover_mode=cover_mode),
            _transcribed(reference_solve_lattice, system, keys, cover_mode=cover_mode),
        )


@pytest.mark.parametrize("cover_mode", ["greedy", "exact"])
def test_prebuilt_lattice_matches_reference_over_many_assignments(cover_mode):
    for seed, system in _seeded_systems(12, n_max=80, offset=500):
        lat = compute_parents(build_lattice(system))
        covers = good_covers(lat, mode=cover_mode)
        for rep in range(4):
            keys = gen_keys(system.n, 100 * seed + rep)
            _assert_same_run(
                _transcribed(solve_lattice, system, keys, prebuilt=(lat, covers)),
                _transcribed(reference_solve_lattice, system, keys, prebuilt=(lat, covers)),
            )


def test_geometric_lattice_matches_reference():
    for seed in range(6):
        inst = gen_convex_instance(n=120, m=10, k=4, seed=seed)
        glat = build_geometric_lattice(inst)
        for rep in range(3):
            keys = gen_keys(inst.n, 10 * seed + rep)
            _assert_same_run(
                _transcribed(solve_lattice_geometric, glat, keys),
                _transcribed(
                    reference_solve_lattice, glat.system, keys,
                    prebuilt=(glat.lattice, glat.covers),
                ),
            )


def test_debug_check_runs_match_reference():
    for seed, system in _seeded_systems(10, n_max=30, m_max=8, offset=900):
        keys = gen_keys(system.n, seed)
        _assert_same_run(
            _transcribed(solve_lattice, system, keys, debug_check=True),
            _transcribed(reference_solve_lattice, system, keys, debug_check=True),
        )
    inst = gen_convex_instance(n=80, m=8, k=4, seed=2)
    glat = build_geometric_lattice(inst)
    keys = gen_keys(inst.n, 3)
    _assert_same_run(
        _transcribed(solve_lattice_geometric, glat, keys, debug_check=True),
        _transcribed(
            reference_solve_lattice, glat.system, keys,
            prebuilt=(glat.lattice, glat.covers), debug_check=True,
        ),
    )


def test_debug_check_catches_a_broken_plan():
    # element 2 is alone in class {1,2,3} and holds the largest key
    system = system_from_lists(6, [{0, 1, 2, 3}, {1, 2, 4}, {2, 3, 5}])
    lat = compute_parents(build_lattice(system))
    covers = good_covers(lat)
    plan = lat.solve_plan(covers)
    assert [layer for layer, _ in plan.layers] == [3, 2]
    keys = KeySpace([1, 2, 6, 3, 4, 5])
    assert solve_lattice(system, keys, prebuilt=(lat, covers), debug_check=True).maxima == (2, 2, 2)
    # drop the pushes of layer 3: the check before layer 2 must notice
    lat._plan = (covers, replace(plan, layers=plan.layers[1:]))
    with pytest.raises(AssertionError, match="loop invariant"):
        solve_lattice(system, keys, prebuilt=(lat, covers), debug_check=True)


def test_bucket_matches_quadratic_reference():
    for seed, system in _seeded_systems(60, n_max=60, offset=200):
        keys = gen_keys(system.n, seed + 7)
        _assert_same_run(
            _transcribed(solve_bucket, system, keys),
            _transcribed(reference_solve_bucket, system, keys),
        )
    glat = build_geometric_lattice(gen_convex_instance(n=150, m=12, k=4, seed=4))
    keys = gen_keys(glat.system.n, 8)
    _assert_same_run(
        _transcribed(solve_bucket, glat.system, keys),
        _transcribed(reference_solve_bucket, glat.system, keys),
    )


def test_keys_shorter_than_system_raise_like_reference():
    # the short key space lacks element 2, which is alone in class {1,2}
    system = system_from_lists(3, [{0, 1, 2}, {2}])
    keys = KeySpace([5, 7])
    with pytest.raises(IndexError):
        reference_solve_lattice(system, keys)
    with pytest.raises(IndexError):
        solve_lattice(system, keys)
    with pytest.raises(IndexError):
        reference_solve_bucket(system, keys)
    with pytest.raises(IndexError):
        solve_bucket(system, keys)


def test_prebuilt_lattice_of_another_system_is_rejected():
    lat = compute_parents(build_lattice(system_from_lists(3, [{0, 1}, {1, 2}])))
    covers = good_covers(lat)
    other = system_from_lists(4, [{0, 1}, {1, 2}])
    with pytest.raises(ValueError):
        solve_lattice(other, KeySpace.random(4, 1), prebuilt=(lat, covers))
