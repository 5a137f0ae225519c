import random
from dataclasses import fields, replace

import numpy as np
import pytest

from setmaxima import setsystem, solvers
from setmaxima.generators import gen_convex_instance, gen_keys, gen_random_system
from setmaxima.geomlattice import build_geometric_lattice, induced_system, solve_lattice_geometric
from setmaxima.instance_io import ProblemInstance, load_instance, save_instance
from setmaxima.lattice import (
    Label,
    Lattice,
    build_lattice,
    compute_parents,
    good_covers,
    label_sort_key,
)
from setmaxima.order import ComparisonLedger, KeySpace, _scan, compile_classes, compile_sort
from setmaxima.setsystem import system_from_lists
from setmaxima.solvers import (
    MaximaResult,
    bucket_comparison_bound,
    bucket_plan,
    solve_bruteforce,
    solve_bucket,
    solve_lattice,
    solve_sort,
    sort_comparison_bound,
    sort_plan,
)
from test_setsystem import reference_signature_classes


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
        keys = gen_keys(4, seed)
        result = solve_sort(system_from_lists(4, [{0, 1, 2, 3}]), keys)
        assert result.comparisons <= 5


def test_sort_bound_formula():
    assert sort_comparison_bound(1) == 0
    assert sort_comparison_bound(4) == 8
    assert sort_comparison_bound(100) == 700
    # just above a power of two that a float cannot tell from its neighbour
    assert sort_comparison_bound(2**53 + 1) == (2**53 + 1) * 54


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
    result = solve_bucket(system, gen_keys(6, 1))
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
    keys = gen_keys(n, 5)
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


def _check_loop_invariant(lattice, covers, champion, keys, layer):
    """The loop invariant of a lattice solve: before a layer is pushed,
    every node at or below it must already hold the max over its reachable
    classes (checked unaudited)."""
    raw = keys.oracle_keys()
    children: dict[Label, list[Label]] = {lb: [] for lb in lattice.nodes}
    for label, cover in covers.items():
        for parent in cover:
            children[parent].append(label)

    reach_best: dict[Label, int | None] = {}

    def best_of(label: Label) -> int | None:
        if label in reach_best:
            return reach_best[label]
        node = lattice.nodes[label]
        cands = [max(node.phi, key=raw.__getitem__)] if node.phi else []
        for child in children[label]:
            b = best_of(child)
            if b is not None:
                cands.append(b)
        result = max(cands, key=raw.__getitem__) if cands else None
        reach_best[label] = result
        return result

    for label, node in lattice.nodes.items():
        if node.layer >= layer:
            expected = best_of(label)
            # slots past the last one the call names are empty
            if champion.get(label) != expected:
                raise AssertionError(
                    f"loop invariant broken at layer {layer}: node holds "
                    f"{champion.get(label)}, reachable max is {expected}"
                )


def check_loop_invariant_per_layer(lattice, covers, keys):
    """The loop invariant before each layer of ``lattice.solve_plan(covers)``:
    a ``propagate`` of the layers below it, into a scratch ledger, leaves
    every node at or below the layer holding its reachable maximum."""
    plan = lattice.solve_plan(covers)
    pushes = [push for _, push in plan.layers]
    for i, (layer, _) in enumerate(plan.layers):
        scratch = keys.propagate(plan.classes, pushes[:i], ComparisonLedger()).tolist()
        held = dict(zip(plan.labels, (None if c < 0 else c for c in scratch)))
        _check_loop_invariant(lattice, covers, held, keys, layer)


def _greedy_lattice(system):
    lat = compute_parents(build_lattice(system))
    return lat, good_covers(lat)


def test_lattice_debug_check_loop_invariant():
    for seed in range(10):
        rng = random.Random(seed + 77)
        n, m = _feasible(rng, 25, 8)
        system = gen_random_system(n, m, 0.5, seed)
        keys = gen_keys(n, seed)
        lat, covers = _greedy_lattice(system)
        check_loop_invariant_per_layer(lat, covers, keys)
        result = solve_lattice(system, keys, prebuilt=(lat, covers))
        assert result.maxima == solve_bruteforce(system, keys).maxima


def test_lattice_obliviousness_under_order_preserving_remaps():
    # every audited solver's transcript depends only on the order of the keys;
    # each system is one object, so the first solve compiles the solver's plan
    # and the remapped ones reuse it
    systems = []
    for seed in range(8):
        rng = random.Random(seed)
        n, m = _feasible(rng, 30, 8)
        systems.append((seed, gen_random_system(n, m, 0.5, seed)))
    systems.append((8, induced_system(gen_convex_instance(n=150, m=12, k=4, seed=6))))
    for solver in (solve_sort, solve_bucket, solve_lattice):
        for seed, system in systems:
            n = system.n
            base_keys = list(gen_keys(n, seed + 9).oracle_keys())

            def transcript_of(keys_list):
                ledger = ComparisonLedger(record_transcript=True)
                solver(system, KeySpace(keys_list), ledger=ledger)
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
    keys = gen_keys(8, 3)

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
# Straightforward merge sort, per-node lattice and quadratic bucket loops, in
# which every comparison is a separate ``KeySpace.compare`` call.  The
# production solvers (one merge_sort batch, solve plan, batch comparisons, one
# bucket pass) must give the same maxima, counts and transcripts.


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


def _merge_sort(items, keys, ledger):
    if len(items) <= 1:
        return items
    mid = len(items) // 2
    left = _merge_sort(items[:mid], keys, ledger)
    right = _merge_sort(items[mid:], keys, ledger)
    out = []
    i = j = 0
    while i < len(left) and j < len(right):
        if keys.compare(left[i], right[j], ledger) < 0:
            out.append(left[i])
            i += 1
        else:
            out.append(right[j])
            j += 1
    out.extend(left[i:])
    out.extend(right[j:])
    return out


def reference_solve_sort(system, keys, ledger=None):
    """The recursive merge sort over all of X, then a rank lookup per set."""
    ledger = ledger if ledger is not None else ComparisonLedger()
    start = ledger.count
    order = _merge_sort(list(range(system.n)), keys, ledger)
    rank = {e: r for r, e in enumerate(order)}
    maxima = tuple(max(s, key=rank.__getitem__) for s in system.sets)
    return MaximaResult("sort", maxima, ledger.count - start, sort_comparison_bound(system.n))


def reference_solve_lattice(system, keys, cover_mode="greedy", ledger=None, prebuilt=None,
                            debug_check=False):
    """The per-node lattice loop: champions keyed by label, covers pushed
    one node at a time in descending layer order."""
    ledger = ledger if ledger is not None else ComparisonLedger()
    start = ledger.count
    if prebuilt is not None:
        lattice, covers = prebuilt
    else:
        lattice = compute_parents(build_lattice(system))
        covers = good_covers(lattice, mode=cover_mode)
    champion = {}
    for label in sorted(lattice.nodes, key=lambda lb: (len(lb), label_sort_key(lb))):
        phi = lattice.nodes[label].phi
        champion[label] = _reference_max(keys, sorted(phi), ledger) if phi else None
    prev_layer = None
    for label in sorted(lattice.nodes, key=lambda lb: (-len(lb), label_sort_key(lb))):
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
    buckets = reference_signature_classes(system)
    champion = {}
    for sig in sorted(buckets, key=label_sort_key):
        champion[sig] = _reference_max(keys, sorted(buckets[sig]), ledger)
    maxima = []
    bound = sum(len(members) - 1 for members in buckets.values())
    for i in range(1, system.m + 1):
        hits = [champion[sig] for sig in sorted(buckets, key=label_sort_key) if i in sig]
        best = hits[0]
        for cand in hits[1:]:
            if keys.compare(cand, best, ledger) > 0:
                best = cand
        maxima.append(best)
        bound += len(hits) - 1
    used = ledger.count - start
    return MaximaResult("bucket", tuple(maxima), used, bound)


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


def test_sort_matches_per_pair_reference():
    for seed, system in _seeded_systems(60):
        keys = gen_keys(system.n, seed + 11)
        _assert_same_run(
            _transcribed(solve_sort, system, keys),
            _transcribed(reference_solve_sort, system, keys),
        )
    system = induced_system(gen_convex_instance(n=150, m=12, k=4, seed=4))
    keys = gen_keys(system.n, 9)
    _assert_same_run(
        _transcribed(solve_sort, system, keys),
        _transcribed(reference_solve_sort, system, keys),
    )
    # odd sizes, a power of two and one larger than it, and the benchmark's n
    for n in (0, 1, 2, 3, 5, 8, 17, 513, 20000):
        system = system_from_lists(n, [range(n)] if n else [])
        keys = gen_keys(n, n)
        _assert_same_run(
            _transcribed(solve_sort, system, keys),
            _transcribed(reference_solve_sort, system, keys),
        )


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
        lat, covers = _greedy_lattice(system)
        check_loop_invariant_per_layer(lat, covers, keys)
        _assert_same_run(
            _transcribed(solve_lattice, system, keys, prebuilt=(lat, covers)),
            _transcribed(reference_solve_lattice, system, keys, debug_check=True),
        )
    inst = gen_convex_instance(n=80, m=8, k=4, seed=2)
    glat = build_geometric_lattice(inst)
    keys = gen_keys(inst.n, 3)
    check_loop_invariant_per_layer(glat.lattice, glat.covers, keys)
    _assert_same_run(
        _transcribed(solve_lattice_geometric, glat, keys),
        _transcribed(
            reference_solve_lattice, glat.system, keys,
            prebuilt=(glat.lattice, glat.covers), debug_check=True,
        ),
    )


def test_debug_check_catches_a_broken_plan():
    # element 2 is alone in class {1,2,3} and holds the largest key
    system = system_from_lists(6, [{0, 1, 2, 3}, {1, 2, 4}, {2, 3, 5}])
    lat, covers = _greedy_lattice(system)
    plan = lat.solve_plan(covers)
    assert [layer for layer, _ in plan.layers] == [3, 2]
    keys = KeySpace([1, 2, 6, 3, 4, 5])
    check_loop_invariant_per_layer(lat, covers, keys)
    assert solve_lattice(system, keys, prebuilt=(lat, covers)).maxima == (2, 2, 2)
    # drop the pushes of layer 3: the check before layer 2 must notice
    lat._plan = (covers, replace(plan, layers=plan.layers[1:]))
    with pytest.raises(AssertionError, match="loop invariant"):
        check_loop_invariant_per_layer(lat, covers, keys)


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


def reference_bucket_plan(system):
    """The bucket plan as the per-set loop compiled it: buckets sorted by
    ``label_sort_key``, and one Python list of bucket slots per set."""
    groups = reference_signature_classes(system)
    order = sorted(groups, key=label_sort_key)
    hits = [[] for _ in range(system.m)]
    for slot, sig in enumerate(order):
        for i in sig:
            hits[i - 1].append(slot)
    buckets = compile_classes(
        range(len(order)), [len(groups[sig]) for sig in order], [e for sig in order for e in groups[sig]]
    )
    per_set = reference_compile_layer(
        [slot for slots in hits for slot in slots],
        [len(order) + i for i, slots in enumerate(hits) for _ in slots],
    )
    return buckets, per_set, buckets.pushes.size + sum(len(slots) - 1 for slots in hits)


def reference_compile_layer(children, parents):
    """One push layer as the per-layer compile laid it out: a stable
    argsort by parent, and ``np.unique`` for the segments."""
    child = np.asarray(children, dtype=np.int64)
    parent = np.asarray(parents, dtype=np.int64)
    if child.shape != parent.shape:
        raise ValueError("a push needs one child and one parent slot")
    if child.size:
        if min(child.min(), parent.min()) < 0:
            raise IndexError(f"negative slot in a push layer: {min(child.min(), parent.min())}")
        receives = np.zeros(max(child.max(), parent.max()) + 1, dtype=bool)
        receives[parent] = True
        if receives[child].any():
            raise ValueError("a slot both pushes and receives in one layer")
    order = np.argsort(parent, kind="stable")
    targets, counts = np.unique(parent, return_counts=True)
    heads = np.cumsum(counts + 1) - (counts + 1)
    placed = np.arange(parent.size) + np.repeat(np.arange(1, targets.size + 1), counts)
    source = np.empty(parent.size + targets.size, dtype=np.int64)
    source[heads] = targets
    source[placed] = child[order]
    pushes = np.empty(parent.size, dtype=np.int64)
    pushes[order] = placed
    return _scan(source, counts + 1, targets, pushes)


def reference_sort_plan(system):
    lengths = [len(s) for s in system.sets]
    members = [e for s in system.sets for e in s]
    return compile_sort(range(system.n)), members, np.cumsum([0, *lengths])[:-1]


def _plain(value):
    """Arrays as (dtype, items), in nested tuples too, so == compares them."""
    if isinstance(value, np.ndarray):
        return str(value.dtype), value.tolist()
    if isinstance(value, tuple):
        return tuple(map(_plain, value))
    return value


def _assert_same_scan(got, want):
    for field in fields(want):
        assert _plain(getattr(got, field.name)) == _plain(getattr(want, field.name)), field.name


def _assert_plans_as_reference(system):
    plan = bucket_plan(system)
    buckets, per_set, bound = reference_bucket_plan(system)
    _assert_same_scan(plan.buckets, buckets)
    _assert_same_scan(plan.per_set, per_set)
    assert plan.bound == bound
    plan = sort_plan(system)
    batch, members, starts = reference_sort_plan(system)
    _assert_same_scan(plan.batch, batch)
    assert plan.members.tolist() == members and plan.starts.tolist() == starts.tolist()
    assert plan.members.dtype == plan.starts.dtype == np.int64


def test_bucket_and_sort_plans_equal_the_per_set_compile():
    for _, system in _seeded_systems(60, n_max=80, offset=700):
        _assert_plans_as_reference(system)
    for system in (
        system_from_lists(0, []),
        system_from_lists(5, []),
        system_from_lists(8, [{1, 4}, {4, 6}, {6}]),
        # the shapes of the benchmark's workloads
        gen_convex_instance(20000, 2000, 4, seed=2).system,
        gen_convex_instance(20000, 200, 8, seed=2).system,
        gen_random_system(2000, 30, 0.5, seed=2),
    ):
        _assert_plans_as_reference(system)


def test_bucket_plan_is_compiled_once_and_reused(monkeypatch):
    # each system is made with the signature grouping kernel counted: the
    # geometric build groups its system's signatures for the lattice, and
    # the bucket plan must reuse that grouping instead of making its own
    makers = [lambda system=system: system
              for _, system in _seeded_systems(12, n_max=60, offset=300)]
    makers.append(
        lambda: build_geometric_lattice(gen_convex_instance(n=150, m=12, k=4, seed=5)).system
    )
    group = setsystem._group_signatures
    for index, make in enumerate(makers):
        compiled_for = []
        with monkeypatch.context() as patch:
            patch.setattr(
                setsystem, "_group_signatures",
                lambda system: compiled_for.append(system) or group(system),
            )
            system = make()
            runs = []
            for rep in range(20):
                keys = gen_keys(system.n, 100 * index + rep)
                runs.append((keys, _transcribed(solve_bucket, system, keys)))
            plan = bucket_plan(system)
        assert compiled_for == [system]
        for keys, got in runs:
            want = _transcribed(reference_solve_bucket, system, keys)
            _assert_same_run(got, want)
        assert bucket_comparison_bound(system) == plan.bound == want[0].bound
        assert bucket_plan(system) is plan


def test_pipeline_groups_signatures_once(monkeypatch, tmp_path):
    # a load, a build and a solve of each kind run the grouping kernel
    # once, on the loaded system, and read it from there
    instance = gen_convex_instance(n=150, m=12, k=4, seed=9)
    path = tmp_path / "convex.json"
    save_instance(path, ProblemInstance(system=instance.system, geometry=instance))
    group = setsystem._group_signatures
    grouped = []
    monkeypatch.setattr(
        setsystem, "_group_signatures", lambda system: grouped.append(system) or group(system)
    )
    glat = build_geometric_lattice(load_instance(path).geometry)
    keys = gen_keys(glat.system.n, 9)
    solve_lattice_geometric(glat, keys)
    solve_sort(glat.system, keys)
    solve_bucket(glat.system, keys)
    assert grouped == [glat.system] and grouped[0] is glat.system


def test_sort_plan_is_compiled_once_and_reused(monkeypatch):
    makers = [lambda system=system: system
              for _, system in _seeded_systems(12, n_max=60, offset=400)]
    makers.append(
        lambda: build_geometric_lattice(gen_convex_instance(n=150, m=12, k=4, seed=7)).system
    )
    compile_sort = solvers.compile_sort
    for index, make in enumerate(makers):
        compiled_for = []
        with monkeypatch.context() as patch:
            patch.setattr(
                solvers, "compile_sort",
                lambda items: compiled_for.append(items) or compile_sort(items),
            )
            system = make()
            runs = []
            for rep in range(20):
                keys = gen_keys(system.n, 100 * index + rep)
                runs.append((keys, _transcribed(solve_sort, system, keys)))
            plan = sort_plan(system)
        assert compiled_for == [range(system.n)]
        for keys, got in runs:
            _assert_same_run(got, _transcribed(reference_solve_sort, system, keys))
        assert sort_plan(system) is plan


def test_sort_without_sets_and_with_elements_in_no_set():
    for system in (
        system_from_lists(0, []),
        system_from_lists(5, []),
        # elements 0, 2, 3, 5 and 7 lie in no set
        system_from_lists(8, [{1, 4}, {4, 6}, {6}]),
        system_from_lists(9, [{8}]),
    ):
        for seed in range(6):
            keys = gen_keys(system.n, seed)
            got = _transcribed(solve_sort, system, keys)
            _assert_same_run(got, _transcribed(reference_solve_sort, system, keys))
            assert got[0].maxima == solve_bruteforce(system, keys).maxima
            assert len(got[0].maxima) == system.m


def test_keys_shorter_than_system_raise_like_reference():
    cases = [
        # the short key space lacks element 2, which is alone in class {1,2}
        (system_from_lists(3, [{0, 1, 2}, {2}]), KeySpace([5, 7])),
        # it lacks element 3; the per-pair loops compare other elements
        # before they reach it
        (system_from_lists(4, [{0, 1, 2, 3}, {3}]), KeySpace([5, 7, 6])),
    ]
    for system, keys in cases:
        for solver, reference in (
            (solve_sort, reference_solve_sort),
            (solve_lattice, reference_solve_lattice),
            (solve_bucket, reference_solve_bucket),
        ):
            with pytest.raises(IndexError):
                reference(system, keys)
            # the batch path checks its indices before the first comparison
            ledger = ComparisonLedger()
            with pytest.raises(IndexError):
                solver(system, keys, ledger=ledger)
            assert ledger.count == 0


def test_keys_shorter_than_system_raise_with_a_compiled_plan():
    # once the plan is compiled, only its largest element is range-checked
    system = system_from_lists(4, [{0, 1, 3}, {1, 2, 3}])
    lat = compute_parents(build_lattice(system))
    covers = good_covers(lat)
    solve_lattice(system, gen_keys(4, 1), prebuilt=(lat, covers))
    plan = lat.solve_plan(covers)
    assert plan.classes.span == 4
    ledger = ComparisonLedger()
    with pytest.raises(IndexError):
        solve_lattice(system, KeySpace([4, 2, 3]), ledger=ledger, prebuilt=(lat, covers))
    assert ledger.count == 0
    assert lat.solve_plan(covers) is plan
    assert solve_lattice(system, KeySpace([1, 2, 3, 4]), prebuilt=(lat, covers)).maxima == (3, 3)


def test_keys_shorter_than_system_raise_with_a_compiled_bucket_plan():
    # the bucket plan, too, range-checks only its largest member per solve
    system = system_from_lists(4, [{0, 1, 3}, {1, 2, 3}])
    solve_bucket(system, gen_keys(4, 1))
    plan = bucket_plan(system)
    assert plan.buckets.span == 4
    ledger = ComparisonLedger(record_transcript=True)
    with pytest.raises(IndexError):
        solve_bucket(system, KeySpace([4, 2, 3]), ledger=ledger)
    assert ledger.count == 0 and ledger.transcript == ()
    assert bucket_plan(system) is plan
    assert solve_bucket(system, KeySpace([1, 2, 3, 4])).maxima == (3, 3)


def test_plans_of_one_member_classes_range_check_every_member():
    # every class and every bucket has one member, so both plans hold them
    # as segments without a push and reduce nothing; ``span`` must still
    # cover those members
    system = system_from_lists(3, [{0}, {1}, {2}])
    lat = compute_parents(build_lattice(system))
    covers = good_covers(lat)
    keys = KeySpace([3, 1, 2])
    assert solve_lattice(system, keys, prebuilt=(lat, covers)).maxima == (0, 1, 2)
    assert solve_bucket(system, keys).maxima == (0, 1, 2)
    plan, buckets = lat.solve_plan(covers), bucket_plan(system)
    for batch in (plan.classes, buckets.buckets):
        assert batch.pushes.size == 0
        assert batch.targets.tolist() == batch.source.tolist() == [0, 1, 2]
        assert batch.span == 3
    short = KeySpace([1, 2])
    for solve in (
        lambda ledger: solve_lattice(system, short, ledger=ledger, prebuilt=(lat, covers)),
        lambda ledger: solve_bucket(system, short, ledger=ledger),
    ):
        ledger = ComparisonLedger(record_transcript=True)
        with pytest.raises(IndexError, match="out of range in propagate"):
            solve(ledger)
        assert ledger.count == 0 and ledger.transcript == ()


def test_prebuilt_lattice_that_never_reaches_a_set_fails_its_check():
    # the lattice fits n and m but files both elements under {1}, so no
    # class, cover or push names the slot of {2}, the last one
    system = system_from_lists(2, [{0}, {1}])
    lat = Lattice(m=2, n=2)
    lat.add_node(frozenset({1}), frozenset({0, 1}))
    lat.add_node(frozenset({2}), frozenset())
    with pytest.raises(AssertionError, match="no champion reached set 2"):
        solve_lattice(system, KeySpace([1, 2]), prebuilt=(lat, {}))


def test_prebuilt_lattice_of_another_system_is_rejected():
    lat = compute_parents(build_lattice(system_from_lists(3, [{0, 1}, {1, 2}])))
    covers = good_covers(lat)
    other = system_from_lists(4, [{0, 1}, {1, 2}])
    with pytest.raises(ValueError):
        solve_lattice(other, gen_keys(4, 1), prebuilt=(lat, covers))
