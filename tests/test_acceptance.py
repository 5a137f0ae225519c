"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything is seeded; the abstract corpus is built once per module
and the geometric one once per session (``corpora.py``).
"""

import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from corpora import abstract_systems
from setmaxima.bench import BenchConfig, run_bench
from setmaxima.generators import (
    gen_convex_instance,
    gen_keys,
    gen_random_system,
)
from setmaxima.geometry import (
    BOUNDARY,
    INSIDE,
    OUTSIDE,
    ConvexPolygon,
    Point2,
    orientation,
    point_in_convex,
    strict_hull,
)
from setmaxima.geomlattice import (
    build_geometric_lattice,
    check_cover_chains,
    circle_embedding,
    induced_system,
)
from setmaxima.lattice import build_lattice, compute_parents, good_covers
from setmaxima.order import ComparisonLedger, KeySpace
from setmaxima.setsystem import SetSystem
from setmaxima.solvers import (
    bucket_comparison_bound,
    solve_bruteforce,
    solve_bucket,
    solve_lattice,
    solve_sort,
    sort_comparison_bound,
)

N_ABSTRACT = 1000
# the geometric corpus (N_GEOMETRIC convex instances) is built in corpora.py
# and shared through the session-scoped ``geometric_corpus`` fixture


def report(criterion, name, detail):
    print(f"[acceptance] criterion {criterion} ({name}): PASS {detail}", flush=True)


# ------------------------------------------------------------------- corpora


@dataclass
class AbstractCase:
    system: SetSystem
    keys: KeySpace
    results: dict


@pytest.fixture(scope="module")
def abstract_corpus():
    cases = []
    for seed, system in abstract_systems(N_ABSTRACT):
        keys = gen_keys(system.n, seed + 500_000)
        results = {
            "brute": solve_bruteforce(system, keys),
            "sort": solve_sort(system, keys),
            "bucket": solve_bucket(system, keys),
            "lattice": solve_lattice(system, keys, cover_mode="greedy"),
        }
        cases.append(AbstractCase(system, keys, results))
    return cases


@pytest.fixture(scope="module")
def sweep_records():
    config = BenchConfig(
        kind="convex",
        ns=(100, 1000, 10_000, 100_000),
        ms=(10, 100, 1000, 10_000),
        k=4,
        seeds=(1,),
        algos=("lattice",),
        cover="geometric",
    )
    return run_bench(config)


# ------------------------------------------------------------------ criteria


def test_criterion_1_oracle_equivalence(abstract_corpus, geometric_corpus):
    for case in abstract_corpus + geometric_corpus:
        maxima = {r.maxima for r in case.results.values()}
        assert len(maxima) == 1
    report(
        1,
        "oracle equivalence",
        f"({len(abstract_corpus)} abstract + {len(geometric_corpus)} geometric "
        "instances, 4 solvers each, identical maxima)",
    )


def test_criterion_2_comparison_budgets(abstract_corpus, geometric_corpus):
    checked = 0
    for case in abstract_corpus + geometric_corpus:
        sort_res = case.results["sort"]
        bucket_res = case.results["bucket"]
        lattice_res = case.results["lattice"]
        sys_obj = case.system if isinstance(case, AbstractCase) else case.glat.system
        assert sort_res.comparisons <= sort_comparison_bound(sys_obj.n)
        assert bucket_res.comparisons == bucket_comparison_bound(sys_obj)
        assert lattice_res.comparisons <= lattice_res.bound
        if isinstance(case, AbstractCase):
            lat = compute_parents(build_lattice(sys_obj))
            covers = good_covers(lat, mode="greedy")
            budget = sys_obj.n + sum(len(c) for c in covers.values())
        else:
            budget = sys_obj.n + sum(len(c) for c in case.glat.covers.values())
        assert lattice_res.comparisons <= budget
        checked += 1
    report(2, "comparison budgets", f"({checked} instances, zero violations)")


def test_criterion_3_cover_size_bound(geometric_corpus):
    total_nodes = 0
    fallbacks = 0
    for case in geometric_corpus:
        k = case.instance.k
        for label, cover in case.glat.covers.items():
            assert len(cover) <= k, (label, len(cover), k)
            total_nodes += 1
        fallbacks += case.glat.fallback_count
    assert fallbacks == 0
    report(
        3,
        "cover size <= k",
        f"({total_nodes} covered nodes across {len(geometric_corpus)} instances, "
        "0 fallbacks)",
    )


def test_criterion_4_linear_comparison_sweep(sweep_records):
    lattice_rows = [r for r in sweep_records if r.algo == "lattice"]
    assert len(lattice_rows) == 4
    assert all(r.ok for r in lattice_rows)
    ratios = {}
    for rec in lattice_rows:
        ratios[rec.n] = rec.comparisons / (rec.k * (rec.n + rec.m))
    smallest = ratios[min(ratios)]
    worst = max(ratios.values())
    assert worst <= 2 * smallest, ratios
    detail = ", ".join(f"n={n}: {ratios[n]:.3f}" for n in sorted(ratios))
    report(4, "linear comparisons empirically", f"(k-ratios {detail})")


def test_criterion_5_cover_chain_disjointness(geometric_corpus):
    covers_checked = 0
    for case in geometric_corpus:
        for label, cover in case.glat.covers.items():
            if label in set(case.glat.fallback_labels):
                continue
            check_cover_chains(label, cover, case.glat.regions)
            covers_checked += 1
    report(
        5,
        "chain disjointness",
        f"({covers_checked} covers rechecked, zero overlaps)",
    )


def test_criterion_6_hitting_set_combinatorics():
    rng = random.Random(424242)
    trials = 10_000
    for _ in range(trials):
        l = rng.randint(1, 60)
        k = rng.randint(1, l)
        ground = list(range(l))
        family = [
            frozenset(rng.sample(ground, rng.randint(l - k + 1, l)))
            for _ in range(rng.randint(1, 6))
        ]
        hitter = frozenset(rng.sample(ground, k))
        for s in family:
            assert s & hitter, (l, k, sorted(s), sorted(hitter))
    report(6, "hitting-set property", f"({trials} sampled (l, k) configurations)")


def test_criterion_7_circle_embedding_round_trip():
    rng = random.Random(31337)
    done = 0
    while done < 100:
        n = rng.randint(3, 60)
        m = rng.randint(1, 8)
        sets = []
        seen = set()
        for _ in range(m):
            s = frozenset(rng.sample(range(n), rng.randint(3, n)))
            if s not in seen:
                seen.add(s)
                sets.append(s)
        if not sets:
            continue
        system = SetSystem(n=n, sets=tuple(sets))
        embedded = circle_embedding(system)
        assert induced_system(embedded).sets == system.sets
        done += 1
    report(7, "circle embedding round trip", f"({done} systems, exact set equality)")


def test_criterion_8_construction_is_comparison_free(monkeypatch):
    def forbidden(self):
        raise AssertionError("construction touched raw keys")

    monkeypatch.setattr(KeySpace, "oracle_keys", forbidden)
    built = 0
    for seed in range(5):
        system = gen_random_system(60, 10, 0.4, seed=seed)
        lat = compute_parents(build_lattice(system))
        good_covers(lat, mode="greedy")
        good_covers(lat, mode="exact")
        instance = gen_convex_instance(n=150, m=10, k=4, seed=seed)
        build_geometric_lattice(instance)
        built += 1
    # audited solves move the ledger by exactly their reported count
    monkeypatch.undo()
    system = gen_random_system(80, 12, 0.4, seed=3)
    keys = gen_keys(80, 4)
    for solver in (solve_sort, solve_bucket, solve_lattice):
        ledger = ComparisonLedger()
        result = solver(system, keys, ledger=ledger)
        assert ledger.count == result.comparisons
    report(
        8,
        "zero-comparison construction",
        f"({built} lattice+cover+geometry builds with key access poisoned)",
    )


def test_criterion_9_oblivious_transcripts():
    instances = 0
    for seed in range(10):
        rng = random.Random(seed)
        n = rng.randint(5, 60)
        m = min(rng.randint(2, 12), 2**n - 1)
        system = gen_random_system(n, m, 0.4, seed=seed + 600)
        base_keys = list(gen_keys(n, seed).oracle_keys())

        def transcript(keys_list):
            ledger = ComparisonLedger(record_transcript=True)
            solve_lattice(system, KeySpace(keys_list), ledger=ledger)
            return ledger.transcript

        base = transcript(base_keys)
        order = sorted(range(n), key=base_keys.__getitem__)
        for rep in range(10):
            remap_rng = random.Random(7_000 + 100 * seed + rep)
            value = remap_rng.randint(-(2**40), 0)
            remapped = [0] * n
            for rank, element in enumerate(order):
                value += remap_rng.randint(1, 2**20)
                remapped[element] = value
            assert transcript(remapped) == base
        instances += 1
    report(
        9,
        "oblivious transcripts",
        f"({instances} instances x 10 order-preserving remappings)",
    )


def _oracle_orientation(p, q, r):
    det = (
        Fraction(p[0]) * (Fraction(q[1]) - Fraction(r[1]))
        - Fraction(q[0]) * (Fraction(p[1]) - Fraction(r[1]))
        + Fraction(r[0]) * (Fraction(p[1]) - Fraction(q[1]))
    )
    return (det > 0) - (det < 0)


def _oracle_membership(poly, pt):
    signs = [orientation(a, b, pt) for a, b in poly.edges()]
    if any(s < 0 for s in signs):
        return OUTSIDE
    return BOUNDARY if any(s == 0 for s in signs) else INSIDE


def test_criterion_10_exact_predicates():
    rng = random.Random(999)
    bound = 1 << 20
    checked = 0
    for _ in range(70_000):
        pts = [Point2(rng.randint(-bound, bound), rng.randint(-bound, bound)) for _ in range(3)]
        assert orientation(*pts) == _oracle_orientation(*pts)
        checked += 1

    polys = []
    while len(polys) < 60:
        hull = strict_hull(
            Point2(rng.randint(-500, 500), rng.randint(-500, 500)) for _ in range(10)
        )
        if len(hull) >= 3:
            polys.append(ConvexPolygon(tuple(hull)))
    for i in range(30_000):
        poly = polys[i % len(polys)]
        pt = Point2(rng.randint(-600, 600), rng.randint(-600, 600))
        assert point_in_convex(poly, pt) == _oracle_membership(poly, pt)
        checked += 1

    adversarial = 0
    for _ in range(400):
        p = Point2(rng.randint(-bound // 2, bound // 2), rng.randint(-bound // 2, bound // 2))
        dx, dy = rng.randint(-64, 64), rng.randint(-64, 64)
        if (dx, dy) == (0, 0):
            dx = 1
        q = Point2(p.x + dx, p.y + dy)
        r = Point2(p.x + 5 * dx, p.y + 5 * dy)
        assert orientation(p, q, r) == 0 == _oracle_orientation(p, q, r)
        for nudged, want in (
            (Point2(r.x - dy, r.y + dx), 1),
            (Point2(r.x + dy, r.y - dx), -1),
        ):
            assert orientation(p, q, nudged) == want == _oracle_orientation(p, q, nudged)
        adversarial += 3
    while adversarial < 1000:
        poly = polys[adversarial % len(polys)]
        doubled = ConvexPolygon(tuple(Point2(2 * v.x, 2 * v.y) for v in poly.vertices))
        for a, b in doubled.edges():
            mid = Point2((a.x + b.x) // 2, (a.y + b.y) // 2)
            for pt in (mid, a, Point2(mid.x + 1, mid.y), Point2(mid.x - 1, mid.y)):
                assert point_in_convex(doubled, pt) == _oracle_membership(doubled, pt)
                adversarial += 1
    report(
        10,
        "exact geometry",
        f"({checked} random + {adversarial} adversarial configurations)",
    )
