import math
import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from corpora import mixed_circle_embeddings, tangency_heavy_instances

from setmaxima import geomlattice
from setmaxima.generators import (
    gen_convex_instance,
    gen_keys,
    gen_rect_instance,
)
from setmaxima.geometry import (
    OUTSIDE,
    ConvexPolygon,
    Point2,
    chains,
    point_in_convex,
    segment_in_segment,
)
from setmaxima.geomlattice import (
    GeometricInstance,
    InternalInconsistencyError,
    RegionCache,
    build_geometric_lattice,
    check_cover_chains,
    check_owner_chains,
    circle_embedding,
    induced_membership,
    induced_system,
    owner_chains,
    solve_lattice_geometric,
)
from setmaxima.lattice import label_sort_key
from setmaxima.order import ComparisonLedger, KeySpace
from setmaxima.setsystem import SetSystem, system_from_lists
from setmaxima.solvers import solve_bruteforce


def square(x0, y0, x1, y1):
    return ConvexPolygon((Point2(x0, y0), Point2(x1, y0), Point2(x1, y1), Point2(x0, y1)))


def fs(*items):
    return frozenset(items)


# ------------------------------------------------------------ induced systems


def test_one_triangle_contains_all_points():
    tri = ConvexPolygon((Point2(0, 0), Point2(100, 0), Point2(0, 100)))
    points = (Point2(1, 1), Point2(10, 10), Point2(50, 2))
    inst = GeometricInstance(points=points, polygons=(tri,), k=3)
    system = induced_system(inst)
    assert system.m == 1
    assert system.sets[0] == {0, 1, 2}


def test_two_squares_three_regions():
    inst = GeometricInstance(
        points=(Point2(1, 1), Point2(3, 3), Point2(5, 5)),
        polygons=(square(0, 0, 4, 4), square(2, 2, 6, 6)),
        k=4,
    )
    glat = build_geometric_lattice(inst)
    assert {lb: nd.phi for lb, nd in glat.lattice.nodes.items()} == {
        fs(1): frozenset({0}),
        fs(2): frozenset({2}),
        fs(1, 2): frozenset({1}),
    }
    assert glat.covers[fs(1, 2)] == (fs(1), fs(2))
    assert glat.fallback_labels == ()


def test_induced_membership_matches_scalar_oracle():
    rng = random.Random(3)
    for seed in range(12):
        inst = gen_convex_instance(
            n=rng.randint(20, 150), m=rng.randint(2, 15), k=rng.choice([3, 4, 6]), seed=seed
        )
        fast = induced_membership(inst)
        for j, poly in enumerate(inst.polygons):
            slow = frozenset(
                e
                for e, pt in enumerate(inst.points)
                if point_in_convex(poly, pt) != OUTSIDE
            )
            assert fast[j] == slow


def test_boundary_points_are_members():
    poly = square(0, 0, 4, 4)
    points = (Point2(0, 0), Point2(4, 2), Point2(2, 0), Point2(5, 5))
    inst = GeometricInstance(points=points, polygons=(poly,), k=4)
    assert induced_membership(inst) == [frozenset({0, 1, 2})]


def test_instance_validation():
    with pytest.raises(ValueError, match=r"^invalid geometry: k=2 must be at least 3; "):
        GeometricInstance(points=(), polygons=(square(0, 0, 1, 1),), k=2)
    tri = ConvexPolygon((Point2(0, 0), Point2(9, 0), Point2(0, 9)))
    with pytest.raises(ValueError, match=r"^invalid geometry: polygon 1 has 4 > k sides$"):
        GeometricInstance(points=(), polygons=(square(0, 0, 1, 1), tri), k=3)
    bound = "exceeds the coordinate bound"
    with pytest.raises(ValueError, match=rf"^invalid geometry: point 0 {bound}$"):
        GeometricInstance(points=(Point2(1 << 21, 0),), polygons=(tri,), k=3)
    far = ConvexPolygon((Point2(0, 0), Point2(1 << 21, 0), Point2(0, 9)))
    with pytest.raises(ValueError, match=rf"^invalid geometry: polygon 2 {bound}$"):
        GeometricInstance(points=(), polygons=(tri, far), k=3)


def test_instance_names_every_violation_in_order():
    # the bulk checks find a bad point, a polygon of too many sides and a
    # polygon beyond the bound; the loops then name each, as before
    far = ConvexPolygon((Point2(0, 0), Point2(1 << 21, 0), Point2(0, 9)))
    points = (Point2(1, 1), Point2(0, -(1 << 21)), Point2(1 << 21, 0))
    with pytest.raises(ValueError) as raised:
        GeometricInstance(points=points, polygons=(square(0, 0, 1, 1), far), k=3)
    assert str(raised.value) == (
        "invalid geometry: point 1 exceeds the coordinate bound; "
        "point 2 exceeds the coordinate bound; polygon 1 has 4 > k sides; "
        "polygon 2 exceeds the coordinate bound"
    )


def test_instance_rejects_coordinates_that_are_not_ints():
    # membership reads coordinates as int64, which would put (0, 0) inside
    # this triangle; a Fraction point, a bool or a float is refused too
    half = ConvexPolygon((Point2(Fraction(1, 2), 0), Point2(2, 0), Point2(2, 2)))
    with pytest.raises(ValueError, match=r"^invalid geometry: a coordinate is not an int$"):
        GeometricInstance(points=(Point2(0, 0), Point2(1, 0)), polygons=(square(0, 0, 1, 1), half), k=4)
    tri = ConvexPolygon((Point2(0, 0), Point2(9, 0), Point2(0, 9)))
    for bad in (Fraction(1, 2), Fraction(2, 1), True, 1.0):
        with pytest.raises(ValueError, match=r"^invalid geometry: a coordinate is not an int$"):
            GeometricInstance(points=(Point2(1, 1), Point2(1, bad)), polygons=(tri,), k=3)
    # it joins the other violations
    with pytest.raises(ValueError, match=r"^invalid geometry: k=2 must be at least 3; .*; a coordinate is not"):
        GeometricInstance(points=(Point2(1, 1.0),), polygons=(tri,), k=2)
    # a polygon keeps an integral Fraction as an int
    whole = ConvexPolygon((Point2(Fraction(4, 2), 0), Point2(9, 0), Point2(0, 9)))
    assert GeometricInstance(points=(Point2(3, 3),), polygons=(whole,), k=3).membership == (frozenset({0}),)


# ------------------------------------------------------------- region caching


def test_region_cache_monotone_and_shared():
    inst = GeometricInstance(
        points=(Point2(3, 3),),
        polygons=(square(0, 0, 4, 4), square(2, 2, 6, 6), square(1, 1, 5, 5)),
        k=4,
    )
    cache = RegionCache(inst)
    full = cache.region(fs(1, 2, 3))
    pair = cache.region(fs(1, 2))
    assert full == square(2, 2, 4, 4) or full.vertices == square(2, 2, 4, 4).vertices
    for v in full.vertices:
        assert point_in_convex(pair, v) != OUTSIDE


# ------------------------------------------------------------- covers, chains


def test_three_squares_virtual_cover_nodes():
    # pairwise regions hold no points, so the triple node's cover members
    # must be inserted as virtual nodes
    a = square(0, 0, 10, 10)
    b = square(6, 0, 16, 10)
    c = square(3, 6, 13, 16)
    points = (Point2(1, 1), Point2(15, 1), Point2(4, 15), Point2(8, 8))
    inst = GeometricInstance(points=points, polygons=(a, b, c), k=4)
    glat = build_geometric_lattice(inst)
    real = {lb for lb, nd in glat.lattice.nodes.items() if not nd.virtual}
    assert real == {fs(1), fs(2), fs(3), fs(1, 2, 3)}
    virtual = {lb for lb, nd in glat.lattice.nodes.items() if nd.virtual}
    assert virtual == {fs(1, 2), fs(2, 3), fs(1, 3)}
    assert sorted(glat.covers[fs(1, 2, 3)]) in (
        [fs(1, 2), fs(1, 3), fs(2, 3)],
        sorted([fs(1, 2), fs(1, 3), fs(2, 3)]),
    )
    assert glat.fallback_labels == ()
    keys = KeySpace([5, 40, 20, 10])
    res = solve_lattice_geometric(glat, keys)
    assert res.maxima == solve_bruteforce(glat.system, keys).maxima == (3, 1, 2)


def test_degenerate_corner_tangency_falls_back():
    # squares meeting at exactly one point, with an element sitting there
    a = square(0, 0, 4, 4)
    b = square(4, 4, 8, 8)
    points = (Point2(1, 1), Point2(5, 5), Point2(4, 4))
    inst = GeometricInstance(points=points, polygons=(a, b), k=4)
    glat = build_geometric_lattice(inst)
    assert glat.fallback_labels == (fs(1, 2),)
    assert glat.covers[fs(1, 2)] == (fs(1), fs(2))
    keys = KeySpace([3, 1, 2])
    res = solve_lattice_geometric(glat, keys)
    assert res.maxima == solve_bruteforce(glat.system, keys).maxima


def test_nested_polygons_fall_back():
    outer = square(0, 0, 10, 10)
    inner = square(2, 2, 6, 6)
    points = (Point2(1, 1), Point2(3, 3))
    inst = GeometricInstance(points=points, polygons=(outer, inner), k=4)
    glat = build_geometric_lattice(inst)
    assert fs(1, 2) in set(glat.fallback_labels)
    keys = KeySpace([9, 4])
    res = solve_lattice_geometric(glat, keys)
    assert res.maxima == solve_bruteforce(glat.system, keys).maxima


@pytest.mark.parametrize("k", [3, 4, 6])
def test_random_convex_covers_bounded_by_k(k):
    for seed in range(8):
        inst = gen_convex_instance(n=120, m=10, k=k, seed=seed)
        glat = build_geometric_lattice(inst)
        assert glat.fallback_labels == ()
        for label, cover in glat.covers.items():
            assert len(cover) <= k
            assert frozenset().union(*cover) >= label
            for member in cover:
                assert member < label


def test_rect_instances_covers_bounded_by_4():
    for seed in range(6):
        inst = gen_rect_instance(n=150, m=12, seed=seed)
        glat = build_geometric_lattice(inst)
        assert glat.fallback_labels == ()
        assert all(len(c) <= 4 for c in glat.covers.values())
        keys = gen_keys(150, seed)
        res = solve_lattice_geometric(glat, keys)
        assert res.maxima == solve_bruteforce(glat.system, keys).maxima


def test_cover_members_strictly_enclose_region():
    for seed in range(6):
        inst = gen_convex_instance(n=150, m=12, k=4, seed=seed + 400)
        glat = build_geometric_lattice(inst)
        for label, cover in glat.covers.items():
            region = glat.regions.region(label)
            for member in cover:
                mregion = glat.regions.region(member)
                assert mregion != region
                for v in region.vertices:
                    assert point_in_convex(mregion, v) != OUTSIDE


def test_intersection_monotonicity_over_lattice_labels():
    inst = gen_convex_instance(n=200, m=14, k=4, seed=900)
    glat = build_geometric_lattice(inst)
    labels = [lb for lb in glat.lattice.nodes if len(lb) >= 2]
    for label in labels:
        region = glat.regions.region(label)
        for i in sorted(label):
            sub = label - {i}
            if not sub:
                continue
            bigger = glat.regions.region(sub)
            for v in region.vertices:
                assert point_in_convex(bigger, v) != OUTSIDE


def test_check_cover_chains_rejects_overlap():
    # a fabricated cover with a repeated member region must trip the check
    a = square(0, 0, 10, 10)
    b = square(6, 0, 16, 10)
    c = square(3, 6, 13, 16)
    inst = GeometricInstance(
        points=(Point2(8, 8),), polygons=(a, b, c), k=4
    )
    cache = RegionCache(inst)
    with pytest.raises(InternalInconsistencyError):
        check_cover_chains(fs(1, 2, 3), (fs(1), fs(1, 2)), cache)
    with pytest.raises(InternalInconsistencyError, match="overlap"):
        check_owner_chains(fs(1, 2, 3), (fs(1), fs(1, 2)), cache)


def test_check_owner_chains_rejects_a_member_without_chains():
    # the region of {1, 2} is the region of {2} here: {2} has no chain over it
    inst = GeometricInstance(
        points=(Point2(3, 3),), polygons=(square(0, 0, 10, 10), square(2, 2, 6, 6)), k=4
    )
    cache = RegionCache(inst)
    with pytest.raises(InternalInconsistencyError, match="no chains"):
        check_owner_chains(fs(1, 2), (fs(1), fs(2)), cache)


def _outcome(check, *args):
    """None when ``check`` passes, else the kind of its error and the member
    it names last (two members overlapping may name either earlier one)."""
    try:
        check(*args)
    except InternalInconsistencyError as exc:
        text = str(exc)
        if text.endswith("has no chains"):
            return "no chains", text
        assert " overlap on " in text, text
        return "overlap", text.split(" and ")[1]
    return None


def _fabricated_covers(label, cover, rng):
    """The built cover and covers made wrong on purpose from it: a member
    dropped, two merged, one repeated inside a larger one, the singletons,
    and random subsets of the label; each sorted as the build sorts it."""
    made = [cover, cover[1:], tuple(fs(i) for i in label)]
    if len(cover) >= 2:
        made.append((cover[0] | cover[1], *cover[2:]))
        made.append((cover[0], cover[0] | cover[1]))
    items = sorted(label)
    for _ in range(4):
        made.append(
            tuple(
                frozenset(rng.sample(items, rng.randint(1, len(items) - 1)))
                for _ in range(rng.randint(1, 4))
            )
        )
    return [tuple(sorted(set(c), key=label_sort_key)) for c in made if c]


def _assert_witness_check_matches_oracles(glat, rng):
    """``_check_witness_chains`` on a node's witness sets gives the outcome
    of ``check_owner_chains`` on every fabricated cover, and passes or
    raises as ``check_cover_chains`` does; returns the numbers of covers
    checked and of covers that raised."""
    cache = glat.regions
    fallbacks = set(glat.fallback_labels)
    checked = raised = 0
    for label, cover in glat.covers.items():
        if label in fallbacks:
            continue
        witness = [label - own for own in cache.owners(label)]
        for made in _fabricated_covers(label, cover, rng):
            got = _outcome(geomlattice._check_witness_chains, label, list(made), witness)
            assert got == _outcome(check_owner_chains, label, made, cache), (label, made)
            exact = _outcome(check_cover_chains, label, made, cache)
            assert (got is None) == (exact is None), (label, made)
            checked += 1
            raised += got is not None
    return checked, raised


def test_witness_chain_check_matches_owner_and_segment_checks():
    rng = random.Random(5)
    glats = [build_geometric_lattice(inst) for inst, _trial in tangency_heavy_instances(60)]
    glats += [build_geometric_lattice(inst) for inst in mixed_circle_embeddings(40, 23)]
    glats.append(build_geometric_lattice(gen_convex_instance(n=300, m=24, k=4, seed=3)))
    checked = raised = 0
    for glat in glats:
        c, r = _assert_witness_check_matches_oracles(glat, rng)
        checked, raised = checked + c, raised + r
    # the built covers pass, and many fabricated ones do not
    assert checked > 1000 and 100 < raised < checked


def test_witness_chain_check_reports_no_chains_before_an_overlap():
    # {1} and {1, 2} share edges, and {1, 2, 3} has no chain: like
    # check_owner_chains, the check names the chainless member, though the
    # overlap comes first in cover order
    inst = GeometricInstance(
        points=(Point2(8, 8),),
        polygons=(square(0, 0, 10, 10), square(6, 0, 16, 10), square(3, 6, 13, 16)),
        k=4,
    )
    cache = RegionCache(inst)
    label = fs(1, 2, 3)
    cover = (fs(1), fs(1, 2), fs(1, 2, 3))
    witness = [label - own for own in cache.owners(label)]
    with pytest.raises(InternalInconsistencyError, match="no chains"):
        check_owner_chains(label, cover, cache)
    with pytest.raises(InternalInconsistencyError, match="no chains"):
        geomlattice._check_witness_chains(label, list(cover), witness)
    with pytest.raises(InternalInconsistencyError, match="overlap"):
        geomlattice._check_witness_chains(label, list(cover[:2]), witness)


def test_build_checks_chains_without_check_owner_chains(monkeypatch):
    instances = [inst for inst, _trial in tangency_heavy_instances(40)]
    want = [build_geometric_lattice(inst) for inst in instances]
    monkeypatch.setattr(geomlattice, "check_owner_chains", None)
    for inst, glat in zip(instances, want):
        again = build_geometric_lattice(inst)
        assert again.fallback_labels == glat.fallback_labels
        assert again.lattice.dump(again.covers) == glat.lattice.dump(glat.covers)


# ------------------------------------------- edge owners against predicates


def _predicate_edge_label_sets(label, region, polygons):
    """Reference: the witness sets as found before clipping tracked edge
    owners, by testing every region edge against every polygon edge."""
    out = []
    for a, b in region.edges():
        witness = frozenset(
            i
            for i in label
            if not any(segment_in_segment(a, b, u, v) for u, v in polygons[i - 1].edges())
        )
        out.append(witness)
    return out


def _assert_owners_match_predicates(glat):
    """Witness sets and chains from edge owners equal the segment-test
    ones on every non-fallback node; returns the number of covers checked."""
    cache = glat.regions
    fallbacks = set(glat.fallback_labels)
    checked = 0
    for label, cover in glat.covers.items():
        if label in fallbacks:
            continue
        region, owners = cache.region(label), cache.owners(label)
        assert [label - own for own in owners] == _predicate_edge_label_sets(
            label, region, cache.polygons
        )
        for member in cover:
            assert owner_chains(owners, member) == chains(cache.region(member), region)
        checked += 1
    return checked


def test_owners_match_predicates_on_acceptance_geometric_seeds(geometric_corpus):
    for case in geometric_corpus:
        assert _assert_owners_match_predicates(case.glat) > 0


def _merge_tests_match_regions(glat):
    """geometric_cover merges a pair when its union fits inside one witness
    set; with complete owners that is "the joint region is full and differs
    from the node's region".  Checks both on every pair of a node's witness
    sets; returns the numbers of pairs and of pairs that merge."""
    cache = glat.regions
    fallbacks = set(glat.fallback_labels)
    pairs = merges = 0
    for label in glat.covers:
        if label in fallbacks:
            continue
        region = cache.region(label)
        witnesses = {label - own for own in cache.owners(label)} - {frozenset()}
        for a, b in combinations(sorted(witnesses, key=sorted), 2):
            union = a | b
            joint = cache.region(union)
            larger = not joint.is_degenerate and joint != region
            assert any(union <= w for w in witnesses) == larger, (label, union)
            pairs += 1
            merges += larger
    return pairs, merges


def test_merge_test_matches_joint_regions_on_acceptance_geometric_seeds(geometric_corpus):
    assert sum(_merge_tests_match_regions(case.glat)[0] for case in geometric_corpus) > 0


def test_merge_test_matches_joint_regions_on_tangency_heavy_instances():
    # shared edges give multi-owner witness sets, so some pairs do merge
    merges = 0
    for inst, _trial in tangency_heavy_instances(120):
        merges += _merge_tests_match_regions(build_geometric_lattice(inst))[1]
    assert merges > 0


def test_owners_match_predicates_on_tangency_heavy_instances():
    checked = 0
    for inst, _trial in tangency_heavy_instances(120):
        checked += _assert_owners_match_predicates(build_geometric_lattice(inst))
    assert checked > 0


@pytest.mark.parametrize("k", [4, 8])
def test_owners_match_predicates_on_random_convex(k):
    for seed in range(6):
        inst = gen_convex_instance(n=400, m=40, k=k, seed=seed + 700)
        assert _assert_owners_match_predicates(build_geometric_lattice(inst)) > 0


# ------------------------------------------------------------- long labels


def test_region_of_a_label_longer_than_the_recursion_limit():
    sets = [
        frozenset((0,) + rest)
        for size in range(2, 12)
        for rest in combinations(range(1, 12), size)
    ][:1024]
    inst = circle_embedding(SetSystem(n=12, sets=tuple(sets)))
    label = frozenset(range(1, len(sets) + 1))
    assert len(label) > sys.getrecursionlimit()
    region = RegionCache(inst).region(label)
    # every set holds element 0, and sets {0, a, b} and {0, c, d} meet only there
    assert region.vertices == (inst.points[0],)


def test_fan_of_a_thousand_thin_triangles_solves():
    # every triangle has the apex (0, 0), so the top node's label holds all
    # 1000 polygons; its region is that point and the node falls back
    m, radius = 1000, 1 << 19

    def at(r, t):
        return Point2(round(r * math.cos(t)), round(r * math.sin(t)))

    polygons, points = [], [Point2(0, 0)]
    for i in range(m):
        t0, t1 = 2 * math.pi * i / m, 2 * math.pi * (i + 1) / m
        polygons.append(ConvexPolygon((Point2(0, 0), at(radius, t0), at(radius, t1))))
        points.append(at(0.6 * radius, (t0 + t1) / 2))
    inst = GeometricInstance(points=tuple(points), polygons=tuple(polygons), k=3)
    glat = build_geometric_lattice(inst)
    assert glat.fallback_labels == (frozenset(range(1, m + 1)),)
    keys = gen_keys(inst.n, 5)
    res = solve_lattice_geometric(glat, keys)
    assert res.maxima == solve_bruteforce(glat.system, keys).maxima


def test_parents_match_brute_force_on_geometric_lattices():
    from setmaxima.lattice import build_lattice, compute_parents

    inst = gen_convex_instance(n=400, m=30, k=4, seed=77)
    lat = compute_parents(build_lattice(induced_system(inst)))
    labels = list(lat.nodes)
    for label, node in lat.nodes.items():
        below = [i for i in labels if i < label]
        assert node.parents == {i for i in below if not any(i < k for k in below)}


def test_solve_geometric_matches_oracle_random():
    rng = random.Random(1)
    for seed in range(12):
        n = rng.randint(30, 250)
        m = rng.randint(2, 16)
        k = rng.choice([3, 4, 6, 8])
        inst = gen_convex_instance(n=n, m=m, k=k, seed=seed + 31)
        glat = build_geometric_lattice(inst)
        keys = gen_keys(n, seed)
        res = solve_lattice_geometric(glat, keys)
        assert res.maxima == solve_bruteforce(glat.system, keys).maxima
        assert res.comparisons <= res.bound


def test_tangency_heavy_instances_solve_correctly():
    # degenerate nodes fall back but answers must stay exact
    fallbacks = 0
    for inst, trial in tangency_heavy_instances(120):
        glat = build_geometric_lattice(inst)
        keys = gen_keys(inst.n, trial)
        res = solve_lattice_geometric(glat, keys)
        assert res.maxima == solve_bruteforce(glat.system, keys).maxima
        assert res.comparisons <= res.bound
        fallbacks += glat.fallback_count
    assert fallbacks > 0  # degeneracies must actually occur at this scale


def test_construction_never_reads_keys(monkeypatch):
    inst = gen_convex_instance(n=80, m=8, k=4, seed=5)

    def forbidden(self):
        raise AssertionError("construction read raw keys")

    monkeypatch.setattr(KeySpace, "oracle_keys", forbidden)
    glat = build_geometric_lattice(inst)
    keys = gen_keys(80, 1)
    ledger = ComparisonLedger()
    solve_lattice_geometric(glat, keys, ledger=ledger)
    assert ledger.count <= sum(len(c) for c in glat.covers.values()) + 80


# ------------------------------------------------------------ circle embedding


def test_circle_embedding_two_disjoint_triples():
    system = system_from_lists(6, [{0, 1, 2}, {3, 4, 5}])
    inst = circle_embedding(system)
    assert all(poly.sides == 3 for poly in inst.polygons)
    assert induced_system(inst).sets == system.sets


def test_circle_embedding_round_trip_random():
    rng = random.Random(8)
    for seed in range(25):
        n = rng.randint(3, 60)
        m = rng.randint(1, 8)
        sets = []
        seen = set()
        for _ in range(m):
            size = rng.randint(3, n) if n >= 3 else n
            s = frozenset(rng.sample(range(n), size))
            if s not in seen:
                seen.add(s)
                sets.append(s)
        system = SetSystem(n=n, sets=tuple(sets))
        inst = circle_embedding(system)
        assert induced_system(inst).sets == system.sets


def test_circle_embedding_degenerate_small_sets():
    system = system_from_lists(5, [{0}, {1, 3}, {0, 2, 4}])
    inst = circle_embedding(system)
    assert inst.polygons[0].vertices == (inst.points[0],)
    assert set(inst.polygons[1].vertices) == {inst.points[1], inst.points[3]}
    assert induced_system(inst).sets == system.sets


def test_circle_embedding_solvable():
    system = system_from_lists(9, [{0, 1, 2, 3}, {2, 3, 4, 5}, {6, 7, 8}])
    inst = circle_embedding(system)
    glat = build_geometric_lattice(inst)
    keys = gen_keys(9, 2)
    res = solve_lattice_geometric(glat, keys)
    assert res.maxima == solve_bruteforce(system, keys).maxima


def test_regions_do_not_depend_on_polygon_order():
    mixed = 0
    for inst in mixed_circle_embeddings(150, 11):
        m = inst.m
        flipped = GeometricInstance(inst.points, inst.polygons[::-1], inst.k)
        cache, flipped_cache = RegionCache(inst), RegionCache(flipped)
        degenerate = {j for j, poly in enumerate(inst.polygons, 1) if poly.is_degenerate}
        for size in range(2, m + 1):
            for label in combinations(range(1, m + 1), size):
                mirror = frozenset(m + 1 - j for j in label)
                assert cache.region(frozenset(label)) == flipped_cache.region(mirror), label
                mixed += bool(degenerate & set(label))
    assert mixed > 1000


def test_segment_and_point_of_a_circle_embedding_meet_at_the_point():
    inst = circle_embedding(system_from_lists(5, [{1, 3}, {1}, {0, 2, 4}]))
    assert RegionCache(inst).region(fs(1, 2)) == ConvexPolygon((inst.points[1],))


@pytest.mark.parametrize(
    "first, second, meet",
    [
        (((0, 0), (4, 0)), ((2, 0), (6, 0)), ((2, 0), (4, 0))),  # collinear overlap
        (((0, 0), (6, 0)), ((2, 0), (4, 0)), ((2, 0), (4, 0))),  # collinear nesting
        (((0, 0), (2, 0)), ((2, 0), (4, 0)), ((2, 0),)),  # collinear, touching
        (((0, 0), (2, 0)), ((3, 0), (4, 0)), None),  # collinear, apart
        (((0, 0), (4, 0)), ((0, 1), (4, 1)), None),  # parallel
        (((0, 0), (4, 0)), ((2, 0), (2, 3)), ((2, 0),)),  # T-junction
        (((0, 0), (3, 1)), ((0, 1), (3, 0)), ((Fraction(3, 2), Fraction(1, 2)),)),  # crossing
        (((0, 0), (4, 4)), ((0, 4), (1, 3)), None),  # lines cross, segments do not
        (((0, 0), (4, 4)), ((2, 2),), ((2, 2),)),  # point on segment
        (((0, 0), (4, 4)), ((2, 3),), None),  # point off segment
    ],
)
def test_degenerate_polygons_meet_in_their_intersection(first, second, meet):
    polygons = tuple(ConvexPolygon(tuple(Point2(*v) for v in vs)) for vs in (first, second))
    want = None if meet is None else ConvexPolygon(tuple(Point2(*v) for v in meet))
    for order in (polygons, polygons[::-1]):
        inst = GeometricInstance(points=(), polygons=order, k=3)
        assert RegionCache(inst).region(fs(1, 2)) == want


@pytest.mark.parametrize(
    "vertices",
    [
        ((3, 4),),  # a point
        ((0, 2), (6, 2)),  # horizontal
        ((2, -1), (2, 5)),  # vertical
        ((0, 0), (6, 4)),  # slanted up
        ((6, 0), (0, 3)),  # slanted down
    ],
)
def test_induced_membership_of_degenerate_polygons(vertices):
    points = tuple(Point2(x, y) for x in range(-1, 8) for y in range(-2, 7))
    poly = ConvexPolygon(tuple(Point2(*v) for v in vertices))
    inst = GeometricInstance(points=points, polygons=(poly,), k=3)
    want = frozenset(e for e, pt in enumerate(points) if point_in_convex(poly, pt) != OUTSIDE)
    assert induced_membership(inst) == [want]
    assert len(want) >= len(vertices)


def test_circle_embedding_full_polygon_then_segment():
    # the label {1, 2} clips a full polygon by a later segment polygon
    system = system_from_lists(6, [{0, 1, 2, 3}, {1, 2}, {4, 5}])
    inst = circle_embedding(system)
    assert RegionCache(inst).region(fs(1, 2)) == inst.polygons[1]
    glat = build_geometric_lattice(inst)
    assert glat.fallback_labels == (fs(1, 2),)
    keys = gen_keys(6, 3)
    res = solve_lattice_geometric(glat, keys)
    assert res.maxima == solve_bruteforce(system, keys).maxima
