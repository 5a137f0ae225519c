import hashlib
import json
import random

import pytest

import setmaxima.generators as generators
from setmaxima.generators import (
    GenerationError,
    gen_convex_instance,
    gen_instance,
    gen_keys,
    gen_random_system,
    gen_rect_instance,
)
from setmaxima.geometry import contains_polygon, orientation
from setmaxima.geomlattice import build_geometric_lattice, induced_system


def test_full_density_single_set():
    system = gen_random_system(3, 1, density=1.0, seed=0)
    assert system.sets == (frozenset({0, 1, 2}),)


def test_random_system_deterministic_per_seed():
    a = gen_random_system(30, 8, 0.3, seed=5)
    b = gen_random_system(30, 8, 0.3, seed=5)
    c = gen_random_system(30, 8, 0.3, seed=6)
    assert a.sets == b.sets
    assert a.sets != c.sets


def test_random_systems_validate():
    for seed in range(30):
        system = gen_random_system(25, 7, 0.4, seed=seed)
        assert (system.n, system.m) == (25, 7)


def test_random_system_infeasible_m():
    with pytest.raises(GenerationError):
        gen_random_system(2, 4, 0.5, seed=0)


def test_random_system_bad_density():
    with pytest.raises(ValueError):
        gen_random_system(5, 2, 0.0, seed=0)
    with pytest.raises(ValueError):
        gen_random_system(5, 2, 1.5, seed=0)


def test_convex_instance_triangles_when_k3():
    inst = gen_convex_instance(n=60, m=6, k=3, seed=2)
    assert all(poly.sides == 3 for poly in inst.polygons)


def test_convex_instance_polygons_strictly_convex():
    for seed in range(6):
        inst = gen_convex_instance(n=50, m=8, k=6, seed=seed)
        for poly in inst.polygons:
            assert 3 <= poly.sides <= 6
            verts = poly.vertices
            for i in range(len(verts)):
                assert orientation(verts[i - 2], verts[i - 1], verts[i]) == 1


def test_convex_instance_reproducible():
    a = gen_convex_instance(n=40, m=5, k=4, seed=9)
    b = gen_convex_instance(n=40, m=5, k=4, seed=9)
    assert a.points == b.points
    assert a.polygons == b.polygons


def test_convex_instance_induced_system_valid():
    for seed in range(8):
        inst = gen_convex_instance(n=100, m=10, k=4, seed=seed)
        assert induced_system(inst).m == 10


def test_convex_instance_never_nested():
    inst = gen_convex_instance(n=80, m=12, k=4, seed=3)
    polys = inst.polygons
    for i in range(len(polys)):
        for j in range(len(polys)):
            if i != j:
                assert not contains_polygon(polys[i], polys[j])


def test_rect_instance_generic_position():
    for n, m, seed in [(100, 10, 4), (100, 10, 0), (300, 25, 2), (400, 60, 3), (400, 60, 4)]:
        inst = gen_rect_instance(n=n, m=m, seed=seed)
        rects = inst.polygons
        assert len(rects) == m and all(rect.sides == 4 for rect in rects)
        xs = [v.x for rect in rects for v in rect.vertices]
        ys = [v.y for rect in rects for v in rect.vertices]
        # each rectangle has two x and two y edge coordinates, all distinct
        assert len(set(xs + ys)) == 4 * m
        for i in range(m):
            for j in range(m):
                if i != j:
                    assert not contains_polygon(rects[i], rects[j])
        assert induced_system(inst).m == m


def test_rect_sampler_takes_back_the_coordinates_of_a_rejected_rectangle(monkeypatch):
    loop = {}

    def place(n, m, k, seed, cell, draw, release):
        loop.update(draw=draw, release=release)

    monkeypatch.setattr(generators, "_place", place)
    gen_rect_instance(n=10, m=1, seed=0)
    draw, release = loop["draw"], loop["release"]
    first = draw(random.Random(5))
    release(first)
    assert draw(random.Random(5)) == first
    assert draw(random.Random(5)) != first  # kept, so its coordinates are taken


# sha256 of the JSON [points, polygon vertices] of fixed draws, pinned so
# that an edit to the placement loop or a sampler cannot change instances
# silently
GOLDEN_DIGESTS = {
    ("convex", 60, 5, 3, 0): "c32abe5604753f947f5c0633c522d27a3f843768471bbd079b2ff86673e38c06",
    ("convex", 300, 25, 4, 7): "95076e38affc5c515daaa376cb19715ae5a58b1d324fcf09e1b0077ec6234788",
    ("convex", 400, 40, 8, 11): "7d51ebf26bc3f6cb127c99ae7c2a5ccb12b749470575e9d720a577d7bb271ab8",
    ("rect", 100, 10, 4, 4): "9e06905e7d5a0951c3152176b689c5ba6a4df28bb8f44e3a24d40d55800bfcea",
    ("rect", 300, 60, 4, 2): "0034344fda90567f377337cf2f5aabe0506f08a98065c4ab4a06cd746df4cb13",
}


@pytest.mark.parametrize("case", list(GOLDEN_DIGESTS), ids=lambda case: "-".join(map(str, case)))
def test_geometric_instances_match_golden_digests(case):
    kind, n, m, k, seed = case
    inst = gen_convex_instance(n, m, k, seed) if kind == "convex" else gen_rect_instance(n, m, seed)
    doc = [[list(p) for p in inst.points], [[list(v) for v in poly.vertices] for poly in inst.polygons]]
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == GOLDEN_DIGESTS[case]


def test_keys_generator_deterministic():
    assert gen_keys(20, 3).oracle_keys() == gen_keys(20, 3).oracle_keys()


def test_gen_instance_dispatches_by_kind_with_keys_of_seed_plus_one():
    abstract = gen_instance("abstract", 30, 5, 4, 0.3, seed=7)
    assert abstract.geometry is None
    assert abstract.system == gen_random_system(30, 5, 0.3, seed=7)
    convex = gen_instance("convex", 60, 5, 5, 0.3, seed=7)
    assert convex.geometry == gen_convex_instance(60, 5, 5, seed=7)
    rect = gen_instance("rect", 60, 5, 5, 0.3, seed=7)
    assert rect.geometry == gen_rect_instance(60, 5, seed=7)
    for pinst in (abstract, convex, rect):
        assert pinst.keys.oracle_keys() == gen_keys(pinst.system.n, 8).oracle_keys()
    for pinst in (convex, rect):
        assert pinst.system is induced_system(pinst.geometry)
        assert pinst.system is build_geometric_lattice(pinst.geometry).system
    with pytest.raises(ValueError, match="unknown instance kind"):
        gen_instance("hexagon", 10, 2, 4, 0.3, seed=0)
