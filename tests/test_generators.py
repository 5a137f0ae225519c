import pytest

from setmaxima.generators import (
    GenerationError,
    gen_convex_instance,
    gen_instance,
    gen_keys,
    gen_random_system,
    gen_rect_instance,
)
from setmaxima.geometry import contains_polygon, orientation
from setmaxima.geomlattice import induced_system


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
        assert system.validate() == []


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
        assert induced_system(inst).validate() == []


def test_convex_instance_never_nested():
    inst = gen_convex_instance(n=80, m=12, k=4, seed=3)
    polys = inst.polygons
    for i in range(len(polys)):
        for j in range(len(polys)):
            if i != j:
                assert not contains_polygon(polys[i], polys[j])


def test_rect_instance_generic_position():
    inst = gen_rect_instance(n=100, m=10, seed=4)
    assert all(poly.sides == 4 for poly in inst.polygons)
    xs = [v.x for poly in inst.polygons for v in poly.vertices]
    ys = [v.y for poly in inst.polygons for v in poly.vertices]
    assert len(set(xs)) == 2 * len(inst.polygons)
    assert len(set(ys)) == 2 * len(inst.polygons)
    assert induced_system(inst).validate() == []


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
        assert pinst.system == induced_system(pinst.geometry)
    with pytest.raises(ValueError, match="unknown instance kind"):
        gen_instance("hexagon", 10, 2, 4, 0.3, seed=0)
