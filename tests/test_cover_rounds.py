"""The round-at-a-time geometric build against the label-at-a-time loop it
replaced.

``reference_build`` is that loop: one FIFO queue of labels, each region
clipped by ``RegionCache.entry`` alone and each cover made by
``geometric_cover``.  ``build_geometric_lattice`` clips a queue round at a
time with ``geometry.ClipKernel`` and reads most covers off the kernel's
edge owners; it must give the same covers in the same order, the same
fallbacks, the same virtual nodes in the same order, and a region cache
that knows every prefix the reference clipped, with equal regions.
"""

import random
from collections import deque

import numpy as np
import pytest
from corpora import mixed_circle_embeddings, tangency_heavy_instances
from test_homogeneous_clip import _box_polygons

from setmaxima import geometry, geomlattice
from setmaxima.generators import gen_convex_instance, gen_rect_instance
from setmaxima.geometry import COORD_BOUND, ClipKernel, ConvexPolygon, Point2, meet
from setmaxima.geomlattice import (
    GeometricInstance,
    RegionCache,
    build_geometric_lattice,
    geometric_cover,
)
from setmaxima.lattice import build_lattice, compute_parents, good_cover_greedy


def fs(*items):
    return frozenset(items)


def reference_build(instance):
    """The build loop as it was: the lattice, the region cache, the covers
    and the fallback labels."""
    lattice = compute_parents(build_lattice(instance.system))
    cache = RegionCache(instance)
    covers, fallbacks = {}, []
    queue = deque(lb for lb in lattice.labels_by_layer() if len(lb) >= 2)
    while queue:
        label = queue.popleft()
        if label in covers:
            continue
        cover = geometric_cover(label, cache, instance.k)
        if cover is None:
            fallbacks.append(label)
            node = lattice.nodes.get(label)
            if node is not None and not node.virtual:
                cover = good_cover_greedy(node, lattice)
            else:
                cover = tuple(frozenset((i,)) for i in sorted(label))
        covers[label] = cover
        for member in cover:
            if member not in lattice.nodes:
                lattice.add_virtual(member)
            if len(member) >= 2 and member not in covers:
                queue.append(member)
    return lattice, cache, covers, tuple(fallbacks)


def _assert_build_matches_reference(instance, glat=None):
    """``glat`` (built here when not given) equals the reference build;
    returns it."""
    glat = glat or build_geometric_lattice(instance)
    lattice, cache, covers, fallbacks = reference_build(instance)
    assert glat.lattice.dump(glat.covers) == lattice.dump(covers)
    assert glat.fallback_labels == fallbacks
    assert list(glat.covers.items()) == list(covers.items())
    # every node, the virtual ones included, in the order it was added
    assert [(lb, nd.virtual) for lb, nd in glat.lattice.nodes.items()] == [
        (lb, nd.virtual) for lb, nd in lattice.nodes.items()
    ]
    regions = glat.regions
    # known before entry is asked for it: handed out, or a kernel region
    assert all(key in regions._memo or regions._kernel_id(key) >= 0 for key in cache._memo)
    assert {key: regions.entry(key) for key in cache._memo} == cache._memo
    return glat


def test_build_matches_reference_on_acceptance_geometric_seeds(geometric_corpus):
    made = 0
    for case in geometric_corpus:
        made += len(_assert_build_matches_reference(case.instance, case.glat).regions._made)
    assert made > 10_000


def test_build_matches_reference_on_tangency_heavy_instances():
    for inst, _trial in tangency_heavy_instances(120):
        _assert_build_matches_reference(inst)


def test_build_matches_reference_on_mixed_circle_embeddings():
    for inst in mixed_circle_embeddings(150, 23):
        _assert_build_matches_reference(inst)


@pytest.mark.parametrize("k", [4, 8])
def test_build_matches_reference_on_random_convex(k):
    for seed in range(3):
        inst = gen_convex_instance(n=1000, m=100, k=k, seed=seed + 2400)
        assert _assert_build_matches_reference(inst).regions._made


def test_build_matches_reference_on_rectangles():
    # horizontal and vertical edges everywhere: each region starts on a tie
    # in y, which the kernel's start rule settles with no comparison
    for seed in range(3):
        glat = _assert_build_matches_reference(gen_rect_instance(600, 60, seed + 5))
        assert glat.regions._made


def _box_instance(rng):
    """Polygons that reach the corners and sides of the coordinate box,
    with random points among them, so the kernel clips at the bound."""
    while True:
        points = tuple(
            Point2(rng.randint(-COORD_BOUND, COORD_BOUND), rng.randint(-COORD_BOUND, COORD_BOUND))
            for _ in range(80)
        )
        inst = GeometricInstance(points=points, polygons=_box_polygons(rng, 5), k=6)
        try:
            inst.system
        except ValueError:  # a polygon holds no point, or two hold the same
            continue
        return inst


def test_build_matches_reference_at_the_coordinate_bound():
    rng = random.Random(47)
    largest = made = 0
    for _ in range(40):
        glat = _assert_build_matches_reference(_box_instance(rng))
        made += len(glat.regions._made)
        for key in glat.regions._made:
            for x, y, _w in glat.regions.entry(key).vertices:
                largest = max(largest, abs(x), abs(y))
    assert made > 100
    assert 1 << 60 < largest <= 1 << 63


def test_build_with_every_sign_undecided_matches_reference(monkeypatch):
    # a filter bound of S itself: no float sum exceeds its own magnitudes
    monkeypatch.setattr(geometry, "_FILTER", 1.0)
    instances = [gen_convex_instance(n=600, m=60, k=4, seed=2500)]
    instances += [inst for inst, _trial in tangency_heavy_instances(20)]
    for inst in instances:
        assert not _assert_build_matches_reference(inst).regions._made


def test_nearly_concurrent_lines_go_to_the_scalar_clip():
    # the vertex v of A where two nearly parallel edges meet lies one
    # lattice unit to the right of B's first edge: its exact side is
    # non-zero, but far below the float filter's bound
    v = Point2(500_000, 499_999)
    a = ConvexPolygon(
        (Point2(0, 500_000), v, Point2(1_000_000, 500_000), Point2(500_000, 1_000_000))
    )
    b = ConvexPolygon((Point2(500_000, 500_000), Point2(500_001, 1_000_000), Point2(0, 1_000_000)))
    inst = GeometricInstance(points=(), polygons=(a, b), k=4)
    # v starts A, so its edges are lines 3 and 0; B's first edge is line 4
    assert a.vertices[0] == v
    clip_line, *v_lines = inst.edges.lines([4, 3, 0])
    assert geometry._side(clip_line, meet(*v_lines)) < 0
    assert ClipKernel(inst.edges).clip(np.array([0]), np.array([1])).tolist() == [-1]
    cache = RegionCache(inst)
    assert cache.fill([fs(1, 2)]).tolist() == [-1]
    region = cache.entry(fs(1, 2))
    assert region == RegionCache(inst).entry(fs(1, 2))
    assert v not in [geometry.to_point(p) for p in region.vertices]


def test_a_new_region_cache_makes_no_region(monkeypatch):
    made = []
    new = geometry.Region.__new__

    def counted(cls, *args):
        made.append(args)
        return new(cls, *args)

    monkeypatch.setattr(geometry.Region, "__new__", counted)
    inst = gen_convex_instance(n=600, m=60, k=4, seed=2700)
    cache = RegionCache(inst)
    assert made == [] and cache._memo == {}
    # a polygon's region is made the first time it is asked for
    vertices = inst.polygons[6].vertices
    assert cache.entry(fs(7)) == geometry.region_of(vertices, [fs(7)] * len(vertices))
    assert len(made) == 2 and list(cache._memo) == [(7,)]


def test_general_position_build_clips_nothing_label_by_label(monkeypatch):
    # every region comes from the kernel, geometric_cover sees only the
    # labels whose first k edges have one owner, and the kernel makes the
    # Region of a label only when entry is asked for it
    inst = gen_convex_instance(n=2000, m=200, k=4, seed=1)
    clipped, covered, asked, made = [], [], [], []

    def clip_region(*args):
        clipped.append(args)
        return geometry.clip_region(*args)

    def cover(label, cache, k):
        covered.append(label)
        return geometric_cover(label, cache, k)

    entry, region = RegionCache.entry, ClipKernel.region

    def asked_entry(self, label):
        asked.append(tuple(sorted(label)))
        return entry(self, label)

    def made_region(self, i, owners):
        made.append(i)
        return region(self, i, owners)

    monkeypatch.setattr(geomlattice, "clip_region", clip_region)
    monkeypatch.setattr(geomlattice, "geometric_cover", cover)
    monkeypatch.setattr(RegionCache, "entry", asked_entry)
    monkeypatch.setattr(ClipKernel, "region", made_region)
    glat = build_geometric_lattice(inst)
    assert clipped == [] and len(glat.covers) > 200 and glat.regions._made
    for label in covered:
        assert len(set(entry(glat.regions, label).owners[: inst.k])) == 1
    assert sorted(made) == sorted({glat.regions._kernel_id(key) for key in asked})
    assert set(glat.regions._memo) == set(asked)


def test_a_label_the_array_checks_flag_is_checked_as_geometric_cover_checks_it(monkeypatch):
    inst = gen_convex_instance(n=600, m=60, k=4, seed=2600)
    # flagged with no fault: the scalar checks pass it, and nothing changes
    monkeypatch.setattr(ClipKernel, "encloses", lambda self, outer, inner: outer < 0)
    _assert_build_matches_reference(inst)
    # flagged with a fault: the build names it as geometric_cover does
    monkeypatch.setattr(geomlattice, "same_region", lambda p, q: True)
    with pytest.raises(geomlattice.InternalInconsistencyError, match="does not strictly enclose"):
        build_geometric_lattice(inst)


def _square(x, y, s):
    corners = ((x - s, y - s), (x + s, y - s), (x + s, y + s), (x - s, y + s))
    return ConvexPolygon(tuple(Point2(*c) for c in corners))


def test_flagged_owner_covers_fail_in_queue_order(monkeypatch):
    # square 2 nests in square 1, so {1, 2} has one owner and goes to
    # geometric_cover first; {1, 3} has two and gets an owner cover, unless
    # the array check flags it: then it reaches geometric_cover after
    # {1, 2}, and the build names {1, 2}'s fault, the first in queue order,
    # as the label-at-a-time loop did
    polygons = (_square(0, 0, 100), _square(0, 0, 10), _square(100, 0, 50))
    inst = GeometricInstance(points=(Point2(0, 0), Point2(70, 0)), polygons=polygons, k=4)
    labels = [fs(1, 2), fs(1, 3)]
    assert list(geomlattice._owner_covers(labels, RegionCache(inst), 4)) == [fs(1, 3)]
    monkeypatch.setattr(ClipKernel, "encloses", lambda self, outer, inner: outer < 0)
    assert geomlattice._owner_covers(labels, RegionCache(inst), 4) == {}
    covered = []

    def fault(label, cache, k):
        covered.append(label)
        raise geomlattice.InternalInconsistencyError(f"fault at {sorted(label)}")

    monkeypatch.setattr(geomlattice, "geometric_cover", fault)
    with pytest.raises(geomlattice.InternalInconsistencyError, match=r"fault at \[1, 2\]"):
        build_geometric_lattice(inst)
    assert covered == [fs(1, 2)]


def _nested_squares(m):
    """m strictly nested squares, square 1 outermost, one point in each
    ring and one inside square m: the labels are {1, ..., i}, one prefix
    at each depth."""
    sizes = [1000 * (m + 1 - i) for i in range(1, m + 1)]
    points = tuple(Point2(s - 500, 0) for s in sizes)
    return GeometricInstance(points=points, polygons=tuple(_square(0, 0, s) for s in sizes), k=4)


def test_a_deep_label_few_share_is_clipped_by_the_scalar_path_past_the_batch_depth():
    inst = _nested_squares(geomlattice._DEEP + 24)
    glat = _assert_build_matches_reference(inst)
    # one prefix a depth: the kernel clips to depth _DEEP, entry the rest
    assert max(map(len, glat.regions._made)) == geomlattice._DEEP + 1
    assert len(max(glat.regions._memo, key=len)) == len(inst.polygons)


def test_a_deep_label_clipped_on_the_kernel_throughout_matches_reference(monkeypatch):
    # the depth limit is a cost choice only: with every batch on the
    # kernel, the build is the same
    monkeypatch.setattr(geomlattice, "_BATCH", 1)
    inst = _nested_squares(geomlattice._DEEP + 24)
    glat = _assert_build_matches_reference(inst)
    assert max(map(len, glat.regions._made)) == len(inst.polygons)
