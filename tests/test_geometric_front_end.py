"""The loader's batched checks and the membership kernel against the
per-item code they replaced.

``reference_members`` is the per-polygon bbox and edge test that the
placement loop still runs (``generators._PointIndex``), and
``reference_geometry`` is the loader's per-item geometry parse as it stood
before the batched one: each point, then each polygon's vertices and then
the polygon itself through the ``ConvexPolygon`` constructor, and ``k``.
"""

import copy
import math
import random

import pytest
from corpora import mixed_circle_embeddings, tangency_heavy_instances
from hypothesis import example, given
from hypothesis import strategies as st
from test_homogeneous_clip import _box_polygons

from setmaxima.generators import _PointIndex, gen_convex_instance
from setmaxima.geometry import (
    COORD_BOUND,
    ConvexPolygon,
    GeometryError,
    Point2,
    edge_table,
)
from setmaxima.geomlattice import GeometricInstance, grid_membership
from setmaxima.instance_io import InputError, _geometry_from_dict, _integers

B = COORD_BOUND


def reference_members(points, polygons):
    index = _PointIndex(points)
    return tuple(index.members(poly) for poly in polygons)


def _table(polygons):
    """The ``EdgeTable`` of polygons that need not make an instance."""
    coords = [c for poly in polygons for v in poly.vertices for c in v]
    return edge_table(coords, [len(poly.vertices) for poly in polygons])


def _assert_members_match(points, polygons):
    got = grid_membership(tuple(points), _table(polygons))
    assert got == reference_members(tuple(points), tuple(polygons))
    return got


# ------------------------------------------------------ membership kernel


def test_membership_matches_reference_on_acceptance_geometric_seeds(geometric_corpus):
    for case in geometric_corpus:
        assert case.instance.membership == reference_members(
            case.instance.points, case.instance.polygons
        )


def test_membership_matches_reference_on_tangency_heavy_instances():
    for inst, _trial in tangency_heavy_instances(300):
        _assert_members_match(inst.points, inst.polygons)


def test_membership_matches_reference_on_mixed_circle_embeddings():
    for inst in mixed_circle_embeddings(300, 23):
        _assert_members_match(inst.points, inst.polygons)


def test_membership_matches_reference_on_polygons_at_the_coordinate_bound():
    rng = random.Random(53)
    for _ in range(40):
        points = [Point2(rng.randint(-B, B), rng.randint(-B, B)) for _ in range(80)]
        members = _assert_members_match(points, _box_polygons(rng, 5))
        assert any(members)


@pytest.mark.parametrize("m, k", [(2000, 4), (200, 8)])
def test_membership_matches_reference_on_the_convex_workload_shapes(m, k):
    # the shapes of the benchmark's convex workloads
    inst = gen_convex_instance(n=20000, m=m, k=k, seed=7)
    assert inst.membership == reference_members(inst.points, inst.polygons)


def test_membership_counts_vertices_and_edges():
    square = ConvexPolygon((Point2(0, 0), Point2(4, 0), Point2(4, 4), Point2(0, 4)))
    tri = ConvexPolygon((Point2(0, 0), Point2(8, 0), Point2(0, 8)))
    dot = ConvexPolygon((Point2(2, 2),))
    segment = ConvexPolygon((Point2(0, 0), Point2(6, 3)))
    # vertices, edge midpoints, the hypotenuse, the segment's points, outside
    points = [Point2(x, y) for x in range(-1, 10) for y in range(-1, 10)]
    got = _assert_members_match(points, [square, tri, dot, segment])
    at = {p: i for i, p in enumerate(points)}
    assert {at[Point2(0, 0)], at[Point2(4, 4)], at[Point2(2, 0)]} <= got[0]
    assert {at[Point2(4, 4)], at[Point2(8, 0)], at[Point2(0, 8)]} <= got[1]
    assert got[2] == {at[Point2(2, 2)]}
    assert got[3] == {at[Point2(0, 0)], at[Point2(2, 1)], at[Point2(4, 2)], at[Point2(6, 3)]}


def test_membership_at_the_coordinate_bound():
    corners = [Point2(x, y) for x in (-B, B) for y in (-B, B)]
    whole = ConvexPolygon((Point2(-B, -B), Point2(B, -B), Point2(B, B), Point2(-B, B)))
    diagonal = ConvexPolygon((Point2(-B, -B), Point2(B, B)))
    corner = ConvexPolygon((Point2(B, B),))
    empty = ConvexPolygon((Point2(0, 0), Point2(1, 0), Point2(0, 1)))
    points = [*corners, Point2(0, 5), Point2(B - 1, B), Point2(-B, B - 1)]
    got = _assert_members_match(points, [whole, diagonal, corner, empty])
    assert got[0] == frozenset(range(len(points)))
    assert got[1] == {0, 3}
    assert got[2] == {3}
    assert got[3] == frozenset()


def test_membership_of_one_point_and_of_no_point():
    tri = ConvexPolygon((Point2(0, 0), Point2(8, 0), Point2(0, 8)))
    far = ConvexPolygon((Point2(100, 100), Point2(108, 100), Point2(100, 108)))
    assert _assert_members_match([Point2(1, 1)], [tri, far]) == ({0}, frozenset())
    assert _assert_members_match([Point2(B, -B)], [tri]) == (frozenset(),)
    assert grid_membership((), _table((tri, far))) == (frozenset(), frozenset())
    assert grid_membership((Point2(1, 1),), _table(())) == ()


def test_membership_with_every_point_in_one_cell():
    # one tiny cluster and polygons far larger than it: the grid is one cell
    rng = random.Random(5)
    points = [Point2(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(40)]
    polygons = [
        ConvexPolygon((Point2(-B, -B), Point2(B, -B), Point2(0, B))),
        ConvexPolygon((Point2(0, 0), Point2(3, 0), Point2(0, 3))),
        ConvexPolygon((Point2(2, 1), Point2(5, 5))),
        ConvexPolygon((Point2(1, 1),)),
    ]
    got = _assert_members_match(points, polygons)
    assert got[0] == frozenset(range(len(points)))


def test_membership_of_scattered_small_polygons():
    # polygons far smaller than the spacing of the points: the grid is
    # capped at about one cell per point
    rng = random.Random(6)
    points = [Point2(rng.randint(-B, B), rng.randint(-B, B)) for _ in range(500)]
    polygons = []
    for p in points[::5]:
        x, y = p
        polygons.append(ConvexPolygon((Point2(x, y), Point2(x + 2, y), Point2(x, y + 2))))
        polygons.append(ConvexPolygon((Point2(x - 3, y - 3), Point2(x + 3, y + 3))))
    _assert_members_match(points, polygons)


small = st.integers(-6, 6)


@given(
    st.lists(st.tuples(small, small), min_size=1, max_size=40),
    st.lists(st.lists(st.tuples(small, small), min_size=1, max_size=7), min_size=1, max_size=6),
    st.sampled_from([1, 1 << 10, 1 << 17]),
)
def test_membership_matches_reference_on_small_grids(raw_points, raw_polygons, scale):
    # hulls of grid points, scaled: boundary contacts and repeated points
    # are common, and the largest reach the coordinate bound
    points = [Point2(x * scale, y * scale) for x, y in raw_points]
    polygons = []
    for raw in raw_polygons:
        hull = _hull([(x * scale, y * scale) for x, y in raw])
        polygons.append(ConvexPolygon(tuple(Point2(*v) for v in hull)))
    _assert_members_match(points, polygons)


def _hull(vertices):
    """A strictly convex CCW hull, or the one or two extreme points."""
    pts = sorted(set(vertices))
    if len(pts) <= 2:
        return pts

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    hull = half(pts)[:-1] + half(pts[::-1])[:-1]
    return hull if len(hull) >= 3 else [pts[0], pts[-1]]


def _cross(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


# ------------------------------------------------- batched polygon check


def _constructed(polygons):
    try:
        return [ConvexPolygon(tuple(p)) for p in polygons], None
    except GeometryError as exc:
        return None, str(exc)


def _batched(polygons):
    """The polygons' vertices as ``edge_table`` rows them; None where it
    refuses them."""
    table = edge_table([c for p in polygons for v in p for c in v], [len(p) for p in polygons])
    if table is None:
        return None
    vertices = list(map(Point2._make, zip(table.x.tolist(), table.y.tolist())))
    first = table.first.tolist()
    return [tuple(vertices[lo:hi]) for lo, hi in zip(first, first[1:])]


def _assert_batch_matches(polygons):
    # the table takes what the constructor takes within the bound, in the
    # constructor's vertex order
    polygons = [[Point2(*v) for v in p] for p in polygons]
    got, (want, _error) = _batched(polygons), _constructed(polygons)
    in_bound = all(abs(c) <= B for p in polygons for v in p for c in v)
    assert (got is not None) == (want is not None and in_bound)
    if got is not None:
        assert got == [poly.vertices for poly in want]
        assert all(type(c) is int for p in got for v in p for c in v)


def _star(sides, turns, radius=1000):
    """A regular polygon's vertices, visiting every ``turns``-th one."""
    angles = [2 * math.pi * turns * i / sides for i in range(sides)]
    return [(round(radius * math.cos(a)), round(radius * math.sin(a))) for a in angles]


def test_batch_matches_constructor_on_named_cases():
    square = [(0, 0), (4, 0), (4, 4), (0, 4)]
    cases = {
        "ccw": [square],
        "rotated start": [square[2:] + square[:2]],
        "cw": [square[::-1]],
        "collinear": [[(0, 0), (2, 0), (4, 0), (4, 4)]],
        "repeated": [[(0, 0), (4, 0), (4, 0), (4, 4)]],
        "repeated apart": [[(0, 0), (4, 0), (4, 4), (4, 0)]],
        "twice wound": [_star(5, 2)],
        "twice round": [square + square],
        "point and segment": [[(3, 3)], [(5, 1), (0, 0)], square],
        "repeated segment": [[(1, 1), (1, 1)]],
        "empty": [square, []],
        "first bad reported": [square, [(0, 0), (0, 4), (4, 0)], [(1, 1), (1, 1)]],
        "bound": [[(-B, -B), (B, -B), (B, B), (-B, B)]],
        "beyond bound": [square, [(0, 0), (B + 1, 0), (0, 1)]],
        "beyond bound and bad": [[(0, 0), (0, 4), (4, 0)], [(0, 0), (1 << 70, 0), (0, 1)]],
        "none": [],
    }
    for polygons in cases.values():
        _assert_batch_matches(polygons)
    for polygon, error in [
        (square[::-1], "polygon not strictly convex CCW at vertex Point2(x=0, y=0)"),
        (_star(5, 2), "vertex cycle winds more than once"),
        ([(0, 0), (4, 0), (4, 4), (4, 0)], "repeated polygon vertex"),
    ]:
        polygons = [[Point2(*v) for v in polygon]]
        assert _batched(polygons) is None and _constructed(polygons)[1] == error


@st.composite
def _polygons(draw):
    """Lists of vertex cycles: hulls, made bad in one of the usual ways."""
    polygons = []
    for _ in range(draw(st.integers(1, 4))):
        pts = draw(st.lists(st.tuples(small, small), min_size=1, max_size=8))
        hull = _hull(pts)
        if len(hull) >= 3:
            start = draw(st.integers(0, len(hull) - 1))
            hull = hull[start:] + hull[:start]
        how = draw(st.sampled_from(["hull", "cw", "repeat", "collinear", "twice", "raw"]))
        if how == "cw":
            hull = hull[::-1]
        elif how == "repeat":
            hull = hull + [hull[draw(st.integers(0, len(hull) - 1))]]
        elif how == "collinear" and len(hull) >= 2:
            # the first edge's midpoint, on doubled coordinates: a straight angle
            hull = [(2 * x, 2 * y) for x, y in hull]
            (ax, ay), (bx, by) = hull[0], hull[1]
            hull.insert(1, ((ax + bx) // 2, (ay + by) // 2))
        elif how == "twice":
            hull = hull + hull
        elif how == "raw":
            hull = pts
        scale = draw(st.sampled_from([1, 1 << 17]))
        polygons.append([(x * scale, y * scale) for x, y in hull])
    return polygons


@given(_polygons())
def test_batch_accepts_exactly_what_the_constructor_accepts(polygons):
    _assert_batch_matches(polygons)


# ------------------------------------------------------------- the loader


def reference_geometry(geo, n, m):
    """The per-item geometry parse, as the loader made it before it
    checked in bulk."""
    if not isinstance(geo, dict):
        raise InputError("'geometry' must be an object")
    try:
        points = tuple(
            Point2(*_integers(p, f"a coordinate of point {i}"))
            for i, p in enumerate(geo["points"])
        )
        polygons = tuple(
            ConvexPolygon(
                tuple(Point2(*_integers(v, f"a coordinate of polygon {j}")) for v in poly)
            )
            for j, poly in enumerate(geo["polygons"], start=1)
        )
        (k,) = _integers([geo["k"]], "'k'")
    except GeometryError as exc:
        raise InputError(f"bad polygon in geometry block: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed geometry block: {exc}") from exc
    if len(points) != n:
        raise InputError(f"geometry has {len(points)} points for {n} elements")
    if len(polygons) != m:
        raise InputError(f"geometry has {len(polygons)} polygons for {m} sets")
    try:
        return GeometricInstance(points=points, polygons=polygons, k=k)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _outcome(parse, geo, n, m):
    try:
        inst = parse(geo, n, m)
    except InputError as exc:
        return "error", str(exc)
    return "ok", inst.points, [p.vertices for p in inst.polygons], inst.k


_JUNK = [2.5, "7", True, None, [], {}, [1], [1, 2, 3], "12", {"a": 1, "b": 2}, 1 << 70, -(B + 1)]


@st.composite
def _geometry_blocks(draw):
    square = [[0, 0], [4, 0], [4, 4], [0, 4]]
    geo = {
        "points": [[1, 1], [3, 3], [5, 5]],
        "polygons": [square, [[2, 2], [6, 2], [6, 6], [2, 6]], [[7, 7]]],
        "k": 4,
    }
    for _ in range(draw(st.integers(0, 3))):
        field = draw(st.sampled_from(["points", "polygons", "polygons", "k"]))
        junk = draw(st.sampled_from(_JUNK))
        where = draw(st.sampled_from(["field", "item", "coordinate", "polygon", "drop"]))
        if where == "drop":
            geo.pop(field, None)
        elif where == "field" or not isinstance(geo.get(field), list) or not geo[field]:
            geo[field] = junk
        else:
            items = geo[field]
            i = draw(st.integers(0, len(items) - 1))
            if where == "item" or not isinstance(items[i], list) or not items[i]:
                items[i] = junk
            elif where == "polygon" and field == "polygons":
                items[i] = draw(st.sampled_from([square[::-1], square + square, []]))
            else:
                row = items[i]
                j = draw(st.integers(0, len(row) - 1))
                if field == "polygons" and isinstance(row[j], list) and row[j]:
                    row[j][draw(st.integers(0, len(row[j]) - 1))] = junk
                else:
                    row[j] = junk
    return geo


def _block(*polygons, points=([1, 1], [3, 3], [5, 5]), k=4):
    """A geometry block of three points and the polygons as given."""
    return {"points": [list(p) for p in points], "polygons": [list(p) for p in polygons], "k": k}


_SQUARE = [[0, 0], [4, 0], [4, 4], [0, 4]]


@given(_geometry_blocks())
# a vertex of three integers, a non-convex polygon beyond int64, coordinates
# at the bound, a bool after a non-convex polygon, and a polygon of too many
# sides beyond the bound: inputs whose errors a bulk path could reorder
@example(_block(_SQUARE, [[2, 2], [6, 2, 1], [6, 6]], [[7, 7]]))
@example(_block(_SQUARE, [[0, 0], [0, 4], [1 << 70, 0]], [[7, 7]]))
@example(
    _block(
        [[-B, -B], [B, -B], [B, B], [-B, B]], [[B, B]], [[-B, B]], points=[[B, -B], [-B, 0], [0, B]]
    )
)
@example(_block(_SQUARE[::-1], [[2, 2], [True, 2], [6, 6]], [[7, 7]]))
@example(
    _block(
        _SQUARE,
        [[0, 0], [4 << 19, 0], [6 << 19, 3 << 19], [2 << 19, 6 << 19], [-2 << 19, 3 << 19]],
        [[7, 7]],
    )
)
def test_loader_reports_what_the_per_item_loader_reports(geo):
    want = _outcome(reference_geometry, copy.deepcopy(geo), 3, 3)
    assert _outcome(_geometry_from_dict, geo, 3, 3) == want


@pytest.mark.parametrize(
    "geo",
    [
        # a type error in a later polygon is reported after an earlier bad polygon
        {"points": [], "polygons": [[[0, 0], [0, 4], [4, 0]], [[0, 1.5]]], "k": 4},
        {"points": [], "polygons": [[[0, 1.5]], [[0, 0], [0, 4], [4, 0]]], "k": 4},
        # a bad polygon is reported before a missing k
        {"points": [], "polygons": [[[0, 0], [0, 0]]]},
        # beyond int64: the coordinate bound names it, not an overflow
        {"points": [[1 << 70, 0]], "polygons": [[[0, 0], [1 << 64, 0], [0, 1]]], "k": 4},
        {"points": [[0, 0]], "polygons": [[[0, 0], [0, 1 << 64], [1, 0]]], "k": 4},
        {"points": [[0, 0]], "polygons": [[[1 << 70, 0]]], "k": 1 << 70},
    ],
)
def test_loader_error_order(geo):
    want = _outcome(reference_geometry, geo, 1, 1)
    assert want[0] == "error"
    assert _outcome(_geometry_from_dict, geo, 1, 1) == want


def test_convex_load_and_build_make_no_point_or_polygon(monkeypatch):
    # the convex-k4 workload's shape: the loader tables the rows and the
    # build reads the table, so neither makes a Point2 (by its constructor
    # or _make) or a ConvexPolygon (checked or trusted)
    from setmaxima.geomlattice import build_geometric_lattice
    from setmaxima.instance_io import ProblemInstance, instance_from_dict, instance_to_dict

    inst = gen_convex_instance(n=20000, m=2000, k=4, seed=7)
    doc = instance_to_dict(ProblemInstance(system=inst.system, geometry=inst))
    geo = doc["geometry"]
    # the per-item parse: the objects the loader made before it tabled rows
    points = tuple(Point2(*p) for p in geo["points"])
    polygons = tuple(ConvexPolygon(tuple(Point2(*v) for v in poly)) for poly in geo["polygons"])
    made = []

    def counted(name, function):
        def wrapper(*args, **kwargs):
            made.append(name)
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Point2, "__new__", counted("Point2", Point2.__new__))
    monkeypatch.setattr(Point2, "_make", classmethod(counted("Point2", Point2._make.__func__)))
    checked = counted("checked", ConvexPolygon.__post_init__)
    trusted = counted("trusted", ConvexPolygon.trusted.__func__)
    monkeypatch.setattr(ConvexPolygon, "__post_init__", checked)
    monkeypatch.setattr(ConvexPolygon, "trusted", classmethod(trusted))
    loaded = instance_from_dict(doc).geometry
    glat = build_geometric_lattice(loaded)
    assert made == [] and glat.fallback_labels == ()
    assert "points" not in vars(loaded) and "polygons" not in vars(loaded)
    monkeypatch.undo()
    assert loaded.points == points
    assert [poly.vertices for poly in loaded.polygons] == [poly.vertices for poly in polygons]
    assert loaded == inst
