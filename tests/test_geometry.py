import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from setmaxima.geometry import (
    BOUNDARY,
    INSIDE,
    OUTSIDE,
    ConvexPolygon,
    GeometryError,
    Point2,
    canonical,
    chains,
    clip_convex,
    clip_region,
    contains_polygon,
    edge_on_boundary,
    homogeneous,
    join,
    meet,
    on_segment,
    orientation,
    point_in_convex,
    region_of,
    segment_in_segment,
    strict_hull,
    to_point,
)
from setmaxima.geomlattice import GeometricInstance, RegionCache

coord = st.integers(-(1 << 20), 1 << 20)


def oracle_orientation(p, q, r):
    """Independent route: full cofactor expansion in Fraction arithmetic."""
    det = (
        Fraction(p[0]) * (Fraction(q[1]) - Fraction(r[1]))
        - Fraction(q[0]) * (Fraction(p[1]) - Fraction(r[1]))
        + Fraction(r[0]) * (Fraction(p[1]) - Fraction(q[1]))
    )
    return (det > 0) - (det < 0)


def oracle_point_in_convex(poly, pt):
    """All-edges half-plane scan."""
    if len(poly.vertices) < 3:
        return point_in_convex(poly, pt)
    signs = [orientation(a, b, pt) for a, b in poly.edges()]
    if any(s < 0 for s in signs):
        return OUTSIDE
    return BOUNDARY if any(s == 0 for s in signs) else INSIDE


def random_polygon(rng, span=1000, tries=50):
    for _ in range(tries):
        pts = [
            Point2(rng.randint(-span, span), rng.randint(-span, span))
            for _ in range(rng.randint(3, 12))
        ]
        hull = strict_hull(pts)
        if len(hull) >= 3:
            return ConvexPolygon(tuple(hull))
    raise AssertionError("could not sample a polygon")


# ---------------------------------------------------------------- orientation


def test_orientation_examples():
    assert orientation(Point2(0, 0), Point2(1, 0), Point2(0, 1)) == 1
    assert orientation(Point2(0, 0), Point2(1, 0), Point2(2, 0)) == 0
    assert orientation(Point2(0, 0), Point2(0, 1), Point2(1, 0)) == -1


@given(coord, coord, coord, coord, coord, coord)
def test_orientation_matches_bigint_oracle(ax, ay, bx, by, cx, cy):
    p, q, r = Point2(ax, ay), Point2(bx, by), Point2(cx, cy)
    assert orientation(p, q, r) == oracle_orientation(p, q, r)


def test_orientation_rational_points_match_oracle():
    rng = random.Random(4)
    for _ in range(300):
        pts = [
            Point2(
                Fraction(rng.randint(-9999, 9999), rng.randint(1, 97)),
                Fraction(rng.randint(-9999, 9999), rng.randint(1, 97)),
            )
            for _ in range(3)
        ]
        assert orientation(*pts) == oracle_orientation(*pts)


def test_orientation_exact_on_constructed_collinear():
    rng = random.Random(9)
    for _ in range(200):
        p = Point2(rng.randint(-10**5, 10**5), rng.randint(-10**5, 10**5))
        d = (rng.randint(-50, 50), rng.randint(-50, 50))
        if d == (0, 0):
            continue
        q = Point2(p.x + d[0], p.y + d[1])
        t = rng.randint(-100, 100)
        r = Point2(p.x + t * d[0], p.y + t * d[1])
        assert orientation(p, q, r) == 0
        # one-ulp style nudges flip the sign deterministically
        assert orientation(p, q, Point2(r.x - d[1], r.y + d[0])) == 1
        assert orientation(p, q, Point2(r.x + d[1], r.y - d[0])) == -1


# -------------------------------------------------------------------- polygon


def test_polygon_canonical_rotation_is_lowest_then_leftmost():
    poly = ConvexPolygon((Point2(2, 2), Point2(0, 2), Point2(0, 0), Point2(2, 0)))
    assert poly.vertices[0] == Point2(0, 0)
    assert poly.vertices == (Point2(0, 0), Point2(2, 0), Point2(2, 2), Point2(0, 2))


def test_polygon_rejects_clockwise_and_collinear():
    with pytest.raises(GeometryError):
        ConvexPolygon((Point2(0, 0), Point2(0, 2), Point2(2, 0)))
    with pytest.raises(GeometryError):
        ConvexPolygon((Point2(0, 0), Point2(1, 0), Point2(2, 0), Point2(1, 1)))
    with pytest.raises(GeometryError):
        ConvexPolygon((Point2(0, 0), Point2(1, 1), Point2(0, 0)))


def test_polygon_rejects_star_winding():
    star = (Point2(0, 10), Point2(-6, -8), Point2(9, 3), Point2(-9, 3), Point2(6, -8))
    # all consecutive turns are left turns, but the cycle winds twice
    with pytest.raises(GeometryError):
        ConvexPolygon(star)


def test_strict_hull_drops_collinear():
    pts = [Point2(0, 0), Point2(1, 0), Point2(2, 0), Point2(2, 2), Point2(0, 2), Point2(1, 1)]
    hull = strict_hull(pts)
    assert set(hull) == {Point2(0, 0), Point2(2, 0), Point2(2, 2), Point2(0, 2)}


def test_degenerate_polygons():
    pt = ConvexPolygon((Point2(3, 3),))
    seg = ConvexPolygon((Point2(0, 0), Point2(4, 2)))
    assert pt.is_degenerate and seg.is_degenerate
    assert point_in_convex(pt, Point2(3, 3)) == BOUNDARY
    assert point_in_convex(pt, Point2(3, 4)) == OUTSIDE
    assert point_in_convex(seg, Point2(2, 1)) == BOUNDARY
    assert point_in_convex(seg, Point2(1, 1)) == OUTSIDE


# ----------------------------------------------------------- point membership


def test_point_in_convex_unit_square_examples():
    square = ConvexPolygon((Point2(0, 0), Point2(1, 0), Point2(1, 1), Point2(0, 1)))
    assert point_in_convex(square, Point2(0, 0)) == BOUNDARY
    big = ConvexPolygon((Point2(0, 0), Point2(2, 0), Point2(2, 2), Point2(0, 2)))
    assert point_in_convex(big, Point2(1, 1)) == INSIDE


def test_point_in_convex_matches_scan_oracle():
    rng = random.Random(12)
    for _ in range(300):
        poly = random_polygon(rng)
        for _ in range(20):
            pt = Point2(rng.randint(-1200, 1200), rng.randint(-1200, 1200))
            assert point_in_convex(poly, pt) == oracle_point_in_convex(poly, pt)
        # exact boundary hits: vertices and edge midpoints (doubled coords)
        doubled = ConvexPolygon(tuple(Point2(2 * v.x, 2 * v.y) for v in poly.vertices))
        for a, b in doubled.edges():
            mid = Point2((a.x + b.x) // 2, (a.y + b.y) // 2)
            assert point_in_convex(doubled, mid) == BOUNDARY
            assert point_in_convex(doubled, a) == BOUNDARY


# ------------------------------------------------------------------- segments


def test_segment_predicates():
    assert on_segment(Point2(0, 0), Point2(4, 4), Point2(2, 2))
    assert not on_segment(Point2(0, 0), Point2(4, 4), Point2(5, 5))
    assert not on_segment(Point2(0, 0), Point2(4, 4), Point2(2, 3))
    assert segment_in_segment(Point2(1, 1), Point2(2, 2), Point2(0, 0), Point2(4, 4))
    assert not segment_in_segment(Point2(1, 1), Point2(5, 5), Point2(0, 0), Point2(4, 4))


def _line(a, b):
    return join(homogeneous(a), homogeneous(b))


def test_line_intersection_rational():
    got = meet(_line(Point2(0, 0), Point2(2, 1)), _line(Point2(1, 0), Point2(1, 2)))
    assert to_point(got) == Point2(1, Fraction(1, 2))
    assert meet(_line(Point2(0, 0), Point2(1, 0)), _line(Point2(0, 1), Point2(1, 1))) is None


# ------------------------------------------------------------------- clipping


def convex_intersection(p, q):
    """P cap Q as the build computes it: the region of label {1, 2}."""
    return RegionCache(pair_instance(p, q)).region(frozenset({1, 2}))


def pair_instance(p, q):
    """Polygons p and q, labels 1 and 2, with no points."""
    return GeometricInstance((), (p, q), k=max(3, p.sides, q.sides))


def test_intersection_idempotent():
    rng = random.Random(3)
    for _ in range(50):
        poly = random_polygon(rng)
        assert convex_intersection(poly, poly) == poly


def test_intersection_disjoint_squares():
    a = ConvexPolygon((Point2(0, 0), Point2(1, 0), Point2(1, 1), Point2(0, 1)))
    b = ConvexPolygon((Point2(5, 5), Point2(6, 5), Point2(6, 6), Point2(5, 6)))
    assert convex_intersection(a, b) is None


def test_intersection_overlapping_squares():
    a = ConvexPolygon((Point2(0, 0), Point2(2, 0), Point2(2, 2), Point2(0, 2)))
    b = ConvexPolygon((Point2(1, 1), Point2(3, 1), Point2(3, 3), Point2(1, 3)))
    got = convex_intersection(a, b)
    assert got == ConvexPolygon((Point2(1, 1), Point2(2, 1), Point2(2, 2), Point2(1, 2)))


def test_intersection_tangent_edge_is_degenerate():
    a = ConvexPolygon((Point2(0, 0), Point2(2, 0), Point2(2, 2), Point2(0, 2)))
    b = ConvexPolygon((Point2(2, 0), Point2(4, 0), Point2(4, 2), Point2(2, 2)))
    got = convex_intersection(a, b)
    assert got.is_degenerate
    assert set(got.vertices) == {Point2(2, 0), Point2(2, 2)}


def test_intersection_tangent_vertex_is_degenerate_point():
    a = ConvexPolygon((Point2(0, 0), Point2(2, 0), Point2(2, 2), Point2(0, 2)))
    b = ConvexPolygon((Point2(2, 2), Point2(4, 2), Point2(4, 4), Point2(2, 4)))
    got = convex_intersection(a, b)
    assert got.vertices == (Point2(2, 2),)


def test_intersection_membership_equivalence():
    # a point is in P cap Q exactly when it is in both
    rng = random.Random(77)
    for _ in range(60):
        p = random_polygon(rng, span=60)
        q = random_polygon(rng, span=60)
        r = convex_intersection(p, q)
        for _ in range(60):
            pt = Point2(rng.randint(-70, 70), rng.randint(-70, 70))
            in_both = (
                point_in_convex(p, pt) != OUTSIDE and point_in_convex(q, pt) != OUTSIDE
            )
            in_r = r is not None and point_in_convex(r, pt) != OUTSIDE
            assert in_r == in_both, (p.vertices, q.vertices, pt)


def test_intersection_commutes_as_region():
    rng = random.Random(5)
    for _ in range(40):
        p = random_polygon(rng, span=40)
        q = random_polygon(rng, span=40)
        a = convex_intersection(p, q)
        b = convex_intersection(q, p)
        if a is None or b is None:
            assert (a is None or a.is_degenerate) == (b is None or b.is_degenerate)
            continue
        if not a.is_degenerate and not b.is_degenerate:
            assert a == b


def test_intersection_membership_equivalence_tangency_heavy():
    # tiny coordinates force shared edges, vertex contacts, collinear
    # overlaps; membership equivalence must survive all of them
    rng = random.Random(0)
    for _ in range(250):
        def sample():
            for _ in range(60):
                pts = [
                    Point2(rng.randint(-6, 6), rng.randint(-6, 6))
                    for _ in range(rng.randint(3, 7))
                ]
                h = strict_hull(pts)
                if len(h) >= 3:
                    return ConvexPolygon(tuple(h))
            return None

        p, q = sample(), sample()
        if p is None or q is None:
            continue
        r = convex_intersection(p, q)
        for x in range(-7, 8):
            for y in range(-7, 8):
                pt = Point2(x, y)
                in_both = (
                    point_in_convex(p, pt) != OUTSIDE
                    and point_in_convex(q, pt) != OUTSIDE
                )
                in_r = r is not None and point_in_convex(r, pt) != OUTSIDE
                assert in_r == in_both, (p.vertices, q.vertices, pt)


def test_point_in_convex_rational_vertices():
    rng = random.Random(1)
    probes = 0
    while probes < 3000:
        pts = [Point2(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(6)]
        hull_p = strict_hull(pts)
        pts = [Point2(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(6)]
        hull_q = strict_hull(pts)
        if len(hull_p) < 3 or len(hull_q) < 3:
            continue
        r = convex_intersection(ConvexPolygon(tuple(hull_p)), ConvexPolygon(tuple(hull_q)))
        if r is None or r.is_degenerate:
            continue
        for _ in range(30):
            pt = Point2(
                Fraction(rng.randint(-40, 40), rng.randint(1, 5)),
                Fraction(rng.randint(-40, 40), rng.randint(1, 5)),
            )
            assert point_in_convex(r, pt) == oracle_point_in_convex(r, pt)
            probes += 1
        for v in r.vertices:
            assert point_in_convex(r, v) == BOUNDARY
            probes += 1


def test_clip_convex_subject_shrinks():
    square = ConvexPolygon((Point2(0, 0), Point2(4, 0), Point2(4, 4), Point2(0, 4)))
    tri = ConvexPolygon((Point2(0, 0), Point2(8, 0), Point2(0, 8)))
    verts = clip_convex(square.vertices, tri)
    got = ConvexPolygon(tuple(verts))
    assert got == ConvexPolygon((Point2(0, 0), Point2(4, 0), Point2(4, 4), Point2(0, 4)))


# ------------------------------------------------------------ edge ownership


def rect(x0, y0, x1, y1):
    return ConvexPolygon((Point2(x0, y0), Point2(x1, y0), Point2(x1, y1), Point2(x0, y1)))


def owned_clip(p, q):
    """p (label 1) clipped by q (label 2): the region (None when empty)
    and its edge owners."""
    entry = RegionCache(pair_instance(p, q)).entry(frozenset({1, 2}))
    return entry.polygon(), list(entry.owners)


def owned_edges(region, owners):
    return [(a, b, set(own)) for (a, b), own in zip(region.edges(), owners, strict=True)]


def test_owners_two_squares_sharing_a_collinear_bottom_edge():
    region, owners = owned_clip(rect(0, 0, 4, 4), rect(2, 0, 6, 3))
    assert owned_edges(region, owners) == [
        (Point2(2, 0), Point2(4, 0), {1, 2}),
        (Point2(4, 0), Point2(4, 3), {1}),
        (Point2(4, 3), Point2(2, 3), {2}),
        (Point2(2, 3), Point2(2, 0), {2}),
    ]


def test_owners_subject_edge_on_the_clip_line():
    tri = ConvexPolygon((Point2(0, 0), Point2(6, 0), Point2(0, 6)))
    region, owners = owned_clip(rect(0, 0, 4, 4), tri)
    assert owned_edges(region, owners) == [
        (Point2(0, 0), Point2(4, 0), {1, 2}),
        (Point2(4, 0), Point2(4, 2), {1}),
        (Point2(4, 2), Point2(2, 4), {2}),
        (Point2(2, 4), Point2(0, 4), {1}),
        (Point2(0, 4), Point2(0, 0), {1, 2}),
    ]


def test_owners_clip_through_vertices():
    # the clip line x + y = 4 runs through the square's corners (4,0) and (0,4)
    tri = ConvexPolygon((Point2(4, 0), Point2(0, 4), Point2(-8, -8)))
    region, owners = owned_clip(rect(0, 0, 4, 4), tri)
    assert owned_edges(region, owners) == [
        (Point2(0, 0), Point2(4, 0), {1}),
        (Point2(4, 0), Point2(0, 4), {2}),
        (Point2(0, 4), Point2(0, 0), {1}),
    ]


def test_owners_tangent_clip_collapses_to_a_segment():
    seg, owners = owned_clip(rect(0, 0, 4, 4), rect(4, 0, 8, 4))
    assert seg.vertices == (Point2(4, 0), Point2(4, 4))
    assert owners == [{1, 2}, {1, 2}]
    for (a, b), own in zip(seg.edges(), owners):
        assert edge_on_boundary(rect(0, 0, 4, 4), a, b) and edge_on_boundary(rect(4, 0, 8, 4), a, b)
    # a single point has no edge, so no owners
    point, owners = owned_clip(rect(0, 0, 4, 4), rect(4, 4, 8, 8))
    assert point.vertices == (Point2(4, 4),) and owners == [frozenset()]


def test_owners_survive_repeated_and_straight_subject_vertices():
    # (4,0) repeats: its zero-length edge goes with its owner {9}; (2,0) is
    # a straight angle: its two edges merge and keep both owners
    subject = [Point2(0, 0), Point2(2, 0), Point2(4, 0), Point2(4, 0), Point2(4, 4), Point2(0, 4)]
    owners = [frozenset({o}) for o in (1, 3, 9, 4, 5, 6)]
    clip = region_of(rect(-1, -1, 9, 9).vertices, ()).lines
    region = canonical(clip_region(region_of(subject, owners), clip, frozenset({2})))
    assert [to_point(v) for v in region.vertices] == [
        Point2(0, 0), Point2(4, 0), Point2(4, 4), Point2(0, 4)
    ]
    assert list(region.owners) == [{1, 3}, {4}, {5}, {6}]


def test_owners_match_segment_predicates_on_grid_polygons():
    # small grids make shared edges, vertex contacts and tangencies common
    rng = random.Random(17)
    full = 0
    for _ in range(600):
        hulls = []
        while len(hulls) < 2:
            h = strict_hull(Point2(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(5))
            if h:
                hulls.append(ConvexPolygon(tuple(h)))
        p, q = hulls
        region, owners = owned_clip(p, q)
        if region is None or region.is_degenerate:
            continue
        full += 1
        for (a, b), own in zip(region.edges(), owners, strict=True):
            expected = {j for j, poly in ((1, p), (2, q)) if edge_on_boundary(poly, a, b)}
            assert own == expected, (p, q, a, b)
    assert full > 100


# --------------------------------------------------------------------- chains


def fig_polygons():
    outer = ConvexPolygon((Point2(0, 0), Point2(10, 0), Point2(10, 6), Point2(0, 6)))
    inner = ConvexPolygon(
        (
            Point2(3, 0),
            Point2(7, 0),
            Point2(9, 3),
            Point2(7, 6),
            Point2(3, 6),
            Point2(2, 5),
            Point2(1, 3),
            Point2(1, 2),
        )
    )
    return outer, inner


def test_chains_identical_polygons_have_none():
    outer, _ = fig_polygons()
    assert chains(outer, outer) == []


def test_chains_two_runs_of_two_and_four():
    # an inner octagon sharing exactly its bottom and top edges with the
    # outer rectangle: one chain of two edges and one of four
    outer, inner = fig_polygons()
    got = chains(outer, inner)
    assert sorted(len(c) for c in got) == [2, 4]
    all_edges = frozenset().union(*(c.edge_set() for c in got))
    assert len(all_edges) == 6
    # the two edges lying on the outer boundary are not in any chain
    on_outer = {
        i
        for i, (a, b) in enumerate(inner.edges())
        if segment_in_segment(a, b, Point2(0, 0), Point2(10, 0))
        or segment_in_segment(a, b, Point2(0, 6), Point2(10, 6))
    }
    assert all_edges.isdisjoint(on_outer)
    assert len(on_outer) == 2


def test_chains_strict_interior_single_full_chain():
    big = ConvexPolygon((Point2(0, 0), Point2(6, 0), Point2(6, 6), Point2(0, 6)))
    inner = ConvexPolygon((Point2(2, 2), Point2(4, 2), Point2(3, 4)))
    got = chains(big, inner)
    assert len(got) == 1
    assert got[0].edge_indices == (0, 1, 2)


def test_chains_contract_violation():
    big = ConvexPolygon((Point2(0, 0), Point2(6, 0), Point2(6, 6), Point2(0, 6)))
    poking = ConvexPolygon((Point2(2, 2), Point2(9, 2), Point2(3, 4)))
    with pytest.raises(GeometryError):
        chains(big, poking)


def test_contains_polygon():
    big = ConvexPolygon((Point2(0, 0), Point2(6, 0), Point2(6, 6), Point2(0, 6)))
    inner = ConvexPolygon((Point2(2, 2), Point2(4, 2), Point2(3, 4)))
    assert contains_polygon(big, inner)
    assert not contains_polygon(inner, big)
