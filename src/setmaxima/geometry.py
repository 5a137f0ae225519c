"""Exact 2D primitives: orientation, hulls, convex polygons, clipping, chains.

All arithmetic is exact.  Input coordinates are integers bounded by
COORD_BOUND (so batched int64 evaluation elsewhere cannot overflow);
intersection vertices arising from edge crossings are `fractions.Fraction`
rationals.  Nothing in this module performs key comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

COORD_BOUND = 1 << 20

INSIDE = "inside"
BOUNDARY = "boundary"
OUTSIDE = "outside"


class GeometryError(Exception):
    """Violated geometric contract (e.g. chains() on R not inside P)."""


class Point2(NamedTuple):
    x: int | Fraction
    y: int | Fraction


# polygon labels whose boundary carries an edge
Owners = frozenset[int]


def orientation(p: Point2, q: Point2, r: Point2) -> int:
    """Sign of the cross product (q-p) x (r-p): +1 left turn, 0 collinear, -1 right."""
    ax, ay = p
    bx, by = q
    cx, cy = r
    if (
        type(ax) is int
        and type(ay) is int
        and type(bx) is int
        and type(by) is int
        and type(cx) is int
        and type(cy) is int
    ):
        det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    else:
        # clear denominators by hand: Fraction arithmetic normalizes by gcd
        # at every step, which dominates the cost of rational predicates
        n1 = bx.numerator * ax.denominator - ax.numerator * bx.denominator
        n2 = cy.numerator * ay.denominator - ay.numerator * cy.denominator
        n3 = by.numerator * ay.denominator - ay.numerator * by.denominator
        n4 = cx.numerator * ax.denominator - ax.numerator * cx.denominator
        det = (
            n1 * n2 * (by.denominator * ay.denominator) * (cx.denominator * ax.denominator)
            - n3 * n4 * (bx.denominator * ax.denominator) * (cy.denominator * ay.denominator)
        )
    if det > 0:
        return 1
    if det < 0:
        return -1
    return 0


def within_collinear_segment(a: Point2, b: Point2, p: Point2) -> bool:
    """Whether p lies on segment ab, given that a, b, p are collinear."""
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def on_segment(a: Point2, b: Point2, p: Point2) -> bool:
    return orientation(a, b, p) == 0 and within_collinear_segment(a, b, p)


def segment_in_segment(a: Point2, b: Point2, u: Point2, v: Point2) -> bool:
    """Whether segment ab is a sub-segment of segment uv."""
    return on_segment(u, v, a) and on_segment(u, v, b)


def _as_exact(value) -> int | Fraction:
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


def line_intersection(a: Point2, b: Point2, c: Point2, d: Point2) -> Point2:
    """Intersection point of the (non-parallel) lines ab and cd, exact."""
    r = (b[0] - a[0], b[1] - a[1])
    s = (d[0] - c[0], d[1] - c[1])
    denom = r[0] * s[1] - r[1] * s[0]
    if denom == 0:
        raise GeometryError("line_intersection on parallel lines")
    t = Fraction((c[0] - a[0]) * s[1] - (c[1] - a[1]) * s[0], denom)
    return Point2(_as_exact(a[0] + t * r[0]), _as_exact(a[1] + t * r[1]))


def strict_hull(points: Iterable[Point2]) -> list[Point2]:
    """Convex hull with strictly convex corners (collinear points dropped), CCW."""
    pts = sorted(set(Point2(*p) for p in points))
    if len(pts) <= 2:
        return pts

    def half(seq):
        out: list[Point2] = []
        for p in seq:
            while len(out) >= 2 and orientation(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    return hull if len(hull) >= 3 else []


def _canonical_start(vertices: Sequence[Point2]) -> int:
    # start at the lowest-then-leftmost vertex so edge order is reproducible
    return min(range(len(vertices)), key=lambda i: (vertices[i][1], vertices[i][0]))


@dataclass(frozen=True)
class ConvexPolygon:
    """Strictly convex CCW polygon; one or two vertices model the degenerate
    point/segment regions produced by tiny embeddings and tangent clips."""

    vertices: tuple[Point2, ...]

    def __post_init__(self):
        verts = tuple(Point2(_as_exact(p[0]), _as_exact(p[1])) for p in self.vertices)
        if not verts:
            raise GeometryError("polygon needs at least one vertex")
        if len(set(verts)) != len(verts):
            raise GeometryError("repeated polygon vertex")
        if len(verts) >= 3:
            s = len(verts)
            minima = 0
            for i in range(s):
                a, b, c = verts[i - 2], verts[i - 1], verts[i]
                if orientation(a, b, c) <= 0:
                    raise GeometryError(
                        f"polygon not strictly convex CCW at vertex {verts[i - 1]}"
                    )
                ka = (a[1], a[0])
                kb = (b[1], b[0])
                kc = (c[1], c[0])
                if kb < ka and kb < kc:
                    minima += 1
            if minima != 1:
                raise GeometryError("vertex cycle winds more than once")
            start = _canonical_start(verts)
            verts = verts[start:] + verts[:start]
        else:
            verts = tuple(sorted(verts, key=lambda p: (p[1], p[0])))
        object.__setattr__(self, "vertices", verts)

    @property
    def sides(self) -> int:
        return len(self.vertices) if len(self.vertices) >= 3 else 0

    @property
    def is_degenerate(self) -> bool:
        return len(self.vertices) < 3

    def edges(self) -> Iterator[tuple[Point2, Point2]]:
        verts = self.vertices
        for i in range(len(verts)):
            yield verts[i], verts[(i + 1) % len(verts)]

    def bbox(self) -> tuple:
        xs = [p[0] for p in self.vertices]
        ys = [p[1] for p in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)


def point_in_convex(poly: ConvexPolygon, pt: Point2) -> str:
    """Exact classification of pt against poly: inside / boundary / outside.

    Boundary counts as membership everywhere in this library.  Runs in
    O(log s) by binary search on the vertex fan.
    """
    verts = poly.vertices
    s = len(verts)
    if s == 1:
        return BOUNDARY if tuple(pt) == tuple(verts[0]) else OUTSIDE
    if s == 2:
        return BOUNDARY if on_segment(verts[0], verts[1], pt) else OUTSIDE

    v0 = verts[0]
    o_first = orientation(v0, verts[1], pt)
    o_last = orientation(v0, verts[-1], pt)
    if o_first < 0 or o_last > 0:
        return OUTSIDE
    if o_first == 0:
        return BOUNDARY if within_collinear_segment(v0, verts[1], pt) else OUTSIDE
    if o_last == 0:
        return BOUNDARY if within_collinear_segment(v0, verts[-1], pt) else OUTSIDE

    lo, hi = 1, s - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if orientation(v0, verts[mid], pt) >= 0:
            lo = mid
        else:
            hi = mid
    o_edge = orientation(verts[lo], verts[lo + 1], pt)
    if o_edge > 0:
        return INSIDE
    if o_edge == 0:
        return BOUNDARY
    return OUTSIDE


def contains_polygon(outer: ConvexPolygon, inner: ConvexPolygon) -> bool:
    """Whether every point of inner lies in outer (membership incl. boundary)."""
    return all(point_in_convex(outer, v) != OUTSIDE for v in inner.vertices)


def _dedup_cyclic(verts: list[Point2], owners: list[Owners]) -> None:
    """Drop repeated consecutive vertices in place; each zero-length edge
    goes, so a repeat hands its owners to the copy that stays."""
    out, out_owners = [], []
    for p, own in zip(verts, owners):
        if out and p == out[-1]:
            out_owners[-1] = own
        else:
            out.append(p)
            out_owners.append(own)
    while len(out) >= 2 and out[0] == out[-1]:
        out.pop()
        out_owners.pop()
    verts[:], owners[:] = out, out_owners


def _drop_collinear(verts: list[Point2], owners: list[Owners]) -> None:
    """Drop straight-angle vertices in place; the two edges they join
    become one, owned by both edges' owners."""
    changed = True
    while changed and len(verts) >= 3:
        changed = False
        for i in range(len(verts)):
            a = verts[i - 1]
            b = verts[i]
            c = verts[(i + 1) % len(verts)]
            if orientation(a, b, c) == 0:
                owners[i - 1] = owners[i - 1] | owners[i]
                del verts[i]
                del owners[i]
                changed = True
                break


def clip_with_owners(
    subject: Sequence[Point2],
    owners: Sequence[Owners],
    clip: ConvexPolygon,
    clip_owner: Owners,
) -> tuple[list[Point2], list[Owners]]:
    """Sutherland-Hodgman clip of a convex CCW subject by a convex clip
    polygon, exact, carrying edge ownership along.

    ``owners[i]`` labels the subject edge from vertex i to vertex i + 1;
    ``clip_owner`` labels every clip edge.  Returns the (possibly
    degenerate) CCW vertex list, rotated as ``ConvexPolygon`` stores it, and
    aligned with it the owners of each output edge: the owners of the
    subject edge it lies on, joined with ``clip_owner`` when it lies on a
    clip edge.  When every subject edge is labelled with the polygons
    whose boundary carries it, so is every output edge; of a degenerate
    result, both sides of a segment carry every owner of its line, and a
    point has no edge and so no owners.
    """
    if clip.is_degenerate:
        raise GeometryError("cannot clip by a degenerate polygon")
    verts = list(subject)
    owns = list(owners)
    for a, b in clip.edges():
        if not verts:
            break
        sides = [orientation(a, b, p) for p in verts]
        out: list[Point2] = []
        out_owners: list[Owners] = []
        last = len(verts) - 1
        for i, p in enumerate(verts):
            j = i + 1 if i < last else 0
            sp, sq, own = sides[i], sides[j], owns[i]
            if sp >= 0:
                out.append(p)
                if sq >= 0:
                    # an edge lying on the clip line is a clip edge too
                    out_owners.append(own | clip_owner if sp == sq == 0 else own)
                elif sp > 0:
                    out_owners.append(own)
                    out.append(line_intersection(a, b, p, verts[j]))
                    out_owners.append(clip_owner)
                else:
                    out_owners.append(clip_owner)
            elif sq > 0:
                out.append(line_intersection(a, b, p, verts[j]))
                out_owners.append(own)
        verts, owns = out, out_owners
    _dedup_cyclic(verts, owns)
    if len(verts) <= 1:
        return verts, [frozenset()] * len(verts)
    if all(orientation(verts[0], verts[1], p) == 0 for p in verts):
        # tangency collapsed the region to a segment: keep its extremes
        line_owners = frozenset().union(*owns)
        return [min(verts), max(verts)], [line_owners, line_owners]
    _drop_collinear(verts, owns)
    start = _canonical_start(verts)
    return verts[start:] + verts[:start], owns[start:] + owns[:start]


def clip_convex(subject: Sequence[Point2], clip: ConvexPolygon) -> list[Point2]:
    """Sutherland-Hodgman clip of a convex CCW subject by a convex clip
    polygon, exact; returns the (possibly degenerate) CCW vertex list."""
    none = frozenset()
    return clip_with_owners(subject, [none] * len(subject), clip, none)[0]


def convex_intersection(p: ConvexPolygon, q: ConvexPolygon) -> ConvexPolygon | None:
    """Exact intersection of two convex polygons.

    Returns None when the interiors share nothing at all; a degenerate
    (point/segment) ConvexPolygon when the intersection has empty interior
    but is non-empty; otherwise the full intersection polygon.
    """
    if p.is_degenerate or q.is_degenerate:
        raise GeometryError("convex_intersection requires full polygons")
    verts = clip_convex(p.vertices, q)
    if not verts:
        return None
    return ConvexPolygon(tuple(verts))


def polygon_area2(poly: ConvexPolygon):
    """Twice the signed area (exact); degenerate polygons have zero."""
    if poly.is_degenerate:
        return 0
    total = 0
    verts = poly.vertices
    for i in range(len(verts)):
        a, b = verts[i], verts[(i + 1) % len(verts)]
        total += a[0] * b[1] - a[1] * b[0]
    return _as_exact(total)


@dataclass(frozen=True)
class Chain:
    """Maximal run of consecutive inner-polygon edges not lying on the outer
    polygon's boundary; edges are indices into the inner polygon's edge list."""

    edge_indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.edge_indices)

    def edge_set(self) -> frozenset[int]:
        return frozenset(self.edge_indices)


def edge_on_boundary(outer: ConvexPolygon, a: Point2, b: Point2) -> bool:
    """Whether segment ab is a sub-segment of one of outer's edges."""
    return any(segment_in_segment(a, b, u, v) for u, v in outer.edges())


def chains(outer: ConvexPolygon, inner: ConvexPolygon) -> list[Chain]:
    """Chains of ``inner`` relative to ``outer``; requires inner inside outer.

    Each chain is a maximal cyclic run of inner edges that are not
    sub-segments of outer edges.  inner == outer gives no chains; inner
    strictly interior gives a single chain holding the whole boundary.
    """
    if outer.is_degenerate or inner.is_degenerate:
        raise GeometryError("chains require full polygons")
    if not contains_polygon(outer, inner):
        raise GeometryError("inner polygon is not contained in outer polygon")
    marked = [edge_on_boundary(outer, a, b) for a, b in inner.edges()]
    s = len(marked)
    if not any(marked):
        return [Chain(tuple(range(s)))]
    if all(marked):
        return []
    start = next(i for i in range(s) if marked[i])
    result: list[Chain] = []
    run: list[int] = []
    for t in range(1, s + 1):
        i = (start + t) % s
        if marked[i]:
            if run:
                result.append(Chain(tuple(run)))
                run = []
        else:
            run.append(i)
    return result
