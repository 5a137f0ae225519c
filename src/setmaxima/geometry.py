"""Exact 2D primitives: orientation, hulls, convex polygons, clipping, chains.

All arithmetic is exact.  Input coordinates are integers bounded by
COORD_BOUND = 2^20, so batched int64 evaluation (the polygon check
``convex_polygons``, and the readers of an ``EdgeTable``: membership and
``ClipKernel``) cannot overflow.

Clipping works on homogeneous integers and never divides.  Every input
edge has a line (a, b, c) = (ay-by, bx-ax, ax*by-ay*bx), positive on its
left; every region vertex is a point (X, Y, W) = L1 x L2 of two such lines
with W > 0, standing for (X/W, Y/W); a side test is the sign of
a*X + b*Y + c*W.  A clip makes each new vertex from two input lines, never
from earlier vertices, so the numbers do not grow: |a|, |b| <= 2^21 and
|c| <= 2^41 give |X|, |Y| <= 2^63 and W <= 2^43 (the two diagonals of the
coordinate box reach it), and side-test dot products stay below 2^86.
Points compare by cross-multiplication.  Only the functions that take or
return ``Point2`` convert, to ``fractions.Fraction`` coordinates where a
vertex is not integral.  ``ClipKernel`` clips many regions at once on
numpy arrays of the ``EdgeTable``'s line ids, and makes the same regions
wherever its filtered side tests decide.  Nothing in this module performs key
comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .arrays import sort_pairs, spread

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
        # start at the lowest-then-leftmost vertex so edge order is reproducible
        start = _lowest([homogeneous(p) for p in verts])
        object.__setattr__(self, "vertices", verts[start:] + verts[:start])

    @classmethod
    def trusted(cls, vertices: tuple[Point2, ...]) -> "ConvexPolygon":
        """A polygon from vertices already in the form ``__post_init__``
        leaves them (from the lowest-then-leftmost one, and a full polygon
        strictly convex and CCW), without the check."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "vertices", vertices)
        return poly

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


def convex_polygons(vertices: Sequence[Point2], sizes: Sequence[int]) -> list[ConvexPolygon]:
    """``ConvexPolygon`` of each run of ``sizes`` integer vertices, checked
    all at once.

    One cross-product sign test covers every cyclic vertex triple, and one
    count every polygon's vertices lower, in (y, x) order, than both their
    neighbours.  A cycle that turns strictly left at every vertex winds as
    many times as it has such vertices, so a polygon of three or more
    vertices that passes both tests, with one such vertex, is strictly
    convex and CCW and repeats no vertex: it is made through
    ``ConvexPolygon.trusted``, from that lowest-then-leftmost vertex.  Every
    other polygon goes through the constructor, in order, so the first bad
    one raises the constructor's error; so do all of them when a coordinate
    lies beyond ``COORD_BOUND``, where int64 could overflow.
    """
    sizes = np.asarray(sizes, np.int64).reshape(-1)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    batch = sizes >= 3
    coords = list(chain.from_iterable(vertices))
    if coords and max(map(abs, coords)) <= COORD_BOUND:
        xy = np.array(coords, np.int64).reshape(-1, 2)
        owner = np.repeat(np.arange(len(sizes)), sizes)
        size, first = sizes[owner], starts[owner]
        local = np.arange(len(xy)) - first
        b = first + (local - 1) % size
        a = first + (local - 2) % size
        turn = (xy[b, 0] - xy[a, 0]) * (xy[:, 1] - xy[a, 1]) - (xy[b, 1] - xy[a, 1]) * (
            xy[:, 0] - xy[a, 0]
        )
        # (y, x) order as one number: |x| <= 2^20 < 2^21
        key = (xy[:, 1] << 22) + xy[:, 0]
        lowest = (key[b] < key[a]) & (key[b] < key)
        batch &= np.bincount(owner, turn <= 0, len(sizes)) == 0
        batch &= np.bincount(owner, lowest, len(sizes)) == 1
        start = np.zeros(len(sizes), np.int64)
        start[owner[lowest]] = b[lowest] - starts[owner[lowest]]
        # vertex t of a checked polygon is its input vertex start + t
        order = first + (local + start[owner]) % size
        rotated = list(map(vertices.__getitem__, order.tolist()))
        del xy, owner, size, first, local, a, b, turn, key, lowest, order
    else:
        batch[:] = False
    polygons = []
    for lo, hi, checked in zip(starts.tolist(), ends.tolist(), batch.tolist()):
        if checked:
            polygons.append(ConvexPolygon.trusted(tuple(rotated[lo:hi])))
        else:
            polygons.append(ConvexPolygon(tuple(vertices[lo:hi])))
    return polygons


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


# ------------------------------------------------------------ homogeneous form

HPoint = tuple[int, int, int]  # (X, Y, W) with W > 0: the point (X/W, Y/W)
Line = tuple[int, int, int]  # (a, b, c): a*x + b*y + c = 0, positive on its left


def homogeneous(p: Point2) -> HPoint:
    x, y = p
    if type(x) is int and type(y) is int:
        return (x, y, 1)
    x, y = Fraction(x), Fraction(y)
    return (x.numerator * y.denominator, y.numerator * x.denominator, x.denominator * y.denominator)


def _ratio(num: int, den: int) -> int | Fraction:
    return num // den if num % den == 0 else Fraction(num, den)


def to_point(v: HPoint) -> Point2:
    """The ``Point2`` of a homogeneous point, with int coordinates where integral."""
    x, y, w = v
    if w == 1:
        return Point2(x, y)
    return Point2(_ratio(x, w), _ratio(y, w))


def join(p: HPoint, q: HPoint) -> Line:
    """The line through p and q, directed from p to q; zero when p == q."""
    px, py, pw = p
    qx, qy, qw = q
    return (py * qw - pw * qy, pw * qx - px * qw, px * qy - py * qx)


def meet(l1: Line, l2: Line) -> HPoint | None:
    """The point where two lines cross, with W > 0; None when they are parallel."""
    a1, b1, c1 = l1
    a2, b2, c2 = l2
    w = a1 * b2 - a2 * b1
    if w > 0:
        return (b1 * c2 - b2 * c1, c1 * a2 - c2 * a1, w)
    if w < 0:
        return (b2 * c1 - b1 * c2, c2 * a1 - c1 * a2, -w)
    return None


def same_point(p: HPoint, q: HPoint) -> bool:
    return p[0] * q[2] == q[0] * p[2] and p[1] * q[2] == q[1] * p[2]


def _side(line: Line, v: HPoint) -> int:
    """Positive when v lies left of the line, zero on it, negative right."""
    return line[0] * v[0] + line[1] * v[1] + line[2] * v[2]


def _parallel(l1: Line, l2: Line) -> bool:
    return l1[0] * l2[1] == l2[0] * l1[1]


def _lower(p: HPoint, q: HPoint) -> bool:
    """Whether p lies below q, or level with q and left of it."""
    d = p[1] * q[2] - q[1] * p[2]
    if d == 0:
        d = p[0] * q[2] - q[0] * p[2]
    return d < 0


def _lowest(verts: Sequence[HPoint]) -> int:
    """Index of the lowest-then-leftmost vertex, where a region starts."""
    start = 0
    for i in range(1, len(verts)):
        if _lower(verts[i], verts[start]):
            start = i
    return start


class Region(NamedTuple):
    """A convex region in homogeneous form, as the clip kernel makes it.

    A region starts at its lowest-then-leftmost vertex, as ``ConvexPolygon``
    stores it; a full one has three or more vertices, strictly convex and
    CCW.  Edge i runs from vertex i to vertex i + 1, lies on ``lines[i]``
    (directed along the edge) and is carried on the boundary of the polygons
    ``owners[i]``.  One vertex is a point, whose one edge has the zero
    line; two are a segment, whose two edges run both ways along its line.
    No vertex at all is the empty region.
    """

    vertices: tuple[HPoint, ...]
    lines: tuple[Line, ...]
    owners: tuple[Owners, ...]

    @property
    def is_degenerate(self) -> bool:
        return len(self.vertices) < 3

    def polygon(self) -> ConvexPolygon | None:
        """The region as a ``ConvexPolygon``; None when empty."""
        if not self.vertices:
            return None
        return ConvexPolygon.trusted(tuple(to_point(v) for v in self.vertices))


def same_region(p: Region, q: Region) -> bool:
    """Whether two regions have the same vertices, in the same order."""
    return len(p.vertices) == len(q.vertices) and all(
        same_point(u, v) for u, v in zip(p.vertices, q.vertices)
    )


def region_of(points: Sequence[Point2], owners: Sequence[Owners]) -> Region:
    """A vertex cycle in homogeneous form, its lines computed as it stands;
    ``owners[i]`` owns the edge from point i to point i + 1."""
    verts = tuple(homogeneous(p) for p in points)
    lines = tuple(join(p, q) for p, q in zip(verts, verts[1:] + verts[:1]))
    return Region(verts, lines, tuple(owners))


@dataclass(frozen=True, eq=False)
class EdgeTable:
    """Convex polygons as int64 arrays, one row per vertex: vertex v is
    (x[v], y[v]), polygon j has vertices ``first[j]`` up to ``first[j + 1]``,
    and (a[v], b[v], c[v]) = (py - qy, qx - px, px*qy - py*qx) is the line
    of the edge from p = vertex v to q, the next vertex of polygon
    ``polygon[v]``, positive on its left.  A point's one line is zero, and
    a segment's two run both ways along it."""

    x: np.ndarray
    y: np.ndarray
    first: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    polygon: np.ndarray

    def lines(self, ids: Sequence[int]) -> list[Line]:
        """The edge lines ``ids`` as ``Line`` tuples."""
        return list(zip(self.a[ids].tolist(), self.b[ids].tolist(), self.c[ids].tolist()))


def edge_table(coords: Sequence[int], sizes: Sequence[int]) -> EdgeTable:
    """The ``EdgeTable`` of polygons of ``sizes[j]`` vertices, whose x and y
    in turn are ``coords``: integers within ``COORD_BOUND``, as a
    ``GeometricInstance`` checks them.  Then |a|, |b| <= 2^21 and
    |c| <= 2^41, so the int64 sums of products that the table's readers
    form (membership's side tests, the clip kernel's m(U, V)) are exact."""
    x, y = np.array(coords, np.int64).reshape(-1, 2).T
    first = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
    # the next vertex of each, cyclic within its polygon
    after = np.arange(1, x.size + 1)
    after[first[1:] - 1] = first[:-1]
    qx, qy = x[after], y[after]
    polygon = np.repeat(np.arange(len(sizes)), sizes)
    return EdgeTable(x, y, first, y - qy, qx - x, x * qy - y * qx, polygon)


# a float64 sum of three products whose magnitudes sum to S lies within
# 4u*S (u = 2^-53) of the exact sum; see ``ClipKernel``
_FILTER = 2.0**-51


def _put(store: np.ndarray, used: int, items: np.ndarray) -> np.ndarray:
    """``store`` with ``items`` written from position ``used`` on; it at
    least doubles when they do not fit, so appends copy O(1) per item."""
    end = used + len(items)
    if end > len(store):
        room = np.empty(max(end, 2 * len(store)) - used, store.dtype)
        store = np.concatenate((store[:used], room))
    store[used:end] = items
    return store


class ClipKernel:
    """Sutherland-Hodgman clipping of many convex regions at once, on the
    edge lines of an ``EdgeTable``.

    A region here is the cycle of its edges' line ids, from its
    lowest-then-leftmost vertex; vertex t is where edges t - 1 and t meet.
    Input polygon j is region j, each vertex kept as its input point.
    ``clip`` clips a batch of regions, each by one full polygon's lines in
    order, as ``clip_region`` does.

    The side of vertex P x Q against line l is sign(m(P, Q)) * det(P, Q, l),
    det = c_P*m(Q, l) + c_Q*m(l, P) + c_l*m(P, Q), m(U, V) = a_U*b_V - a_V*b_U.
    Each m is exact in int64 (|m| <= 2^43), each c and m is exact in
    float64, and each of the three float products rounds once, so the
    float sum s is off det by at most gamma_3 * S = 3u/(1 - 3u) * S, where S
    is the sum of the products' magnitudes and u = 2^-53 (N. J. Higham,
    "Accuracy and stability of numerical algorithms", 2002, sec. 3.1).  The
    bound evaluated in float64, 2^-51 * fl(S) >= 4u(1 - u)^3 * S, exceeds
    that, so |s| above it gives the exact sign: the static filter of J. R.
    Shewchuk, "Adaptive precision floating-point arithmetic and fast robust
    geometric predicates", DCG 18 (1997).  A region with a vertex the
    filter cannot decide, zero sides included, is dropped from the batch,
    and its clip left to ``clip_region``; so is every clip of a point or
    segment polygon's region, whose lines are zero or opposite and make
    every side zero.  With every side non-zero no vertex repeats, no angle
    is straight and each edge keeps the one owner of its line, so a clip
    is the region ``clip_region`` and ``canonical`` make.
    """

    def __init__(self, table: EdgeTable):
        self.table = table
        # region r has lines line[start[r] : start[r] + size[r]], of which
        # those marked kept start at a vertex of its first polygon; the
        # first _regions regions and _lines lines of these arrays are made
        self._line = np.arange(table.a.size)
        self._kept = np.ones(table.a.size, bool)
        self._start = table.first[:-1].copy()
        self._size = np.diff(table.first)
        self._regions, self._lines = len(self._size), table.a.size

    def region(self, region: int, owners: Sequence[Owners]) -> Region:
        """Region ``region`` in the form ``clip_region`` gives it, each edge
        owned by ``owners[j]`` of the polygon j whose line it lies on.  A
        kept vertex is its input point (x, y, 1); any other is ``meet`` of
        its two lines, on Python integers (its coordinates reach 2^63)."""
        start = int(self._start[region])
        ids = self._line[start : start + int(self._size[region])]
        kept = self._kept[start : start + len(ids)].tolist()
        lines = self.table.lines(ids)
        xs, ys = self.table.x[ids].tolist(), self.table.y[ids].tolist()
        verts = [
            (x, y, 1) if keep else meet(p, line)
            for p, line, x, y, keep in zip(lines[-1:] + lines[:-1], lines, xs, ys, kept)
        ]
        owns = map(owners.__getitem__, self.table.polygon[ids].tolist())
        return Region(tuple(verts), tuple(lines), tuple(owns))

    def _cycles(self, regions: np.ndarray):
        """The lines and kept flags of ``regions``, concatenated, with the
        position in ``regions`` of each one's region, and their sizes."""
        size = self._size[regions]
        at = spread(self._start[regions], size)
        return self._line[at], self._kept[at], np.repeat(np.arange(len(regions)), size), size

    @staticmethod
    def _neighbours(region: np.ndarray, size: np.ndarray):
        """The cyclic previous and next of each item of concatenated cycles."""
        first = (np.cumsum(size) - size)[region]
        index = np.arange(len(region))
        last = first + size[region] - 1
        return np.where(index == first, last, index - 1), np.where(index == last, first, index + 1)

    def clip(self, subjects: np.ndarray, clips: np.ndarray) -> np.ndarray:
        """Clip region ``subjects[i]`` by the lines of full polygon
        ``clips[i]``, all at once; the new regions' ids, -1 where a side
        was undecided."""
        table = self.table
        a, b, c = table.a, table.b, table.c
        line, kept, region, size = self._cycles(subjects)
        bad = np.zeros(len(subjects), bool)
        first, sides = table.first[clips], table.first[clips + 1] - table.first[clips]
        for t in range(int(sides.max(initial=0))):
            prev, after = self._neighbours(region, size)
            p, q = line[prev], line
            clip = (first + np.minimum(t, sides - 1))[region]
            m_qc = a[q] * b[clip] - a[clip] * b[q]
            m_cp = a[clip] * b[p] - a[p] * b[clip]
            m_pq = a[p] * b[q] - a[q] * b[p]
            t_p, t_q = c[p] * m_qc.astype(float), c[q] * m_cp.astype(float)
            t_clip = c[clip] * m_pq.astype(float)
            s = t_p + t_q + t_clip
            bound = (np.abs(t_p) + np.abs(t_q) + np.abs(t_clip)) * _FILTER
            active = (t < sides)[region]
            bad[region[active & (np.abs(s) <= bound)]] = True
            inside = (s > 0) != (m_pq < 0)
            # a region done with its clip, or dropped, stays as it is
            inside |= ~active | bad[region]
            ahead = inside[after]
            # an edge with an end inside stays; the clip edge follows the
            # edge that leaves, and new vertices start both
            leaves = inside & ~ahead
            source = np.repeat(np.arange(len(line)), (inside | ahead) + leaves.astype(int))
            is_clip = np.zeros(len(source), bool)
            is_clip[1:] = source[1:] == source[:-1]
            line = np.where(is_clip, clip[source], line[source])
            kept = kept[source] & inside[source] & ~is_clip
            region = region[source]
            size = np.bincount(region, minlength=len(subjects))
        ok = ~bad
        own = ok[region]
        line, kept, region, size = line[own], kept[own], (np.cumsum(ok) - 1)[region[own]], size[ok]
        # start each at its lowest-then-leftmost vertex, the one between an
        # edge that falls and one that rises in (y, x) order; an edge runs
        # along (b, -a), so it rises when a < 0, or a == 0 and b > 0
        rises = (a[line] < 0) | ((a[line] == 0) & (b[line] > 0))
        starts = np.flatnonzero(rises & ~rises[self._neighbours(region, size)[0]])
        first = np.cumsum(size) - size
        shift = np.zeros(len(size), np.int64)
        shift[region[starts]] = starts - first[region[starts]]
        base = first[region]
        order = base + (np.arange(len(line)) - base + shift[region]) % size[region]
        ids = np.full(len(subjects), -1)
        ids[ok] = self._regions + np.arange(len(size))
        self._start = _put(self._start, self._regions, self._lines + first)
        self._size = _put(self._size, self._regions, size)
        self._line = _put(self._line, self._lines, line[order])
        self._kept = _put(self._kept, self._lines, kept[order])
        self._regions += len(size)
        self._lines += len(line)
        return ids

    def first_owners(self, regions: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The distinct polygons whose lines carry the first k edges of each
        region ``regions[i]``, as (i, polygon) pairs, each i's polygons
        descending."""
        size = np.minimum(self._size[regions], k)
        row = np.repeat(np.arange(len(regions)), size)
        polygon = self.table.polygon[self._line[spread(self._start[regions], size)]]
        row, polygon = sort_pairs(row, -polygon)
        fresh = np.ones(len(row), bool)
        fresh[1:] = (row[1:] != row[:-1]) | (polygon[1:] != polygon[:-1])
        return row[fresh], -polygon[fresh]

    def encloses(self, outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
        """Whether region ``outer[i]`` is full and its line cycle is not
        that of region ``inner[i]``."""
        size = self._size[outer]
        same = size == self._size[inner]
        both = np.flatnonzero(same)
        differ = self._line[spread(self._start[outer[both]], size[both])] != self._line[
            spread(self._start[inner[both]], size[both])
        ]
        row = np.repeat(np.arange(len(both)), size[both])
        same[both] = np.bincount(row, differ, len(both)) == 0
        return (size >= 3) & ~same


def clip_region(subject: Region, clip_lines: Sequence[Line], clip_owner: Owners) -> Region:
    """Sutherland-Hodgman clip of a convex CCW subject by the convex polygon
    whose CCW edges lie on ``clip_lines``, exact and without division.

    Each output edge is owned by the owners of the subject edge it lies on,
    joined with ``clip_owner`` when it lies on a clip line.  When every
    subject edge is labelled with the polygons whose boundary carries it,
    so is every output edge; of a degenerate result, both sides of a
    segment carry every owner of its line, and a point has no edge and so
    no owners.

    A subject that no clip line cuts comes back as it is, so one not in
    the form this function returns (as ``region_of`` makes it of a
    ``ConvexPolygon``), which may repeat vertices or have straight angles,
    needs ``canonical`` after the clip.
    """
    verts, lines, owns = subject
    for line in clip_lines:
        if not verts:
            break
        a, b, c = line
        sides = [a * x + b * y + c * w for x, y, w in verts]
        if min(sides) > 0:
            continue
        out: list[HPoint] = []
        out_lines: list[Line] = []
        out_owners: list[Owners] = []
        last = len(verts) - 1
        for i, sp in enumerate(sides):
            sq = sides[i + 1 if i < last else 0]
            if sp >= 0:
                out.append(verts[i])
                if sq >= 0:
                    out_lines.append(lines[i])
                    # an edge lying on the clip line is a clip edge too
                    out_owners.append(owns[i] | clip_owner if sp == sq == 0 else owns[i])
                    continue
                if sp > 0:
                    out_lines.append(lines[i])
                    out_owners.append(owns[i])
                    out.append(meet(lines[i], line))
                out_lines.append(line)
                out_owners.append(clip_owner)
            elif sq > 0:
                out.append(meet(lines[i], line))
                out_lines.append(lines[i])
                out_owners.append(owns[i])
        verts, lines, owns = out, out_lines, out_owners
    if verts is subject.vertices:
        return subject
    return canonical(Region(verts, lines, owns))


def canonical(region: Region) -> Region:
    """A vertex cycle in ``Region`` form: repeats and straight angles gone,
    a collapsed cycle cut to its point or segment, and the rest rotated to
    start at its lowest-then-leftmost vertex."""
    verts, lines, owners = region
    # a repeated vertex closes a zero-length edge: the copy that stays
    # takes over the edge that leaves the repeat
    vs: list[HPoint] = []
    ls: list[Line] = []
    ows: list[Owners] = []
    for p, line, own in zip(verts, lines, owners):
        if vs and same_point(p, vs[-1]):
            ls[-1], ows[-1] = line, own
        else:
            vs.append(p)
            ls.append(line)
            ows.append(own)
    while len(vs) >= 2 and same_point(vs[0], vs[-1]):
        vs.pop()
        ls.pop()
        ows.pop()
    if len(vs) <= 1:
        return Region(tuple(vs), ((0, 0, 0),) * len(vs), (frozenset(),) * len(vs))
    if all(_parallel(ls[0], line) for line in ls):
        # tangency collapsed the region to a segment: keep its extremes
        lo = hi = vs[0]
        for p in vs:
            if _lower(p, lo):
                lo = p
            elif _lower(hi, p):
                hi = p
        # a line (a, b, c) runs in direction (b, -a): point it from lo to hi
        a, b, c = ls[0]
        ahead = ls[0] if a < 0 or (a == 0 and b > 0) else (-a, -b, -c)
        own = frozenset().union(*ows)
        return Region((lo, hi), (ahead, (-ahead[0], -ahead[1], -ahead[2])), (own, own))
    n = len(vs)
    corners = [i for i in range(n) if not _parallel(ls[i - 1], ls[i])]
    if len(corners) < n:
        # a straight angle joins its two edges into one, owned by both
        ends = corners[1:] + [corners[0] + n]
        ows = [
            ows[i] if end == i + 1 else frozenset().union(*(ows[j % n] for j in range(i, end)))
            for i, end in zip(corners, ends)
        ]
        vs = [vs[i] for i in corners]
        ls = [ls[i] for i in corners]
    start = _lowest(vs)
    return Region(
        tuple(vs[start:] + vs[:start]),
        tuple(ls[start:] + ls[:start]),
        tuple(ows[start:] + ows[:start]),
    )


def _on(region: Region, v: HPoint) -> bool:
    """Whether v lies on a point or segment region."""
    if len(region.vertices) == 1:
        return same_point(region.vertices[0], v)
    p, q = region.vertices
    # on the line, and between the ends in x and in y
    return _side(region.lines[0], v) == 0 and all(
        (v[i] * p[2] - p[i] * v[2]) * (q[i] * v[2] - v[i] * q[2]) >= 0 for i in (0, 1)
    )


def meet_degenerate(first: Region, second: Region) -> Region:
    """Intersection of two point or segment regions.

    A vertex of either that lies on the other bounds the intersection, and
    such vertices are its extremes; with none, two segments can still cross
    at one point interior to both.  Two vertices that stay lie on a line
    of both.
    """
    kept = [v for v in first.vertices if _on(second, v)]
    kept += [v for v in second.vertices if _on(first, v)]
    if not kept and len(first.vertices) == len(second.vertices) == 2:
        (p, q), (r, s) = first.vertices, second.vertices
        l1, l2 = first.lines[0], second.lines[0]
        if _side(l1, r) * _side(l1, s) < 0 and _side(l2, p) * _side(l2, q) < 0:
            kept.append(meet(l1, l2))
    line = first.lines[0] if len(first.vertices) == 2 else second.lines[0]
    return canonical(Region(kept, [line] * len(kept), [frozenset()] * len(kept)))


def clip_convex(subject: Sequence[Point2], clip: ConvexPolygon) -> list[Point2]:
    """``clip_region`` on ``Point2`` vertices: a convex CCW subject clipped
    by a full convex polygon, exact; a segment runs from its least point."""
    if clip.is_degenerate:
        raise GeometryError("cannot clip by a degenerate polygon")
    none = frozenset()
    region = region_of(subject, [none] * len(subject))
    region = canonical(clip_region(region, region_of(clip.vertices, ()).lines, none))
    points = [to_point(v) for v in region.vertices]
    return sorted(points) if len(points) == 2 else points


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
