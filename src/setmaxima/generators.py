"""Seeded instance generators: abstract set systems, convex-polygon
instances, axis-rectangle instances, key permutations, and
``gen_instance``, which makes one keyed instance of any kind from a seed.

Every generator takes an explicit seed and is deterministic; there is no
wall-clock entropy anywhere.  Geometric generators resample polygons that
would break downstream assumptions: empty or duplicate induced sets, and
nested polygons (nesting makes side-count-bounded covers impossible, so we
keep generated instances in general position).
"""

from __future__ import annotations

import math
import random

import numpy as np

from .geometry import COORD_BOUND, ConvexPolygon, Point2, contains_polygon, strict_hull
from .geomlattice import GeometricInstance, induced_system
from .instance_io import ProblemInstance
from .order import KeySpace
from .setsystem import SetSystem

KINDS = ("abstract", "convex", "rect")


class GenerationError(Exception):
    """The requested instance could not be produced within bounded retries."""


def gen_keys(n: int, seed: int) -> KeySpace:
    """A seeded random permutation of 1..n as keys."""
    rng = random.Random(seed)
    keys = list(range(1, n + 1))
    rng.shuffle(keys)
    return KeySpace(keys)


def _check_sizes(n: int, m: int) -> None:
    """Every generator makes at least one element and one set."""
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")


def gen_random_system(n: int, m: int, density: float, seed: int) -> SetSystem:
    """m distinct non-empty random subsets of [0..n); each element joins a
    set with probability ``density``."""
    if not 0 < density <= 1:
        raise ValueError(f"density must be in (0, 1], got {density}")
    _check_sizes(n, m)
    if m > (1 << n) - 1:
        raise GenerationError(f"cannot build {m} distinct non-empty subsets of {n} elements")
    rng = random.Random(seed)
    sets: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set()
    for _ in range(m):
        for _attempt in range(200):
            s = frozenset(e for e in range(n) if rng.random() < density)
            if s and s not in seen:
                seen.add(s)
                sets.append(s)
                break
        else:
            raise GenerationError(
                f"no fresh non-empty subset after 200 tries (n={n}, m={m}, density={density})"
            )
    return SetSystem(n=n, sets=tuple(sets))


def sample_convex_polygon(
    rng: random.Random, k: int, center: tuple[int, int], radius: int
) -> ConvexPolygon | None:
    """A random strictly convex polygon with at most k sides: sample 3k
    points in a disc, hull them, subsample evenly if the hull is too big."""
    cands = []
    for _ in range(3 * k):
        ang = rng.uniform(0.0, 2 * math.pi)
        rad = radius * math.sqrt(rng.random())
        x = min(COORD_BOUND, max(0, center[0] + round(rad * math.cos(ang))))
        y = min(COORD_BOUND, max(0, center[1] + round(rad * math.sin(ang))))
        cands.append(Point2(x, y))
    hull = strict_hull(cands)
    if len(hull) < 3:
        return None
    if len(hull) > k:
        step = len(hull) / k
        hull = [hull[int(i * step)] for i in range(k)]
    return ConvexPolygon(tuple(hull))


def _default_radius(m: int) -> int:
    # aim for total polygon area about 1.5x the box, so points overlap a
    # couple of polygons on average regardless of m
    frac = min(0.45, math.sqrt(1.5 / (0.7 * math.pi * m)))
    return max(8, int(frac * COORD_BOUND))


class _NestGrid:
    """Coarse grid over polygon centers for pairwise nesting checks."""

    def __init__(self, cell: int):
        self.cell = max(1, cell)
        self.cells: dict[tuple[int, int], list[ConvexPolygon]] = {}

    def _key(self, poly: ConvexPolygon) -> tuple[int, int]:
        xmin, ymin, xmax, ymax = poly.bbox()
        return (int(xmin + xmax) // (2 * self.cell), int(ymin + ymax) // (2 * self.cell))

    def nests_with_any(self, poly: ConvexPolygon) -> bool:
        cx, cy = self._key(poly)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for other in self.cells.get((cx + dx, cy + dy), ()):
                    if contains_polygon(other, poly) or contains_polygon(poly, other):
                        return True
        return False

    def add(self, poly: ConvexPolygon) -> None:
        self.cells.setdefault(self._key(poly), []).append(poly)


class _PointIndex:
    """Points sorted by x, for the members of one polygon at a time: the
    placement loop's check of each candidate it draws."""

    def __init__(self, points: tuple[Point2, ...]):
        arr = np.asarray([[int(p[0]), int(p[1])] for p in points], dtype=np.int64)
        arr = arr.reshape(len(points), 2)
        self.coords = arr
        self.order = np.argsort(arr[:, 0], kind="stable") if len(points) else np.empty(0, np.int64)
        self.xs = arr[self.order, 0] if len(points) else np.empty(0, np.int64)

    def members(self, poly: ConvexPolygon) -> frozenset[int]:
        if len(self.coords) == 0:
            return frozenset()
        xmin, ymin, xmax, ymax = poly.bbox()
        lo = int(np.searchsorted(self.xs, xmin, side="left"))
        hi = int(np.searchsorted(self.xs, xmax, side="right"))
        cand = self.order[lo:hi]
        ys = self.coords[cand, 1]
        cand = cand[(ys >= ymin) & (ys <= ymax)]
        if cand.size == 0:
            return frozenset()
        px = self.coords[cand, 0]
        py = self.coords[cand, 1]
        keep = np.ones(cand.size, dtype=bool)
        for a, b in poly.edges():
            cross = (b[0] - a[0]) * (py - a[1]) - (b[1] - a[1]) * (px - a[0])
            keep &= cross >= 0
        return frozenset(int(e) for e in cand[keep])


def _place(n: int, m: int, k: int, seed: int, cell: int, draw, release) -> GeometricInstance:
    """The one placement loop: n seeded points, then m polygons, each
    ``draw(rng)`` redrawn up to 400 times until it is not None, holds a
    point, induces a set no placed polygon induces and nests with none of
    them (on a ``_NestGrid`` of ``cell``); ``release(poly)`` hears of every
    polygon the loop rejects.  The centers of two nested polygons must lie at
    most ``cell`` apart in each axis."""
    rng = random.Random(seed)
    points = tuple(
        Point2(rng.randrange(COORD_BOUND + 1), rng.randrange(COORD_BOUND + 1))
        for _ in range(n)
    )
    index = _PointIndex(points)
    grid = _NestGrid(cell)
    polygons: list[ConvexPolygon] = []
    memberships: set[frozenset[int]] = set()
    for _slot in range(m):
        for _attempt in range(400):
            poly = draw(rng)
            if poly is None:
                continue
            members = index.members(poly)
            if members and members not in memberships and not grid.nests_with_any(poly):
                break
            release(poly)
        else:
            raise GenerationError(
                f"could not place polygon {len(polygons) + 1} of {m} (n={n}, k={k}, seed={seed})"
            )
        polygons.append(poly)
        memberships.add(members)
        grid.add(poly)
    return GeometricInstance(points=points, polygons=tuple(polygons), k=k)


def gen_convex_instance(n: int, m: int, k: int, seed: int) -> GeometricInstance:
    """n random points and m random convex polygons of at most k sides.

    The induced set system is guaranteed valid (every polygon holds a
    point, no two polygons induce the same set) and polygon pairs are
    never nested.
    """
    _check_sizes(n, m)
    if k < 3:
        raise ValueError(f"k must be at least 3, got {k}")
    radius = _default_radius(m)

    def draw(rng: random.Random) -> ConvexPolygon | None:
        center = (
            rng.randrange(radius, COORD_BOUND - radius + 1),
            rng.randrange(radius, COORD_BOUND - radius + 1),
        )
        return sample_convex_polygon(rng, k, center, radius)

    return _place(n, m, k, seed, 2 * radius, draw, lambda poly: None)


def gen_rect_instance(n: int, m: int, seed: int) -> GeometricInstance:
    """Axis-aligned rectangles (k=4) in generic position: all edge
    coordinates are globally distinct, so no two rectangle boundaries share
    collinear segments, and no rectangle nests inside another."""
    _check_sizes(n, m)
    span_lo, span_hi = COORD_BOUND // 12, COORD_BOUND // 3
    used: set[int] = set()

    def fresh(rng: random.Random, lo: int, hi: int) -> int:
        for _ in range(200):
            v = rng.randrange(lo, hi)
            if v not in used:
                used.add(v)
                return v
        raise GenerationError("coordinate pool exhausted")

    def draw(rng: random.Random) -> ConvexPolygon:
        w = rng.randrange(span_lo, span_hi)
        h = rng.randrange(span_lo, span_hi)
        x1 = fresh(rng, 0, COORD_BOUND - w)
        y1 = fresh(rng, 0, COORD_BOUND - h)
        x2 = fresh(rng, x1 + max(1, w // 2), x1 + w + 1)
        y2 = fresh(rng, y1 + max(1, h // 2), y1 + h + 1)
        return ConvexPolygon((Point2(x1, y1), Point2(x2, y1), Point2(x2, y2), Point2(x1, y2)))

    def release(rect: ConvexPolygon) -> None:
        used.difference_update(c for v in rect.vertices for c in v)

    # rectangles are narrower than span_hi: nested centers lie < span_hi / 2 apart
    return _place(n, m, 4, seed, span_hi // 2, draw, release)


def gen_instance(kind: str, n: int, m: int, k: int, density: float, seed: int) -> ProblemInstance:
    """One seeded instance of ``kind`` (see ``KINDS``), keyed by the
    permutation of seed + 1.  ``density`` serves the abstract kind and
    ``k`` the convex kind; rectangles always have k = 4."""
    if kind == "abstract":
        system, geometry = gen_random_system(n, m, density, seed), None
    elif kind == "convex":
        geometry = gen_convex_instance(n, m, k, seed)
    elif kind == "rect":
        geometry = gen_rect_instance(n, m, seed)
    else:
        raise ValueError(f"unknown instance kind {kind!r}")
    if geometry is not None:
        system = induced_system(geometry)
    return ProblemInstance(system=system, keys=gen_keys(n, seed + 1), geometry=geometry)
