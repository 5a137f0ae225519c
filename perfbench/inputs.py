"""Seeded benchmark inputs, made without the program's own generators.

A workload's points, polygons, abstract sets and key permutations come from
this file alone, so a change to ``setmaxima.generators`` cannot change what
the benchmark measures.  The same (workload, seed) pair always gives the
same inputs.  Containment is decided here by an exact integer test that
shares no code with the program; the oracle in ``checks.py`` reuses it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

COORD_BOUND = 1 << 20  # the instance format's coordinate limit


@dataclass(frozen=True)
class Spec:
    """Shape of one workload: instance size and batch sizes."""

    kind: str  # "convex" or "abstract"
    n: int
    m: int
    k: int = 0  # max polygon sides (convex only)
    density: float = 0.0  # membership probability (abstract only)
    lattice_batch: int = 1  # key assignments per lattice solve batch
    baseline_batch: int = 1  # key assignments per sort + bucket batch


@dataclass
class Workload:
    """One generated instance plus its key batches."""

    spec: Spec
    sets: list[np.ndarray]  # sorted member indices per set, set order = label order
    points: np.ndarray | None  # (n, 2) int64, convex only
    polygons: list[np.ndarray] | None  # CCW strictly convex (s, 2) int64, convex only
    lattice_keys: list[np.ndarray]  # permutations of 1..n
    baseline_keys: list[np.ndarray]

    def to_doc(self) -> dict:
        """The instance in the program's JSON format (keys: first lattice assignment)."""
        doc: dict = {
            "n": self.spec.n,
            "sets": [s.tolist() for s in self.sets],
            "keys": self.lattice_keys[0].tolist(),
        }
        if self.points is not None:
            doc["geometry"] = {
                "points": self.points.tolist(),
                "polygons": [p.tolist() for p in self.polygons],
                "k": self.spec.k,
            }
        return doc

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.to_doc()) + "\n")


def make_workload(spec: Spec, seed: int, stream: int) -> Workload:
    """Generate the workload's instance and key batches from ``seed``.

    ``stream`` separates workloads that share a seed.
    """
    rng = np.random.default_rng([seed, stream])
    if spec.kind == "convex":
        points, polygons, sets = convex_instance(rng, spec.n, spec.m, spec.k)
    elif spec.kind == "abstract":
        points, polygons = None, None
        sets = abstract_sets(rng, spec.n, spec.m, spec.density)
    else:
        raise ValueError(f"unknown workload kind {spec.kind!r}")
    lattice_keys = [rng.permutation(spec.n) + 1 for _ in range(spec.lattice_batch)]
    baseline_keys = [rng.permutation(spec.n) + 1 for _ in range(spec.baseline_batch)]
    return Workload(spec, sets, points, polygons, lattice_keys, baseline_keys)


def abstract_sets(rng: np.random.Generator, n: int, m: int, density: float) -> list[np.ndarray]:
    """m distinct non-empty subsets of [0, n); each element joins w.p. density."""
    sets: list[np.ndarray] = []
    seen: set[bytes] = set()
    while len(sets) < m:
        members = np.flatnonzero(rng.random(n) < density)
        key = members.tobytes()
        if members.size and key not in seen:
            seen.add(key)
            sets.append(members)
    return sets


def cross(ax, ay, bx, by, px, py):
    """(b - a) x (p - a); exact for int64 inputs bounded by COORD_BOUND."""
    return (bx - ax) * (py - ay) - (by - ay) * (px - ax)


def hull(pts: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Strictly convex CCW hull (monotone chain, collinear points dropped)."""
    pts = sorted(set(pts))
    if len(pts) < 3:
        return []

    def half(seq):
        out: list[tuple[int, int]] = []
        for p in seq:
            while len(out) >= 2 and cross(*out[-2], *out[-1], *p) <= 0:
                out.pop()
            out.append(p)
        return out

    h = half(pts)[:-1] + half(pts[::-1])[:-1]
    return h if len(h) >= 3 else []


def members_of(polygon: np.ndarray, points: np.ndarray, order: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Sorted indices of points inside or on the CCW polygon (exact)."""
    lo = np.searchsorted(xs, polygon[:, 0].min(), side="left")
    hi = np.searchsorted(xs, polygon[:, 0].max(), side="right")
    cand = order[lo:hi]
    px, py = points[cand, 0], points[cand, 1]
    keep = (py >= polygon[:, 1].min()) & (py <= polygon[:, 1].max())
    s = len(polygon)
    for i in range(s):
        (ax, ay), (bx, by) = polygon[i], polygon[(i + 1) % s]
        keep &= cross(ax, ay, bx, by, px, py) >= 0
    return np.sort(cand[keep])


def _inside(outer: np.ndarray, inner: np.ndarray) -> bool:
    """Whether every vertex of inner lies inside or on outer."""
    s = len(outer)
    for i in range(s):
        (ax, ay), (bx, by) = outer[i], outer[(i + 1) % s]
        if (cross(ax, ay, bx, by, inner[:, 0], inner[:, 1]) < 0).any():
            return False
    return True


def convex_instance(rng: np.random.Generator, n: int, m: int, k: int):
    """n distinct random points and m convex polygons of at most k sides.

    Polygons that would induce an empty or an already used set, or that
    nest with an earlier polygon, are resampled, so the instance stays in
    the general position the k-bounded covers assume.
    """
    box = COORD_BOUND
    flat = np.unique(rng.integers(0, (box + 1) ** 2, size=n + n // 8))
    if flat.size < n:
        raise RuntimeError("point sample collided too often")
    flat = rng.permutation(flat)[:n]
    points = np.stack([flat // (box + 1), flat % (box + 1)], axis=1).astype(np.int64)
    order = np.argsort(points[:, 0], kind="stable")
    xs = points[order, 0]
    # total polygon area about 1.5 boxes, so points sit in a few polygons each
    radius = max(8, int(min(0.45, math.sqrt(1.5 / (0.7 * math.pi * m))) * box))
    cell = 2 * radius  # polygons lie in discs of this diameter: farther centers cannot nest
    grid: dict[tuple[int, int], list[np.ndarray]] = {}
    polygons: list[np.ndarray] = []
    sets: list[np.ndarray] = []
    seen: set[bytes] = set()
    attempts = 0
    while len(polygons) < m:
        attempts += 1
        if attempts > 400 * m:
            raise RuntimeError(f"could not place {m} polygons")
        cx, cy = (int(v) for v in rng.integers(radius, box - radius + 1, size=2))
        ang = rng.uniform(0.0, 2 * math.pi, size=3 * k)
        rad = radius * np.sqrt(rng.random(3 * k))
        vx = np.clip(np.rint(cx + rad * np.cos(ang)), 0, box).astype(int)
        vy = np.clip(np.rint(cy + rad * np.sin(ang)), 0, box).astype(int)
        h = hull(list(zip(vx.tolist(), vy.tolist())))
        if not h:
            continue
        if len(h) > k:
            step = len(h) / k
            h = [h[int(i * step)] for i in range(k)]
        poly = np.asarray(h, dtype=np.int64)
        members = members_of(poly, points, order, xs)
        key = members.tobytes()
        if not members.size or key in seen:
            continue
        gx, gy = cx // cell, cy // cell
        near = [
            other
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
            for other in grid.get((gx + dx, gy + dy), ())
        ]
        if any(_inside(other, poly) or _inside(poly, other) for other in near):
            continue
        grid.setdefault((gx, gy), []).append(poly)
        polygons.append(poly)
        sets.append(members)
        seen.add(key)
    return points, polygons, sets
