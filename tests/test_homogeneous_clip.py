"""The homogeneous clip kernel against the ``Fraction`` clip loop it replaced.

``reference_clip`` is that loop: Sutherland-Hodgman on ``Point2``
vertices, each new vertex a ``Fraction`` line intersection, with repeats,
straight angles and the rotation settled by exact ``orientation``.
``ReferenceRegions`` memoizes it along label prefixes as ``RegionCache``
did.  Both stay here as the oracle of ``RegionCache`` and of the clip
kernel on subjects the build never makes.
"""

import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from corpora import mixed_circle_embeddings, tangency_heavy_instances

from setmaxima import geomlattice
from setmaxima.generators import gen_convex_instance
from setmaxima.geometry import (
    COORD_BOUND,
    OUTSIDE,
    ConvexPolygon,
    GeometryError,
    Point2,
    canonical,
    clip_convex,
    clip_region,
    homogeneous,
    join,
    meet,
    orientation,
    point_in_convex,
    region_of,
    strict_hull,
    to_point,
)
from setmaxima.geomlattice import GeometricInstance, RegionCache, build_geometric_lattice
from setmaxima.instance_io import ProblemInstance, instance_from_dict, instance_to_dict


def reference_line_intersection(a, b, c, d):
    r = (b[0] - a[0], b[1] - a[1])
    s = (d[0] - c[0], d[1] - c[1])
    denom = r[0] * s[1] - r[1] * s[0]
    if denom == 0:
        raise GeometryError("line_intersection on parallel lines")
    t = Fraction((c[0] - a[0]) * s[1] - (c[1] - a[1]) * s[0], denom)
    return Point2(a[0] + t * r[0], a[1] + t * r[1])


def _dedup_cyclic(verts, owners):
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


def _drop_collinear(verts, owners):
    changed = True
    while changed and len(verts) >= 3:
        changed = False
        for i in range(len(verts)):
            if orientation(verts[i - 1], verts[i], verts[(i + 1) % len(verts)]) == 0:
                owners[i - 1] = owners[i - 1] | owners[i]
                del verts[i]
                del owners[i]
                changed = True
                break


def reference_clip(subject, owners, clip, clip_owner):
    """The clip of a ``Point2`` subject by ``clip`` as it was, on
    ``Fraction`` vertices: the points and the owners of each edge, a full
    region rotated as ``ConvexPolygon`` stores it and a segment from its
    least to its greatest point."""
    verts = list(subject)
    owns = list(owners)
    for a, b in clip.edges():
        if not verts:
            break
        sides = [orientation(a, b, p) for p in verts]
        out, out_owners = [], []
        last = len(verts) - 1
        for i, p in enumerate(verts):
            j = i + 1 if i < last else 0
            sp, sq, own = sides[i], sides[j], owns[i]
            if sp >= 0:
                out.append(p)
                if sq >= 0:
                    out_owners.append(own | clip_owner if sp == sq == 0 else own)
                elif sp > 0:
                    out_owners.append(own)
                    out.append(reference_line_intersection(a, b, p, verts[j]))
                    out_owners.append(clip_owner)
                else:
                    out_owners.append(clip_owner)
            elif sq > 0:
                out.append(reference_line_intersection(a, b, p, verts[j]))
                out_owners.append(own)
        verts, owns = out, out_owners
    _dedup_cyclic(verts, owns)
    if len(verts) <= 1:
        return verts, [frozenset()] * len(verts)
    if all(orientation(verts[0], verts[1], p) == 0 for p in verts):
        line_owners = frozenset().union(*owns)
        return [min(verts), max(verts)], [line_owners, line_owners]
    _drop_collinear(verts, owns)
    start = min(range(len(verts)), key=lambda i: (verts[i][1], verts[i][0]))
    return verts[start:] + verts[:start], owns[start:] + owns[:start]


class ReferenceRegions:
    """Label-prefix memo over ``reference_clip``: for each label its
    vertices and its edge owners (empty for a point or segment)."""

    def __init__(self, instance):
        self.polygons = instance.polygons
        self.memo = {}

    def region(self, label):
        key = tuple(sorted(label))
        if key not in self.memo:
            if len(key) == 1:
                poly = self.polygons[key[0] - 1]
                own = () if poly.is_degenerate else (frozenset(key),) * poly.sides
                self.memo[key] = (poly.vertices, own)
            else:
                self.memo[key] = self._clip(self.region(key[:-1]), key[-1])
        return self.memo[key]

    def _clip(self, entry, index):
        verts, owners = entry
        if not verts:
            return entry
        clip = self.polygons[index - 1]
        if len(verts) < 3:
            subject = ConvexPolygon(verts)
            if clip.is_degenerate:
                return self._meet_degenerate(subject, clip)
            owners = (frozenset(),) * len(verts)
        elif clip.is_degenerate:
            # clip the degenerate polygon by the region instead
            verts, clip = clip.vertices, ConvexPolygon(verts)
            owners = (frozenset(),) * len(verts)
        verts, owners = reference_clip(verts, owners, clip, frozenset({index}))
        if len(verts) < 3:
            return (ConvexPolygon(tuple(verts)).vertices if verts else ()), ()
        return tuple(verts), tuple(owners)

    @staticmethod
    def _meet_degenerate(p, q):
        kept = {v for v in p.vertices if point_in_convex(q, v) != OUTSIDE}
        kept.update(v for v in q.vertices if point_in_convex(p, v) != OUTSIDE)
        if not kept and len(p.vertices) == len(q.vertices) == 2:
            (a, b), (c, d) = p.vertices, q.vertices
            if orientation(a, b, c) * orientation(a, b, d) < 0 and (
                orientation(c, d, a) * orientation(c, d, b) < 0
            ):
                kept.add(reference_line_intersection(a, b, c, d))
        return (ConvexPolygon(tuple(kept)).vertices if kept else ()), ()


def _assert_cache_matches_reference(instance, cache, labels):
    """Every region of ``labels`` (vertex order included) and every full
    region's owners agree with the reference; returns the number of full
    and of degenerate non-empty regions compared."""
    reference = ReferenceRegions(instance)
    full = degenerate = 0
    for label in labels:
        verts, owners = reference.region(label)
        if len(verts) >= 3:
            assert tuple(to_point(v) for v in cache.entry(label).vertices) == verts, label
            assert cache.owners(label) == owners, label
            full += 1
        else:
            # a point or segment compares in ConvexPolygon's vertex order
            polygon = cache.region(label)
            assert (polygon.vertices if polygon else ()) == verts, label
            assert cache.owners(label) is None
            degenerate += bool(verts)
    return full, degenerate


def _all_labels(m):
    return [frozenset(c) for size in range(1, m + 1) for c in combinations(range(1, m + 1), size)]


def test_regions_match_reference_on_acceptance_geometric_seeds(geometric_corpus):
    full = 0
    for case in geometric_corpus:
        glat = case.glat
        full += _assert_cache_matches_reference(case.instance, glat.regions, glat.lattice.nodes)[0]
    assert full > 10_000


def test_regions_match_reference_on_tangency_heavy_instances():
    degenerate = 0
    for inst, _trial in tangency_heavy_instances(120):
        labels = _all_labels(inst.m)
        degenerate += _assert_cache_matches_reference(inst, RegionCache(inst), labels)[1]
    assert degenerate > 0


def test_regions_match_reference_on_mixed_circle_embeddings():
    degenerate = 0
    for inst in mixed_circle_embeddings(150, 23):
        labels = _all_labels(inst.m)
        degenerate += _assert_cache_matches_reference(inst, RegionCache(inst), labels)[1]
    assert degenerate > 500


@pytest.mark.parametrize("k", [4, 8])
def test_regions_match_reference_on_random_convex(k):
    for seed in range(4):
        inst = gen_convex_instance(n=600, m=60, k=k, seed=seed + 1300)
        glat = build_geometric_lattice(inst)
        assert _assert_cache_matches_reference(inst, glat.regions, glat.lattice.nodes)[0] > 0


def _box_polygons(rng, m):
    """Convex polygons whose vertices sit near the corners and sides of the
    full coordinate box, so every region vertex is as large as it gets."""
    def edge():
        return rng.choice((-1, 1)) * rng.randint(COORD_BOUND - 64, COORD_BOUND)

    def anywhere():
        return rng.randint(-COORD_BOUND, COORD_BOUND)

    polygons = []
    while len(polygons) < m:
        pts = [Point2(edge(), anywhere()) for _ in range(3)]
        pts += [Point2(anywhere(), edge()) for _ in range(3)]
        hull = strict_hull(pts)
        if len(hull) >= 3:
            polygons.append(ConvexPolygon(tuple(hull)))
    return tuple(polygons)


def test_regions_match_reference_at_the_coordinate_bound():
    rng = random.Random(31)
    largest = [0, 0]
    for _ in range(40):
        inst = GeometricInstance(points=(), polygons=_box_polygons(rng, 5), k=6)
        cache, labels = RegionCache(inst), _all_labels(inst.m)
        assert _assert_cache_matches_reference(inst, cache, labels)[0] > 0
        for label in labels:
            for x, y, w in cache.entry(label).vertices:
                largest[0] = max(largest[0], abs(x), abs(y))
                largest[1] = max(largest[1], w)
    # the bounds the homogeneous form documents, nearly reached
    assert 1 << 60 < largest[0] <= 1 << 63
    assert 1 << 40 < largest[1] <= 1 << 43


# ------------------------------------------------- Point2 subjects and lines


def _random_hull(rng, span):
    while True:
        hull = strict_hull(
            Point2(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(6)
        )
        if hull:
            return hull


def test_clip_with_owners_matches_reference_on_grid_and_rational_subjects():
    rng = random.Random(5)
    for trial in range(800):
        subject = _random_hull(rng, 6)
        if trial % 2:
            # rational vertices, and a repeated and a straight-angle vertex
            scale = Fraction(1, rng.randint(2, 7))
            subject = [Point2(x * scale, y * scale) for x, y in subject]
            subject.insert(1, subject[1])
            mid = Point2((subject[2].x + subject[3].x) / 2, (subject[2].y + subject[3].y) / 2)
            subject.insert(3, mid)
        clip = ConvexPolygon(tuple(_random_hull(rng, 4)))
        owners = [frozenset({i}) for i in range(len(subject))]
        clip_lines = region_of(clip.vertices, ()).lines
        region = canonical(clip_region(region_of(subject, owners), clip_lines, frozenset({99})))
        want_points, want_owners = reference_clip(subject, owners, clip, frozenset({99}))
        assert clip_convex(subject, clip) == want_points
        assert list(region.owners) == want_owners


def test_line_intersection_matches_reference():
    rng = random.Random(8)
    for _ in range(500):
        pts = [
            Point2(Fraction(rng.randint(-50, 50), rng.randint(1, 4)), rng.randint(-50, 50))
            for _ in range(4)
        ]
        a, b, c, d = map(homogeneous, pts)
        got = meet(join(a, b), join(c, d))
        try:
            want = reference_line_intersection(*pts)
        except GeometryError:
            assert got is None
            continue
        assert to_point(got) == want


# ----------------------------------------------------------------- the guard


def test_general_position_build_makes_no_fraction_vertex(monkeypatch):
    # loading checks each input polygon once, all in one edge_table call,
    # and makes no polygon object; the build makes none either and turns
    # no region into Point2 form
    inst = gen_convex_instance(n=600, m=60, k=4, seed=17)
    doc = instance_to_dict(ProblemInstance(system=geomlattice.induced_system(inst), geometry=inst))
    counts = Counter()

    def counted(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    table = geomlattice.edge_table

    def tabled(coords, sizes):
        counts["tabled"] += len(sizes)
        return table(coords, sizes)

    checked = counted("checked", ConvexPolygon.__post_init__)
    trusted = counted("trusted", ConvexPolygon.trusted.__func__)
    monkeypatch.setattr(ConvexPolygon, "__post_init__", checked)
    monkeypatch.setattr(ConvexPolygon, "trusted", classmethod(trusted))
    monkeypatch.setattr(geomlattice, "edge_table", tabled)
    # every binding of the Point2 conversions, wherever a module imported them
    for module in [m for name, m in sys.modules.items() if name.startswith("setmaxima")]:
        for name in ("to_point", "_ratio"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    geometry = instance_from_dict(doc).geometry
    # each polygon checked once, by the table
    assert counts == {"tabled": inst.m}
    glat = build_geometric_lattice(geometry)
    assert glat.fallback_labels == () and len(glat.covers) > 0
    assert counts == {"tabled": inst.m}
    # the counters see a conversion when one happens
    glat.regions.region(next(iter(glat.covers)))
    assert counts["to_point"] > 0 and counts["trusted"] == 1
