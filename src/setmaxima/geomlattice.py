"""Convex-polygon set systems: containment-induced systems, per-node
intersection regions, side-count-bounded covers, and the circle embedding.

Containment is one numpy pass over a uniform grid for all polygons at
once (``grid_membership``), computed once per instance from its
``geometry.EdgeTable``, the polygons' int64 vertices and edge lines.

Every region Q_I is a Sutherland-Hodgman clip along the sorted prefix of
I.  The build clips its cover queue a round at a time, each prefix depth
of a round in one ``geometry.ClipKernel`` call on arrays of the table's
line ids; the scalar clip on homogeneous integers (``geometry.clip_region``)
makes the regions the kernel leaves, such as those with a point or
segment polygon (as the circle embedding makes them; only two degenerate
polygons meet by a separate short rule) or a side the kernel's float
filter cannot decide.  Both record which polygons own each region edge
(carry it on their boundary) and give equal ``Region`` values.  The build
reads regions in that form and never makes a ``ConvexPolygon`` or a
``Fraction`` from one.

The cover construction works edge by edge on a node's region Q: an edge
owned by polygons outside an index subset witnesses a strictly larger
region whose label is that subset.  Any hitting set of at most k edges
(k = max polygon side count) yields a cover of size <= k; pairs whose
joint region exceeds Q get merged, which the owners decide: the union of
a pair exceeds Q exactly when it fits inside one witness set.  Labels
that are not lattice nodes are inserted as virtual nodes (empty class)
and covered recursively.  Witness sets, merges and chains are set
operations on owners; the exact segment predicates stay as their oracle.
The chain check reads the cover pass's own witness sets: a member has a
chain on an edge exactly when it fits that edge's witness set.  Each edge
of a kernel region has one owner, so most covers are read off those
owners as arrays, a round at a time (``_owner_covers``), and only the
rest go through ``geometric_cover``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, groupby

import numpy as np

from .arrays import spread
from .geometry import (
    COORD_BOUND,
    Chain,
    ClipKernel,
    ConvexPolygon,
    EdgeTable,
    GeometryError,
    Owners,
    Point2,
    Region,
    chains,
    clip_region,
    edge_table,
    meet_degenerate,
    orientation,
    same_region,
)
from .lattice import (
    Label,
    Lattice,
    build_lattice,
    compute_parents,
    format_label,
    good_cover_greedy,
    label_sort_key,
)
from .order import ComparisonLedger, KeySpace
from .setsystem import SetSystem
from .solvers import MaximaResult, solve_lattice


class InternalInconsistencyError(Exception):
    """Exact-arithmetic invariant broke; indicates a predicate bug."""


@dataclass(frozen=True)
class GeometricInstance:
    """Points (one per element) and convex polygons (one per set).

    Checked once, when it is made: k below 3, a polygon of more than k
    sides, a coordinate beyond ``COORD_BOUND`` or one that is not an
    ``int`` (membership reads int64 arrays) raise ``ValueError``.  The
    checked polygons' int64 form, which membership and the clip kernel
    read, is then made once, as ``edges``.
    """

    points: tuple[Point2, ...]
    polygons: tuple[ConvexPolygon, ...]
    k: int
    edges: EdgeTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        violations = []
        if self.k < 3:
            violations.append(f"k={self.k} must be at least 3")
        vertices = [poly.vertices for poly in self.polygons]
        sizes = list(map(len, vertices))
        corners = list(chain.from_iterable(chain.from_iterable(vertices)))
        coords = [*chain.from_iterable(self.points), *corners]
        # checked in bulk; the loops below only name the violations
        if max(map(abs, coords), default=0) > COORD_BOUND or max(sizes, default=0) > self.k:
            for idx, p in enumerate(self.points):
                if abs(p[0]) > COORD_BOUND or abs(p[1]) > COORD_BOUND:
                    violations.append(f"point {idx} exceeds the coordinate bound")
            for j, poly in enumerate(self.polygons, start=1):
                if poly.sides > self.k:
                    violations.append(f"polygon {j} has {poly.sides} > k sides")
                for v in poly.vertices:
                    if abs(v[0]) > COORD_BOUND or abs(v[1]) > COORD_BOUND:
                        violations.append(f"polygon {j} exceeds the coordinate bound")
                        break
        if not set(map(type, coords)) <= {int}:
            violations.append("a coordinate is not an int")
        if violations:
            raise ValueError("invalid geometry: " + "; ".join(violations))
        object.__setattr__(self, "edges", edge_table(corners, sizes))

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def m(self) -> int:
        return len(self.polygons)

    @cached_property
    def membership(self) -> tuple[frozenset[int], ...]:
        """Per-polygon member sets, computed once per instance: element i
        belongs to polygon j when it lies in the interior or on the
        perimeter.  Exact (int64 stays in range because coordinates are
        bounded)."""
        return grid_membership(self.points, self.edges)

    @cached_property
    def system(self) -> SetSystem:
        """The set system the polygons induce, made once per instance;
        ``ValueError`` if a polygon holds no point or two hold the same."""
        return SetSystem(n=self.n, sets=self.membership)


# (polygon, point) candidates tested at once by the membership kernel,
# which bounds its per-candidate temporaries; larger blocks save a few ms
# on 2,000 polygons but raise the kernel's peak memory
_BLOCK = 4096


def grid_membership(points: tuple[Point2, ...], table: EdgeTable) -> tuple[frozenset[int], ...]:
    """The points of each polygon of ``table``, interior or perimeter,
    found for every polygon in one pass over a uniform grid (W. R.
    Franklin, "Uniform grids: a technique for intersection detection on
    serial and parallel machines", Auto-Carto 9, 1989).

    The cells are squares of half the polygons' mean bbox side, and the
    points are bucketed by cell.  A polygon's candidates are the points of
    the cells its bbox meets, one run of the bucketed points per cell row,
    kept when inside its bbox; all k edge tests then run over every
    candidate at once, in blocks of whole polygons with about ``_BLOCK``
    candidates each, whose member sets are made before the next block.
    Edge test t of a polygon of s vertices reads its line min(t, s - 1),
    so one of fewer than k vertices tests its closing edge again, and
    points and segments need no case of their own.  Exact for points
    within ``COORD_BOUND``, as the table's polygons are.
    """
    n, m = len(points), len(table.first) - 1
    if not n or not m:
        return (frozenset(),) * m
    xy = np.fromiter(chain.from_iterable(points), np.int64, 2 * n).reshape(n, 2)
    sizes = np.diff(table.first)
    # edge t of polygon j starts at its vertex min(t, size - 1)
    corner = table.first[:-1, None] + np.minimum(np.arange(sizes.max()), sizes[:, None] - 1)
    lines = (table.a[corner].T.copy(), table.b[corner].T.copy(), table.c[corner].T.copy())
    x, y = table.x[corner], table.y[corner]
    low = np.stack((x.min(1), y.min(1)), 1)
    high = np.stack((x.max(1), y.max(1)), 1)
    del corner, x, y

    origin = xy.min(0)
    span = xy.max(0) - origin + 1
    # about as many cells as points at most, however small the polygons
    side = max(int((high - low).mean()) // 2, int(span.max()) // math.isqrt(n) + 1)
    width, height = (int(v) // side + 1 for v in span)
    cell = (xy[:, 1] - origin[1]) // side * width + (xy[:, 0] - origin[0]) // side
    bucketed = np.argsort(cell, kind="stable")
    bounds = np.zeros(width * height + 1, np.int64)
    np.cumsum(np.bincount(cell, minlength=width * height), out=bounds[1:])
    del cell
    # the cells each bbox meets, clipped to the grid
    first = np.maximum((low - origin) // side, 0)
    last = np.minimum((high - origin) // side, (width - 1, height - 1))
    rows = np.where((last >= first).all(1), last[:, 1] - first[:, 1] + 1, 0)
    polygon = np.repeat(np.arange(m), rows)
    row = spread(first[:, 1], rows)
    start = bounds[row * width + first[polygon, 0]]
    count = bounds[row * width + last[polygon, 0] + 1] - start
    del bounds, row, first, last
    # blocks of whole polygons, about _BLOCK candidates each
    row_end = np.cumsum(rows)
    weight = np.cumsum(np.bincount(polygon, count, m)).astype(np.int64)
    cuts = [0, *(np.flatnonzero(np.diff(weight // _BLOCK)) + 1).tolist(), m]

    members = []
    for lo, hi in zip(cuts, cuts[1:]):
        pairs = slice(row_end[lo] - rows[lo], row_end[hi - 1])
        owner = np.repeat(polygon[pairs], count[pairs])
        point = bucketed[spread(start[pairs], count[pairs])]
        x, y = xy[point, 0], xy[point, 1]
        keep = (x >= low[owner, 0]) & (x <= high[owner, 0])
        keep &= (y >= low[owner, 1]) & (y <= high[owner, 1])
        owner, point, x, y = owner[keep], point[keep], x[keep], y[keep]
        for a, b, c in zip(*lines):
            keep = a[owner] * x + b[owner] * y + c[owner] >= 0
            owner, point, x, y = owner[keep], point[keep], x[keep], y[keep]
        ends = np.cumsum(np.bincount(owner - lo, minlength=hi - lo)).tolist()
        point = point.tolist()
        members += [frozenset(point[a:b]) for a, b in zip([0, *ends], ends)]
    return tuple(members)


def induced_membership(instance: GeometricInstance) -> list[frozenset[int]]:
    """``instance.membership`` as a list."""
    return list(instance.membership)


def induced_system(instance: GeometricInstance) -> SetSystem:
    """``instance.system``: every caller gets the one induced system."""
    return instance.system


# past prefix depth _DEEP, a batch of fewer than _BATCH prefixes is left to
# the scalar clip.  A kernel call costs about 210 us for up to 32 prefixes,
# a scalar clip of a quadrilateral about 18 us, so the kernel pays from
# about 12 prefixes; a chain of m nested squares, one prefix a depth,
# builds 1.5 to 1.7 times slower with every depth on the kernel (m = 64 to
# 1,000).  Labels of random convex instances are at most 8 deep (k <= 8,
# n up to 10^5), so below _DEEP every batch is clipped on the kernel and
# all their covers come off the owners.
_DEEP = 16
_BATCH = 12


class RegionCache:
    """Memoized intersection regions Q_I, shared across all cover work.

    Regions are computed by clipping along the sorted label prefix so that
    nested labels share work.  The ``geometry.ClipKernel`` holds every
    region it made: polygon j is its region j - 1, and ``_made`` records
    the id of each prefix of two or more that it clipped.  ``fill``
    computes many at once: one kernel call per prefix depth clips every
    missing prefix of that depth whose own prefix the kernel made.
    ``entry`` clips the rest one ``clip_region`` at a time: a prefix with
    a point or segment polygon, one with a side the kernel's filter cannot
    decide, the prefixes built on those, and a batch too small for the
    kernel to pay past depth ``_DEEP`` (fewer than ``_BATCH`` prefixes).
    A region is handed out as the ``Region`` the scalar clip makes
    (homogeneous vertices, edge lines and edge owners), the empty and
    degenerate ones included; ``_memo`` keeps each one handed out or
    clipped, a kernel region from the first time ``entry`` asks for it.
    ``region()`` converts one to a ``ConvexPolygon`` on request and keeps
    no copy.  The owners of a full region's edge are the indices of the
    label whose polygon carries that edge on its boundary, as the clipping
    tracked them.
    """

    def __init__(self, instance: GeometricInstance):
        self.polygons = instance.polygons
        # one shared owner set per polygon: most region edges have one owner
        self._owner = [frozenset((j,)) for j in range(1, len(self.polygons) + 1)]
        self._full = [not poly.is_degenerate for poly in self.polygons]
        self.kernel = ClipKernel(instance.edges)
        self._memo: dict[tuple[int, ...], Region] = {}
        # the kernel's region id of each prefix of two or more it clipped
        self._made: dict[tuple[int, ...], int] = {}

    def region(self, label: Label) -> ConvexPolygon | None:
        return self.entry(label).polygon()

    def owners(self, label: Label) -> tuple[Owners, ...] | None:
        """Owners of each edge of the region of ``label``; None when the
        region is empty or degenerate (no cover work reads those)."""
        entry = self.entry(label)
        return None if entry.is_degenerate else entry.owners

    def entry(self, label: Label) -> Region:
        """The region of ``label`` as the clip kernel made it (with no
        vertices when empty)."""
        key = tuple(sorted(label))
        entry = self._known(key)
        if entry is not None:
            return entry
        # walk down to the longest known prefix (a polygon is known), then
        # clip forward
        size = len(key) - 1
        while (entry := self._known(key[:size])) is None:
            size -= 1
        for size in range(size, len(key)):
            entry = self._memo[key[: size + 1]] = self._clip(entry, key[size])
        return entry

    def _known(self, key: tuple[int, ...]) -> Region | None:
        entry = self._memo.get(key)
        if entry is None and (region := self._kernel_id(key)) >= 0:
            entry = self.kernel.region(region, self._owner)
            if len(key) == 1 and not self._full[region]:
                # a point or segment polygon's edges carry no owner
                entry = entry._replace(owners=(frozenset(),) * len(entry.owners))
            self._memo[key] = entry
        return entry

    def _clip(self, entry: Region, index: int) -> Region:
        if not entry.vertices:
            return entry
        clip = self._known((index,))
        if clip.is_degenerate:
            if entry.is_degenerate:
                return meet_degenerate(entry, clip)
            # intersecting is symmetric: clip the degenerate polygon instead
            entry, clip = clip, entry
        return clip_region(entry, clip.lines, self._owner[index - 1])

    def _kernel_id(self, key: tuple[int, ...]) -> int:
        """The kernel's region id of a prefix; -1 if it has none."""
        return key[0] - 1 if len(key) == 1 else self._made.get(key, -1)

    def fill(self, labels: list[Label]) -> np.ndarray:
        """Compute the regions of ``labels``; the kernel's region id of
        each, -1 where ``entry`` clipped it.

        Each label whose longest known prefix the kernel made grows from
        it a depth at a time, shortest prefixes first, one kernel call per
        depth for all labels; a label stops at a prefix the kernel drops
        or leaves, and ``entry`` clips the rest of it.  Every prefix
        ``entry`` would have kept for these labels is then known.
        """
        keys = [tuple(sorted(label)) for label in labels]
        memo, made = self._memo, self._made
        # the size of a label's longest known prefix -> (label, its id)
        growing: dict[int, list[tuple[tuple[int, ...], int]]] = {}
        for key in keys:
            # the prefixes of a known prefix are known: walk up, which
            # costs a deep label nothing when little of it is known
            size = 1
            while size < len(key) and (key[: size + 1] in made or key[: size + 1] in memo):
                size += 1
            if size < len(key) and (subject := self._kernel_id(key[:size])) >= 0:
                growing.setdefault(size, []).append((key, subject))
        while growing:
            size = min(growing)
            group = growing.pop(size)
            prefixes = [key[: size + 1] for key, _subject in group]
            batch = {}
            for prefix, (key, subject) in zip(prefixes, group):
                if prefix not in batch and prefix not in made and self._full[key[size] - 1]:
                    batch[prefix] = (subject, key[size] - 1)
            if len(batch) >= _BATCH or (batch and size <= _DEEP):
                subjects, clips = zip(*batch.values())
                ids = self.kernel.clip(np.array(subjects), np.array(clips))
                made.update((prefix, i) for prefix, i in zip(batch, ids.tolist()) if i >= 0)
            for prefix, (key, _subject) in zip(prefixes, group):
                if prefix in made and len(prefix) < len(key):
                    growing.setdefault(size + 1, []).append((key, made[prefix]))
        ids = [self._kernel_id(key) for key in keys]
        for key, region in zip(keys, ids):
            if region < 0 and key not in memo:
                self.entry(key)
        return np.array(ids, np.int64)


@dataclass
class GeometricLattice:
    """Lattice of a geometric instance plus regions and per-node covers."""

    instance: GeometricInstance
    system: SetSystem
    lattice: Lattice
    regions: RegionCache
    covers: dict[Label, tuple[Label, ...]]
    fallback_labels: tuple[Label, ...]

    @property
    def fallback_count(self) -> int:
        return len(self.fallback_labels)


def _choose_hitting_edges(
    label: Label, edge_sets: list[frozenset[int]], k: int
) -> list[int] | None:
    """A set of at most k edges whose witness sets union to the label.

    The first k edges in boundary order normally suffice; when a polygon
    owns too many of the region's edges for that shortcut, fall back to a
    deterministic greedy choice.  None when no k edges can cover.
    """
    usable = [e for e in range(len(edge_sets)) if edge_sets[e]]
    chosen = usable[:k]
    if chosen and frozenset().union(*(edge_sets[e] for e in chosen)) >= label:
        return chosen
    chosen = []
    uncovered = set(label)
    available = list(usable)
    while uncovered and len(chosen) < k:
        best, best_gain = -1, 0
        for e in available:
            gain = len(edge_sets[e] & uncovered)
            if gain > best_gain:
                best, best_gain = e, gain
        if best_gain == 0:
            return None
        chosen.append(best)
        available.remove(best)
        uncovered -= edge_sets[best]
    return sorted(chosen) if not uncovered else None


def geometric_cover(
    label: Label, cache: RegionCache, k: int
) -> tuple[Label, ...] | None:
    """Cover of size <= k for the region of ``label``, or None when the
    construction does not apply (degenerate region, or an index witnessed
    by no edge; callers then fall back to an abstract cover)."""
    region = cache.entry(label)
    if not region.vertices:
        raise InternalInconsistencyError(
            f"no region for populated node {format_label(label)}"
        )
    if region.is_degenerate:
        return None
    # an edge witnesses the indices whose polygons do not carry it
    edge_sets = [label - owners for owners in region.owners]
    chosen = _choose_hitting_edges(label, edge_sets, k)
    if chosen is None:
        return None
    members = sorted({edge_sets[e] for e in chosen}, key=label_sort_key)

    # merge any pair whose joint region still exceeds this node's region,
    # that is whose union misses the owners of some edge of this region
    changed = True
    while changed:
        changed = False
        for ai in range(len(members)):
            for bi in range(ai + 1, len(members)):
                union = members[ai] | members[bi]
                if any(union <= w for w in edge_sets):
                    merged = members[: ai] + members[ai + 1 : bi] + members[bi + 1 :]
                    merged.append(union)
                    members = sorted(set(merged), key=label_sort_key)
                    changed = True
                    break
            if changed:
                break

    for member in members:
        if not member < label:
            raise InternalInconsistencyError(
                f"cover member {format_label(member)} not strictly below "
                f"{format_label(label)}"
            )
        member_region = cache.entry(member)
        if member_region.is_degenerate or same_region(member_region, region):
            raise InternalInconsistencyError(
                f"cover member {format_label(member)} does not strictly "
                f"enclose the region of {format_label(label)}"
            )
    _check_witness_chains(label, members, edge_sets)
    return tuple(members)


def _owner_covers(
    labels: list[Label], cache: RegionCache, k: int
) -> dict[Label, tuple[Label, ...]]:
    """``geometric_cover`` of each label whose region the clip kernel made,
    whose first k edges have two or more owners, and whose cover passes
    the enclosure check on arrays, read off the owners for all of them at
    once.

    Each edge of a kernel region has one owner j, so witnesses label - {j}:
    with two or more owners among the first k edges, those edges' witness
    sets cover the label, and they are the cover.  No two can merge (their
    union is the label), and label - {j} sorts before label - {i} by
    ``label_sort_key`` when j > i, so the members come in descending j.
    The chain check holds by construction: member label - {j} has a chain
    on an edge exactly when j owns it, j was read off an edge it owns,
    and one owner per edge keeps two members off one edge.  The other
    labels are left to ``geometric_cover``, which makes the same cover of
    those the array check flags (nothing merges) and checks it.
    """
    kernel = cache.kernel
    ids = cache.fill(labels)
    made = np.flatnonzero(ids >= 0)
    row, polygon = kernel.first_owners(ids[made], k)
    keep = np.bincount(row, minlength=len(made))[row] >= 2
    row, polygon = made[row[keep]], polygon[keep]
    members = [labels[r] - cache._owner[j] for r, j in zip(row.tolist(), polygon.tolist())]
    member_ids = cache.fill(members)
    # the enclosure check, where the kernel made the member's region too:
    # two kernel regions of labels I < J are the same region exactly when
    # their line cycles are, since an edge of Q_J on a line that two
    # polygons of J share would have put a vertex on the second one's line
    # when it clipped, which the kernel leaves to clip_region
    ours = member_ids >= 0
    passed = np.zeros(len(row), bool)
    passed[ours] = kernel.encloses(member_ids[ours], ids[row[ours]])
    counts = np.bincount(row, minlength=len(labels))
    rows = np.flatnonzero(counts)
    failed = (np.bincount(row, ~passed, len(labels))[rows] > 0).tolist()
    ends = np.cumsum(counts[rows]).tolist()
    return {
        labels[r]: tuple(members[lo:hi])
        for r, lo, hi, fault in zip(rows.tolist(), [0, *ends], ends, failed)
        if not fault
    }


def check_cover_chains(
    label: Label, cover: tuple[Label, ...], cache: RegionCache
) -> dict[Label, list[Chain]]:
    """Chain disjointness of a computed cover: chains of distinct cover
    members over the node's region must not share edges, and every member
    must produce at least one chain.  Raises on violation."""
    region = cache.region(label)
    per_member: dict[Label, list[Chain]] = {}
    for member in cover:
        cs = chains(cache.region(member), region)
        if not cs:
            raise InternalInconsistencyError(
                f"cover member {format_label(member)} of {format_label(label)} "
                "has no chains"
            )
        per_member[member] = cs
    labels = sorted(per_member, key=label_sort_key)
    for ai in range(len(labels)):
        for bi in range(ai + 1, len(labels)):
            ea = frozenset().union(*(c.edge_set() for c in per_member[labels[ai]]))
            eb = frozenset().union(*(c.edge_set() for c in per_member[labels[bi]]))
            if ea & eb:
                raise InternalInconsistencyError(
                    f"chains of {format_label(labels[ai])} and "
                    f"{format_label(labels[bi])} overlap on {format_label(label)}"
                )
    return per_member


def owner_chains(owners: tuple[Owners, ...], member: Label) -> list[Chain]:
    """Chains of a region inside the region of ``member``, from the
    region's edge owners; ``member`` must be a subset of the region's label.

    An edge lies on the boundary of Q_member exactly when a polygon of
    ``member`` owns it, so a chain is a maximal cyclic run of edges whose
    owners miss ``member``; this is ``chains(Q_member, region)`` without
    segment tests.
    """
    free = [member.isdisjoint(own) for own in owners]
    if all(free):
        return [Chain(tuple(range(len(free))))]
    start = free.index(False)
    cycle = [(start + t) % len(free) for t in range(len(free))]
    return [Chain(tuple(run)) for is_free, run in groupby(cycle, key=free.__getitem__) if is_free]


def _check_witness_chains(label: Label, cover: list[Label], witness: list[Label]) -> None:
    """The chain check of a cover, sorted by ``label_sort_key``, on the
    witness sets of its node's region, ``witness[e] = label - owners(e)``.

    Member M has a chain on edge e exactly when M fits in witness[e], so
    every member must fit in one, and no witness set may hold two members
    (two members share an edge exactly when their union fits).  Raises as
    ``check_owner_chains`` does: first on a member without chains, in cover
    order, then on the first member that shares an edge with one before it.
    """
    fits = []
    for member in cover:
        edges = [edge for edge, w in enumerate(witness) if member <= w]
        if not edges:
            raise InternalInconsistencyError(
                f"cover member {format_label(member)} of {format_label(label)} "
                "has no chains"
            )
        fits.append(edges)
    claimed: dict[int, Label] = {}
    for member, edges in zip(cover, fits):
        for edge in edges:
            other = claimed.setdefault(edge, member)
            if other != member:
                raise InternalInconsistencyError(
                    f"chains of {format_label(other)} and "
                    f"{format_label(member)} overlap on {format_label(label)}"
                )


def check_owner_chains(label: Label, cover: tuple[Label, ...], cache: RegionCache) -> None:
    """``check_cover_chains`` on edge owners: every cover member must
    produce at least one chain over the node's region, and chains of
    distinct members must not share edges.  Raises on violation.

    The build does not call this: ``geometric_cover`` makes the same check
    on the witness sets it holds (``_check_witness_chains``).  This check
    walks each member's chains with ``owner_chains``, as
    ``check_cover_chains`` does with exact segment predicates; both stay
    as the oracles of the build's check.
    """
    owners = cache.owners(label)
    per_member: dict[Label, list[Chain]] = {}
    for member in cover:
        cs = owner_chains(owners, member)
        if not cs:
            raise InternalInconsistencyError(
                f"cover member {format_label(member)} of {format_label(label)} "
                "has no chains"
            )
        per_member[member] = cs
    claimed: dict[int, Label] = {}
    for member in sorted(per_member, key=label_sort_key):
        for chain in per_member[member]:
            for edge in chain.edge_indices:
                other = claimed.setdefault(edge, member)
                if other != member:
                    raise InternalInconsistencyError(
                        f"chains of {format_label(other)} and "
                        f"{format_label(member)} overlap on {format_label(label)}"
                    )


def build_geometric_lattice(instance: GeometricInstance) -> GeometricLattice:
    """Build the lattice of the instance's induced system (``instance.system``,
    the one object ``GeometricLattice.system`` holds) and attach geometric
    covers (inserting virtual nodes for cover labels without elements).

    No key comparisons happen anywhere in here.
    """
    system = induced_system(instance)
    lattice = compute_parents(build_lattice(system))
    cache = RegionCache(instance)
    covers: dict[Label, tuple[Label, ...]] = {}
    fallbacks: list[Label] = []

    # the FIFO queue a round at a time: round r + 1 holds the members
    # first queued in round r
    queue = [lb for lb in lattice.labels_by_layer() if len(lb) >= 2]
    while queue:
        fresh = list(dict.fromkeys(lb for lb in queue if lb not in covers))
        owned = _owner_covers(fresh, cache, instance.k)
        later = []
        for label in queue:
            if label in covers:
                continue
            cover = owned.get(label)
            if cover is None:
                # every label without an owner cover, flagged ones included,
                # at its own place in the queue, so the first fault is named
                # in queue order
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
                    later.append(member)
        queue = later
    return GeometricLattice(
        instance=instance,
        system=system,
        lattice=lattice,
        regions=cache,
        covers=covers,
        fallback_labels=tuple(fallbacks),
    )


def solve_lattice_geometric(
    glat: GeometricLattice,
    keys: KeySpace,
    ledger: ComparisonLedger | None = None,
) -> MaximaResult:
    return solve_lattice(
        glat.system, keys, ledger=ledger, prebuilt=(glat.lattice, glat.covers)
    )


# Radius of the circle the embedding's points lie near, well inside COORD_BOUND.
CIRCLE_RADIUS = 1 << 18


def circle_embedding(system: SetSystem) -> GeometricInstance:
    """Realize an arbitrary set system geometrically: points in strictly
    convex (near-circular) position, one polygon per set spanning exactly
    its members.

    Works for any system; sets with fewer than three members become
    degenerate point/segment polygons that still contain exactly their
    members.  The resulting k is unbounded (max set size), which is the
    whole point: without a side bound the geometry encodes anything.
    """
    n = system.n
    points = _convex_position_points(n)
    polygons = []
    for s in system.sets:
        verts = tuple(points[e] for e in sorted(s))
        polygons.append(ConvexPolygon(verts))
    k = max(3, max((len(s) for s in system.sets), default=3))
    return GeometricInstance(points=tuple(points), polygons=tuple(polygons), k=k)


def _convex_position_points(n: int) -> list[Point2]:
    """n integer points in strictly convex position near a circle.

    Snap to the circle, then nudge individual radii until every cyclic
    vertex triple turns strictly left; verified before returning.
    """
    if n == 0:
        return []
    angles = [2 * math.pi * i / n for i in range(n)]
    offsets = [0] * n

    def snapped(i: int) -> Point2:
        r = CIRCLE_RADIUS + offsets[i]
        return Point2(round(r * math.cos(angles[i])), round(r * math.sin(angles[i])))

    pts = [snapped(i) for i in range(n)]
    if n >= 3:
        for _ in range(200):
            bad = [
                i
                for i in range(n)
                if orientation(pts[i - 2], pts[i - 1], pts[i]) <= 0
            ]
            if not bad:
                break
            for i in bad:
                j = (i - 1) % n
                offsets[j] += 1
                pts[j] = snapped(j)
        else:
            raise GeometryError(f"could not place {n} points in convex position")
        if len(set(pts)) != n:
            raise GeometryError(f"snapped points collide for n={n}")
    elif len(set(pts)) != n:
        raise GeometryError(f"snapped points collide for n={n}")
    return pts
