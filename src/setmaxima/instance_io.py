"""JSON instance format.

    {
      "n": int,
      "sets": [[int, ...], ...],          # members ascending, sets in order
      "keys": [int, ...],                 # optional, one per element
      "geometry": {                       # optional
        "points": [[x, y], ...],
        "polygons": [[[x, y], ...], ...],
        "k": int
      }
    }

When both sets and geometry are present they must agree (the loader
cross-checks containment), and the loaded system is the one the geometry
induces.  ``SetSystem`` and ``GeometricInstance`` check themselves when they
are made; the loader reports their ``ValueError`` as an ``InputError`` with
the same text.

Well-formed geometry is read in bulk: one type pass over its rows, then
one ``GeometricInstance.from_coords`` call, which makes no ``Point2`` or
``ConvexPolygon``.  Where a bulk step fails, the items are read again one
at a time, so the first bad item names the error, in the same words as a
per-item parse.
"""

from __future__ import annotations

import json
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

from .geometry import ConvexPolygon, GeometryError, Point2
from .geomlattice import GeometricInstance
from .order import KeySpace
from .setsystem import SetSystem


class InputError(Exception):
    """Malformed or inconsistent instance input."""


@dataclass
class ProblemInstance:
    system: SetSystem
    keys: KeySpace | None = None
    geometry: GeometricInstance | None = None


def instance_to_dict(instance: ProblemInstance) -> dict:
    doc: dict = {
        "n": instance.system.n,
        "sets": [sorted(s) for s in instance.system.sets],
    }
    if instance.keys is not None:
        doc["keys"] = list(instance.keys.oracle_keys())
    if instance.geometry is not None:
        table = instance.geometry.edges
        vertices = list(map(list, zip(table.x.tolist(), table.y.tolist())))
        first = table.first.tolist()
        doc["geometry"] = {
            "points": table.points.tolist(),
            "polygons": [vertices[lo:hi] for lo, hi in zip(first, first[1:])],
            "k": instance.geometry.k,
        }
    return doc


def _integers(values, what: str) -> list[int]:
    """``values`` as a list, each of them an integer."""
    values = list(values)
    for value in values:
        # int() would truncate floats and parse strings, and bool is an int
        if type(value) is not int:
            raise InputError(f"{what} must be an integer, not {type(value).__name__}")
    return values


def instance_from_dict(doc: dict) -> ProblemInstance:
    if not isinstance(doc, dict):
        raise InputError("instance document must be a JSON object")
    try:
        raw_n = doc["n"]
        raw_sets = doc["sets"]
    except KeyError as exc:
        raise InputError(f"missing required field: {exc}") from exc
    (n,) = _integers([raw_n], "'n'")
    if not isinstance(raw_sets, list) or not all(isinstance(s, list) for s in raw_sets):
        raise InputError("'sets' must be a list of integer lists")
    sets = tuple(
        frozenset(_integers(s, f"a member of set {j}")) for j, s in enumerate(raw_sets, start=1)
    )
    geometry = None
    if doc.get("geometry") is not None:
        geometry = _geometry_from_dict(doc["geometry"], n, len(sets))
        # before the induced system is made, so an empty or repeated
        # polygon reads as a mismatch rather than as an invalid system
        if geometry.membership != sets:
            bad = [
                j + 1 for j, (got, want) in enumerate(zip(geometry.membership, sets)) if got != want
            ]
            raise InputError(f"geometry disagrees with 'sets' for polygon(s) {bad[:5]}")
    try:
        system = geometry.system if geometry is not None else SetSystem(n=n, sets=sets)
    except ValueError as exc:
        raise InputError(str(exc)) from exc

    keys = None
    if doc.get("keys") is not None:
        if not isinstance(doc["keys"], list):
            raise InputError("'keys' must be a list of integers")
        try:
            keys = KeySpace(_integers(doc["keys"], "a key"))
        except ValueError as exc:
            raise InputError(f"malformed 'keys': {exc}") from exc
        if keys.n != n:
            raise InputError(f"got {keys.n} keys for {n} elements")
    return ProblemInstance(system=system, keys=keys, geometry=geometry)


def _lists(rows) -> bool:
    """Whether ``rows`` is a list of lists."""
    return type(rows) is list and set(map(type, rows)) <= {list}


def _integer_pairs(rows) -> bool:
    """Whether ``rows`` is a list of lists of two integers, checked in bulk."""
    return (
        _lists(rows)
        and set(map(len, rows)) <= {2}
        and set(map(type, chain.from_iterable(rows))) <= {int}
    )


def _geometry_from_dict(geo: dict, n: int, m: int) -> GeometricInstance:
    """Rows of integer pairs and an integer k are type-checked in one pass
    and made into the instance by one ``GeometricInstance.from_coords``
    call.  Where either fails, the rows are read again one at a time, each
    point, then a polygon's vertices and the polygon itself, and then k, so
    the first bad item names the error as it always has."""
    if not isinstance(geo, dict):
        raise InputError("'geometry' must be an object")
    points, polygons, k = geo.get("points"), geo.get("polygons"), geo.get("k")
    vertices = list(chain.from_iterable(polygons)) if _lists(polygons) else None
    geometry = None
    if type(k) is int and _integer_pairs(points) and _integer_pairs(vertices):
        coords = [*chain.from_iterable(points), *chain.from_iterable(vertices)]
        with suppress(ValueError):
            geometry = GeometricInstance.from_coords(coords, list(map(len, polygons)), k)
    if geometry is None:
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
        return geometry or GeometricInstance(points=points, polygons=polygons, k=k)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def save_instance(path: str | Path, instance: ProblemInstance) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(instance)) + "\n")


def load_instance(path: str | Path) -> ProblemInstance:
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise InputError(f"{path}: JSON nested too deeply") from exc
    return instance_from_dict(doc)
