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
cross-checks containment).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .geometry import ConvexPolygon, GeometryError, Point2
from .geomlattice import GeometricInstance, induced_membership
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
        geo = instance.geometry
        doc["geometry"] = {
            "points": [[int(p[0]), int(p[1])] for p in geo.points],
            "polygons": [
                [[int(v[0]), int(v[1])] for v in poly.vertices] for poly in geo.polygons
            ],
            "k": geo.k,
        }
    return doc


def instance_from_dict(doc: dict) -> ProblemInstance:
    if not isinstance(doc, dict):
        raise InputError("instance document must be a JSON object")
    try:
        n = int(doc["n"])
        raw_sets = doc["sets"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"missing or malformed required field: {exc}") from exc
    if not isinstance(raw_sets, list):
        raise InputError("'sets' must be a list of integer lists")
    try:
        system = SetSystem(n=n, sets=tuple(frozenset(map(int, s)) for s in raw_sets))
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed 'sets': {exc}") from exc
    violations = system.validate()
    if violations:
        raise InputError("invalid set system: " + "; ".join(violations))

    keys = None
    if "keys" in doc and doc["keys"] is not None:
        try:
            keys = KeySpace(int(v) for v in doc["keys"])
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"malformed 'keys': {exc}") from exc
        if keys.n != n:
            raise InputError(f"got {keys.n} keys for {n} elements")

    geometry = None
    if "geometry" in doc and doc["geometry"] is not None:
        geometry = _geometry_from_dict(doc["geometry"], n)
        induced = induced_membership(geometry)
        if tuple(induced) != system.sets:
            bad = [
                j + 1
                for j, (got, want) in enumerate(zip(induced, system.sets))
                if got != want
            ]
            raise InputError(
                f"geometry disagrees with 'sets' for polygon(s) {bad[:5]}"
            )
    return ProblemInstance(system=system, keys=keys, geometry=geometry)


def _geometry_from_dict(geo: dict, n: int) -> GeometricInstance:
    if not isinstance(geo, dict):
        raise InputError("'geometry' must be an object")
    try:
        points = tuple(Point2(int(x), int(y)) for x, y in geo["points"])
        polygons = tuple(
            ConvexPolygon(tuple(Point2(int(x), int(y)) for x, y in poly))
            for poly in geo["polygons"]
        )
        k = int(geo["k"])
    except GeometryError as exc:
        raise InputError(f"bad polygon in geometry block: {exc}") from exc
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed geometry block: {exc}") from exc
    if len(points) != n:
        raise InputError(f"geometry has {len(points)} points for {n} elements")
    instance = GeometricInstance(points=points, polygons=polygons, k=k)
    violations = instance.validate()
    if violations:
        raise InputError("invalid geometry: " + "; ".join(violations))
    return instance


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
