"""Span and call-count wrappers around the program's public functions.

Used only by the traced run (``--trace 1``); the end-to-end run never
installs them.  Each wrapper replaces the function in every ``setmaxima``
module namespace that holds it (``orientation`` lives in both ``geometry``
and ``geomlattice``), or on the class for a method.  Spans are kept in
memory as ``[name, start, end, parent]`` and written out at the end.  A
name that no longer exists is recorded as absent and skipped.
"""

from __future__ import annotations

import importlib
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

PACKAGE = "setmaxima"

# (module, attribute) pairs; a dotted attribute is a method on a class.
TIMED = (
    ("instance_io", "load_instance"),
    ("geomlattice", "induced_system"),
    ("geomlattice", "build_geometric_lattice"),
    ("geomlattice", "geometric_cover"),
    ("geomlattice", "check_cover_chains"),
    ("geometry", "clip_convex"),
    ("geometry", "chains"),
    ("setsystem", "SetSystem.signatures"),
    ("lattice", "build_lattice"),
    ("lattice", "compute_parents"),
    ("lattice", "good_covers"),
    ("solvers", "solve_lattice"),
    ("solvers", "solve_sort"),
    ("solvers", "solve_bucket"),
)
# Hot functions get a call counter only: a span per call would swamp them.
COUNTED = (
    ("geomlattice", "RegionCache.region"),
    ("geometry", "orientation"),
    ("geometry", "segment_in_segment"),
    ("geometry", "point_in_convex"),
    ("lattice", "good_cover_greedy"),
)


def layer_name(module: str, attr: str) -> str:
    """``setsystem.SetSystem.signatures`` is reported as ``setsystem.signatures``."""
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self.calls: dict[str, int] = {}
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        for module, attr in TIMED:
            self._wrap(module, attr, self._timed)
        for module, attr in COUNTED:
            self._wrap(module, attr, self._counted)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, module: str, attr: str, make) -> None:
        name = layer_name(module, attr)
        try:
            owner = importlib.import_module(f"{PACKAGE}.{module}")
            *cls, fn_name = attr.split(".")
            for part in cls:
                owner = getattr(owner, part)
            original = owner.__dict__[fn_name] if cls else getattr(owner, fn_name)
        except (ImportError, AttributeError, KeyError):
            self.absent.append(name)
            return
        self.calls[name] = 0
        wrapper = make(name, original)
        if cls:
            self._replace(owner, fn_name, original, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, key, original, wrapper)

    def _replace(self, owner, key, original, wrapper) -> None:
        self._restore.append((owner, key, original))
        setattr(owner, key, wrapper)

    def _counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, name, fn):
        calls, span = self.calls, self.span

        def wrapper(*args, **kwargs):
            calls[name] += 1
            with span(name):
                return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def span(self, name: str):
        """Record a span around the body; the innermost open span is its parent."""
        idx = len(self.spans)
        span = [name, perf_counter(), 0.0, self._stack[-1]]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            span[2] = perf_counter()

    # -- results ------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per name: summed span time minus the time its child spans cover.

        The program is single-threaded, so children of one span never
        overlap and their covered time is the sum of their durations.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            totals[name] = totals.get(name, 0.0) + (end - start - inner)
        return totals

    def write(self, path: Path) -> None:
        path.write_text(
            json.dumps(
                {
                    "fields": ["name", "start", "end", "parent"],
                    "spans": self.spans,
                    "calls": self.calls,
                    "absent": self.absent,
                }
            )
        )
