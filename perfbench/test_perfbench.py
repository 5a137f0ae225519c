"""Tests of the benchmark itself: inputs, oracle, checks and tracing.

    python3 -m pytest perfbench -q

Each check is shown to pass the program's real answers and to reject a
deliberately corrupted one.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

import run
from checks import (
    Oracle,
    bucket_count,
    check_bucket,
    check_lattice,
    check_sort,
    check_structure,
    check_system,
)
from inputs import Spec, make_workload
from tracing import Tracer

instance_io, lattice, geomlattice, solvers, order = run.import_program()
from setmaxima import geometry  # noqa: E402

SMALL_CONVEX = Spec("convex", n=600, m=40, k=4, lattice_batch=2, baseline_batch=1)
SMALL_ABSTRACT = Spec("abstract", n=120, m=8, density=0.5, lattice_batch=2, baseline_batch=1)


def keyspace(perm):
    return order.KeySpace(perm.tolist())


@pytest.fixture(scope="module")
def convex():
    """A small convex workload, built and solved once by the program."""
    w = make_workload(SMALL_CONVEX, seed=3, stream=0)
    doc = w.to_doc()
    pinst = instance_io.instance_from_dict(doc)
    glat = geomlattice.build_geometric_lattice(pinst.geometry)
    keys = w.lattice_keys[0]
    return {
        "workload": w,
        "oracle": Oracle(w),
        "glat": glat,
        "keys": keys,
        "lattice": geomlattice.solve_lattice_geometric(glat, keyspace(keys)),
        "sort": solvers.solve_sort(glat.system, keyspace(keys)),
        "bucket": solvers.solve_bucket(glat.system, keyspace(keys)),
        "budget": SMALL_CONVEX.n + sum(len(c) for c in glat.covers.values()),
    }


def test_inputs_are_a_function_of_the_seed():
    a = make_workload(SMALL_CONVEX, seed=5, stream=1).to_doc()
    assert a == make_workload(SMALL_CONVEX, seed=5, stream=1).to_doc()
    assert a != make_workload(SMALL_CONVEX, seed=6, stream=1).to_doc()
    assert a != make_workload(SMALL_CONVEX, seed=5, stream=2).to_doc()
    b = make_workload(SMALL_ABSTRACT, seed=5, stream=1).to_doc()
    assert b == make_workload(SMALL_ABSTRACT, seed=5, stream=1).to_doc()


def test_convex_inputs_stay_in_general_position(convex):
    w = convex["workload"]
    sets = [frozenset(s.tolist()) for s in w.sets]
    assert all(sets) and len(set(sets)) == len(sets)
    polys = [geometry.ConvexPolygon(tuple(map(tuple, p))) for p in w.polygons]
    for i, p in enumerate(polys):
        assert p.sides <= SMALL_CONVEX.k
        for q in polys[i + 1 :]:
            assert not geometry.contains_polygon(p, q) and not geometry.contains_polygon(q, p)


def test_oracle_containment_matches_the_program(convex):
    w = convex["workload"]
    ginst = instance_io.instance_from_dict(w.to_doc()).geometry
    assert geomlattice.induced_membership(ginst) == [frozenset(s.tolist()) for s in w.sets]


def test_oracle_maxima_match_a_direct_scan(convex):
    w, keys = convex["workload"], convex["keys"]
    direct = [max(s.tolist(), key=lambda e: keys[e]) for s in w.sets]
    assert convex["oracle"].maxima(keys).tolist() == direct


def test_bucket_count_matches_the_closed_form():
    w = make_workload(SMALL_ABSTRACT, seed=2, stream=0)
    system = instance_io.instance_from_dict(w.to_doc()).system
    assert bucket_count(w.spec.n, w.sets) == solvers.bucket_comparison_bound(system)


def test_checks_pass_the_programs_answers(convex):
    oracle, glat = convex["oracle"], convex["glat"]
    expected = oracle.maxima(convex["keys"])
    assert check_system(glat.system.sets, oracle) == []
    assert check_structure(glat.lattice.nodes, glat.covers, glat.fallback_count, oracle) == []
    assert check_lattice(convex["lattice"], expected, convex["budget"]) == []
    assert check_sort(convex["sort"], expected, oracle) == []
    assert check_bucket(convex["bucket"], expected, oracle) == []


def _swap_first_two(maxima):
    return (maxima[1], maxima[0]) + tuple(maxima[2:])


def test_check_system_rejects_a_changed_set(convex):
    sets = list(convex["glat"].system.sets)
    sets[0] = sets[0] ^ {min(sets[1])}  # toggle one element's membership
    assert check_system(sets, convex["oracle"])
    assert check_system(sets[:-1], convex["oracle"])


def test_check_structure_rejects_corrupted_covers(convex):
    oracle, glat = convex["oracle"], convex["glat"]
    nodes, covers = glat.lattice.nodes, glat.covers
    label = max(covers, key=len)
    singletons = tuple(frozenset((i,)) for i in sorted(label))

    too_many = dict(covers)
    too_many[label] = singletons + (frozenset(),) * SMALL_CONVEX.k
    assert any("> k" in p for p in check_structure(nodes, too_many, 0, oracle))

    short = dict(covers)
    short[label] = singletons[1:]
    assert check_structure(nodes, short, 0, oracle)

    not_below = dict(covers)
    not_below[label] = covers[label] + (label,)
    assert check_structure(nodes, not_below, 0, oracle)

    missing = {lb: c for lb, c in covers.items() if lb != label}
    assert check_structure(nodes, missing, 0, oracle)

    assert check_structure(nodes, covers, 1, oracle)


def test_check_lattice_rejects_corrupted_results(convex):
    expected = convex["oracle"].maxima(convex["keys"])
    result, budget = convex["lattice"], convex["budget"]
    assert check_lattice(replace(result, maxima=_swap_first_two(result.maxima)), expected, budget)
    assert check_lattice(replace(result, maxima=result.maxima[:-1]), expected, budget)
    assert check_lattice(replace(result, comparisons=budget + 1), expected, budget)


def test_check_sort_rejects_corrupted_results(convex):
    oracle = convex["oracle"]
    expected = oracle.maxima(convex["keys"])
    result = convex["sort"]
    assert check_sort(replace(result, maxima=_swap_first_two(result.maxima)), expected, oracle)
    assert check_sort(replace(result, comparisons=oracle.sort_bound + 1), expected, oracle)


def test_check_bucket_rejects_corrupted_results(convex):
    oracle = convex["oracle"]
    expected = oracle.maxima(convex["keys"])
    result = convex["bucket"]
    assert check_bucket(replace(result, maxima=_swap_first_two(result.maxima)), expected, oracle)
    assert check_bucket(replace(result, comparisons=result.comparisons - 1), expected, oracle)
    assert check_bucket(replace(result, comparisons=result.comparisons + 1), expected, oracle)


def test_tracer_wraps_every_namespace_and_restores_them():
    original = geometry.orientation
    tracer = Tracer()
    tracer.install()
    try:
        assert geometry.orientation is not original
        assert geomlattice.orientation is geometry.orientation
        geomlattice.orientation((0, 0), (1, 0), (0, 1))
        with tracer.span("outer"):
            lattice.build_lattice(instance_io.instance_from_dict({"n": 2, "sets": [[0], [0, 1]]}).system)
    finally:
        tracer.uninstall()
    assert geometry.orientation is original and geomlattice.orientation is original
    assert tracer.calls["geometry.orientation"] == 1
    times = tracer.self_times()
    outer = next(s for s in tracer.spans if s[0] == "outer")
    assert times["outer"] + times["lattice.build_lattice"] + times["setsystem.signatures"] == pytest.approx(
        outer[2] - outer[1]
    )


def test_tracer_records_a_missing_name_as_absent(monkeypatch):
    monkeypatch.setattr("tracing.COUNTED", (("geometry", "no_such_function"),))
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["geometry.no_such_function"]


@pytest.mark.parametrize("spec", [SMALL_CONVEX, SMALL_ABSTRACT], ids=["convex", "abstract"])
def test_runs_emit_exactly_the_declared_metrics(spec, monkeypatch, tmp_path):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setitem(run.WORKLOADS, "tiny", spec)
    monkeypatch.setattr(run, "WORK", tmp_path)
    bench = run.Bench("tiny", 1, tmp_path / "trace.json")
    try:
        end_to_end = bench.measure(0)
        per_layer = bench.traced()
    finally:
        bench.close()
    assert bench.correct and bench.failed == 0 and bench.attempted > 0
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == {
        k: v["unit"] for k, v in end_to_end.items()
    }
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        k: v["unit"] for k, v in per_layer.items()
    }
    assert all(v["value"] > 0 for v in end_to_end.values())
    assert json.loads((tmp_path / "trace.json").read_text())["spans"]
