import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setmaxima.cli import main
from setmaxima.generators import gen_convex_instance, gen_keys
from setmaxima.geomlattice import circle_embedding, induced_system
from setmaxima.instance_io import (
    InputError,
    ProblemInstance,
    instance_from_dict,
    load_instance,
    save_instance,
)
from setmaxima.setsystem import system_from_lists

TWO_SQUARES = {
    "n": 3,
    "sets": [[0, 1], [1, 2]],
    "keys": [3, 1, 2],
    "geometry": {
        "points": [[1, 1], [3, 3], [5, 5]],
        "polygons": [
            [[0, 0], [4, 0], [4, 4], [0, 4]],
            [[2, 2], [6, 2], [6, 6], [2, 6]],
        ],
        "k": 4,
    },
}


def test_round_trip_abstract(tmp_path):
    system = system_from_lists(5, [{0, 1}, {2, 3, 4}])
    pinst = ProblemInstance(system=system, keys=gen_keys(5, 1))
    path = tmp_path / "inst.json"
    save_instance(path, pinst)
    loaded = load_instance(path)
    assert loaded.system.sets == system.sets
    assert loaded.keys.oracle_keys() == pinst.keys.oracle_keys()
    assert loaded.geometry is None


def test_round_trip_geometric(tmp_path):
    inst = gen_convex_instance(n=40, m=5, k=4, seed=2)
    pinst = ProblemInstance(
        system=induced_system(inst), keys=gen_keys(40, 3), geometry=inst
    )
    path = tmp_path / "geo.json"
    save_instance(path, pinst)
    loaded = load_instance(path)
    assert loaded.system.sets == pinst.system.sets
    assert loaded.geometry.polygons == inst.polygons
    assert loaded.geometry.k == inst.k


def test_two_squares_document():
    pinst = instance_from_dict(TWO_SQUARES)
    assert pinst.system.sets == (frozenset({0, 1}), frozenset({1, 2}))
    assert pinst.geometry.k == 4


def test_geometry_set_mismatch_rejected():
    doc = json.loads(json.dumps(TWO_SQUARES))
    doc["sets"] = [[0, 1], [2]]
    with pytest.raises(InputError, match="disagrees"):
        instance_from_dict(doc)


@pytest.mark.parametrize(
    "sets, polygons, message",
    [
        # two polygons for one set: zip would compare only the first
        ([[0, 1]], None, "geometry has 2 polygons for 1 sets"),
        # a polygon that holds no point, and one that repeats another
        ([[0, 1], [1, 2], [2]], [[[7, 7], [9, 7], [9, 9], [7, 9]]],
         r"geometry disagrees with 'sets' for polygon\(s\) \[3\]"),
        ([[0, 1], [1, 2], [2]], [[[1, 1], [4, 1], [4, 4], [1, 4]]],
         r"geometry disagrees with 'sets' for polygon\(s\) \[3\]"),
    ],
)
def test_geometry_must_induce_exactly_the_sets(sets, polygons, message):
    doc = copy.deepcopy(TWO_SQUARES)
    doc["sets"] = sets
    doc["geometry"]["polygons"] += polygons or []
    with pytest.raises(InputError, match=message):
        instance_from_dict(doc)


def test_bad_documents_rejected():
    with pytest.raises(InputError):
        instance_from_dict([1, 2])
    with pytest.raises(InputError):
        instance_from_dict({"n": 3})
    with pytest.raises(InputError):
        instance_from_dict({"n": 3, "sets": [[0], [0]]})  # duplicate sets
    with pytest.raises(InputError):
        instance_from_dict({"n": 2, "sets": [[0, 1]], "keys": [1, 2, 3]})
    bad_poly = json.loads(json.dumps(TWO_SQUARES))
    bad_poly["geometry"]["polygons"][0] = [[0, 0], [4, 0], [8, 0]]
    with pytest.raises(InputError):
        instance_from_dict(bad_poly)


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 3, "sets": [[0, 1],')
    with pytest.raises(InputError, match="line 1 column"):
        load_instance(path)


# ------------------------------------------------------------------------ CLI


def test_cli_gen_solve_verify_pipeline(tmp_path, capsys):
    path = tmp_path / "inst.json"
    assert main(["gen", "--kind", "convex", "--n", "80", "--m", "6", "--k", "4",
                 "--seed", "11", "--out", str(path)]) == 0
    assert main(["solve", str(path), "--algo", "lattice"]) == 0
    record = json.loads(capsys.readouterr().out.strip())
    assert record["ok"] is True
    assert record["algorithm"] == "lattice"
    assert record["comparisons"] <= record["bound"]
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "VERIFY PASS" in out


def test_cli_two_squares_verify(tmp_path, capsys):
    path = tmp_path / "two_squares.json"
    path.write_text(json.dumps(TWO_SQUARES))
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "cover sizes: max=2 (k=4)" in out
    assert "fallbacks=0" in out


def test_cli_verify_degenerate_circle_embedding(tmp_path, capsys):
    # one- and two-member sets are point and segment polygons, and the sets nest
    sets = [{0}, {0, 1}, {0, 1, 2, 3}, {2, 3, 4}, {5, 6, 7}, set(range(1, 8)), {7}]
    system = system_from_lists(8, sets)
    inst = circle_embedding(system)
    assert sum(poly.is_degenerate for poly in inst.polygons) == 3
    path = tmp_path / "circle.json"
    save_instance(path, ProblemInstance(system=system, keys=gen_keys(8, 5), geometry=inst))
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "VERIFY PASS" in out
    assert "fallbacks=5" in out


def test_cli_bench_exit_1_on_bad_record(tmp_path, capsys, monkeypatch):
    import setmaxima.bench as bench_mod
    import setmaxima.cli as cli_mod
    from setmaxima.bench import BenchRecord

    def fake_run_bench(config, out=None):
        return [
            BenchRecord("x-n1-m1-s0", 1, 1, 1, None, "lattice", 5, 4, 1.25, False)
        ]

    monkeypatch.setattr(cli_mod, "run_bench", fake_run_bench)
    assert main(["bench", "--kind", "abstract", "--n", "10",
                 "--out", str(tmp_path / "b.csv")]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_solve_all_algorithms(tmp_path, capsys):
    path = tmp_path / "inst.json"
    main(["gen", "--kind", "abstract", "--n", "30", "--m", "5",
          "--seed", "3", "--out", str(path)])
    capsys.readouterr()
    for algo in ("lattice", "sort", "bucket", "brute"):
        assert main(["solve", str(path), "--algo", algo]) == 0
        assert json.loads(capsys.readouterr().out)["algorithm"] == algo


def test_cli_solve_cover_modes(tmp_path, capsys):
    path = tmp_path / "inst.json"
    main(["gen", "--kind", "convex", "--n", "60", "--m", "6", "--seed", "8",
          "--out", str(path)])
    capsys.readouterr()
    for cover in ("greedy", "exact", "geometric"):
        assert main(["solve", str(path), "--algo", "lattice", "--cover", cover]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True


def test_cli_geometric_cover_needs_geometry(tmp_path, capsys):
    path = tmp_path / "abs.json"
    main(["gen", "--kind", "abstract", "--n", "10", "--m", "3",
          "--seed", "6", "--out", str(path)])
    capsys.readouterr()
    assert main(["solve", str(path), "--cover", "geometric"]) == 2
    _assert_one_error_line(capsys.readouterr().err)
    # the baselines ignore the cover, but the request is still refused
    for algo in ("lattice", "sort", "bucket", "brute"):
        assert main(["solve", str(path), "--algo", algo, "--cover", "geometric"]) == 2
        _assert_one_error_line(capsys.readouterr().err)


def test_cli_bench_geometric_cover_on_abstract_exit_2(tmp_path, capsys):
    out = tmp_path / "b.csv"
    assert main(["bench", "--kind", "abstract", "--cover", "geometric", "--n", "10",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    _assert_one_error_line(err)
    assert "geometric" in err
    assert not out.exists()


def test_cli_corrupt_json_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    assert main(["verify", str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_cli_missing_file_exit_2(tmp_path):
    assert main(["solve", str(tmp_path / "absent.json")]) == 2


@pytest.mark.parametrize(
    "argv",
    [["solve", "--algo", algo] for algo in ("lattice", "sort", "bucket", "brute")] + [["verify"]],
    ids=lambda argv: argv[-1],
)
def test_cli_negative_n_exit_2(tmp_path, capsys, argv):
    path = tmp_path / "negative.json"
    path.write_text(json.dumps({"n": -1, "sets": []}))
    assert main([argv[0], str(path), *argv[1:], "--seed", "1"]) == 2
    err = capsys.readouterr().err
    _assert_one_error_line(err)
    assert "invalid set system: n=-1 is negative" in err


def test_cli_missing_keys_needs_seed(tmp_path, capsys):
    path = tmp_path / "nokeys.json"
    path.write_text(json.dumps({"n": 3, "sets": [[0, 1], [1, 2]]}))
    assert main(["solve", str(path)]) == 2
    assert main(["solve", str(path), "--seed", "4"]) == 0


def test_cli_bucket_hint_when_m_large(tmp_path, capsys):
    path = tmp_path / "wide.json"
    main(["gen", "--kind", "abstract", "--n", "16", "--m", "10",
          "--seed", "5", "--out", str(path)])
    capsys.readouterr()
    assert main(["solve", str(path), "--algo", "bucket"]) == 0
    err = capsys.readouterr().err
    assert "hint" in err and "log2" in err


def test_cli_gen_stdout(capsys):
    assert main(["gen", "--kind", "abstract", "--n", "4", "--m", "2",
                 "--seed", "1", "--out", "-"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 4 and len(doc["sets"]) == 2 and len(doc["keys"]) == 4


def test_cli_verify_detects_solver_mismatch(tmp_path, capsys, monkeypatch):
    # force a wrong answer to confirm exit code 1 plumbing
    import setmaxima.bench as bench_mod

    path = tmp_path / "inst.json"
    main(["gen", "--kind", "abstract", "--n", "10", "--m", "3",
          "--seed", "2", "--out", str(path)])
    capsys.readouterr()

    real = bench_mod.solve_sort

    def lying_sort(system, keys, ledger=None):
        res = real(system, keys, ledger)
        wrong = tuple((e + 1) % system.n for e in res.maxima)
        return type(res)(res.algorithm, wrong, res.comparisons, res.bound)

    monkeypatch.setattr(bench_mod, "solve_sort", lying_sort)
    assert main(["verify", str(path)]) == 1
    assert "DISAGREE" in capsys.readouterr().out


def _fail_during_build(monkeypatch, exc):
    import setmaxima.bench as bench_mod

    def failing_build(geometry):
        raise exc

    monkeypatch.setattr(bench_mod, "build_geometric_lattice", failing_build)


def _solve_two_squares(tmp_path):
    path = tmp_path / "two_squares.json"
    path.write_text(json.dumps(TWO_SQUARES))
    return main(["solve", str(path), "--cover", "geometric"])


def test_cli_geometry_error_exit_2(tmp_path, capsys, monkeypatch):
    from setmaxima.geometry import GeometryError

    _fail_during_build(monkeypatch, GeometryError("cannot clip by a degenerate polygon"))
    assert _solve_two_squares(tmp_path) == 2
    err = capsys.readouterr().err
    assert err == "error: cannot clip by a degenerate polygon\n"


def test_cli_lattice_error_exit_1(tmp_path, capsys, monkeypatch):
    from setmaxima.lattice import LatticeError

    _fail_during_build(monkeypatch, LatticeError("node {1,2} has no cover"))
    assert _solve_two_squares(tmp_path) == 1
    assert capsys.readouterr().err == "error: LatticeError: node {1,2} has no cover\n"


def test_cli_internal_inconsistency_exit_1(tmp_path, capsys, monkeypatch):
    from setmaxima.geomlattice import InternalInconsistencyError

    _fail_during_build(monkeypatch, InternalInconsistencyError("chains overlap\non {1,2}"))
    assert _solve_two_squares(tmp_path) == 1
    err = capsys.readouterr().err
    assert err == "error: InternalInconsistencyError: chains overlap on {1,2}\n"


def test_cli_algorithms_come_from_the_registry(tmp_path, capsys):
    from setmaxima.bench import SOLVERS, BenchConfig, run_solver
    from setmaxima.order import KeySpace

    assert tuple(SOLVERS) == ("lattice", "sort", "bucket", "brute")
    system = system_from_lists(3, [{0, 1}, {1, 2}])
    with pytest.raises(ValueError, match="unknown algorithm"):
        run_solver("quick", system, KeySpace([1, 2, 3]))
    with pytest.raises(ValueError, match="unknown algorithm"):
        BenchConfig(algos=("lattice", "quick"))
    with pytest.raises(SystemExit):
        main(["solve", str(tmp_path / "any.json"), "--algo", "quick"])
    assert "invalid choice" in capsys.readouterr().err


# ------------------------------------------------------- malformed documents

# 1e400 reads as infinity, which no integer field may hold
_INFINITE_FIELDS = {
    "n": '{"n": 1e400, "sets": [[0]]}',
    "set member": '{"n": 1, "sets": [[1e400]]}',
    "key": '{"n": 1, "sets": [[0]], "keys": [1e400]}',
    "coordinate": (
        '{"n": 1, "sets": [[0]], "geometry": '
        '{"points": [[1e400, 0]], "polygons": [[[0, 0]]], "k": 3}}'
    ),
    "k": (
        '{"n": 1, "sets": [[0]], "geometry": '
        '{"points": [[0, 0]], "polygons": [[[0, 0]]], "k": 1e400}}'
    ),
}


def _verify_text(tmp_path, text):
    """Exit code and stderr of ``verify`` on a document with this text."""
    path = tmp_path / "doc.json"
    path.write_text(text)
    return _verify(path)


def _verify(path):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["verify", str(path), "--seed", "1"])
    return code, err.getvalue()


def _assert_one_error_line(err):
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("field", list(_INFINITE_FIELDS))
def test_cli_infinite_integer_field_exit_2(tmp_path, field):
    code, err = _verify_text(tmp_path, _INFINITE_FIELDS[field])
    assert code == 2
    _assert_one_error_line(err)


# a field that holds something other than an integer; "<v>" marks it
_NON_INTEGER_FIELDS = {
    "n": '{"n": <v>, "sets": [[0]]}',
    "set member": '{"n": 2, "sets": [[0, <v>]]}',
    "key": '{"n": 2, "sets": [[0, 1]], "keys": [5, <v>]}',
    "coordinate": (
        '{"n": 1, "sets": [[0]], "geometry": '
        '{"points": [[0, <v>]], "polygons": [[[0, 0]]], "k": 3}}'
    ),
    "k": (
        '{"n": 1, "sets": [[0]], "geometry": '
        '{"points": [[0, 0]], "polygons": [[[0, 0]]], "k": <v>}}'
    ),
}


@pytest.mark.parametrize("field", list(_NON_INTEGER_FIELDS))
def test_cli_non_integer_field_exit_2(tmp_path, field):
    # each of these once read as the integer 1 (int() truncates and parses)
    for value in ("1.0", "1.9", '"1"', "true"):
        text = _NON_INTEGER_FIELDS[field].replace("<v>", value)
        code, err = _verify_text(tmp_path, text)
        assert code == 2, text
        _assert_one_error_line(err)
        assert "must be an integer" in err, text


def test_non_integers_are_not_coerced():
    with pytest.raises(InputError, match="'n' must be an integer, not float"):
        instance_from_dict({"n": 2.9, "sets": ["01", [True]], "keys": [1.5, "7"]})
    with pytest.raises(InputError, match="'sets' must be a list of integer lists"):
        instance_from_dict({"n": 2, "sets": ["01", [True]]})
    with pytest.raises(InputError, match="member of set 1 must be an integer, not bool"):
        instance_from_dict({"n": 2, "sets": [[True]]})
    with pytest.raises(InputError, match="key must be an integer, not str"):
        instance_from_dict({"n": 2, "sets": [[0, 1]], "keys": [1, "7"]})
    with pytest.raises(InputError, match="'keys' must be a list"):
        instance_from_dict({"n": 2, "sets": [[0, 1]], "keys": "12"})


def _count_membership(monkeypatch):
    """The edge tables the membership kernel is called on, and a guard
    that fails on any use of the placement loop's per-polygon index."""
    from setmaxima import geomlattice
    from setmaxima.generators import _PointIndex

    kernel = geomlattice.grid_membership
    calls = []

    def counted(points, table):
        calls.append(table)
        return kernel(points, table)

    def refused(self, poly):
        raise AssertionError("load or build used the placement loop's index")

    monkeypatch.setattr(geomlattice, "grid_membership", counted)
    monkeypatch.setattr(_PointIndex, "members", refused)
    return calls


def test_load_and_build_find_membership_once(tmp_path, monkeypatch):
    from setmaxima import geomlattice
    from setmaxima.geomlattice import build_geometric_lattice

    inst = gen_convex_instance(n=300, m=25, k=4, seed=4)
    path = tmp_path / "geo.json"
    save_instance(path, ProblemInstance(system=induced_system(inst), geometry=inst))
    calls = _count_membership(monkeypatch)
    tables = []
    make = geomlattice.edge_table

    def counted(coords, sizes):
        tables.append(make(coords, sizes))
        return tables[-1]

    monkeypatch.setattr(geomlattice, "edge_table", counted)
    loaded = load_instance(path)
    glat = build_geometric_lattice(loaded.geometry)
    # one edge table and one kernel pass over every polygon, for load and
    # build together; the clip kernel reads that same table
    assert len(tables) == 1 and tables[0].first.size == inst.m + 1
    assert calls == tables and glat.regions.kernel.table is tables[0]
    assert glat.system.sets == loaded.system.sets


def test_load_and_build_check_geometry_and_sets_once(tmp_path, monkeypatch):
    from setmaxima.geomlattice import GeometricInstance, build_geometric_lattice
    from setmaxima.setsystem import SetSystem

    inst = gen_convex_instance(n=300, m=25, k=4, seed=4)
    path = tmp_path / "geo.json"
    save_instance(path, ProblemInstance(system=inst.system, geometry=inst))
    checked = []
    for cls in (GeometricInstance, SetSystem):
        check = cls.__post_init__
        monkeypatch.setattr(
            cls, "__post_init__",
            lambda self, check=check: checked.append(type(self).__name__) or check(self),
        )
    calls = _count_membership(monkeypatch)
    loaded = load_instance(path)
    glat = build_geometric_lattice(loaded.geometry)
    assert checked == ["GeometricInstance", "SetSystem"]
    assert calls == [loaded.geometry.edges] and calls[0].first.size == inst.m + 1
    assert loaded.system is loaded.geometry.system is glat.system


def test_cli_more_polygons_than_sets_exit_2(tmp_path):
    doc = copy.deepcopy(TWO_SQUARES)
    doc["sets"] = [[0, 1]]
    code, err = _verify_text(tmp_path, json.dumps(doc))
    assert code == 2
    assert err == "error: geometry has 2 polygons for 1 sets\n"


@pytest.mark.parametrize("kind", ["abstract", "convex", "rect"])
@pytest.mark.parametrize("size", [["--n", "0", "--m", "2"], ["--n", "-5", "--m", "2"],
                                  ["--n", "20", "--m", "0"], ["--n", "20", "--m", "-1"]],
                         ids=" ".join)
def test_cli_gen_needs_an_element_and_a_set(capsys, kind, size):
    assert main(["gen", "--kind", kind, *size, "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: need n >= 1 and m >= 1\n"
    assert captured.out == ""


def test_cli_sets_disagreeing_with_geometry_exit_2(tmp_path):
    doc = json.loads(json.dumps(TWO_SQUARES))
    doc["sets"] = [[0, 1], [2]]
    code, err = _verify_text(tmp_path, json.dumps(doc))
    assert code == 2
    _assert_one_error_line(err)
    assert "disagrees" in err


def test_cli_deeply_nested_document_exit_2(tmp_path):
    code, err = _verify_text(tmp_path, "[" * 200_000 + "]" * 200_000)
    assert code == 2
    _assert_one_error_line(err)


ABSTRACT = {"n": 4, "sets": [[0, 1, 2], [2, 3]], "keys": [4, 2, 3, 1]}

# values that replace a field; the placeholders become raw JSON text
_RAW = {
    "<inf>": "1e400",
    "<nan>": "NaN",
    "<deep>": "[" * 50_000 + "]" * 50_000,
}
_JUNK = ["x", None, [], {}, 2.5, -1, 3, 99, True, [[0]], *_RAW]


def _paths(node, prefix=()):
    """Every path of keys and indices into a document, the root first."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        items = ()
    for step, child in items:
        yield from _paths(child, prefix + (step,))


@st.composite
def _malformed_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from([TWO_SQUARES, ABSTRACT])))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from([p for p in _paths(doc) if p]))
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(_JUNK)))
        if not doc:
            break
    text = json.dumps(doc)
    for token, raw in _RAW.items():
        text = text.replace(json.dumps(token), raw)
    return text


@settings(max_examples=150, deadline=None)
@given(text=_malformed_documents())
def test_cli_malformed_documents_exit_0_or_2(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(text)
    try:
        load_instance(path)
        rejected = False
    except InputError:
        rejected = True
    code, err = _verify(path)
    if rejected:
        assert code == 2
        _assert_one_error_line(err)
    else:
        assert code == 0, err
