import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

from setmaxima.bench import (
    CSV_COLUMNS,
    SOLVERS,
    BenchConfig,
    run_bench,
    verify_instance,
    write_csv,
)
from setmaxima.cli import main
from setmaxima.generators import gen_convex_instance, gen_keys
from setmaxima.geomlattice import induced_system
from setmaxima.instance_io import ProblemInstance
from setmaxima.setsystem import system_from_lists


def test_single_trivial_instance_all_ok():
    config = BenchConfig(kind="abstract", ns=(20,), ms=(4,), seeds=(0,), cover="greedy")
    records = run_bench(config)
    assert len(records) == 4
    assert all(r.ok for r in records)
    algos = {r.algo for r in records}
    assert algos == {"lattice", "sort", "bucket", "brute"}


def test_bench_bounds_respected():
    config = BenchConfig(
        kind="convex", ns=(100, 200), ms=(8, 12), k=4, seeds=(0, 1), cover="geometric"
    )
    records = run_bench(config)
    assert len(records) == 2 * 2 * 4
    for rec in records:
        assert rec.ok
        assert rec.comparisons <= rec.bound
        if rec.algo == "sort":
            import math

            assert rec.bound == rec.n * math.ceil(math.log2(rec.n))
        if rec.algo == "bucket":
            assert rec.comparisons == rec.bound
        if rec.k is not None:
            assert rec.k == 4


def _assert_csv_holds(path, records):
    """Every field of every row, read back with csv.reader, against the
    records: the header, ints, an empty k for no geometry, the repr of the
    ratio (which reads back as the same float) and true/false."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["instance_id", "n", "m", "p", "k", "algo",
                       "comparisons", "bound", "ratio", "ok"]
    assert len(rows) == len(records) + 1
    for row, rec in zip(rows[1:], records):
        assert row == [
            rec.instance_id,
            str(rec.n),
            str(rec.m),
            str(rec.p),
            "" if rec.k is None else str(rec.k),
            rec.algo,
            str(rec.comparisons),
            str(rec.bound),
            repr(rec.ratio),
            "true" if rec.ok else "false",
        ]
        assert float(row[8]) == rec.ratio


def test_csv_round_trip(tmp_path):
    config = BenchConfig(kind="rect", ns=(60,), ms=(5,), seeds=(0, 1), cover="geometric")
    records = run_bench(config)
    path = tmp_path / "bench.csv"
    write_csv(records, path)
    _assert_csv_holds(path, records)
    assert all(rec.k == 4 for rec in records)
    header = path.read_text().splitlines()[0]
    assert header == "instance_id,n,m,p,k,algo,comparisons,bound,ratio,ok"


def test_csv_k_empty_for_abstract(tmp_path):
    records = run_bench(
        BenchConfig(kind="abstract", ns=(15,), ms=(3,), seeds=(0,), cover="greedy")
    )
    path = tmp_path / "a.csv"
    write_csv(records, path)
    row = path.read_text().splitlines()[1].split(",")
    assert row[4] == ""
    _assert_csv_holds(path, records)


def test_parallel_jobs_match_sequential():
    base = BenchConfig(kind="abstract", ns=(30, 40), ms=(5, 6), seeds=(0, 1), cover="greedy")
    seq = run_bench(base)
    par = run_bench(BenchConfig(**{**base.__dict__, "jobs": 2}))
    assert seq == par


def test_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(ns=(10,), ms=(1, 2))
    with pytest.raises(ValueError):
        BenchConfig(kind="weird")
    with pytest.raises(ValueError):
        BenchConfig(cover="magic")
    # abstract instances have no geometry to cover with
    with pytest.raises(ValueError, match="geometric"):
        BenchConfig(kind="abstract", cover="geometric")
    # a sweep over no size or no seed would check nothing and report success
    with pytest.raises(ValueError, match="size"):
        BenchConfig(ns=(), ms=())
    with pytest.raises(ValueError, match="seed"):
        BenchConfig(seeds=())
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs"):
            BenchConfig(jobs=jobs)
    assert BenchConfig(kind="abstract").cover == "greedy"
    assert BenchConfig(kind="convex").cover == "geometric"
    assert BenchConfig(kind="rect").cover == "geometric"


@pytest.mark.parametrize("cover", ["greedy", "exact"])
def test_non_geometric_cover_builds_no_geometric_lattice(monkeypatch, cover):
    import setmaxima.bench as bench_mod

    config = BenchConfig(kind="rect", ns=(60,), ms=(5,), cover=cover)
    expected = run_bench(config)

    def no_build(geometry):
        raise AssertionError(f"{cover} covers need no geometric lattice")

    monkeypatch.setattr(bench_mod, "build_geometric_lattice", no_build)
    records = run_bench(config)
    assert len(records) == len(SOLVERS) and all(r.ok for r in records)
    assert records == expected


@pytest.mark.parametrize(
    "kind, n, m, seed", [("abstract", 40, 6, 3), ("convex", 120, 8, 2), ("rect", 80, 6, 1)]
)
def test_bench_row_reproduces_from_gen_and_solve(tmp_path, capsys, kind, n, m, seed):
    # gen and bench make the same instance and keys, and solve's default
    # cover is bench's, so each record is one solve of the written file
    records = run_bench(BenchConfig(kind=kind, ns=(n,), ms=(m,), seeds=(seed,)))
    assert [rec.algo for rec in records] == list(SOLVERS)
    path = tmp_path / "inst.json"
    assert main(["gen", "--kind", kind, "--n", str(n), "--m", str(m),
                 "--seed", str(seed), "--out", str(path)]) == 0
    for rec in records:
        assert main(["solve", str(path), "--algo", rec.algo]) == 0
        solved = json.loads(capsys.readouterr().out)
        assert (solved["n"], solved["m"], solved["p"], solved["k"]) == (
            rec.n, rec.m, rec.p, rec.k
        )
        assert (solved["comparisons"], solved["bound"], solved["ratio"], solved["ok"]) == (
            rec.comparisons, rec.bound, rec.ratio, rec.ok
        )


def test_verify_instance_geometric():
    inst = gen_convex_instance(n=90, m=8, k=4, seed=21)
    pinst = ProblemInstance(
        system=induced_system(inst), keys=gen_keys(90, 5), geometry=inst
    )
    report = verify_instance(pinst)
    assert report.ok
    assert "VERIFY PASS" in report.text()
    assert "fallbacks=0" in report.text()


def test_verify_instance_abstract_covers_both_modes():
    pinst = ProblemInstance(
        system=system_from_lists(6, [{0, 1, 2}, {2, 3}, {4, 5}]),
        keys=gen_keys(6, 9),
    )
    report = verify_instance(pinst)
    assert report.ok
    assert "lattice[greedy]" in report.text()
    assert "lattice[exact]" in report.text()


def test_verify_requires_keys():
    pinst = ProblemInstance(system=system_from_lists(3, [{0, 1, 2}]))
    with pytest.raises(ValueError):
        verify_instance(pinst)


def test_sweep_ratio_script_runs(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "sweep_ratio.py"
    out = tmp_path / "sweep.csv"
    done = subprocess.run(
        [sys.executable, str(script), "--sizes", "100,300", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()]
    assert [(row[0], row[-1]) for row in rows if row and row[0].isdigit()] == [
        ("100", "yes"), ("300", "yes")
    ]
    with out.open(newline="") as fh:
        assert tuple(next(csv.reader(fh))) == CSV_COLUMNS


@pytest.mark.parametrize("flag", [["--seeds", "0"], ["--seeds", "-2"], ["--jobs", "0"]],
                         ids=" ".join)
def test_cli_bench_that_would_check_nothing_exit_2(tmp_path, capsys, flag):
    out = tmp_path / "b.csv"
    assert main(["bench", "--kind", "convex", "--n", "20", "--m", "2", *flag,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag",
    [["--seeds", "0"], ["--jobs", "0"], ["--sizes", "0"], ["--k", "2"], ["--sizes", "x"]],
    ids=" ".join,
)
def test_sweep_ratio_script_refuses_an_empty_sweep(tmp_path, flag):
    script = Path(__file__).resolve().parent.parent / "scripts" / "sweep_ratio.py"
    out = tmp_path / "sweep.csv"
    done = subprocess.run(
        [sys.executable, str(script), "--sizes", "100", *flag, "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr
    assert not out.exists()
