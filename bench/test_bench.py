"""Tests of the benchmark itself, on tiny versions of its workloads.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import job  # noqa: E402
import run  # noqa: E402
from spans import Spans  # noqa: E402
from workloads import REFERENCE_RTOL, SMOKE, WORKLOADS  # noqa: E402

SPEC = run.SPEC
BADREF = "optimize-o0-smoke-badref"


def bench(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--seed", "3",
         "--seconds", "0", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_the_benchmarks_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(set(SMOKE) - {BADREF}))
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace,
                                                     section):
    code, out = bench("--workload", workload, "--trace", str(trace))
    assert code == 0
    assert out["correct"] and out["failed"] == 0
    assert out["attempted"] == run.MIN_JOBS
    assert {name: m["unit"] for name, m in out["metrics"].items()} \
        == {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(type(m["value"]) in (int, float)
               for m in out["metrics"].values())


def test_perturbed_reference_trips_the_gate():
    code, out = bench("--workload", BADREF, "--trace", "0")
    assert code == 1
    assert not out["correct"]
    assert out["failed"] == out["attempted"] == run.MIN_JOBS


def test_gate_tolerance():
    ref = SMOKE["forward-o0-smoke"].reference
    # Reordering noise passes; a wrong answer or an unconverged one fails.
    assert job.check(ref * (1 + 1e-9), ref, None) is None
    assert job.check(ref * (1 + 10 * REFERENCE_RTOL), ref, None)
    assert job.check(ref, ref, 1e-8)


def test_failed_job_keeps_its_traceback(monkeypatch, capsys):
    def boom(*args):
        raise MemoryError("no room for the mesh")
    monkeypatch.setattr(job, "generate_cylinder", boom)
    job.main(["--workload", "forward-o0-smoke", "--seed", "1"])
    rec = json.loads(capsys.readouterr().out)
    assert not rec["ok"]
    assert rec["failure"].startswith("Traceback")
    assert "in boom" in rec["failure"]
    assert "MemoryError: no room for the mesh" in rec["failure"]


def test_count_mismatch_is_flagged():
    same = [{"counts": {"optimizer.iterations": 84}}] * 2
    assert run.count_mismatches(same) == []
    assert run.count_mismatches(same + [{"ok": False}]) == []
    assert run.count_mismatches(same + [{"counts": {
        "optimizer.iterations": 85}}])


def test_self_time_subtracts_children():
    sp = Spans()
    with sp.span("outer"):
        with sp.span("inner"):
            pass
        with sp.span("inner"):
            pass
    outer, = sp.durations("outer")
    assert sp.self_time("outer") == pytest.approx(
        outer - sp.total("inner"), abs=1e-12)
    assert [r["parent"] for r in sp.records] == [None, 0, 0]


def test_disabled_spans_record_nothing():
    sp = Spans(enabled=False)
    fn = len
    assert sp.wrap("x", fn) is fn
    with sp.span("x"):
        pass
    assert sp.records == []


def test_no_sources_no_result(tmp_path):
    # Only the benchmark and its spec, without the package it measures.
    (tmp_path / "BENCHMARK.json").write_bytes(
        (ROOT / "BENCHMARK.json").read_bytes())
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "forward-o0",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "no eddyopt sources" in proc.stderr
