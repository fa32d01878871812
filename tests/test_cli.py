"""Batch driver: config handling, outputs, determinism, exit codes."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from eddyopt import cli
from eddyopt.cli import main
from eddyopt.mesh import parse_msh


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _not_json(name):
    raise ValueError(f"summary.json holds {name}, which is not JSON")


def _summary(outdir):
    with open(os.path.join(outdir, "summary.json"), encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_not_json)


def test_gen_mesh_writes_msh_json_and_summary(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {"mesh": {"kind": "cube", "n": 2}})
    out = str(tmp_path / "out")
    assert main(["gen-mesh", "--config", cfg, "--out", out]) == 0
    info = _summary(out)["mesh"]
    assert info["n_vertices"] == 27 and info["n_tets"] == 48
    assert info["euler_characteristic"] == 2
    assert info["volume"] == pytest.approx(1.0, rel=1e-14)
    with open(os.path.join(out, "mesh.msh"), encoding="utf-8") as fh:
        m = parse_msh(fh)
    assert m.n_vertices == 27 and m.n_tets == 48
    topo = json.loads((tmp_path / "out" / "mesh.json").read_text())
    assert len(topo["vertices"]) == 27 and len(topo["tets"]) == 48


def test_gen_mesh_output_feeds_back_as_mesh_file(tmp_path):
    cfg = _write(tmp_path, "cfg.json",
                 {"mesh": {"kind": "cylinder", "levels": [[1, 6, 2]]}})
    out1 = str(tmp_path / "o1")
    assert main(["gen-mesh", "--config", cfg, "--out", out1]) == 0
    cfg2 = _write(tmp_path, "cfg2.json",
                  {"mesh": {"file": os.path.join(out1, "mesh.msh")}})
    out2 = str(tmp_path / "o2")
    assert main(["gen-mesh", "--config", cfg2, "--out", out2]) == 0
    assert _summary(out1)["mesh"] == _summary(out2)["mesh"]


def test_console_script_is_installed(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {"mesh": {"kind": "cube", "n": 1}})
    out = str(tmp_path / "out")
    res = subprocess.run(["eddyctl", "gen-mesh", "--config", cfg, "--out", out],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert _summary(out)["ok"] is True


def _assert_solver_records(s, tags):
    # one record per completed level: factor fill, and the largest
    # residual, within the default solver_tol
    assert [lv["level"] for lv in s["levels"]] == tags
    for lv in s["levels"]:
        assert isinstance(lv["nnz_LU"], int) and lv["nnz_LU"] > 0
        assert 0.0 < lv["max_residual"] <= 1e-10


def test_validate_reports_second_order_rate(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "order": 1,
        "mesh": {"kind": "cylinder", "levels": [[1, 6, 2], [2, 12, 4]]},
    })
    out = str(tmp_path / "out")
    assert main(["validate", "--config", cfg, "--out", out]) == 0
    s = _summary(out)
    assert s["ok"] is True and s["order"] == 1
    assert s["rate"] >= 1.8 and s["rate_target"] == 1.8
    _assert_solver_records(s, ["1x6x2", "2x12x4"])
    header, rows = _read_csv(os.path.join(out, "convergence.csv"))
    assert header == ["level", "h", "n_dofs", "hcurl_error", "seconds"]
    assert [r[0] for r in rows] == ["1x6x2", "2x12x4"]
    errs = [float(r[3]) for r in rows]
    assert errs[1] < errs[0]


def test_validate_exit_code_matches_summary_flag(tmp_path):
    # a single level cannot produce a rate, so the command must fail
    cfg = _write(tmp_path, "cfg.json",
                 {"mesh": {"kind": "cylinder", "levels": [[1, 6, 2]]}})
    out = str(tmp_path / "out")
    assert main(["validate", "--config", cfg, "--out", out]) == 1
    s = _summary(out)
    assert s["ok"] is False and s["rate"] is None


def test_grad_check_passes_and_is_deterministic(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "mesh": {"kind": "cylinder", "levels": [[1, 6, 2]]},
        "gradcheck": {"n_probes": 2},
    })
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert main(["grad-check", "--config", cfg, "--out", out]) == 0
        outs.append(out)
    s = _summary(outs[0])
    assert s["ok"] is True and len(s["slopes"]) == 2
    assert all(0.8 <= v <= 1.2 for v in s["slopes"])
    assert all(v <= 1e-7 for v in s["plateaus"])
    for name in ("gradcheck.csv", "summary.json"):
        a = open(os.path.join(outs[0], name), "rb").read()
        b = open(os.path.join(outs[1], name), "rb").read()
        assert a == b
    header, rows = _read_csv(os.path.join(outs[0], "gradcheck.csv"))
    assert header == ["t", "err_probe0", "err_probe1"]
    assert len(rows) == 17
    # CSV floats round-trip exactly through repr
    assert float(rows[0][0]) == 0.1


def test_grad_check_seed_override_changes_probes(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "mesh": {"kind": "cylinder", "levels": [[1, 6, 2]]},
        "gradcheck": {"n_probes": 2, "n_t": 9},
    })
    out0, out1 = str(tmp_path / "s0"), str(tmp_path / "s1")
    assert main(["grad-check", "--config", cfg, "--out", out0]) == 0
    assert main(["grad-check", "--config", cfg, "--out", out1,
                 "--seed", "1"]) == 0
    assert _summary(out0)["seed"] == 0
    assert _summary(out1)["seed"] == 1
    a = open(os.path.join(out0, "gradcheck.csv"), "rb").read()
    b = open(os.path.join(out1, "gradcheck.csv"), "rb").read()
    assert a != b


def test_optimize_two_level_study(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "mesh": {"kind": "cylinder", "base": [1, 8, 2], "refine": 2},
        "problem": {"u_d": "exact_H", "alpha": 1e-3, "beta": 0.0},
        "optimize": {"tol": 1e-9, "max_iter": 400},
    })
    out = str(tmp_path / "out")
    assert main(["optimize", "--config", cfg, "--out", out]) == 0
    s = _summary(out)
    assert s["ok"] is True and s["levels_completed"] == 2
    assert len(s["gaps"]) == 1 and s["gaps"][0]["level"] == "L0"
    assert s["gaps"][0]["gap_J"] > 0
    _assert_solver_records(s, ["L0", "L1"])
    header, rows = _read_csv(os.path.join(out, "study.csv"))
    assert header[:5] == ["level", "h", "n_dofs", "n_controls", "J"]
    assert [r[0] for r in rows] == ["L0", "L1"]
    assert int(rows[0][3]) == 72 and int(rows[1][3]) == 288
    assert all(float(r[8]) <= 1e-9 for r in rows)  # grad_norm column
    for tag, n_controls in (("L0", 72), ("L1", 288)):
        chead, crows = _read_csv(os.path.join(out, f"control_{tag}.csv"))
        assert chead == ["edge", "x", "y", "z", "re", "im"]
        assert len(crows) == n_controls
    hhead, hrows = _read_csv(os.path.join(out, "history.csv"))
    assert hhead[:3] == ["level", "iteration", "J"]
    for tag in ("L0", "L1"):
        J = [float(r[2]) for r in hrows if r[0] == tag]
        assert all(b < a for a, b in zip(J, J[1:]))
    # deterministic artifacts are byte-identical across reruns
    out2 = str(tmp_path / "out2")
    assert main(["optimize", "--config", cfg, "--out", out2]) == 0
    for name in ("history.csv", "control_L0.csv", "control_L1.csv",
                 "summary.json"):
        a = open(os.path.join(out, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        assert a == b


def test_optimize_trivial_target_returns_zero_control(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "mesh": {"kind": "cylinder", "base": [1, 6, 2], "refine": 1},
        "problem": {"u_d": [0, 0, 0], "alpha": 1e-3, "beta": 1e-3},
        "optimize": {"tol": 1e-11},
    })
    out = str(tmp_path / "out")
    assert main(["optimize", "--config", cfg, "--out", out]) == 0
    _, rows = _read_csv(os.path.join(out, "study.csv"))
    assert float(rows[0][4]) <= 1e-15  # J* = 0
    _, crows = _read_csv(os.path.join(out, "control_L0.csv"))
    z = np.array([[float(r[4]), float(r[5])] for r in crows])
    assert np.abs(z).max() <= 1e-6
    # two levels: the gap relative to the finest J* = 0 is undefined, so it
    # is null in summary.json (strict JSON) and an empty cell in study.csv
    cfg = _write(tmp_path, "cfg2.json", {
        "mesh": {"kind": "cylinder", "base": [1, 6, 2], "refine": 2},
        "problem": {"u_d": [0, 0, 0], "alpha": 1e-3, "beta": 1e-3},
        "optimize": {"tol": 1e-11},
    })
    out = str(tmp_path / "out2")
    assert main(["optimize", "--config", cfg, "--out", out]) == 0
    s = _summary(out)
    assert s["ok"] is True and s["levels_completed"] == 2
    assert s["gaps"] == [{"level": "L0", "gap_J": None, "gap_J1": None}]
    assert s["monotone_gap_J"] is None and s["monotone_gap_J1"] is None
    header, rows = _read_csv(os.path.join(out, "study.csv"))
    assert [r[header.index("gap_J")] for r in rows] == ["", ""]
    assert [r[header.index("gap_J1")] for r in rows] == ["", ""]


def test_optimize_failure_keeps_its_traceback(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "mesh": {"kind": "cylinder", "base": [1, 6, 2], "refine": 2},
        "problem": {"u_d": [0.1, 0.0, 0.2], "solver_tol": 1e-20},
    })
    out = str(tmp_path / "out")
    assert main(["optimize", "--config", cfg, "--out", out]) == 1
    s = _summary(out)
    assert s["ok"] is False and s["levels_completed"] == 0
    assert s["failure"].startswith("level L0:")
    assert "Traceback" in s["traceback"] and "SolverError" in s["traceback"]
    for name in ("history.csv", "study.csv"):  # written, with no rows
        assert _read_csv(os.path.join(out, name))[1] == []


def test_optimize_writes_vtk_state(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "mesh": {"kind": "cylinder", "base": [1, 6, 2], "refine": 1},
        "problem": {"u_d": [0.1, 0.0, 0.2], "alpha": 1e-3},
        "vtk": True,
    })
    out = str(tmp_path / "out")
    assert main(["optimize", "--config", cfg, "--out", out]) == 0
    lines = open(os.path.join(out, "state_L0.vtk"), encoding="utf-8").read().splitlines()
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert "DATASET UNSTRUCTURED_GRID" in lines[:5]
    from eddyopt.mesh import generate_cylinder
    m = generate_cylinder(0.5, 1.0, 1, 6, 2)
    n_pts = int(next(l for l in lines if l.startswith("POINTS")).split()[1])
    n_cells = int(next(l for l in lines if l.startswith("CELLS")).split()[1])
    assert n_pts == m.n_vertices and n_cells == m.n_tets
    assert sum(1 for l in lines if l.startswith("VECTORS")) == 2
    assert sum(1 for l in lines if l == "4" or l.startswith("4 ")) == m.n_tets


def test_config_errors_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json", encoding="utf-8")
    assert main(["gen-mesh", "--config", str(bad), "--out",
                 str(tmp_path / "o")]) == 2
    assert "invalid JSON" in capsys.readouterr().err

    assert main(["gen-mesh", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o")]) == 2
    capsys.readouterr()

    cfg = _write(tmp_path, "o3.json", {"order": 3})
    assert main(["gen-mesh", "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 2
    assert "order" in capsys.readouterr().err

    cfg = _write(tmp_path, "kind.json", {"mesh": {"kind": "sphere"}})
    assert main(["gen-mesh", "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 2
    assert "sphere" in capsys.readouterr().err

    cfg = _write(tmp_path, "field.json", {
        "mesh": {"kind": "cube", "n": 1},
        "problem": {"u_d": "exact_Q"},
    })
    assert main(["grad-check", "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 2
    assert "exact_Q" in capsys.readouterr().err

    cfg = _write(tmp_path, "noud.json", {
        "mesh": {"kind": "cylinder", "base": [1, 6, 2], "refine": 1}})
    assert main(["optimize", "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 2
    assert "u_d" in capsys.readouterr().err


@pytest.mark.parametrize("payload", [
    {"problem": {"alpha": 0, "beta": 0, "u_d": "exact_H"}},
    {"electrode": {"R": -1}},
    {"order": "x"},
], ids=["zero-weights", "negative-radius", "order-not-int"])
def test_bad_config_values_exit_two(tmp_path, capsys, payload):
    cfg = _write(tmp_path, "cfg.json", payload)
    assert main(["optimize", "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("eddyctl:")


def test_grad_check_keeps_the_quadrature_order(tmp_path, monkeypatch):
    # with neither u_d nor j_c set, grad-check supplies both and must keep
    # every other problem setting
    seen = []

    class Recording(cli.ReducedProblem):
        def __init__(self, mesh, space, config):
            seen.append(config.quad_order)
            super().__init__(mesh, space, config)

    monkeypatch.setattr(cli, "ReducedProblem", Recording)
    cfg = _write(tmp_path, "cfg.json", {
        "mesh": {"kind": "cylinder", "levels": [[1, 6, 2]]},
        "problem": {"quad_order": 6},
        "gradcheck": {"n_probes": 1, "n_t": 9},
    })
    assert main(["grad-check", "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 0
    assert seen == [6]


def test_order_override_flows_into_summary(tmp_path):
    cfg = _write(tmp_path, "cfg.json",
                 {"mesh": {"kind": "cylinder", "levels": [[1, 6, 2]]},
                  "gradcheck": {"n_probes": 1, "n_t": 9}})
    out = str(tmp_path / "out")
    assert main(["grad-check", "--config", cfg, "--out", out,
                 "--order", "1"]) == 0
    assert _summary(out)["order"] == 1
