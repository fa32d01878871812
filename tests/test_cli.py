"""Batch driver: config handling, outputs, determinism, exit codes."""

import csv
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from eddyopt import cli, nedelec, wirtinger
from eddyopt.cli import main
from eddyopt.mesh import generate_cube, parse_msh, write_msh

# written by json.dumps as NaN and Infinity, which json.load accepts
NAN, INF = float("nan"), float("inf")


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
    cfg = _write(tmp_path, "cfg.json",
                 {"mesh": {"kind": "cube", "levels": [2]}})
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


def test_gen_mesh_writes_the_first_level_of_the_family(tmp_path):
    # validate would run n = 1 first, so gen-mesh writes that mesh, not the
    # default n = 2
    cfg = _write(tmp_path, "cfg.json",
                 {"mesh": {"kind": "cube", "levels": [1, 2]}})
    out = str(tmp_path / "out")
    assert main(["gen-mesh", "--config", cfg, "--out", out]) == 0
    info = _summary(out)["mesh"]
    assert info["n_vertices"] == 8 and info["n_tets"] == 6


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
    cfg = _write(tmp_path, "cfg.json",
                 {"mesh": {"kind": "cube", "levels": [1]}})
    out = str(tmp_path / "out")
    res = subprocess.run(["eddyctl", "gen-mesh", "--config", cfg, "--out", out],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert _summary(out)["ok"] is True


def _assert_solver_records(s, tags, factor_dtype):
    # one record per completed level: matrix size, factor fill, the
    # largest residual, within the default solver_tol, and the factor's
    # precision with its refinement steps (none in complex128)
    assert [lv["level"] for lv in s["levels"]] == tags
    for lv in s["levels"]:
        assert isinstance(lv["nnz_A_II"], int) and lv["nnz_A_II"] > 0
        assert isinstance(lv["nnz_LU"], int) and lv["nnz_LU"] > 0
        assert 0.0 < lv["max_residual"] <= 1e-10
        assert lv["factor_dtype"] == factor_dtype
        assert 0 <= lv["max_refinements"] <= lv["n_refinements"]
        if factor_dtype == "complex128":
            assert lv["n_refinements"] == 0


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
    _assert_solver_records(s, ["1x6x2", "2x12x4"], "complex64")
    header, rows = _read_csv(os.path.join(out, "convergence.csv"))
    assert header == ["level", "h", "n_dofs", "hcurl_error", "seconds",
                      "peak_rss_mb"]
    assert all(float(r[5]) > 0 for r in rows)
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


@pytest.mark.parametrize("command", ["gen-mesh", "validate", "optimize"])
def test_seed_flag_exists_only_on_grad_check(tmp_path, capsys, command):
    # only grad-check draws random numbers, so only it takes --seed
    cfg = _write(tmp_path, "cfg.json",
                 {"mesh": {"kind": "cube", "levels": [1]},
                  "problem": {"u_d": [1, 0, 0]}})
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--out", str(out), "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


_ROD_LEVELS = {"kind": "cylinder", "levels": [[1, 6, 2], [2, 12, 4]]}


def test_validate_runs_with_the_config_solver_tol(tmp_path):
    # no solve meets 1e-30, so the first level raises and is recorded
    cfg = _write(tmp_path, "cfg.json", {"mesh": _ROD_LEVELS,
                                        "problem": {"solver_tol": 1e-30}})
    out = str(tmp_path / "out")
    assert main(["validate", "--config", cfg, "--out", out]) == 1
    s = _summary(out)
    assert s["failure"].startswith("level 1x6x2: SolverError: relative "
                                   "residual")
    assert "SolverError" in s["traceback"] and s["levels_completed"] == 0


def test_validate_runs_with_the_config_quad_order(tmp_path):
    # degree 1 does not integrate the order-0 products exactly (degree 2)
    errs = []
    for name, problem in (("default", {}), ("q1", {"quad_order": 1})):
        cfg = _write(tmp_path, f"{name}.json",
                     {"mesh": _ROD_LEVELS, "problem": problem})
        out = str(tmp_path / name)
        main(["validate", "--config", cfg, "--out", out])
        _, rows = _read_csv(os.path.join(out, "convergence.csv"))
        errs.append(np.array([float(r[3]) for r in rows]))
    assert np.all(np.abs(errs[1] / errs[0] - 1.0) > 1e-5)


def test_validate_takes_its_physics_from_the_electrode(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "electrode": {"sigma": 4.0, "mu": 2.0, "omega": 3.0},
        "problem": {"mu": 5.0, "omega": 7.0, "u_d": "exact_H",
                    "j_c": [1, 0, 0], "solver_tol": 1e-9, "quad_order": 5}})
    p = cli.load_config(cfg, "validate").problem
    assert (p.mu, p.kappa, p.omega) == (0.25, 2.0, 3.0)
    assert p.j_c is None and p.u_d is None
    assert (p.solver_tol, p.quad_order) == (1e-9, 5)


def test_optimize_two_level_study(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "mesh": {"kind": "cylinder", "levels": [[1, 8, 2]], "refine": 2},
        "problem": {"u_d": "exact_H", "alpha": 1e-3, "beta": 0.0},
        "optimize": {"tol": 1e-9, "max_iter": 400},
    })
    out = str(tmp_path / "out")
    assert main(["optimize", "--config", cfg, "--out", out]) == 0
    s = _summary(out)
    assert s["ok"] is True and s["levels_completed"] == 2
    assert len(s["gaps"]) == 1 and s["gaps"][0]["level"] == "L0"
    assert s["gaps"][0]["gap_J"] > 0
    _assert_solver_records(s, ["L0", "L1"], "complex128")
    header, rows = _read_csv(os.path.join(out, "study.csv"))
    assert header[:5] == ["level", "h", "n_dofs", "n_controls", "J"]
    assert header[11:13] == ["seconds", "peak_rss_mb"]
    assert all(float(r[12]) > 0 for r in rows)
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
        "mesh": {"kind": "cylinder", "levels": [[1, 6, 2]], "refine": 1},
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
        "mesh": {"kind": "cylinder", "levels": [[1, 6, 2]], "refine": 2},
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


@pytest.mark.parametrize("error", ["SolverError", "AssemblyError"])
def test_optimize_failure_keeps_its_traceback(tmp_path, monkeypatch, error):
    problem = {"u_d": [0.1, 0.0, 0.2]}
    if error == "SolverError":  # no solve reaches this tolerance
        problem["solver_tol"] = 1e-20
    else:  # raised while ReducedProblem builds the tracking data
        def _load(*args):
            raise nedelec.AssemblyError("u_d is not finite")
        monkeypatch.setattr(wirtinger, "_load", _load)
    cfg = _write(tmp_path, "cfg.json", {
        "mesh": {"kind": "cylinder", "levels": [[1, 6, 2]], "refine": 2},
        "problem": problem,
    })
    out = str(tmp_path / "out")
    assert main(["optimize", "--config", cfg, "--out", out]) == 1
    s = _summary(out)
    assert s["ok"] is False and s["levels_completed"] == 0
    assert s["failure"].startswith(f"level L0: {error}: ")
    assert "Traceback" in s["traceback"] and error in s["traceback"]
    if error == "AssemblyError":  # the frames that built the data are kept
        assert re.search(r'wirtinger\.py", line \d+, in __init__',
                         s["traceback"])
        assert "in _load" in s["traceback"]
    for name in ("history.csv", "study.csv"):  # written, with no rows
        assert _read_csv(os.path.join(out, name))[1] == []


def test_optimize_writes_vtk_state(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "mesh": {"kind": "cylinder", "levels": [[1, 6, 2]], "refine": 1},
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
        "mesh": {"kind": "cube", "levels": [1]},
        "problem": {"u_d": "exact_Q"},
    })
    assert main(["grad-check", "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 2
    assert "exact_Q" in capsys.readouterr().err

    cfg = _write(tmp_path, "noud.json", {
        "mesh": {"kind": "cylinder", "levels": [[1, 6, 2]], "refine": 1}})
    assert main(["optimize", "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 2
    assert "u_d" in capsys.readouterr().err

    cfg = _write(tmp_path, "seed.json",
                 {"mesh": {"kind": "cube", "levels": [1]}})
    assert main(["grad-check", "--config", cfg, "--out",
                 str(tmp_path / "o"), "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err

    # a node line with three fields, which used to raise IndexError
    msh = tmp_path / "short.msh"
    good = write_msh(generate_cube(1))
    msh.write_text(good.replace("\n1 0.0 0.0 0.0\n", "\n1 0.0 0.0\n", 1),
                   encoding="utf-8")
    cfg = _write(tmp_path, "msh.json", {"mesh": {"file": str(msh)}})
    assert main(["gen-mesh", "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 2
    assert "$Nodes" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()

    # empty sections and a one-field format line, which raised IndexError
    for name, text in [
            ("Nodes", good.split("$Nodes\n")[0] + "$Nodes\n$EndNodes\n"
             + good.split("$EndNodes\n")[1]),
            ("MeshFormat", good.replace("2.2 0 8\n", "", 1)),
            ("Elements", good.split("$Elements\n")[0]
             + "$Elements\n$EndElements\n"),
            ("MeshFormat", good.replace("2.2 0 8", "2.2", 1))]:
        msh.write_text(text, encoding="utf-8")
        assert main(["gen-mesh", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 2
        assert f"${name}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, payload", [
    pytest.param("optimize",
                 {"problem": {"alpha": 0, "beta": 0, "u_d": "exact_H"}},
                 id="zero-weights"),
    pytest.param("optimize", {"electrode": {"R": -1}}, id="negative-radius"),
    # JSON's NaN and Infinity parse as floats and pass sign checks
    pytest.param("optimize", {"problem": {"alpha": float("nan"),
                                          "u_d": "exact_H"}},
                 id="alpha-nan"),
    pytest.param("optimize", {"problem": {"omega": float("inf"),
                                          "u_d": "exact_H"}},
                 id="omega-infinite"),
    pytest.param("validate", {"electrode": {"omega": float("nan")}},
                 id="electrode-omega-nan"),
    pytest.param("optimize", {"order": "x"}, id="order-not-int"),
    pytest.param("gen-mesh", {"mesh": {"kind": "cube", "levels": ["x"]}},
                 id="cube-n-not-int"),
    pytest.param("optimize", {"problem": {"u_d": ["a", 0, 0]}},
                 id="field-not-numeric"),
    pytest.param("optimize", {"optimize": {"tol": "x"},
                              "problem": {"u_d": "exact_H"}},
                 id="tol-not-float"),
    pytest.param("validate", {"mesh": {"levels": [[1, "x", 2]]}},
                 id="level-not-int"),
    pytest.param("validate", {"mesh": {"levels": 5}}, id="levels-not-list"),
    pytest.param("gen-mesh", {"mesh": "cube"}, id="mesh-not-object"),
    pytest.param("grad-check", {"gradcheck": {"n_probes": "x"}},
                 id="n-probes-not-int"),
    pytest.param("gen-mesh", {"mesh": {"file": "no-such-dir/mesh.msh"}},
                 id="mesh-file-missing"),
    # an empty family would report "ok" without solving anything
    pytest.param("optimize", {"mesh": {"kind": "cylinder",
                                       "levels": [[1, 6, 2]], "refine": 0},
                              "problem": {"u_d": "exact_H"}},
                 id="refine-zero"),
    pytest.param("validate", {"mesh": {"levels": []}}, id="levels-empty"),
    # grad-check settings from which no slope can be fitted
    pytest.param("grad-check", {"gradcheck": {"fit_floor": 1.0}},
                 id="fit-floor-above-steps"),
    pytest.param("grad-check", {"gradcheck": {"n_probes": 0}},
                 id="no-probes"),
    # a generator limit broken by a later level, caught before the first
    pytest.param("validate", {"vtk": True,
                              "mesh": {"levels": [[1, 6, 2], [1, 2, 2]]}},
                 id="later-cylinder-level-out-of-range"),
    pytest.param("optimize", {"mesh": {"kind": "cube", "levels": [1, 0]},
                              "problem": {"u_d": [1, 0, 0]}},
                 id="later-cube-level-out-of-range"),
    # fractional counts, which int() would truncate to a valid run
    pytest.param("validate", {"mesh": {"levels": [[1.5, 6.9, 2]]}},
                 id="level-fractional"),
    pytest.param("gen-mesh", {"mesh": {"kind": "cube", "levels": [1.9]}},
                 id="cube-n-fractional"),
    pytest.param("validate", {"order": 1.7}, id="order-fractional"),
    pytest.param("optimize", {"mesh": {"kind": "cylinder",
                                       "levels": [[1, 6, 2]], "refine": 1.5},
                              "problem": {"u_d": "exact_H"}},
                 id="refine-fractional"),
    # JSON true is a Python bool, and int(True) == 1
    pytest.param("gen-mesh", {"mesh": {"kind": "cube", "levels": [True]}},
                 id="count-boolean"),
    pytest.param("grad-check", {"seed": -1}, id="seed-negative"),
    pytest.param("validate", {"vtk": "false"}, id="vtk-not-bool"),
    # only a level study writes VTK files
    pytest.param("gen-mesh", {"vtk": True,
                              "mesh": {"kind": "cube", "levels": [1]}},
                 id="vtk-on-gen-mesh"),
    pytest.param("grad-check", {"vtk": True,
                                "mesh": {"kind": "cube", "levels": [1]}},
                 id="vtk-on-grad-check"),
    # non-finite or non-positive physics, which would fail in a solve or
    # the assembly after the output directory was written
    pytest.param("grad-check", {"problem": {"j_c": [NAN, 0, 0]}},
                 id="j-c-nan"),
    pytest.param("grad-check", {"problem": {"u_d": {"re": [1, 0, 0],
                                                    "im": [INF, 0, 0]}}},
                 id="u-d-im-inf"),
    # a field object reads only re and im; a misspelt key is not zero
    pytest.param("grad-check", {"problem": {"u_d": {"re": [1, 0, 0],
                                                    "imag": [0, 1, 0]}}},
                 id="u-d-unknown-key"),
    pytest.param("grad-check", {"problem": {"j_c": {"real": [0, 0, 1]}}},
                 id="j-c-unknown-key"),
    pytest.param("grad-check", {"problem": {"mu": NAN}}, id="mu-nan"),
    pytest.param("grad-check", {"problem": {"kappa": INF}}, id="kappa-inf"),
    pytest.param("grad-check", {"problem": {"mu": -1.0}}, id="mu-negative"),
    pytest.param("grad-check", {"problem": {"kappa": -1}},
                 id="kappa-negative"),
    pytest.param("grad-check", {"problem": {"kappa": 0}}, id="kappa-zero"),
    # a tolerance no gradient norm can reach, or an iteration count below 0
    pytest.param("optimize", {"problem": {"u_d": [1, 0, 0]},
                              "optimize": {"tol": NAN}}, id="tol-nan"),
    pytest.param("optimize", {"problem": {"u_d": [1, 0, 0]},
                              "optimize": {"tol": -1.0}}, id="tol-negative"),
    pytest.param("optimize", {"problem": {"u_d": [1, 0, 0]},
                              "optimize": {"tol": INF}}, id="tol-inf"),
    pytest.param("optimize", {"problem": {"u_d": [1, 0, 0]},
                              "optimize": {"max_iter": -3}},
                 id="max-iter-negative"),
    pytest.param("optimize", {"problem": {"u_d": [1, 0, 0]},
                              "optimize": {"max_iter": INF}},
                 id="max-iter-inf"),
    # a solve tolerance no residual can meet, a rule degree below 1
    pytest.param("grad-check", {"problem": {"solver_tol": -1}},
                 id="solver-tol-negative"),
    pytest.param("grad-check", {"problem": {"quad_order": 0}},
                 id="quad-order-zero"),
    pytest.param("grad-check", {"problem": {"quad_order": -1}},
                 id="quad-order-negative"),
    # mesh keys the chosen layout does not read; cube.msh is a valid mesh
    # file in the working directory
    pytest.param("gen-mesh", {"mesh": {"levels": [[1, 6, 2], [2, 12, 4]],
                                       "base": [1, 8, 2]}},
                 id="base-without-refine"),
    pytest.param("gen-mesh", {"mesh": {"levels": [[1, 6, 2], [2, 12, 4]],
                                       "refine": 2}},
                 id="refine-on-two-levels"),
    pytest.param("gen-mesh", {"mesh": {"refine": 2}},
                 id="refine-on-the-default-levels"),
    pytest.param("gen-mesh", {"mesh": {"kind": "cube", "R": 0.5,
                                       "base": [1, 6, 2]}},
                 id="cube-given-r-and-base"),
    pytest.param("gen-mesh", {"mesh": {"kind": "cylinder", "n": 3}},
                 id="cylinder-given-n"),
    pytest.param("gen-mesh", {"mesh": {"kind": "cube", "n": 1,
                                       "levels": [1, 2]}},
                 id="n-next-to-levels"),
    pytest.param("gen-mesh", {"mesh": {"levels": [[2, 12, 4]],
                                       "base": [1, 6, 2], "refine": 2}},
                 id="levels-next-to-base"),
    pytest.param("gen-mesh", {"mesh": {"file": "cube.msh", "kind": "sphere"}},
                 id="kind-next-to-file"),
    pytest.param("gen-mesh", {"mesh": {"file": "cube.msh", "levels": [2]}},
                 id="levels-next-to-file"),
    # checked even where --out overrides it; true would open stdout's fd
    pytest.param("gen-mesh", {"out": 5,
                              "mesh": {"kind": "cube", "levels": [1]}},
                 id="out-not-a-string"),
    pytest.param("gen-mesh", {"mesh": {"file": True}},
                 id="mesh-file-not-a-string"),
    # an infinite radius made numpy warn and the prism split fail
    pytest.param("gen-mesh", {"mesh": {"kind": "cylinder", "R": INF,
                                       "levels": [[1, 6, 2]]}},
                 id="R-infinite"),
    # float() reads true as 1.0, false as 0.0 and "0.5" as 0.5
    pytest.param("optimize", {"problem": {"alpha": True, "u_d": "exact_H"}},
                 id="alpha-true"),
    pytest.param("validate", {"electrode": {"iota1": False},
                              "mesh": {"levels": [[1, 6, 2]]}},
                 id="iota1-false"),
    pytest.param("optimize", {"problem": {"u_d": "exact_H"},
                              "optimize": {"tol": "0.5"}}, id="tol-string"),
    pytest.param("gen-mesh", {"electrode": {"R": "0.5"}},
                 id="electrode-R-string"),
    pytest.param("grad-check", {"problem": {"mu": "2"},
                                "mesh": {"kind": "cube", "levels": [1]}},
                 id="mu-string"),
    pytest.param("gen-mesh", {"mesh": {"L": "2", "levels": [[1, 6, 2]]}},
                 id="mesh-L-string"),
    # checked before np.geomspace, which warns on an infinite end point
    pytest.param("grad-check", {"gradcheck": {"t_max": INF}}, id="t-max-inf"),
])
def test_bad_config_values_exit_two(tmp_path, monkeypatch, capsys, command,
                                    payload):
    monkeypatch.chdir(tmp_path)
    write_msh(generate_cube(1), "cube.msh")
    cfg = _write(tmp_path, "cfg.json", payload)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("eddyctl:")
    # checked before any output
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("payload, key", [
    ({"out": 5, "mesh": {"kind": "cube", "levels": [1]}}, "out"),
    ({"mesh": {"file": True}}, "mesh.file")], ids=["out", "mesh-file"])
def test_a_path_that_is_not_a_string_names_its_key(tmp_path, capsys, payload,
                                                   key):
    cfg = _write(tmp_path, "cfg.json", payload)
    assert main(["gen-mesh", "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 2
    assert f"{key} must be a string" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("payload, message", [
    ({"problem": {"alpha": True}}, "problem.alpha must be a number, got True"),
    ({"electrode": {"iota1": False}},
     "electrode.iota1 must be a number, got False"),
    ({"optimize": {"tol": "0.5"}}, "optimize.tol must be a number, got '0.5'"),
    ({"electrode": {"R": "0.5"}}, "electrode.R must be a number, got '0.5'"),
    ({"problem": {"mu": "2"}}, "problem.mu must be a number, got '2'"),
    ({"mesh": {"L": "2"}}, "mesh.L must be a number, got '2'"),
    ({"gradcheck": {"t_max": INF}},
     "gradcheck.t_max must be finite and positive, got inf"),
    ({"gradcheck": {"t_min": 0}},
     "gradcheck.t_min must be finite and positive, got 0"),
    ({"gradcheck": {"fit_floor": NAN}},
     "gradcheck.fit_floor must be finite and positive, got nan"),
    ({"mesh": {"R": INF}}, "R must be finite and positive, got inf"),
    ({"mesh": {"L": -1}}, "L must be finite and positive, got -1.0"),
], ids=["alpha-true", "iota1-false", "tol-string", "electrode-R-string",
        "mu-string", "mesh-L-string", "t-max-inf", "t-min-zero",
        "fit-floor-nan", "R-infinite", "L-negative"])
def test_a_bad_number_names_its_key(tmp_path, capsys, payload, message):
    cfg = _write(tmp_path, "cfg.json", payload)
    assert main(["gen-mesh", "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("field, bad, section", [
    (b"\n1 0.0 0.0 0.0\n", b"\n1 0.0 x 0.0\n", "$Nodes"),
    (b"\n1 0.0 0.0 0.0\n", b"\n1.5 0.0 0.0 0.0\n", "$Nodes"),
    (b"\n1 0.0 0.0 0.0\n", b"\n1 0.0 \xff 0.0\n", "$Nodes"),
    (b"\n8\n", b"\n8.0\n", "$Nodes"),
    (b"\n1 2 2 0 1 ", b"\n1 2 2 0.5 1 ", "$Elements")],
    ids=["non-numeric-coordinate", "fractional-node-id", "not-utf-8",
         "non-integer-count", "non-integer-tag"])
def test_a_mesh_file_with_a_bad_field_names_its_section(tmp_path, capsys, field,
                                                        bad, section):
    msh = tmp_path / "bad.msh"
    msh.write_bytes(write_msh(generate_cube(1)).encode().replace(field, bad, 1))
    cfg = _write(tmp_path, "cfg.json", {"mesh": {"file": str(msh)}})
    assert main(["gen-mesh", "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("eddyctl:") and section in err
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize("problem, error", [
    ({"solver_tol": 1e-20}, "SolverError"),
    ({}, "AssemblyError"),
])
def test_grad_check_failure_keeps_its_traceback(tmp_path, monkeypatch,
                                                problem, error):
    # an error outside a level study is recorded like one inside it
    if error == "AssemblyError":  # a coefficient rejected at the assembly
        check = nedelec._coeff_at

        def failing(c, pts, what):
            if pts.ndim > 1:  # the assembly's points, not the config check
                raise nedelec.AssemblyError(f"{what} is not positive definite")
            return check(c, pts, what)
        monkeypatch.setattr(nedelec, "_coeff_at", failing)
    cfg = _write(tmp_path, "cfg.json", {
        "mesh": {"kind": "cylinder", "levels": [[1, 6, 2]]},
        "problem": problem,
        "gradcheck": {"n_probes": 1, "n_t": 9},
    })
    out = str(tmp_path / "out")
    assert main(["grad-check", "--config", cfg, "--out", out]) == 1
    s = _summary(out)
    assert s["ok"] is False and s["command"] == "grad-check"
    assert s["failure"].startswith(f"{error}: ")
    assert "Traceback" in s["traceback"] and error in s["traceback"]


def test_optimizer_that_stops_short_records_no_convergence(tmp_path):
    # one iteration cannot reach the gradient tolerance: the run ends with a
    # failure record, every level still solved, and no traceback to keep
    cfg = _write(tmp_path, "cfg.json", {
        "mesh": {"kind": "cylinder", "levels": [[1, 6, 2]], "refine": 2},
        "problem": {"u_d": "exact_H"},
        "optimize": {"max_iter": 1},
    })
    out = str(tmp_path / "out")
    assert main(["optimize", "--config", cfg, "--out", out]) == 1
    s = _summary(out)  # strict JSON: NaN or Infinity would raise
    assert s["ok"] is False and s["command"] == "optimize"
    assert s["failure"] == ("level L1: no convergence "
                            "(grad_norm=1.731e-03 > 1.0e-09)")
    assert s["traceback"] is None
    assert s["levels_completed"] == 2


def test_out_naming_a_file_exits_two(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json",
                 {"mesh": {"kind": "cube", "levels": [1]}})
    out = tmp_path / "taken"
    out.write_text("", encoding="utf-8")
    assert main(["gen-mesh", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("eddyctl:")
    assert out.read_text(encoding="utf-8") == ""


@pytest.mark.parametrize("command, payload", [
    ("gen-mesh", {"mesh": {"kind": "cube", "levels": [1]}}),
    # one level fits no rate: ok is false, with no failure
    ("validate", {"mesh": {"kind": "cylinder", "levels": [[1, 6, 2]]}}),
    ("grad-check", {"mesh": {"kind": "cube", "levels": [1]},
                    "gradcheck": {"n_probes": 1, "n_t": 9}}),
    ("optimize", {"mesh": {"kind": "cube", "levels": [1]},
                  "problem": {"u_d": [0.1, 0, 0.2]}}),
])
def test_every_command_writes_the_same_summary_record(tmp_path, command,
                                                      payload):
    cfg = _write(tmp_path, "cfg.json", payload)
    out = str(tmp_path / "out")
    code = main([command, "--config", cfg, "--out", out])
    s = _summary(out)  # strict JSON: NaN or Infinity would raise
    assert s["command"] == command
    assert code == (0 if s["ok"] else 1)
    assert s["failure"] is None and s["traceback"] is None


def test_a_summary_json_cannot_hold_leaves_no_file(tmp_path):
    # a NaN is refused before summary.json is opened, not halfway through
    with pytest.raises(ValueError):
        cli._write_summary(str(tmp_path), {"ok": False, "rate": NAN})
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("command, payload, key", [
    ("validate", {"problem": {"solvr_tol": 1e-30}}, "problem.solvr_tol"),
    ("validate", {"optimise": {"tol": -1}}, "optimise"),
    ("gen-mesh", {"electrode": {"radius": 0.5}}, "electrode.radius"),
    ("gen-mesh", {"mesh": {"kind": "cube", "size": 1}}, "mesh.size"),
    ("optimize", {"problem": {"u_d": [1, 0, 0]},
                  "optimize": {"maxiter": 3}}, "optimize.maxiter"),
    ("grad-check", {"gradcheck": {"n_probe": 1}}, "gradcheck.n_probe"),
    # a family is stated by levels only: n was a cube's one level and base
    # a cylinder's one level before refine
    ("gen-mesh", {"mesh": {"kind": "cube", "n": 1}}, "mesh.n"),
    ("optimize", {"problem": {"u_d": [1, 0, 0]},
                  "mesh": {"base": [1, 8, 2], "refine": 3}}, "mesh.base"),
])
def test_a_misspelled_config_key_exits_two(tmp_path, capsys, command,
                                           payload, key):
    # a misspelled key would otherwise run as if it were absent
    cfg = _write(tmp_path, "cfg.json", payload)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"eddyctl: unknown config key {key}\n"
    assert not out.exists()


def test_keys_a_command_does_not_read_are_accepted(tmp_path):
    # one config file serves every command
    cfg = _write(tmp_path, "cfg.json", {
        "seed": 3, "vtk": False, "mesh": {"kind": "cube", "levels": [1]},
        "optimize": {"tol": 1e-8, "max_iter": 10},
        "gradcheck": {"n_probes": 2}})
    assert main(["gen-mesh", "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 0
