"""Batch command-line driver.

Four subcommands, all configured by a JSON file and writing CSV tables plus
a ``summary.json`` into an output directory:

* ``gen-mesh``   build a mesh and dump it (MSH v2.2 + JSON topology report)
* ``validate``   boundary-driven solves against the analytic cylinder field
                 on a refinement family; reports the H(curl) convergence rate
* ``grad-check`` finite-difference probe of the reduced gradient
* ``optimize``   limited-memory BFGS (20 pairs) control optimization across
                 a refinement family with relative cost gaps against the
                 finest level

Every command is deterministic for a fixed seed.  The exit code is 0 only
if all internal assertions (rate/slope/plateau/termination checks) pass.
"""

import argparse
import csv
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

from . import analytic, mesh as meshmod
from .analytic import ElectrodeParams
from .mesh import (generate_cube, generate_cylinder, mesh_size, parse_msh,
                   refine_uniform, write_msh, mesh_to_json)
from .nedelec import FESpace, ProblemConfig, evaluate_field, hcurl_error, interpolate
from .solver import StateOperator
from .wirtinger import ReducedProblem, bfgs_minimize, fd_check, loglog_slope


class ConfigError(ValueError):
    """Raised for malformed run configuration files."""


# Coarsest cylinder level that sits in the asymptotic range differs by order:
# the lowest order needs one extra refinement before the rate is clean.
_DEFAULT_LEVELS = {
    0: [[2, 12, 4], [4, 24, 8], [8, 48, 16]],
    1: [[1, 6, 2], [2, 12, 4], [4, 24, 8]],
}


@dataclass
class RunConfig:
    """Fully resolved settings for one CLI command."""

    command: str
    mesh: dict
    order: int
    problem: dict
    electrode: ElectrodeParams
    out: str
    seed: int = 0
    vtk: bool = False
    optimize: dict = field(default_factory=dict)
    gradcheck: dict = field(default_factory=dict)

    @property
    def levels(self):
        default = _DEFAULT_LEVELS[self.order]
        return [tuple(lv) for lv in self.mesh.get("levels", default)]


def _as_complex_vec(spec, name):
    """Accept [a, b, c] (real) or {"re": [...], "im": [...]}."""
    if isinstance(spec, dict):
        re = np.asarray(spec.get("re", [0, 0, 0]), dtype=float)
        im = np.asarray(spec.get("im", [0, 0, 0]), dtype=float)
        if re.shape != (3,) or im.shape != (3,):
            raise ConfigError(f"{name}: expected 3-vectors for re/im")
        return re + 1j * im
    v = np.asarray(spec, dtype=float)
    if v.shape != (3,):
        raise ConfigError(f"{name}: expected a 3-vector")
    return v.astype(complex)


def resolve_field(spec, electrode, name):
    """Turn a config field spec into a constant vector or callable.

    Strings name the analytic cylinder fields ("exact_H", "exact_E",
    "exact_J", "zero"); otherwise a constant complex 3-vector is expected.
    """
    if spec is None or spec == "zero":
        return None
    if isinstance(spec, str):
        fns = {"exact_H": analytic.exact_H, "exact_E": analytic.exact_E,
               "exact_J": analytic.exact_J}
        if spec not in fns:
            raise ConfigError(f"{name}: unknown field name {spec!r}")
        fn = fns[spec]
        return lambda x: fn(x, electrode)
    return _as_complex_vec(spec, name)


def load_config(path, command, out=None, order=None, seed=None):
    """Read the JSON config file and apply command-line overrides."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")

    el = raw.get("electrode", {})
    try:
        electrode = ElectrodeParams(
            iota1=el.get("iota1", 1.0), omega=el.get("omega", 1.0),
            mu=el.get("mu", 1.0), sigma=el.get("sigma", 1.0),
            R=el.get("R", 0.5), L=el.get("L", 1.0))
        order = order if order is not None else int(raw.get("order", 0))
        seed = seed if seed is not None else int(raw.get("seed", 0))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc

    # Cost comparison across levels needs a fixed domain, so the optimize
    # default is a uniformly refined family; rate studies default to the
    # generator family whose lateral polygon converges to the cylinder.
    if command == "optimize":
        default_mesh = {"kind": "cylinder", "R": electrode.R,
                        "L": electrode.L, "base": [1, 8, 2], "refine": 3}
    else:
        default_mesh = {"kind": "cylinder", "R": electrode.R,
                        "L": electrode.L}
    cfg = RunConfig(
        command=command,
        mesh=raw.get("mesh", default_mesh),
        order=order,
        problem=raw.get("problem", {}),
        electrode=electrode,
        out=out if out is not None else raw.get("out", "out"),
        seed=seed,
        vtk=bool(raw.get("vtk", False)),
        optimize=raw.get("optimize", {}),
        gradcheck=raw.get("gradcheck", {}),
    )
    if cfg.order not in (0, 1):
        raise ConfigError(f"order must be 0 or 1, got {cfg.order}")
    return cfg


def build_mesh(cfg, level=None):
    """Construct the mesh for one level (or the single configured mesh)."""
    spec = cfg.mesh
    if "file" in spec:
        with open(spec["file"], encoding="utf-8") as fh:
            return parse_msh(fh)
    kind = spec.get("kind", "cylinder")
    if kind == "cube":
        n = int(spec.get("n", 2)) if level is None else int(level)
        return generate_cube(n)
    if kind == "cylinder":
        R = float(spec.get("R", cfg.electrode.R))
        L = float(spec.get("L", cfg.electrode.L))
        if level is None:
            level = spec.get("base", cfg.levels[0])
        n_r, n_theta, n_z = (int(v) for v in level)
        return generate_cylinder(R, L, n_r, n_theta, n_z)
    raise ConfigError(f"unknown mesh kind {kind!r}")


def mesh_family(cfg):
    """Yield (tag, mesh) pairs for a refinement study.

    Two layouts: explicit generator ``levels`` (each level its own mesh,
    the lateral polygon refines with n_theta), or ``base`` + ``refine``
    (one coarse mesh refined uniformly, fixed polyhedral domain — the
    right family when comparing cost values across levels).
    """
    spec = cfg.mesh
    if "refine" in spec:
        m = build_mesh(cfg)
        for i in range(int(spec["refine"])):
            if i:
                m = refine_uniform(m)
            yield f"L{i}", m
    elif "file" in spec:
        yield "file", build_mesh(cfg)
    elif spec.get("kind", "cylinder") == "cube":
        for n in spec.get("levels", [spec.get("n", 2)]):
            yield f"n{int(n)}", generate_cube(int(n))
    else:
        for level in cfg.levels:
            yield "x".join(str(v) for v in level), build_mesh(cfg, level)


def problem_config(cfg):
    """Build the variational-problem settings from the config dict."""
    p = cfg.problem
    j_c = resolve_field(p.get("j_c"), cfg.electrode, "j_c")
    u_d = resolve_field(p.get("u_d"), cfg.electrode, "u_d")
    try:
        return ProblemConfig(
            mu=float(p.get("mu", 1.0)),
            kappa=float(p.get("kappa", 1.0)),
            omega=float(p.get("omega", 1.0)),
            j_c=j_c, u_d=u_d,
            alpha=float(p.get("alpha", 1e-3)),
            beta=float(p.get("beta", 0.0)),
            solver_tol=float(p.get("solver_tol", 1e-10)),
            quad_order=p.get("quad_order"),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid problem value: {exc}") from exc


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, (float, np.floating))
                        else v for v in row])


def _write_summary(outdir, payload):
    with open(os.path.join(outdir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_vtk_state(path, mesh, space, u, title="state"):
    """Legacy-ASCII VTK dump of a field, cell-averaged at tet centroids."""
    centroid = np.full((1, 3), 0.25)
    _, vals, _ = evaluate_field(space, u, centroid)
    vals = vals[:, 0, :]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(f"{title}\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {mesh.n_vertices} double\n")
        for p in mesh.vertices:
            fh.write(f"{p[0]!r} {p[1]!r} {p[2]!r}\n")
        fh.write(f"CELLS {mesh.n_tets} {5 * mesh.n_tets}\n")
        for t in mesh.tets:
            fh.write(f"4 {t[0]} {t[1]} {t[2]} {t[3]}\n")
        fh.write(f"CELL_TYPES {mesh.n_tets}\n")
        fh.write("\n".join(["10"] * mesh.n_tets) + "\n")
        fh.write(f"CELL_DATA {mesh.n_tets}\n")
        for part, arr in (("re", vals.real), ("im", vals.imag)):
            fh.write(f"VECTORS {title}_{part} double\n")
            for v in arr:
                fh.write(f"{v[0]!r} {v[1]!r} {v[2]!r}\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen_mesh(cfg):
    """Build the configured mesh, write MSH + JSON topology summary."""
    os.makedirs(cfg.out, exist_ok=True)
    m = build_mesh(cfg)
    write_msh(m, os.path.join(cfg.out, "mesh.msh"))
    with open(os.path.join(cfg.out, "mesh.json"), "w", encoding="utf-8") as fh:
        fh.write(mesh_to_json(m))
    info = {
        "n_vertices": m.n_vertices, "n_edges": m.n_edges,
        "n_faces": int(m.faces.shape[0]), "n_tets": m.n_tets,
        "n_boundary_faces": int(m.boundary_faces.shape[0]),
        "n_boundary_edges": int(m.boundary_edges.size),
        "mesh_size": mesh_size(m),
        "volume": float(m.tet_volumes().sum()),
        "euler_characteristic": m.euler_characteristic(),
    }
    _write_summary(cfg.out, {"command": "gen-mesh", "mesh": info, "ok": True})
    return 0


def _solver_record(tag, op):
    """A level's factor fill and largest solve residual, for summary.json."""
    return {"level": tag, "nnz_LU": int(op.lu.nnz),
            "max_residual": op.max_residual}


def cmd_validate(cfg):
    """Convergence study: boundary-driven solve vs the analytic rod field.

    Each level solves the homogeneous-source problem whose boundary data is
    the interpolated analytic magnetic field, then measures the H(curl)
    error.  Exit 0 requires the fitted rate to reach the order's target.
    """
    os.makedirs(cfg.out, exist_ok=True)
    el = cfg.electrode
    exact = lambda x: analytic.exact_H(x, el)
    exact_curl = lambda x: analytic.exact_curl_H(x, el)
    k = cfg.order
    rows, levels, ok, failure, trace = [], [], True, None, None
    for tag, m in mesh_family(cfg):
        t0 = time.perf_counter()
        try:
            space = FESpace(m, k)
            pc = ProblemConfig(mu=1.0 / el.sigma, kappa=el.mu,
                               omega=el.omega, j_c=None)
            op = StateOperator(m, space, pc)
            g = np.zeros(space.n_dofs, dtype=complex)
            gi = interpolate(space, exact)
            g[space.boundary_dofs] = gi[space.boundary_dofs]
            u = op.solve_dirichlet(g)
            err = hcurl_error(space, u, exact, exact_curl)
            dt = time.perf_counter() - t0
            rows.append((tag, mesh_size(m), space.n_dofs, err, dt))
            levels.append(_solver_record(tag, op))
            if cfg.vtk:
                write_vtk_state(os.path.join(cfg.out, f"state_{tag}.vtk"),
                                m, space, u)
        except Exception as exc:  # partial CSV on failure
            ok, failure = False, f"level {tag}: {exc}"
            trace = traceback.format_exc()
            break
    _write_csv(os.path.join(cfg.out, "convergence.csv"),
               ["level", "h", "n_dofs", "hcurl_error", "seconds"], rows)
    slope = None
    if len(rows) >= 2:
        hs = np.array([r[1] for r in rows])
        es = np.array([r[3] for r in rows])
        slope = loglog_slope(hs, es)
    target = 0.9 if k == 0 else 1.8
    ok = ok and slope is not None and slope >= target
    _write_summary(cfg.out, {
        "command": "validate", "order": k, "rate": slope,
        "rate_target": target, "levels_completed": len(rows),
        "levels": levels, "failure": failure, "traceback": trace,
        "ok": bool(ok),
    })
    return 0 if ok else 1


def cmd_gradcheck(cfg):
    """Finite-difference probe of the reduced gradient.

    Writes one error column per probe direction; asserts the fitted decay
    slope lies in [0.8, 1.2] and the round-off plateau is at most 1e-7
    relative to 2||G|| ||xi||, the Cauchy-Schwarz bound on the directional
    derivative (a random probe's own derivative can be near zero, which
    would report float64 round-off in j as a gradient error).
    """
    os.makedirs(cfg.out, exist_ok=True)
    gc = cfg.gradcheck
    _, m = next(iter(mesh_family(cfg)))
    space = FESpace(m, cfg.order)
    pc = problem_config(cfg)
    if pc.u_d is None and pc.j_c is None:
        pc = replace(pc, j_c=np.array([0, 0, 1.0 + 0.5j]),
                     u_d=np.array([0.1, 0, 0.2j]))
    rp = ReducedProblem(m, space, pc)
    rng = np.random.default_rng(cfg.seed)
    nb = m.boundary_edges.size
    z = 0.3 * (rng.standard_normal(nb) + 1j * rng.standard_normal(nb))
    _, G = rp.cost_and_gradient(z)

    n_probes = int(gc.get("n_probes", 3))
    t_list = np.geomspace(gc.get("t_max", 1e-1), gc.get("t_min", 1e-9),
                          int(gc.get("n_t", 17)))
    probes = [G / np.linalg.norm(G)]
    for _ in range(max(0, n_probes - 1)):
        v = rng.standard_normal(nb) + 1j * rng.standard_normal(nb)
        probes.append(v / np.linalg.norm(v))

    table = [np.asarray(t_list)]
    slopes, plateaus = [], []
    for xi in probes:
        rows = fd_check(rp.cost_and_gradient, z, xi, t_list=t_list,
                        cost_fn=rp.cost)
        err = np.array([r[1] for r in rows])
        t = np.array([r[0] for r in rows])
        scale = 2 * np.linalg.norm(G) * np.linalg.norm(xi)
        decay = t >= float(gc.get("fit_floor", 1e-5))
        slopes.append(loglog_slope(t[decay], err[decay]))
        plateaus.append(float(err.min() / max(scale, 1e-300)))
        table.append(err)
    cols = np.column_stack(table)
    _write_csv(os.path.join(cfg.out, "gradcheck.csv"),
               ["t"] + [f"err_probe{i}" for i in range(len(probes))],
               [tuple(float(v) for v in row) for row in cols])
    ok = all(0.8 <= s <= 1.2 for s in slopes) and all(p <= 1e-7 for p in plateaus)
    _write_summary(cfg.out, {
        "command": "grad-check", "order": cfg.order,
        "slopes": [float(s) for s in slopes],
        "plateaus": plateaus, "seed": cfg.seed, "ok": bool(ok),
    })
    return 0 if ok else 1


def _gap(value, ref):
    """Relative gap to the finest level; None (null, an empty CSV cell)
    when the reference is 0 and the gap is undefined."""
    return abs(value - ref) / abs(ref) if ref else None


def _monotone(gaps, key):
    """Whether the gaps shrink level by level; None if any is undefined."""
    g = [row[key] for row in gaps]
    if not g or None in g:
        return None
    return all(a >= b for a, b in zip(g, g[1:]))


def cmd_optimize(cfg):
    """Limited-memory BFGS (20 pairs) control optimization across levels.

    The finest level's optimum is the reference; relative gaps of J and of
    the tracking term are reported per level.  Exit 0 requires every level
    to terminate at the gradient tolerance.
    """
    os.makedirs(cfg.out, exist_ok=True)
    pc = problem_config(cfg)
    if pc.u_d is None:
        raise ConfigError("optimize requires problem.u_d")
    tol = float(cfg.optimize.get("tol", 1e-9))
    max_iter = int(cfg.optimize.get("max_iter", 500))
    k = cfg.order

    results, levels, hist_rows = [], [], []
    ok, failure, trace = True, None, None
    for tag, m in mesh_family(cfg):
        t0 = time.perf_counter()
        try:
            space = FESpace(m, k)
            rp = ReducedProblem(m, space, pc)
            nb = m.boundary_edges.size
            z, hist = bfgs_minimize(rp.cost_and_gradient,
                                    np.zeros(nb, dtype=complex),
                                    tol=tol, max_iter=max_iter)
            dt = time.perf_counter() - t0
            last = hist[-1]
            for h in hist:
                hist_rows.append((tag, h.iteration, h.J, h.J1, h.J2, h.J3,
                                  h.grad_norm,
                                  h.step if h.step is not None else ""))
            results.append({"level": tag, "h": mesh_size(m),
                            "n_dofs": space.n_dofs, "n_controls": nb,
                            "J": last.J, "J1": last.J1, "J2": last.J2,
                            "J3": last.J3, "grad_norm": last.grad_norm,
                            "iterations": last.iteration,
                            "state_solves": rp.op.n_state_solves,
                            "seconds": dt, "z": z})
            levels.append(_solver_record(tag, rp.op))
            if last.grad_norm > tol:
                ok, failure = False, f"level {tag}: no convergence " \
                    f"(grad_norm={last.grad_norm:.3e} > {tol:.1e})"
            mid = 0.5 * (m.vertices[m.edges[m.boundary_edges, 0]]
                         + m.vertices[m.edges[m.boundary_edges, 1]])
            _write_csv(os.path.join(cfg.out, f"control_{tag}.csv"),
                       ["edge", "x", "y", "z", "re", "im"],
                       [(int(e), mid[i, 0], mid[i, 1], mid[i, 2],
                         z[i].real, z[i].imag)
                        for i, e in enumerate(m.boundary_edges)])
            if cfg.vtk:
                u = rp.op.solve_state(z)
                write_vtk_state(os.path.join(cfg.out, f"state_{tag}.vtk"),
                                m, space, u)
        except Exception as exc:
            ok, failure = False, f"level {tag}: {exc}"
            trace = traceback.format_exc()
            break

    _write_csv(os.path.join(cfg.out, "history.csv"),
               ["level", "iteration", "J", "J1", "J2", "J3", "grad_norm",
                "step"], hist_rows)

    gaps = []
    if len(results) >= 2 and ok:
        ref = results[-1]
        for r in results[:-1]:
            gaps.append({"level": r["level"],
                         "gap_J": _gap(r["J"], ref["J"]),
                         "gap_J1": _gap(r["J1"], ref["J1"])})

    _write_csv(os.path.join(cfg.out, "study.csv"),
               ["level", "h", "n_dofs", "n_controls", "J", "J1", "J2", "J3",
                "grad_norm", "iterations", "state_solves", "seconds",
                "gap_J", "gap_J1"],
               [(r["level"], r["h"], r["n_dofs"], r["n_controls"], r["J"],
                 r["J1"], r["J2"], r["J3"], r["grad_norm"], r["iterations"],
                 r["state_solves"], r["seconds"],
                 next((g["gap_J"] for g in gaps if g["level"] == r["level"]), ""),
                 next((g["gap_J1"] for g in gaps if g["level"] == r["level"]), ""))
                for r in results])
    _write_summary(cfg.out, {
        "command": "optimize", "order": k, "tol": tol,
        "levels_completed": len(results), "levels": levels,
        "gaps": gaps, "monotone_gap_J": _monotone(gaps, "gap_J"),
        "monotone_gap_J1": _monotone(gaps, "gap_J1"),
        "failure": failure, "traceback": trace, "ok": bool(ok),
    })
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "gen-mesh": cmd_gen_mesh,
    "validate": cmd_validate,
    "grad-check": cmd_gradcheck,
    "optimize": cmd_optimize,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="eddyctl",
        description="Eddy-current boundary-control studies (batch driver).")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--order", type=int, default=None,
                       help="FE order (0 or 1)")
        p.add_argument("--seed", type=int, default=None,
                       help="seed for probe directions")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.command, out=args.out,
                          order=args.order, seed=args.seed)
    except (OSError, ConfigError) as exc:
        print(f"eddyctl: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[cfg.command](cfg)
    except (ConfigError, meshmod.MeshError) as exc:
        print(f"eddyctl: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
