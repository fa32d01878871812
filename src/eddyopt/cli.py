"""Batch command-line driver.

Four subcommands, all configured by a JSON file and writing CSV tables plus
a ``summary.json`` into an output directory:

* ``gen-mesh``   build a mesh and dump it (MSH v2.2 + JSON topology report)
* ``validate``   boundary-driven solves against the analytic cylinder field
                 on a refinement family; reports the H(curl) convergence rate
* ``grad-check`` finite-difference probe of the reduced gradient
* ``optimize``   Riesz-preconditioned limited-memory BFGS (20 pairs) control
                 optimization across a refinement family with relative
                 cost gaps against the finest level

Only ``grad-check`` draws random numbers, from ``seed`` (or ``--seed``).
``main`` writes every ``summary.json``: ``ok`` only if all checks
(rate/slope/plateau/termination) pass, and a raised error as ``failure``
with its ``traceback``.  It exits 0 when ok, 1 if not, and 2 on a bad
config, ``--out`` or degenerate mesh.
"""

import argparse
import csv
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass, fields, replace
from resource import RUSAGE_SELF, getrusage

import numpy as np

from . import analytic
from .analytic import ElectrodeParams
from .mesh import (MeshError, cube_size, cylinder_size, generate_cube,
                   generate_cylinder, mesh_size, parse_msh, refine_uniform,
                   whole, write_msh, mesh_to_json)
from .nedelec import FESpace, ProblemConfig, evaluate_field, hcurl_error, interpolate
from .solver import StateOperator
from .wirtinger import (MAX_ITER, TOL, ReducedProblem, bfgs_minimize,
                        check_stopping, fd_check, loglog_slope)


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
    """Fully resolved, typed settings for one CLI command.

    ``family`` is the refinement study as a list of (tag, step) pairs, where
    ``step(previous_mesh)`` builds that level (the first step ignores its
    argument); ``gen-mesh`` and ``grad-check`` use the first level only.
    """

    command: str
    order: int
    electrode: ElectrodeParams
    problem: ProblemConfig
    family: list
    out: str
    seed: int
    vtk: bool
    tol: float
    max_iter: int
    n_probes: int
    t_list: np.ndarray
    fit_floor: float


def resolve_field(spec, electrode, name):
    """Turn a config field spec into a constant vector or callable.

    Strings name the analytic cylinder fields ("exact_H", "exact_E",
    "exact_J", "zero"); otherwise a constant complex 3-vector, [a, b, c]
    (real) or {"re": [...], "im": [...]} (no other key), of finite JSON
    numbers: a bool or a string entry is a ConfigError naming its key.
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

    def vector(v, key):
        # entry by entry: np.asarray(dtype=float) reads true and "1" as 1.0
        if not isinstance(v, (list, tuple)) or len(v) != 3:
            raise ConfigError(f"{name}: expected a real or complex 3-vector")
        return np.array([_number(x, key) for x in v])

    if isinstance(spec, dict):
        if extra := sorted(spec.keys() - {"re", "im"}):
            raise ConfigError(f"{name}: unknown key {extra[0]!r} (re, im)")
        re = vector(spec.get("re", [0, 0, 0]), f"{name}.re")
        im = vector(spec.get("im", [0, 0, 0]), f"{name}.im")
    else:
        re, im = vector(spec, name), np.zeros(3)
    # checked apart: combining an inf with 1j would warn and make NaNs
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ConfigError(f"{name}: entries must be finite")
    return re + 1j * im


def _number(v, key, positive=False):
    """float(v) of a JSON number, else ConfigError naming key (a bool or a
    string is not one); with ``positive``, also finite and positive."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{key} must be a number, got {v!r}")
    if positive and not 0 < v < np.inf:  # also false for NaN
        raise ConfigError(f"{key} must be finite and positive, got {v!r}")
    return float(v)


# The mesh keys each layout reads
_MESH_KEYS = {"file": ("file", "refine"),
              "cube": ("kind", "levels", "refine"),
              "cylinder": ("kind", "R", "L", "levels", "refine")}

# The keys each config block may hold, the root first: one config file
# serves every command, so any other key is a misspelling and exits 2.
_KEYS = {
    "": ("order", "seed", "vtk", "out", "electrode", "mesh", "problem",
         "optimize", "gradcheck"),
    "electrode.": [f.name for f in fields(ElectrodeParams)],
    "problem.": [f.name for f in fields(ProblemConfig)],
    "mesh.": set().union(*_MESH_KEYS.values()),
    "optimize.": ("tol", "max_iter"),
    "gradcheck.": ("n_probes", "n_t", "t_max", "t_min", "fit_floor"),
}


def load_config(path, command, out=None, order=None, seed=None):
    """Read the JSON config file, apply command-line overrides and resolve
    every value to its type.  Any bad value raises ConfigError, before a
    command writes anything."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    for prefix, known in _KEYS.items():
        block = raw.get(prefix[:-1], {}) if prefix else raw
        if not isinstance(block, dict):
            raise ConfigError(f"{prefix[:-1] or 'config root'} must be a "
                              "JSON object")
        for key in block:
            if key not in known:
                raise ConfigError(f"unknown config key {prefix}{key}")
    try:
        electrode = ElectrodeParams(**{
            k: _number(v, f"electrode.{k}")
            for k, v in raw.get("electrode", {}).items()})
        order = whole(raw.get("order", 0)) if order is None else order
        if order not in (0, 1):
            raise ConfigError(f"order must be 0 or 1, got {order}")

        # ProblemConfig holds the defaults of the keys that are absent
        parse = {"j_c": lambda v: resolve_field(v, electrode, "j_c"),
                 "u_d": lambda v: resolve_field(v, electrode, "u_d"),
                 "quad_order": lambda v: None if v is None else whole(v)}
        problem = ProblemConfig(**{
            k: parse[k](v) if k in parse else _number(v, f"problem.{k}")
            for k, v in raw.get("problem", {}).items()})
        if command == "validate":  # the rod's physics, no source, no target
            problem = replace(problem, mu=1.0 / electrode.sigma,
                              kappa=electrode.mu, omega=electrode.omega,
                              j_c=None, u_d=None)
        if command == "grad-check" and problem.u_d is None and problem.j_c is None:
            problem = replace(problem, j_c=np.array([0, 0, 1.0 + 0.5j]),
                              u_d=np.array([0.1, 0, 0.2j]))
        if command == "optimize" and problem.u_d is None:
            raise ConfigError("optimize requires problem.u_d")

        opt = raw.get("optimize", {})
        tol = _number(opt.get("tol", TOL), "optimize.tol")
        max_iter = whole(opt.get("max_iter", MAX_ITER))
        check_stopping(tol, max_iter)
        gc = raw.get("gradcheck", {})
        n_probes = whole(gc.get("n_probes", 3))
        t_max, t_min, fit_floor = (
            _number(gc.get(k, d), f"gradcheck.{k}", positive=True) for k, d in
            (("t_max", 1e-1), ("t_min", 1e-9), ("fit_floor", 1e-5)))
        t_list = np.geomspace(t_max, t_min, whole(gc.get("n_t", 17)))
        if n_probes < 1 or np.count_nonzero(t_list >= fit_floor) < 2:
            raise ConfigError("gradcheck needs n_probes >= 1 and at least two "
                              "step sizes t >= fit_floor to fit a slope")

        # Two layouts: generator levels (each its own mesh, the lateral polygon
        # refines with n_theta), or ``refine`` of one level, which keeps the
        # polyhedral domain fixed: the family for comparing costs across
        # levels, and the optimize default.  A key it does not read exits 2.
        spec = raw.get("mesh", {"levels": [[1, 8, 2]], "refine": 3}
                       if command == "optimize" else {})
        kind = spec.get("kind", "cylinder")
        layout = "file" if "file" in spec else kind
        unread = set(spec) - set(_MESH_KEYS.get(layout, spec))
        if unread:
            raise ConfigError(f"mesh: a {layout} mesh with keys "
                              f"{', '.join(sorted(spec))} does not read "
                              f"{', '.join(sorted(unread))}")
        for key, v in (("out", raw.get("out", "")),
                       ("mesh.file", spec.get("file", ""))):
            if not isinstance(v, str):
                raise ConfigError(f"{key} must be a string, got {v!r}")
        if "file" in spec:
            with open(spec["file"], "rb") as fh:
                mesh = parse_msh(fh)
            family = [("file", lambda _: mesh)]
        elif kind == "cube":
            ns = [cube_size(n) for n in spec.get("levels", [2])]
            family = [(f"n{n}", lambda _, n=n: generate_cube(n)) for n in ns]
        elif kind == "cylinder":
            R = _number(spec.get("R", electrode.R), "mesh.R")
            L = _number(spec.get("L", electrode.L), "mesh.L")
            levels = [cylinder_size(R, L, *lv)
                      for lv in spec.get("levels", _DEFAULT_LEVELS[order])]
            family = [("x".join(map(str, lv)),
                       lambda _, lv=lv: generate_cylinder(R, L, *lv))
                      for lv in levels]
        else:
            raise ConfigError(f"unknown mesh kind {kind!r}")
        if "refine" in spec:
            if len(family) != 1:
                raise ConfigError("mesh: refine takes a family of one level, "
                                  f"got {len(family)}")
            base = family[0][1]
            family = [(f"L{i}", refine_uniform if i else base)
                      for i in range(whole(spec["refine"]))]
        if not family:
            raise ConfigError("mesh: the level family is empty "
                              "(refine must be >= 1, levels non-empty)")
        seed = whole(raw.get("seed", 0)) if seed is None else seed
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
        vtk = raw.get("vtk", False)
        if not isinstance(vtk, bool):
            raise ConfigError(f"vtk must be true or false, got {vtk!r}")
        if vtk and command in ("gen-mesh", "grad-check"):
            raise ConfigError(f"vtk: {command} writes no VTK file")

        return RunConfig(
            command=command, order=order, electrode=electrode,
            problem=problem, family=family,
            out=out if out is not None else raw.get("out", "out"),
            seed=seed, vtk=vtk, tol=tol, max_iter=max_iter,
            n_probes=n_probes, t_list=t_list, fit_floor=fit_floor)
    except (ValueError, TypeError, AttributeError,
            OverflowError) as exc:  # ConfigError is a ValueError
        raise ConfigError(f"invalid config: {exc}") from exc


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, (float, np.floating))
                        else v for v in row])


def _write_summary(outdir, payload):
    # serialized first, so a value JSON cannot hold leaves no partial file
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(os.path.join(outdir, "summary.json"), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def write_vtk_state(path, space, u):
    """Legacy-ASCII VTK dump of a field, cell-averaged at tet centroids."""
    mesh = space.mesh
    vals = evaluate_field(space, u, np.full((1, 3), 0.25))[1][:, 0]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("state\nASCII\nDATASET UNSTRUCTURED_GRID\n")
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
            fh.write(f"VECTORS state_{part} double\n")
            for v in arr:
                fh.write(f"{v[0]!r} {v[1]!r} {v[2]!r}\n")


def _failure(exc):
    return f"{type(exc).__name__}: {exc}"


def _solver_record(op, **extra):
    """A level's record in summary.json: nonzeros of the interior block
    and its factor, largest solve residual, the factor's dtype, and the
    refinement steps in all and in the one solve that took the most; then
    the entries of ``extra``."""
    return {"nnz_A_II": op.A_II.nnz, "nnz_LU": op.lu.nnz,
            "max_residual": op.max_residual,
            "factor_dtype": op.factor_dtype.name,
            "n_refinements": op.n_refinements,
            "max_refinements": op.max_refinements, **extra}


def _level_study(cfg, solve, summary):
    """Run ``solve(tag, space)`` on every level of the family.

    ``solve`` returns the level's table entries (a dict), its solver record
    (`_solver_record`) and a callable giving the state for the VTK dump.
    Each row starts with the level tag, mesh size and dof count and ends
    with the seconds the level took and the process's peak resident memory
    so far in MB (ru_maxrss, KiB on Linux).  The study stops at the first level that
    raises and records it in ``summary`` as ``failure`` with its
    ``traceback``; the tables keep the levels before it.  ``summary`` also
    gets ``levels``, one solver record per completed level, and
    ``levels_completed``.  Returns the rows.
    """
    rows, records, m = [], [], None
    for tag, step in cfg.family:
        m = step(m)  # a degenerate mesh raises MeshError: exit 2 in main
        t0 = time.perf_counter()
        try:
            space = FESpace(m, cfg.order)
            entries, record, state = solve(tag, space)
            rows.append({"level": tag, "h": mesh_size(m),
                         "n_dofs": space.n_dofs, **entries,
                         "seconds": time.perf_counter() - t0,
                         "peak_rss_mb": getrusage(RUSAGE_SELF).ru_maxrss / 1024})
            records.append({"level": tag, **record})
            if cfg.vtk:
                write_vtk_state(os.path.join(cfg.out, f"state_{tag}.vtk"),
                                space, state())
        except Exception as exc:
            summary.update(failure=f"level {tag}: {_failure(exc)}",
                           traceback=traceback.format_exc())
            break
    summary.update(levels=records, levels_completed=len(rows))
    return rows


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen_mesh(cfg, summary):
    """Build the family's first mesh, write MSH + JSON topology summary."""
    m = cfg.family[0][1](None)  # the first level's step
    write_msh(m, os.path.join(cfg.out, "mesh.msh"))
    mesh_to_json(m, os.path.join(cfg.out, "mesh.json"))
    summary["mesh"] = {
        "n_vertices": m.n_vertices, "n_edges": m.n_edges,
        "n_faces": int(m.faces.shape[0]), "n_tets": m.n_tets,
        "n_boundary_faces": int(m.boundary_faces.shape[0]),
        "n_boundary_edges": int(m.boundary_edges.size),
        "mesh_size": mesh_size(m),
        "volume": float(m.tet_volumes().sum()),
        "euler_characteristic": m.euler_characteristic(),
    }
    return True


def cmd_validate(cfg, summary):
    """Convergence study: boundary-driven solve vs the analytic rod field.

    Each level solves the homogeneous-source problem whose boundary data is
    the interpolated analytic magnetic field, then measures the H(curl)
    error.  It passes when the fitted rate reaches the order's target.
    ``cfg.problem`` (`load_config`): the electrode's mu = 1/sigma, kappa =
    mu and omega, no j_c or u_d, and the config's solver_tol and quad_order.
    """
    target = 0.9 if cfg.order == 0 else 1.8
    summary.update(order=cfg.order, rate=None, rate_target=target)
    el = cfg.electrode
    exact = lambda x: analytic.exact_H(x, el)
    exact_curl = lambda x: analytic.exact_curl_H(x, el)

    def solve(tag, space):
        op = StateOperator(space.mesh, space, cfg.problem)
        u = op.solve_dirichlet(interpolate(space, exact))
        return ({"hcurl_error": hcurl_error(space, u, exact, exact_curl)},
                _solver_record(op), lambda: u)

    rows = _level_study(cfg, solve, summary)
    header = ["level", "h", "n_dofs", "hcurl_error", "seconds", "peak_rss_mb"]
    _write_csv(os.path.join(cfg.out, "convergence.csv"), header,
               [[r[k] for k in header] for r in rows])
    if len(rows) < 2:
        return False
    summary["rate"] = loglog_slope([r["h"] for r in rows],
                                   [r["hcurl_error"] for r in rows])
    return summary["rate"] >= target


def cmd_gradcheck(cfg, summary):
    """Finite-difference probe of the reduced gradient.

    Writes one error column per probe direction; asserts the fitted decay
    slope lies in [0.8, 1.2] and the round-off plateau is at most 1e-7
    relative to 2||G|| ||xi||, the Cauchy-Schwarz bound on the directional
    derivative (a random probe's own derivative can be near zero, which
    would report float64 round-off in j as a gradient error).
    """
    summary.update(order=cfg.order, seed=cfg.seed)
    m = cfg.family[0][1](None)  # the first level's step
    space = FESpace(m, cfg.order)
    rp = ReducedProblem(m, space, cfg.problem)
    rng = np.random.default_rng(cfg.seed)
    nb = m.boundary_edges.size
    z = 0.3 * (rng.standard_normal(nb) + 1j * rng.standard_normal(nb))
    _, G = rp.cost_and_gradient(z)

    probes = [G / np.linalg.norm(G)]
    for _ in range(cfg.n_probes - 1):
        v = rng.standard_normal(nb) + 1j * rng.standard_normal(nb)
        probes.append(v / np.linalg.norm(v))

    t, decay = cfg.t_list, cfg.t_list >= cfg.fit_floor
    table = [t]
    slopes, plateaus = [], []
    for xi in probes:
        rows = fd_check(rp.cost_and_gradient, z, xi, t_list=t,
                        cost_fn=rp.cost)
        err = np.array([r[1] for r in rows])
        scale = 2 * np.linalg.norm(G) * np.linalg.norm(xi)
        slopes.append(loglog_slope(t[decay], err[decay]))
        plateaus.append(float(err.min() / max(scale, 1e-300)))
        table.append(err)
    cols = np.column_stack(table)
    _write_csv(os.path.join(cfg.out, "gradcheck.csv"),
               ["t"] + [f"err_probe{i}" for i in range(len(probes))],
               [tuple(float(v) for v in row) for row in cols])
    summary.update(slopes=[float(s) for s in slopes], plateaus=plateaus)
    return all(0.8 <= s <= 1.2 for s in slopes) and all(p <= 1e-7 for p in plateaus)


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


def cmd_optimize(cfg, summary):
    """Riesz-preconditioned limited-memory BFGS (20 pairs) control
    optimization across levels (its evaluation counts: `wirtinger`).

    The finest level's optimum is the reference; relative gaps of J and of
    the tracking term are reported per level.  It passes when every level
    terminates at the gradient tolerance.
    """
    summary.update(order=cfg.order, tol=cfg.tol)
    hist_rows = []

    def solve(tag, space):
        m = space.mesh
        rp = ReducedProblem(m, space, cfg.problem)
        nb = m.boundary_edges.size
        z, hist = bfgs_minimize(rp.cost_and_gradient,
                                np.zeros(nb, dtype=complex),
                                tol=cfg.tol, max_iter=cfg.max_iter)
        hist_rows.extend((tag, h.iteration, h.J, h.J1, h.J2, h.J3,
                          h.grad_norm, h.step if h.step is not None else "")
                         for h in hist)
        mid = 0.5 * (m.vertices[m.edges[m.boundary_edges, 0]]
                     + m.vertices[m.edges[m.boundary_edges, 1]])
        _write_csv(os.path.join(cfg.out, f"control_{tag}.csv"),
                   ["edge", "x", "y", "z", "re", "im"],
                   [(int(e), mid[i, 0], mid[i, 1], mid[i, 2],
                     z[i].real, z[i].imag)
                    for i, e in enumerate(m.boundary_edges)])
        last = hist[-1]
        return ({"n_controls": nb, "J": last.J, "J1": last.J1, "J2": last.J2,
                 "J3": last.J3, "grad_norm": last.grad_norm,
                 "iterations": last.iteration,
                 "state_solves": rp.op.n_state_solves},
                _solver_record(rp.op, evaluations=rp.n_evaluations,
                               state_solves=rp.op.n_state_solves,
                               adjoint_solves=rp.op.n_adjoint_solves),
                lambda: rp.op.solve_state(z))

    rows = _level_study(cfg, solve, summary)
    _write_csv(os.path.join(cfg.out, "history.csv"),
               ["level", "iteration", "J", "J1", "J2", "J3", "grad_norm",
                "step"], hist_rows)

    stalled = [r for r in rows if r["grad_norm"] > cfg.tol]
    if summary["failure"] is None and stalled:
        summary["failure"] = f"level {stalled[-1]['level']}: no convergence " \
            f"(grad_norm={stalled[-1]['grad_norm']:.3e} > {cfg.tol:.1e})"
    gaps = []
    if len(rows) >= 2 and summary["failure"] is None:
        ref = rows[-1]
        gaps = [{"level": r["level"], "gap_J": _gap(r["J"], ref["J"]),
                 "gap_J1": _gap(r["J1"], ref["J1"])} for r in rows[:-1]]
    for r, g in zip(rows, gaps):
        r.update(g)

    header = ["level", "h", "n_dofs", "n_controls", "J", "J1", "J2", "J3",
              "grad_norm", "iterations", "state_solves", "seconds",
              "peak_rss_mb", "gap_J", "gap_J1"]
    _write_csv(os.path.join(cfg.out, "study.csv"), header,
               [[r.get(k, "") for k in header] for r in rows])
    summary.update(gaps=gaps, monotone_gap_J=_monotone(gaps, "gap_J"),
                   monotone_gap_J1=_monotone(gaps, "gap_J1"))
    return not stalled


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
        if name == "grad-check":  # the one command that draws from the seed
            p.add_argument("--seed", type=int, default=None,
                           help="seed for probe directions")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.command, out=args.out,
                          order=args.order, seed=getattr(args, "seed", None))
        os.makedirs(cfg.out, exist_ok=True)
        summary = {"command": cfg.command, "failure": None, "traceback": None}
        try:
            passed = _COMMANDS[cfg.command](cfg, summary)
        except MeshError:  # a generated mesh is degenerate (e.g. R = 1e-200)
            raise
        except Exception as exc:
            passed = False
            summary.update(failure=_failure(exc),
                           traceback=traceback.format_exc())
    except (OSError, ConfigError, MeshError) as exc:
        print(f"eddyctl: {exc}", file=sys.stderr)
        return 2
    summary["ok"] = bool(passed) and summary["failure"] is None
    _write_summary(cfg.out, summary)
    return 0 if summary["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
