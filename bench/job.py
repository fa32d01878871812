"""One benchmark job: a workload from its parameters to a checked result.

    python3 bench/job.py --workload NAME --seed N --trace 0|1

Prints the job record as one JSON object on the last line of standard
output. ``run.py`` starts each job in a fresh process, with ``src`` on
PYTHONPATH, so that the peak resident memory it reports is the job's own.

The job calls only the public API of ``eddyopt``. With ``--trace 1`` it
records spans around those calls and then makes extra "probe" calls on the
same inputs to split apart layers that are reachable only inside another
call (for example the assembly inside ``StateOperator``). Probes run after
the job's result is checked and its memory read, so they change neither.
"""

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from functools import partial

import numpy as np

from eddyopt import (ElectrodeParams, FESpace, ProblemConfig, ReducedProblem,
                     StateOperator, assemble, assemble_curl_mass,
                     assemble_load, bfgs_minimize, exact_H, exact_curl_H,
                     generate_cylinder, hcurl_error, interpolate, lift,
                     refine_uniform)

from spans import Spans
from workloads import (ALPHA, BETA, GRAD_TOL, MAX_ITER, REFERENCE_RTOL,
                       SMOKE, WORKLOADS)

# Calls repeated by the per-call probes; the median is reported.
PROBE_REPEATS = 5


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check(value, reference, grad_norm):
    """The correctness gate: None if the result passes, else why not."""
    rel_err = abs(value - reference) / abs(reference)
    if not rel_err <= REFERENCE_RTOL:
        return (f"checked value {value!r} misses the reference "
                f"{reference!r} (relative error {rel_err:.3e} > "
                f"{REFERENCE_RTOL:.0e})")
    if grad_norm is not None and not grad_norm <= GRAD_TOL:
        return f"||G|| = {grad_norm:.3e} above tol {GRAD_TOL:.0e}"
    return None


def run_job(w, seed, traced):
    """Run workload w once; return the job record (raises on failure)."""
    sp = Spans(traced)
    el = ElectrodeParams()
    exact = partial(exact_H, params=el)
    t0 = time.perf_counter()
    with sp.span("setup"):
        with sp.span("mesh.generate_cylinder"):
            mesh = generate_cylinder(el.R, el.L, *w.cylinder)
        for _ in range(w.refine):
            with sp.span("mesh.refine_uniform"):
                mesh = refine_uniform(mesh)
        with sp.span("nedelec.FESpace"):
            space = FESpace(mesh, w.order)
        if w.kind == "forward":
            config = ProblemConfig(mu=1.0 / el.sigma, kappa=el.mu,
                                   omega=el.omega)
            with sp.span("solver.StateOperator"):
                op = StateOperator(mesh, space, config)
        else:
            config = ProblemConfig(mu=1.0 / el.sigma, kappa=el.mu,
                                   omega=el.omega, u_d=exact,
                                   alpha=ALPHA, beta=BETA)
            with sp.span("wirtinger.ReducedProblem"):
                problem = ReducedProblem(mesh, space, config)
            op = problem.op
            rng = np.random.default_rng(seed)
            n = mesh.n_boundary_edges
            z0 = 0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    t1 = time.perf_counter()
    with sp.span("solve"):
        if w.kind == "forward":
            with sp.span("nedelec.interpolate"):
                g = interpolate(space, exact)
            with sp.span("solver.solve_dirichlet"):
                u = op.solve_dirichlet(g)
            with sp.span("nedelec.hcurl_error"):
                value = float(hcurl_error(space, u, exact,
                                          partial(exact_curl_H, params=el)))
            grad_norm = None
        else:
            with sp.span("optimizer.bfgs_minimize"):
                z, history = bfgs_minimize(
                    sp.wrap("wirtinger.cost_and_gradient",
                            problem.cost_and_gradient),
                    z0, tol=GRAD_TOL, max_iter=MAX_ITER)
            value, grad_norm = float(history[-1].J), history[-1].grad_norm
    t2 = time.perf_counter()
    failure = check(value, w.reference, grad_norm)
    t3 = time.perf_counter()
    rec = dict(
        ok=failure is None, failure=failure,
        check={"value": value, "reference": w.reference,
               "rel_err": abs(value - w.reference) / abs(w.reference),
               "grad_norm": grad_norm},
        setup_s=t1 - t0, solve_s=t2 - t1, time_to_solution_s=t3 - t0,
        peak_rss_mb=peak_rss_mb())

    n_controls = mesh.n_boundary_edges
    iterations = 0 if w.kind == "forward" else history[-1].iteration
    evaluations = 0 if w.kind == "forward" else problem.n_evaluations
    rec["counts"] = {
        "n_dofs": space.n_dofs, "n_controls": n_controls,
        "solver.nnz_A_II": op.A_II.nnz, "solver.nnz_LU": op.lu.nnz,
        "solver.n_state_solves": op.n_state_solves,
        "solver.n_adjoint_solves": op.n_adjoint_solves,
        "wirtinger.n_evaluations": evaluations,
        "optimizer.iterations": iterations,
    }
    if traced:
        with sp.span("probes"):
            if w.kind == "forward":
                probe(sp, w, mesh, space, config)
            else:
                probe(sp, w, mesh, space, config, problem, z)
        rec["layers"] = layers(sp, w, rec["counts"])
        rec["spans"] = sp.records
    return rec


def probe(sp, w, mesh, space, config, problem=None, z=None):
    """Extra calls on the job's inputs that split nested layers apart.

    For the optimize workloads, the per-call probes repeat one evaluation's
    lift, state solve and adjoint solve at the optimal control z.
    """
    if w.kind == "optimize":
        with sp.span("probe.solver.StateOperator"):
            StateOperator(mesh, space, config)
        # ReducedProblem assembles M_c and the u_d load at this degree.
        degree = 2 * w.order + 4
        with sp.span("probe.nedelec.assemble_curl_mass"):
            assemble_curl_mass(mesh, space, 1.0, 1.0, degree)
        with sp.span("probe.nedelec.assemble_load.u_d"):
            assemble_load(mesh, space, config.u_d, degree)
    with sp.span("probe.nedelec.assemble"):
        assemble(mesh, space, config)
    with sp.span("probe.nedelec.assemble_load.j_c"):
        assemble_load(mesh, space, config.j_c)
    if w.kind == "optimize":
        for _ in range(PROBE_REPEATS):
            with sp.span("probe.trace.lift"):
                g = lift(space, z)
            with sp.span("probe.solver.solve_dirichlet"):
                u = problem.op.solve_dirichlet(g)
            # The adjoint right-hand side cost_and_gradient forms from u.
            rho = problem.M_c @ u - problem.d
            with sp.span("probe.solver.solve_adjoint"):
                problem.op.solve_adjoint(rho)


def layers(sp, w, counts):
    """Per-layer metrics from the spans; 0 where a layer is not used.

    The times split set-up and solve without overlap: solver.factor_s is
    the StateOperator span minus the assemble and load probes, and
    wirtinger.problem_s the ReducedProblem span minus the StateOperator,
    M_c and u_d-load probes. Per-call solve and lift times are probe
    medians; optimizer.self_s is the BFGS span minus its evaluations.
    """
    optimize = w.kind == "optimize"

    def median(name):
        d = sp.durations(name)
        return statistics.median(d) if d else 0.0

    state_op = sp.total("probe.solver.StateOperator" if optimize
                        else "solver.StateOperator")
    assemble_s = sp.total("probe.nedelec.assemble")
    load_s = sp.total("probe.nedelec.assemble_load.j_c")
    evals = sp.durations("wirtinger.cost_and_gradient")
    n_ctrl = counts["n_controls"]
    iterations = counts["optimizer.iterations"]
    n_eval = counts["wirtinger.n_evaluations"]
    nnz_lu = counts["solver.nnz_LU"]
    return {
        "mesh.generate_s": sp.total("mesh.generate_cylinder"),
        "mesh.refine_s": sp.total("mesh.refine_uniform"),
        "nedelec.assemble_s":
            assemble_s + sp.total("probe.nedelec.assemble_curl_mass"),
        "nedelec.load_s": load_s + sp.total("probe.nedelec.assemble_load.u_d"),
        "nedelec.interpolate_s": sp.total("nedelec.interpolate"),
        "nedelec.hcurl_error_s": sp.total("nedelec.hcurl_error"),
        "wirtinger.problem_s": (
            sp.total("wirtinger.ReducedProblem") - state_op
            - sp.total("probe.nedelec.assemble_curl_mass")
            - sp.total("probe.nedelec.assemble_load.u_d")) if optimize
            else 0.0,
        "solver.factor_s": state_op - assemble_s - load_s,
        "solver.nnz_A_II": counts["solver.nnz_A_II"],
        "solver.nnz_LU": nnz_lu,
        "solver.fill_ratio": nnz_lu / counts["solver.nnz_A_II"],
        "solver.lu_mb_computed": 16.0 * nnz_lu / 1e6,
        "solver.state_solve_s": median("probe.solver.solve_dirichlet"
                                       if optimize
                                       else "solver.solve_dirichlet"),
        "solver.adjoint_solve_s": median("probe.solver.solve_adjoint"),
        "solver.n_state_solves": counts["solver.n_state_solves"],
        "solver.n_adjoint_solves": counts["solver.n_adjoint_solves"],
        "trace.lift_s": median("probe.trace.lift"),
        "wirtinger.n_evaluations": n_eval,
        "wirtinger.eval_s": sum(evals),
        "wirtinger.eval_s_per_call": sum(evals) / len(evals) if evals else 0.0,
        "optimizer.iterations": iterations,
        "optimizer.accept_ratio": iterations / n_eval if n_eval else 0.0,
        "optimizer.self_s": sp.self_time("optimizer.bfgs_minimize"),
        "optimizer.hessian_mb_computed":
            8.0 * (2 * n_ctrl) ** 2 / 1e6 if optimize else 0.0,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + sorted(SMOKE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = {**WORKLOADS, **SMOKE}[args.workload]
    try:
        rec = run_job(w, args.seed, bool(args.trace))
    except Exception:
        # A job that raises (SolverError, AssemblyError, MemoryError, ...)
        # is a failed job; its record keeps the whole traceback.
        rec = {"ok": False, "failure": traceback.format_exc()}
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
