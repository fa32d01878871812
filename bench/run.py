"""Benchmark of the eddyopt pipeline: mesh, assembly, LU, solves, BFGS.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs jobs of one workload (see ``workloads.py``; ``all`` runs each in
turn), every job in its own process, until about S seconds have passed
and at least MIN_JOBS jobs have run. Each job goes from the workload's
parameters to a result checked against a pinned reference.

With ``--trace 0`` it reports the median over the run's jobs of every
end-to-end metric. With ``--trace 1`` it runs pairs of one untraced and
one traced job and reports the per-layer metrics of the traced jobs, plus
the tracing overhead (traced minus untraced time to solution).

Human-readable lines go first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}. The full run
record (provenance, every job with its failure traceback, and the spans
of traced jobs) is written to ``bench/runs/``. Exit status: 0 if every
job passed its check, 1 if not, 2 if the run could not start.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

from workloads import SMOKE, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / "runs"

# Metric names and units, in the order they are printed.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Jobs a run makes even past its time, so that set-up time is a median
# of more than one sample.
MIN_JOBS = 2
# Jobs run with single-threaded BLAS, whatever the caller's environment
# says. On a 2-core machine a second OpenBLAS thread made the optimize-o1
# solve phase about 1.6 times slower, and its time swung by 20% between
# identical jobs.
BLAS_THREADS = 1
# No job is started that could end after this many seconds of the run;
# the run as a whole must end within 180 s.
HARD_LIMIT_S = 165.0


def provenance(seed):
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    code = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(
            BENCH.glob("*.py")):
        code.update(path.relative_to(ROOT).as_posix().encode())
        code.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS, "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit, "code_sha256": code.hexdigest(), "seed": seed,
    }


def job_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_job(workload, seed, traced, timeout):
    """Run one job in a child process and return its record."""
    cmd = [sys.executable, str(BENCH / "job.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced))]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=job_env(), timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        rec = {"ok": False, "failure": f"timed out after {exc.timeout:.0f} s"}
    else:
        lines = proc.stdout.strip().splitlines()
        try:
            rec = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            rec = {"ok": False,
                   "failure": f"job exited with status {proc.returncode} "
                              f"and no record:\n{proc.stderr[-4000:]}"}
    rec.update(workload=workload, seed=seed, traced=traced,
               wall_s=time.perf_counter() - t0)
    return rec


def run_jobs(workload, seed, seconds, trace):
    """Jobs of one workload until the time is spent; untraced, or pairs of
    untraced and traced when trace is set."""
    group = (False, True) if trace else (False,)
    jobs, start, last = [], time.perf_counter(), 0.0
    while True:
        elapsed = time.perf_counter() - start
        if jobs and (elapsed + last > HARD_LIMIT_S or (
                len(jobs) >= MIN_JOBS and elapsed + last > seconds)):
            return jobs
        t0 = time.perf_counter()
        for traced in group:
            timeout = HARD_LIMIT_S - (time.perf_counter() - start)
            jobs.append(run_job(workload, seed, traced, max(timeout, 1.0)))
        last = time.perf_counter() - t0


def count_mismatches(jobs):
    """Counts that differ between the jobs of one run, which all run the
    same code on the same seed."""
    seen = [j["counts"] for j in jobs if j.get("counts")]
    if not seen:
        return []
    return [f"{name}: {[c.get(name) for c in seen]}" for name in seen[0]
            if any(c.get(name) != seen[0][name] for c in seen)]


def summarize(jobs, trace):
    """Metric medians over the passing jobs of one workload."""
    ok = [j for j in jobs if j["ok"]]
    if not ok:
        return {}
    if not trace:
        return {name: (statistics.median(j[name] for j in ok), unit)
                for name, unit in END_TO_END.items()}
    traced = [j for j in ok if j["traced"]]
    plain = [j for j in ok if not j["traced"]]
    if not traced or not plain:
        return {}
    out = {name: (statistics.median(j["layers"][name] for j in traced), unit)
           for name, unit in PER_LAYER.items() if name != "tracing.overhead_s"}
    out["tracing.overhead_s"] = (
        statistics.median(j["time_to_solution_s"] for j in traced)
        - statistics.median(j["time_to_solution_s"] for j in plain), "s")
    return out


def report(name, jobs, metrics, mismatches):
    print(f"== {name}: {len(jobs)} jobs, "
          f"{sum(not j['ok'] for j in jobs)} failed")
    for j in jobs:
        if j["ok"]:
            c = j["check"]
            extra = ("" if c["grad_norm"] is None
                     else f", ||G|| {c['grad_norm']:.2e}")
            print(f"   job{' (traced)' if j['traced'] else ''}: "
                  f"{j['time_to_solution_s']:.3f} s, checked value "
                  f"{c['value']:.12e}, rel. err {c['rel_err']:.1e}{extra}")
        else:
            print(f"   job FAILED: {j['failure'].strip().splitlines()[-1]}")
    for m in mismatches:
        print(f"   count mismatch: {m}")
    for metric, (value, unit) in metrics.items():
        print(f"   {metric:32s} {value:16.6g} {unit}")


def main(argv=None):
    names = list(WORKLOADS) + list(SMOKE)
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=["all"] + names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "eddyopt" / "__init__.py").is_file():
        print(f"bench: no eddyopt sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" \
        else [args.workload]

    RUNS.mkdir(exist_ok=True)
    prov = provenance(args.seed)
    print("provenance: " + json.dumps(prov))
    correct, attempted, failed, metrics, record = True, 0, 0, {}, {}
    for name in workloads:
        jobs = run_jobs(name, args.seed, args.seconds, args.trace)
        mismatches = count_mismatches(jobs)
        values = summarize(jobs, args.trace)
        report(name, jobs, values, mismatches)
        n_failed = sum(not j["ok"] for j in jobs)
        correct = correct and not n_failed and not mismatches and bool(values)
        attempted += len(jobs)
        failed += n_failed
        prefix = "" if len(workloads) == 1 else name + "."
        metrics.update({prefix + m: {"value": v, "unit": u}
                        for m, (v, u) in values.items()})
        record[name] = {"jobs": jobs, "count_mismatches": mismatches}

    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = RUNS / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                  f"{stamp}-{os.getpid()}.json")
    out.write_text(json.dumps({"provenance": prov, "args": vars(args),
                               "workloads": record}, indent=1))
    print(f"run record: {out.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
