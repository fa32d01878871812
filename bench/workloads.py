"""Benchmark workloads and the pinned references that gate them.

Every workload uses the rod of ``ElectrodeParams()`` (all constants 1).
The forward workload has no random input; the optimize workloads draw
their initial control from the seed and nothing else.
"""

from dataclasses import dataclass

# Reduced-problem settings shared by the optimize workloads.
ALPHA = 1e-3
BETA = 0.0
GRAD_TOL = 1e-9
MAX_ITER = 600
# A reordered LU moves the checked values by ~1e-12 relative; a wrong
# answer moves them by far more than this.
REFERENCE_RTOL = 1e-6


@dataclass(frozen=True)
class Workload:
    """One benchmark input.

    kind: "forward" (boundary-driven solve against the rod field, checked
    by its H(curl) error) or "optimize" (BFGS on the reduced cost, checked
    by the optimal cost J*). cylinder: ``generate_cylinder`` divisions
    (n_r, n_theta, n_z); refine: ``refine_uniform`` passes after that.
    reference: the pinned H(curl) error or J*. Why each workload is in
    the benchmark is written next to its name in BENCHMARK.json.
    """

    name: str
    kind: str
    order: int
    cylinder: tuple
    refine: int
    reference: float


WORKLOADS = {w.name: w for w in (
    Workload(
        "forward-o0", "forward", 0, (5, 30, 10), 0, 4.619638529673861e-3),
    Workload(
        "optimize-o0", "optimize", 0, (1, 8, 2), 2, 8.253237914392e-4),
    Workload(
        "optimize-o1", "optimize", 1, (3, 18, 6), 0, 9.339993733258e-4),
)}

# Tiny versions of the three workloads for the benchmark's own tests, and
# one whose pinned reference is off by 1e-5 relative, so that its jobs must
# fail the correctness gate.
SMOKE = {w.name: w for w in (
    Workload("forward-o0-smoke", "forward", 0, (2, 12, 4), 0,
             1.0727447026029086e-2),
    Workload("optimize-o0-smoke", "optimize", 0, (1, 8, 2), 0,
             9.636927135266e-4),
    Workload("optimize-o1-smoke", "optimize", 1, (1, 8, 2), 0,
             9.597014026780e-4),
    Workload("optimize-o0-smoke-badref", "optimize", 0, (1, 8, 2), 0,
             9.636927135266e-4 * (1 + 1e-5)),
)}
