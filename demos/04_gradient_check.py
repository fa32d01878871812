"""
Checking the reduced gradient with finite differences
=====================================================

The reduced cost j(z) is a real function of a complex control vector, so
its directional derivative along xi is 2 Re(conj(xi)^T G) with G computed
from one adjoint solve. A forward difference must approach that value at
first order in the step until round-off takes over.
"""

import numpy as np

from eddyopt import (
    FESpace, ProblemConfig, ReducedProblem, directional_derivative, fd_check,
    generate_cylinder, loglog_slope,
)

mesh = generate_cylinder(0.5, 1.0, 1, 6, 2)
space = FESpace(mesh, 0)
problem = ReducedProblem(mesh, space, ProblemConfig(
    j_c=np.array([0.0, 0.0, 1.0 + 0.5j]),
    u_d=np.array([0.1, 0.0, 0.2j]),
    alpha=1e-3, beta=1e-4))

# a reproducible random control and the gradient there
rng = np.random.default_rng(0)
n = mesh.n_boundary_edges
z = 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
report, G = problem.cost_and_gradient(z)
print(f"j(z) = {report.J:.8f}   ||G|| = {report.grad_norm:.3e}")

# probe along the normalized gradient direction
xi = G / np.linalg.norm(G)
d = directional_derivative(G, xi)
print(f"directional derivative along G/||G||: {d:.8e}\n")

print(f"{'step t':>10} {'fd error':>14}")
rows = fd_check(problem.cost_and_gradient, z, xi,
                t_list=np.geomspace(1e-1, 1e-9, 9), cost_fn=problem.cost)
for t, err in rows:
    print(f"{t:10.1e} {err:14.6e}")

decay = [(t, e) for t, e in rows if t >= 1e-5]
print(f"\nslope before the plateau: "
      f"{loglog_slope([r[0] for r in decay], [r[1] for r in decay]):.3f} "
      f"(expected 1)")
print(f"plateau relative to the derivative: "
      f"{min(e for _, e in rows) / abs(d):.1e}")
