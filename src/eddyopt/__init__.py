"""Boundary optimal control of time-harmonic eddy currents.

Edge (Nedelec) finite elements over complex fields, a surface-edge control
space on the boundary with closed-form curl/mass matrices, adjoint-based
reduced gradients in Wirtinger form, and a limited-memory BFGS (20 pairs)
driver, validated against an analytic cylinder solution.
"""

from .mesh import (
    Mesh, BoundaryEdgeFrame, MeshError, build_mesh, parse_msh, write_msh,
    mesh_to_json, generate_cube, generate_cylinder, mesh_size,
    refine_uniform,
)
from .analytic import (
    ElectrodeParams, DomainError, bessel_I, exact_H, exact_E, exact_J,
    exact_curl_H,
)
from .nedelec import (
    FESpace, ProblemConfig, AssemblyError, assemble, assemble_curl_mass,
    assemble_load, interpolate, evaluate_field, hcurl_error, integrate,
)
from .trace import (
    SurfaceOperators, zeros_control, eval_psi, eval_phi, surface_curl_matrix,
    surface_mass_matrix, lift, tangential_trace, eval_control_on_faces,
)
from .solver import StateOperator, SolverError
from .wirtinger import (
    ReducedProblem, CostReport, directional_derivative, fd_check,
    loglog_slope, bfgs_minimize,
)

__all__ = [
    "Mesh", "BoundaryEdgeFrame", "MeshError", "build_mesh", "parse_msh",
    "write_msh", "mesh_to_json", "generate_cube", "generate_cylinder",
    "mesh_size", "refine_uniform",
    "ElectrodeParams", "DomainError", "bessel_I", "exact_H",
    "exact_E", "exact_J", "exact_curl_H", "FESpace", "ProblemConfig",
    "AssemblyError", "assemble", "assemble_curl_mass", "assemble_load",
    "interpolate", "evaluate_field", "hcurl_error", "integrate",
    "SurfaceOperators", "zeros_control", "eval_psi", "eval_phi",
    "surface_curl_matrix", "surface_mass_matrix", "lift", "tangential_trace",
    "eval_control_on_faces", "StateOperator", "SolverError", "ReducedProblem",
    "CostReport", "directional_derivative", "fd_check", "loglog_slope",
    "bfgs_minimize",
]
