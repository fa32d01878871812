"""Direct solves for the state and adjoint systems.

The system matrix is assembled once per mesh, the interior block is LU
factorized once, and every state solve (Dirichlet data by block
elimination), adjoint solve (conjugate-transpose triangular solves on the
same factors), and adjoint pairing reuses that factorization.

The interior block A_II = K + i omega M is complex symmetric, so SuperLU
runs in symmetric mode: a minimum-degree ordering of A + A^T (Amestoy,
Davis & Duff 1996) applied to rows and columns alike, with diagonal
pivots only. Skipping the pivot search is safe because the imaginary part
omega M is definite: every leading principal submatrix then has a definite
imaginary part and is nonsingular, and Higham (Math. Comp. 67, 1998)
bounds the growth factor of such an elimination. Every solve still checks
its relative residual against solver_tol, and the largest one is kept.
"""

import numpy as np
import scipy.sparse.linalg as spla

from .nedelec import assemble, assemble_load
from .trace import lift


class SolverError(RuntimeError):
    pass


class StateOperator:
    """Factorized solver for one mesh/space/config triple.

    Solve counts are instrumented: n_factorizations, n_state_solves,
    n_adjoint_solves; max_residual is the largest relative residual of
    any solve so far.
    """

    def __init__(self, mesh, space, config):
        self.mesh = mesh
        self.space = space
        self.config = config
        self.A = assemble(mesh, space, config)
        I, B = space.interior_dofs, space.boundary_dofs
        rows = self.A.tocsc()[I]
        self.A_II = rows[:, I].tocsc()
        self.A_IB = rows[:, B].tocsr()
        try:
            self.lu = spla.splu(self.A_II, permc_spec="MMD_AT_PLUS_A",
                                diag_pivot_thresh=0.0,
                                options={"SymmetricMode": True})
        except RuntimeError as err:
            raise SolverError(f"singular interior block: {err}") from None
        self.n_factorizations = 1
        self.n_state_solves = 0
        self.n_adjoint_solves = 0
        self.max_residual = 0.0
        self.load = assemble_load(mesh, space, config.j_c)

    def _check_residual(self, rhs, sol):
        res = self.A_II @ sol - rhs
        denom = max(np.linalg.norm(rhs), 1e-300)
        rel = np.linalg.norm(res) / denom
        self.max_residual = max(self.max_residual, rel)
        if rel > max(self.config.solver_tol, 1e-30) and denom > 1e-200:
            raise SolverError(f"relative residual {rel:.3e} above tolerance")

    def solve_dirichlet(self, g, f=None):
        """Solve with prescribed boundary dofs g (only B entries used)."""
        I, B = self.space.interior_dofs, self.space.boundary_dofs
        f = self.load if f is None else f
        rhs = f[I] - self.A_IB @ np.asarray(g, dtype=complex)[B]
        u = np.zeros(self.space.n_dofs, dtype=complex)
        sol = self.lu.solve(rhs)
        self._check_residual(rhs, sol)
        self.n_state_solves += 1
        u[I] = sol
        u[B] = np.asarray(g, dtype=complex)[B]
        return u

    def solve_state(self, z):
        """State solution with control z; u = lifting(z) + interior part."""
        return self.solve_dirichlet(lift(self.space, z))

    def solve_adjoint(self, rho):
        """Solve the conjugate-transposed interior system against rho."""
        I = self.space.interior_dofs
        rho_I = np.asarray(rho, dtype=complex)[I]
        w = np.zeros(self.space.n_dofs, dtype=complex)
        sol = self.lu.solve(rho_I, trans="H")
        # A_II is bitwise complex symmetric (assemble_curl_mass symmetrizes
        # K and M), so A_II^H s - rho_I = conj(A_II conj(s) - conj(rho_I)).
        self._check_residual(np.conj(rho_I), np.conj(sol))
        self.n_adjoint_solves += 1
        w[I] = sol
        return w

    def adjoint_pairing(self, w, rho):
        """Adjoint w of rho paired with every control basis function.

        Returns T = L_B^T (rho_B - A_IB^H w_I), L the lifting matrix, so
        that vdot(xi, T) == vdot(S(z + xi) - S(z), rho) for the state map
        S, without an extra volume solve.
        """
        I, B = self.space.interior_dofs, self.space.boundary_dofs
        y = np.zeros(self.space.n_dofs, dtype=complex)
        y[B] = rho[B] - np.conj(self.A_IB.T @ np.conj(w[I]))
        return self.space.lifting.T @ y
