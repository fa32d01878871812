"""Direct solves for the state and adjoint systems.

The system matrix is assembled once per mesh, the interior block is LU
factorized once, and every state solve (Dirichlet data by block
elimination), adjoint solve (the conjugate of a forward solve, A_II being
complex symmetric), and adjoint pairing reuses that factorization.

The interior block A_II = K + i omega M is factored in SuperLU's symmetric
mode with diagonal pivots only, in geometric nested-dissection order
(George 1973): each dof sits at its edge's midpoint or (order 1) its
face's centroid, and level by level every part of more than LEAF dofs
splits at the median, ties going low, of the axis with the smallest
separator. The separator is a minimum vertex cover of the bipartite graph
of the entries that cross the median (Liu 1989), read off a maximum
matching by Konig's theorem; a split orders the lower part, the upper
part, then the separator, and a part no axis splits is a leaf. Against
minimum degree on A + A^T, nnz(L+U) falls 4.35M -> 2.29M at order 0 on a
5x30x10 cylinder and 4.53M -> 3.39M at order 1 on 3x18x6.
Skipping the pivot search is safe because the imaginary part omega M is
definite: every leading principal submatrix then has a definite imaginary
part and is nonsingular, and Higham (Math. Comp. 67, 1998) bounds the
growth factor of such an elimination. Every solve still checks its
relative residual against solver_tol, and the largest one is kept.

Set-up uses two threads. SuperLU releases the GIL while it factors, so
one worker thread meanwhile builds what does not need the factor: the j_c
load and what the caller hands over (`ReducedProblem`: its tracking data
and Riesz factor). It is the only worker; nothing on it submits work or
waits on the calling thread.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import (breadth_first_order,
                                  maximum_bipartite_matching)

from .nedelec import assemble, assemble_load
from .trace import lift


LEAF = 16  # parts of at most LEAF dofs are not split


class SolverError(RuntimeError):
    pass


def _dof_points(space):
    """Edge midpoints for the edge dofs, face centroids for face dofs."""
    m, x = space.mesh, np.empty((space.n_dofs, 3))
    x[space.edge_dofs] = m.vertices[m.edges].mean(axis=1)[:, None]
    x[space.face_dofs] = m.vertices[m.faces].mean(axis=1)[:, None]
    return x


def _graph(rows, cols, k):
    """CSR pattern of the edges rows[i] -> cols[i] among k nodes."""
    return sp.csr_array((np.ones(len(rows), dtype=np.int8), (rows, cols)),
                        shape=(k, k))


def _vertex_cover(lower, upper, mate):
    """Minimum vertex cover, as a mask of nodes 0 .. k-1, of the bipartite
    graph of edges lower[i] -> upper[i], given a maximum matching of it:
    mate[u] (k entries) is the upper node matched to lower node u, or -1.

    Konig: the cover is the lower nodes that no alternating path from an
    unmatched lower node reaches, and the upper nodes that one does; a path
    leaves a lower node by any edge and an upper node by its matching edge.
    It has one node per matching edge.
    """
    k = len(mate)
    is_lower = np.zeros(k, dtype=bool)
    is_lower[lower] = True
    back = np.flatnonzero(mate >= 0)
    free = np.flatnonzero(is_lower & (mate < 0))
    walk = _graph(np.r_[lower, mate[back], np.full_like(free, k)],
                  np.r_[upper, back, free], k + 1)
    reached = np.zeros(k + 1, dtype=bool)
    reached[breadth_first_order(walk, k, return_predecessors=False)] = True
    return reached[:k] != is_lower


def _nested_dissection(x, A):
    """Order p of the dofs, dof i at x[i], that dissects the symmetric
    pattern of A (module docstring); all parts of a level split at once."""
    n, (r, c) = len(x), A.tocoo().coords
    r, c = r[r < c], c[r < c]  # each edge once
    rank = np.argsort(np.argsort(x, axis=0, kind="stable"), axis=0)
    part = np.zeros(n, dtype=np.intp)  # -1 once a dof has its place
    keys = [np.zeros(n, dtype=np.int8)]  # per level: 0 lower part or
                                         # leaf, 1 upper, 2 separator
    while True:
        act = np.flatnonzero(part >= 0)
        cnt = np.bincount(part[act])
        big = cnt > LEAF  # a part of at most LEAF dofs is a leaf
        part[act] = np.where(big, np.cumsum(big) - 1, -1)[part[act]]
        act, cnt = act[part[act] >= 0], cnt[big]
        if not len(act):
            return np.lexsort(keys[::-1])
        q, P = part[act], len(cnt)
        mid = np.cumsum(cnt) - cnt + (cnt - 1) // 2
        low = np.zeros(len(act), dtype=np.int32)  # bit d: lower half on d
        for d in range(3):
            med = x[act[np.argsort(q * n + rank[act, d])[mid]], d]
            low |= (x[act, d] <= med[q]) << d
        # code 8 * part + low, and a part of its own for each placed dof:
        # an edge lies in one part iff its ends' codes differ below bit 3
        code = 8 * (P + np.arange(n, dtype=np.int32))
        code[act] = 8 * q + low
        diff = code[r] ^ code[c]
        r, c, diff = r[diff < 8], c[diff < 8], diff[diff < 8]
        # the ends of the edges across a median, numbered 0 .. k-1
        e = np.flatnonzero(diff)
        nodes = np.zeros(n, dtype=bool)
        nodes[r[e]] = nodes[c[e]] = True
        nodes = np.flatnonzero(nodes)
        k, local = len(nodes), np.empty(n, dtype=np.intp)
        local[nodes] = np.arange(k)
        # per axis, the crossing graph from lower to upper ends, a maximum
        # matching on it, and its size, the size of a minimum cover (Konig)
        cross, mate = [], np.empty((3, k), dtype=np.intp)
        size = np.full((3, P), n + 1)  # n + 1: the axis does not split
        for d in range(3):
            on = e[(diff[e] >> d & 1).astype(bool)]
            r_lo = (code[r[on]] >> d & 1).astype(bool)
            ends = local[r[on]], local[c[on]]
            cross.append(np.where(r_lo, ends, ends[::-1]))
            mate[d] = maximum_bipartite_matching(_graph(*cross[d], k),
                                                 perm_type="column")
            splits = np.bincount(q, (low >> d & 1) == 0) > 0
            size[d, splits] = np.bincount(part[nodes[mate[d] >= 0]],
                                          minlength=P)[splits]
        axis = np.argmin(size, axis=0)
        split = size[axis, np.arange(P)] <= n
        # the cover of the chosen axis' crossing graph, all parts at once
        a, s = axis[part[nodes]], split[part[nodes]]
        path = np.hstack([g[:, s[g[0]] & (a[g[0]] == d)]
                          for d, g in enumerate(cross)])
        m = np.where(s, mate[a, np.arange(k)], -1)
        on_sep = np.zeros(n, dtype=bool)
        on_sep[nodes[_vertex_cover(*path, m)]] = True
        on_sep, lo = on_sep[act], (low >> axis[q] & 1).astype(bool)
        keys.append(np.zeros(n, dtype=np.int8))
        keys[-1][act] = np.where(split[q], np.where(on_sep, 2, ~lo), 0)
        part[act] = np.where(split[q] & ~on_sep, 2 * q + ~lo, -1)


class StateOperator:
    """Factorized solver for one space/config pair (mesh is space.mesh).

    The interior block is factored once. Solve counts are instrumented:
    n_state_solves, n_adjoint_solves; max_residual is the largest relative
    residual of any solve so far.

    While this thread factors, the worker (module docstring) computes `load`
    and then calls `alongside()`, if given, which must not need the factor.
    The worker is joined before `__init__` returns or raises; its error is
    raised here unless the factor failed first (SolverError).
    """

    def __init__(self, mesh, space, config, alongside=None):
        self.space = space
        self.config = config
        I, B = space.interior_dofs, space.boundary_dofs
        rows = assemble(mesh, space, config).tocsc()[I]
        self.A_II = rows[:, I].tocsc()
        self.A_IB = rows[:, B].tocsr()
        p = self.perm = _nested_dissection(_dof_points(space)[I], self.A_II)

        def rest_of_setup():
            self.load = assemble_load(mesh, space, config.j_c,
                                      config.quad_degree(space.k) + 2)
            if alongside is not None:
                alongside()
        # leaving the block joins the worker, also when splu raises
        with ThreadPoolExecutor(max_workers=1) as worker:
            done = worker.submit(rest_of_setup)
            try:
                self.lu = spla.splu(self.A_II[p][:, p], permc_spec="NATURAL",
                                    diag_pivot_thresh=0.0,
                                    options={"SymmetricMode": True})
            except RuntimeError as err:
                raise SolverError(f"singular interior block: {err}") from None
            done.result()
        self.n_state_solves = 0
        self.n_adjoint_solves = 0
        self.max_residual = 0.0

    def _solve_interior(self, rhs):
        """A_II^-1 rhs by the permuted factor, its relative residual checked
        against solver_tol and the largest one kept."""
        sol = np.empty_like(rhs)
        sol[self.perm] = self.lu.solve(rhs[self.perm])
        # written so that a NaN residual (NaN or inf data) fails the check
        rel = (np.linalg.norm(self.A_II @ sol - rhs)
               / max(np.linalg.norm(rhs), 1e-300))
        if np.isfinite(rel):
            self.max_residual = max(self.max_residual, rel)
        if not (rel <= max(self.config.solver_tol, 1e-30) or not rhs.any()):
            raise SolverError(f"relative residual {rel:.3e} above tolerance")
        return sol

    def solve_dirichlet(self, g, f=None):
        """Solve with prescribed boundary dofs g (only B entries used)."""
        I, B = self.space.interior_dofs, self.space.boundary_dofs
        f = self.load if f is None else f
        u = np.array(g, dtype=complex)  # keeps g on B, solved for on I
        u[I] = self._solve_interior(f[I] - self.A_IB @ u[B])
        self.n_state_solves += 1
        return u

    def solve_state(self, z):
        """State solution with control z; u = lifting(z) + interior part."""
        return self.solve_dirichlet(lift(self.space, z))

    def solve_adjoint(self, rho):
        """Solve the conjugate-transposed interior system against rho.

        A_II is bitwise complex symmetric (`assemble` averages A with A^T),
        so A_II^H w = rho_I is the conjugate of the forward solve
        A_II conj(w) = conj(rho_I), residual check included.
        """
        I = self.space.interior_dofs
        w = np.zeros(self.space.n_dofs, dtype=complex)
        w[I] = np.conj(self._solve_interior(
            np.conj(np.asarray(rho, dtype=complex)[I])))
        self.n_adjoint_solves += 1
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
