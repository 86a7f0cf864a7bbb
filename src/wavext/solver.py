"""Slab-marching solver for the coupled first-order space-time formulation.

Each slab carries trial expansions u = sum_j sigma_j(t) U_j(x) and likewise
v, with sigma the integrated-Legendre basis of :mod:`wavext.timebasis`.  The
sigma_0 coefficients are pinned by continuity with the previous slab and the
boundary rows by the Dirichlet lifting, so the unknowns per slab are the
interior rows of U_j, V_j for j = 1..q.  Testing against L_i phi_k
(i < q, phi_k interior) gives, per temporal test index i,

    sum_j N[i,j] (C V_j)_k - sum_j D[i,j] (C U_j)_k = r1_i
    sum_j D[i,j] (M V_j)_k + sum_j N[i,j] (K U_j)_k = r2_i

with C = K for the gradient coupling and C = M for the mass coupling, and
the known terms and the load int (f, L_i phi_k) dt in r1, r2.  Nothing is
enforced by penalties, so interface continuity and boundary traces hold
exactly.

Both temporal matrices are closed forms (:mod:`wavext.timebasis`),
N = diag(tau/(2i + 1)) T[:q] with T = trial_to_legendre(q) and D = [0 | I],
which is applied as the last q rows of U.  The 2q n_I block system is never
assembled: as D[:, 1:] = I, the first block row gives U = Nq V - C^{-1} r1
(Nq = N[:, 1:], rows of U and V indexed by j) and the second leaves

    (I (x) M + Nq^2 (x) K) V = r2 + Nq (K C^{-1} r1),

where K C^{-1} r1 = r1 for the gradient coupling.  Nq is tau times a fixed
matrix, so Nq^2 = S diag(tau^2 lam) S^{-1} with S independent of tau
(:func:`~wavext.timebasis.temporal_eigensplit`), and the system splits into
q spatial systems (M + tau^2 lam_k K) W_k = (S^{-1} R)_k.  Conjugate
eigenvalues give conjugate solutions, so a slab length costs one complex
LU per conjugate pair (a real one for the real eigenvalue at odd q), on top
of the space's LU of C (:func:`~wavext.fem.interior_factorization`).  Each
solve is held to its residual on the block operator itself, matrix-free;
that operator is exactly the one the elimination inverts.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SolverFailure
from .fem import (assemble, interior_block, interior_factorization,
                  interpolate_nodal, load_vector, ritz_project)
from .linalg import checked_solve, factorize
from .timebasis import (endpoint_exact_project, gauss_rule, lagrange_time_interp,
                        legendre_table, slab_temporal_matrices,
                        temporal_eigensplit)


@dataclass
class SpaceTimeSolution:
    """Per-slab trial-coefficient tensors u and v of shape (n_slabs,
    degree+1, n_dofs).  Slab n spans partition.nodes[n:n+2]; the state at
    t_0 is row 0 of slab 0, and at t_n (n >= 1) the sum of rows 0 and 1 of
    slab n-1.
    """

    space: object
    partition: object
    degree: int
    u: np.ndarray
    v: np.ndarray


@dataclass
class Lifting:
    """Boundary-DOF trajectories in per-slab trial coefficients,
    shape (n_slabs, q+1, n_boundary_dofs) for each field."""

    u_trial: np.ndarray
    v_trial: np.ndarray


def build_lifting(problem, disc):
    """Dirichlet lifting trajectories for u and v at the boundary DOFs.

    disc.bc_mode "projection" runs the endpoint-exact temporal projection on
    each boundary-node trajectory of g_d (and of dt g_d for the v-lifting);
    "interpolation" interpolates each trajectory at q+1 uniform nodes per
    slab.  Either is a fixed matrix per degree that takes one call of g_d (or
    dt g_d) at all slabs' nodes straight to trial coefficients (see
    :mod:`wavext.timebasis`).  Homogeneous data is the zero lifting.  Data
    that is not finite at a sample time raises ConfigurationError.

    The lifting reaches the reconstruction u(0) + int v through the slab
    means of the v-lifting.  The projection keeps those means exactly for
    q >= 2; the interpolant keeps them only to O(tau^{q+1}) at odd q and
    O(tau^{q+2}) at even q.  So "interpolation" costs the reconstruction one
    order at odd q (q+1 instead of q+2) and nothing at even q; u, v and
    grad u keep their order q+1 under either mode.
    """
    space, partition, q = disc.space, disc.partition, disc.q
    B = space.boundary_dofs
    if problem.g_d is None:  # read-only zeros that take no memory
        zero = np.broadcast_to(0.0, (partition.n_slabs, q + 1, len(B)))
        return Lifting(zero, zero)
    if problem.dt_g_d is None:
        raise ConfigurationError("nonhomogeneous data needs dt_g_d for the v-lifting")
    xb = space.dof_coords[B, 0]
    yb = space.dof_coords[B, 1]

    def traj(name, g):
        def sample(ts):
            ts = np.asarray(ts, dtype=float)[:, None]
            values = np.asarray(g(xb[None, :], yb[None, :], ts))
            bad = ~np.isfinite(values)
            if bad.any():
                i, k = np.argwhere(np.broadcast_to(bad, (ts.size, xb.size)))[0]
                raise ConfigurationError(f"{name} is not finite at t = {ts[i, 0]:g} at "
                                         f"the boundary node ({xb[k]:g}, {yb[k]:g})")
            return values
        return sample

    project = endpoint_exact_project if disc.bc_mode == "projection" else lagrange_time_interp
    return Lifting(project(q, traj("g_d", problem.g_d), partition),
                   project(q, traj("dt_g_d", problem.dt_g_d), partition))


#: Largest gap between boundary data and the state it meets (the initial
#: data at t = 0, each slab's starting state), relative to 1 + their size.
DATA_MATCH_TOL = 1e-10


def discrete_initial_data(problem, disc, lifting):
    """Coefficient vectors (u0h, v0h) of initial fields compatible with the
    lifting, the run's :func:`build_lifting`.

    Under disc.initial_mode "projection" u0h is the space's read-only Ritz
    projection of u0, and v0h has nodal boundary values of v0 and the
    interior L2 projection of v0 minus the lifting velocity at t = 0.
    "interpolation" takes plain nodal interpolants of both.  Initial data
    that is not finite at a boundary node, or that disagrees with the
    lifting's first row, raises ConfigurationError.
    """
    space, B = disc.space, disc.space.boundary_dofs
    xb, yb = space.dof_coords[B, 0], space.dof_coords[B, 1]
    data = {"u0": problem.u0(xb, yb), "v0": problem.v0(xb, yb)}
    for name, values in data.items():
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ConfigurationError(f"{name} is not finite at the boundary node "
                                     f"({xb[bad[0]]:g}, {yb[bad[0]]:g})")
    for boundary, initial, trial in (("g_d(.,0)", "u0", lifting.u_trial),
                                     ("dt_g_d(.,0)", "v0", lifting.v_trial)):
        gap = np.max(np.abs(trial[0, 0] - data[initial]))
        if gap > DATA_MATCH_TOL * (1.0 + np.max(np.abs(data[initial]))):
            raise ConfigurationError(f"initial/boundary data incompatible: |{boundary} - "
                                     f"{initial}| = {gap:.3e} on the boundary")

    if disc.initial_mode == "interpolation":
        return interpolate_nodal(space, problem.u0), interpolate_nodal(space, problem.v0)

    u0h = ritz_project(space, problem.u0, problem.grad_u0, problem.c)
    lift_v0 = np.zeros(space.n_dofs)
    lift_v0[B] = lifting.v_trial[0, 0]
    v0h = np.zeros(space.n_dofs)
    v0h[B] = data["v0"]
    # interior L2 projection of (v0 - lifting velocity at t = 0)
    rhs = load_vector(space, problem.v0) - assemble(space, "mass") @ lift_v0
    I = space.interior_dofs
    v0h[I] = interior_factorization(space, "mass").solve(rhs[I])
    return u0h, v0h


#: Relative residual every slab solve is held to, on the block operator.
SLAB_TOL = 1e-11


def _block(C, M, K, N, U, V):
    """The slab's block equations (r1, r2) on coefficient rows U, V, with
    the rows of U, V indexed by the columns of N (see the module
    docstring); D = [0 | I] picks their last q rows.  The solve applies
    them to the unknown rows, the right-hand side to the known ones."""
    q = N.shape[0]
    r1 = C @ (V.T @ N.T - U[-q:].T)
    r2 = M @ V[-q:].T + K @ (U.T @ N.T)
    return r1.T, r2.T


class SlabWorkspace:
    """The slab system of a run (see the module docstring): the space's
    operators, their interior blocks, the interior factorization of C, the
    run's ``lifting`` (:func:`build_lifting`), and the modes of one slab
    length only, so memory stays bounded on a graded partition."""

    def __init__(self, problem, disc):
        space = disc.space
        self.problem = problem
        self.space = space
        self.partition = disc.partition
        self.q = disc.q
        self.I, self.B = space.interior_dofs, space.boundary_dofs
        self.lifting = build_lifting(problem, disc)
        self.M, self.M_II = assemble(space, "mass"), interior_block(space, "mass")
        self.K = assemble(space, "stiffness", problem.c)
        self.K_II = interior_block(space, "stiffness", problem.c)
        self.gradient = disc.method == "gradient"
        C = ("stiffness", problem.c) if self.gradient else ("mass", 1.0)
        self.C, self.C_II, self.C_fact = (assemble(space, *C), interior_block(space, *C),
                                          interior_factorization(space, *C))
        lam, self._S, self._Sinv, pairs = temporal_eigensplit(self.q)
        self._lam, self._real = lam, ~pairs
        self._tau = self._modes = self.Nm = None
        self._tau_tol = 8 * np.spacing(self.partition.nodes[-1])
        # the source is evaluated once per block of slabs, at all its Gauss times
        self._npts = max(self.q + 3, 6)
        n_points = space.rule["wdet"].size
        self.load_blocks = self.partition.blocks(self._npts * n_points, problem.singular_at_zero)

    def system(self, tau):
        """Factorize the modes for slab length tau, unless it is within 8 ulps
        of the final time of the length they were made for: a uniform
        partition's lengths differ in their last bits, and they all share
        the first one's modes and Nm, so the right-hand side and the
        residual check see one operator."""
        if self._tau is None or abs(tau - self._tau) > self._tau_tol:
            self._tau = self._modes = None  # free the old modes first
            self.Nm = slab_temporal_matrices(self.q, (0.0, tau))
            self._modes = [factorize(self.M_II + tau ** 2 * (lk.real if real else lk) * self.K_II)
                           for lk, real in zip(self._lam, self._real)]
            self._tau = tau

    def apply(self, U, V):
        """The block operator on (q, n_I) coefficient rows U, V -> (r1, r2)."""
        return _block(self.C_II, self.M_II, self.K_II, self.Nm[:, 1:], U, V)

    def _eliminate(self, r1, r2):
        Nq = self.Nm[:, 1:]
        Cr1 = self.C_fact.solve(r1.T).T
        KCr1 = r1 if self.gradient else (self.K_II @ Cr1.T).T
        G = self._Sinv @ (r2 + Nq @ KCr1)
        W = np.stack([lu.solve(g.real) if real else lu.solve(g)
                      for lu, g, real in zip(self._modes, G, self._real)])
        V = (self._S @ W).real
        return Nq @ V - Cr1, V

    def solve(self, r1, r2):
        """Interior coefficient rows (U, V), each (q, n_I), of the last
        :meth:`system`'s slab, held to the relative residual SLAB_TOL."""
        x = checked_solve(lambda b: np.stack(self._eliminate(*b)),
                          lambda x: np.stack(self.apply(*x)),
                          np.stack([r1, r2]), SLAB_TOL, "slab")
        return x[0], x[1]

    def load_moments(self, block):
        """Temporal moments of the interior load over a range of slabs of
        ``load_blocks`` (the graded slab 0 is a block of its own): a fresh
        (len(block), q, n_interior) array of int (f, L_i phi_k) dt, from one
        evaluation of f at all the block's Gauss times, or None for zero f."""
        problem = self.problem
        if problem.f is None:
            return None
        graded = problem.singular_at_zero and block.start == 0
        nodes = self.partition.nodes
        ts, ws = gauss_rule(self._npts, (nodes[:-1][block, None], nodes[1:][block, None]),
                            graded)
        tst = legendre_table(self.q - 1, self._npts, graded)
        loads = load_vector(self.space, lambda xx, yy: problem.f(xx, yy, ts.reshape(-1, 1, 1)))
        loads = np.broadcast_to(loads, (ts.size, self.space.n_dofs))[:, self.I]
        # C order: BLAS then sums each slab's product as it does for stacked rows
        loads = np.ascontiguousarray(loads).reshape(len(block), -1, len(self.I))
        return (tst * ws[:, None, :]) @ loads


def solve_slab(prev_u, prev_v, n, workspace, loads):
    """Advance one slab from the endpoint state (prev_u, prev_v) at t_{n-1}.

    Returns the full trial-coefficient tensors (q+1, n_dofs) for u and v on
    slab n.  The previous state must agree with the workspace's lifting on
    the boundary; ``loads`` is its row of
    :meth:`SlabWorkspace.load_moments`, None for zero f.
    """
    if not 0 <= n < workspace.partition.n_slabs:
        raise IndexError(f"slab {n} outside 0..{workspace.partition.n_slabs - 1}")
    q, I, B = workspace.q, workspace.I, workspace.B
    workspace.system(float(workspace.partition.lengths[n]))
    UB, VB = workspace.lifting.u_trial[n], workspace.lifting.v_trial[n]
    for prev, traj, label in ((prev_u, UB, "u"), (prev_v, VB, "v")):
        scale = 1.0 + max(np.abs(traj[0]).max(initial=0.0), np.abs(prev).max(initial=0.0))
        if np.abs(prev[B] - traj[0]).max(initial=0.0) > DATA_MATCH_TOL * scale:
            raise ConfigurationError(
                f"slab {n + 1}: previous {label} state disagrees with the "
                "lifting at the left endpoint")

    # the known parts of the coefficients: row 0 from the previous slab,
    # boundary rows from the lifting; the solve fills in the interior rows
    U = np.zeros((q + 1, workspace.space.n_dofs))
    V = np.zeros((q + 1, workspace.space.n_dofs))
    U[0], V[0] = prev_u, prev_v
    U[1:, B], V[1:, B] = UB[1:], VB[1:]
    # the interior rows of the full operators: the same CSR row products
    r1, r2 = _block(workspace.C, workspace.M, workspace.K, workspace.Nm, U, V)
    r1, r2 = -r1[:, I], -r2[:, I]
    if loads is not None:
        r2 += loads

    try:
        U[1:, I], V[1:, I] = workspace.solve(r1, r2)
    except SolverFailure as exc:
        raise SolverFailure(f"slab {n + 1}: {exc}", residual=exc.residual) from exc
    return U, V


def solve(problem, disc):
    """March all slabs and return the space-time solution."""
    space, partition, q = disc.space, disc.partition, disc.q
    ws = SlabWorkspace(problem, disc)
    prev_u, prev_v = discrete_initial_data(problem, disc, ws.lifting)
    N = partition.n_slabs
    U = np.zeros((N, q + 1, space.n_dofs))
    V = np.zeros((N, q + 1, space.n_dofs))
    for block in ws.load_blocks:
        F = ws.load_moments(block)
        for n in block:
            U[n], V[n] = solve_slab(prev_u, prev_v, n, ws,
                                    None if F is None else F[n - block.start])
            prev_u = U[n, 0] + U[n, 1]
            prev_v = V[n, 0] + V[n, 1]
    return SpaceTimeSolution(space, partition, q, U, V)
