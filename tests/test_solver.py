import weakref
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.linalg import splu

import wavext as wx
import wavext.fem as fem_module
import wavext.solver as solver_module
from conftest import legendre_coeffs, small_homogeneous_run, txy_problem
from wavext.problem import MAX_TEMPORAL_DEGREE
from wavext.solver import SLAB_TOL, SlabWorkspace
from wavext.timebasis import (gauss_rule, legendre_table, slab_temporal_matrices,
                              trial_matrix, trial_to_legendre)


def test_initial_data_reproduces_interior_members():
    # the quartic bubble lies in the degree-4 space, so both projections
    # reproduce its interpolant exactly
    space = wx.build_space(wx.build_structured_mesh(3, 3), 4)
    member = wx.interpolate_nodal(space, lambda x, y: x * (1 - x) * y * (1 - y))
    shaped = wx.ProblemData(
        u0=lambda x, y: x * (1 - x) * y * (1 - y),
        grad_u0=lambda x, y: ((1 - 2 * x) * y * (1 - y), x * (1 - x) * (1 - 2 * y)),
        v0=lambda x, y: x * (1 - x) * y * (1 - y))
    u0h, v0h = wx.discrete_initial_data(shaped, space)
    assert np.abs(u0h - member).max() <= 1e-11
    assert np.abs(v0h - member).max() <= 1e-11


def test_initial_data_dirichlet_cos_velocity_vanishes():
    prob = wx.dirichlet_cos()
    space = wx.build_space(wx.build_structured_mesh(4, 4, prob.bbox), 2)
    part = wx.uniform_time_partition(1.0, 4)
    lifting = wx.build_lifting(prob, space, part, 2, "projection")
    _, v0h = wx.discrete_initial_data(prob, space, lifting)
    assert np.abs(v0h).max() <= 1e-12


def test_incompatible_data_rejected():
    prob = wx.dirichlet_cos()
    bad = wx.ProblemData(
        bbox=prob.bbox, g_d=prob.g_d, dt_g_d=prob.dt_g_d,
        u0=lambda x, y: prob.u0(x, y) + 1e-4,
        grad_u0=prob.grad_u0, v0=prob.v0)
    space = wx.build_space(wx.build_structured_mesh(3, 3, prob.bbox), 2)
    with pytest.raises(wx.ConfigurationError):
        wx.discrete_initial_data(bad, space)


def test_lifting_zero_and_polynomial_data():
    prob = txy_problem()
    space = wx.build_space(wx.build_structured_mesh(3, 3), 2)
    part = wx.uniform_time_partition(1.0, 4)
    assert wx.build_lifting(wx.standing_wave(), space, part, 2, "projection") is None
    # g linear in t: both modes exact and identical
    lp = wx.build_lifting(prob, space, part, 2, "projection")
    ln = wx.build_lifting(prob, space, part, 2, "interpolation")
    assert np.abs(lp.u_trial - ln.u_trial).max() <= 1e-12
    assert np.abs(lp.v_trial - ln.v_trial).max() <= 1e-12
    B = space.boundary_dofs
    xy = space.dof_coords[B, 0] * space.dof_coords[B, 1]
    for n in range(part.n_slabs):
        for x, t in ((-1.0, part.nodes[n]), (1.0, part.nodes[n + 1])):
            sig = trial_matrix(2, np.array([x]))[:, 0]
            vals = np.tensordot(sig, lp.u_trial[n], axes=(0, 0))
            assert np.abs(vals - t * xy).max() <= 1e-13


def test_lifting_matches_boundary_values_at_nodes():
    prob = wx.dirichlet_cos()
    space = wx.build_space(wx.build_structured_mesh(4, 4, prob.bbox), 3)
    part = wx.uniform_time_partition(1.0, 5)
    lift = wx.build_lifting(prob, space, part, 3, "projection")
    B = space.boundary_dofs
    xb, yb = space.dof_coords[B, 0], space.dof_coords[B, 1]
    for n in range(part.n_slabs):
        t_right = part.nodes[n + 1]
        sig = trial_matrix(3, np.array([1.0]))[:, 0]
        vals = np.tensordot(sig, lift.u_trial[n], axes=(0, 0))
        assert np.abs(vals - prob.g_d(xb, yb, t_right)).max() <= 1e-12
        assert np.abs(lift.u_trial[n, 0] - prob.g_d(xb, yb, part.nodes[n])).max() <= 1e-12


def test_lifting_requires_velocity_datum():
    prob = wx.dirichlet_cos()
    broken = wx.ProblemData(bbox=prob.bbox, g_d=prob.g_d, dt_g_d=None,
                            u0=prob.u0, grad_u0=prob.grad_u0, v0=prob.v0)
    space = wx.build_space(wx.build_structured_mesh(2, 2, prob.bbox), 2)
    with pytest.raises(wx.ConfigurationError):
        wx.build_lifting(broken, space, wx.uniform_time_partition(1.0, 2), 2,
                         "projection")


@pytest.mark.parametrize("mode", ["projection", "interpolation"])
def test_lifting_calls_each_boundary_callback_once(mode):
    # each trajectory is sampled at all slabs' nodes in one call
    prob = wx.dirichlet_cos()
    calls = []

    def counted(name, g):
        def wrapped(*args):
            calls.append(name)
            return g(*args)
        return wrapped

    wrapped = replace(prob, g_d=counted("g_d", prob.g_d),
                      dt_g_d=counted("dt_g_d", prob.dt_g_d))
    space = wx.build_space(wx.build_structured_mesh(3, 3, prob.bbox), 2)
    part = wx.TimePartition(np.array([0.0, 0.1, 0.3, 0.7, 0.75, 1.0]))
    lift = wx.build_lifting(wrapped, space, part, 3, mode)
    assert sorted(calls) == ["dt_g_d", "g_d"]
    assert lift.u_trial.shape == lift.v_trial.shape == (5, 4, len(space.boundary_dofs))


def test_zero_data_gives_zero_solution():
    prob = wx.ProblemData()
    space = wx.build_space(wx.build_structured_mesh(3, 3), 2)
    disc = wx.Discretization(space, wx.uniform_time_partition(1.0, 3), q=2)
    sol = wx.solve(prob, disc)
    assert np.abs(sol.u).max() == 0.0
    assert np.abs(sol.v).max() == 0.0


def test_single_slab_equals_solve():
    prob = wx.standing_wave()
    space = wx.build_space(wx.build_structured_mesh(3, 3, prob.bbox), 2)
    part = wx.uniform_time_partition(1.0, 1)
    disc = wx.Discretization(space, part, q=2)
    sol = wx.solve(prob, disc)
    u0h, v0h = wx.discrete_initial_data(prob, space)
    lifting = wx.build_lifting(prob, space, part, 2, disc.bc_mode)
    U, V = wx.solve_slab(u0h, v0h, 0, SlabWorkspace(prob, disc), lifting)
    assert np.abs(U - sol.u[0]).max() <= 1e-12
    assert np.abs(V - sol.v[0]).max() <= 1e-12


def test_interface_continuity_exact():
    prob, sol = small_homogeneous_run(q=3, n_slabs=5)
    for n in range(1, sol.partition.n_slabs):
        prev_u = sol.u[n - 1, 0] + sol.u[n - 1, 1]
        prev_v = sol.v[n - 1, 0] + sol.v[n - 1, 1]
        assert np.array_equal(sol.u[n, 0], prev_u)
        assert np.array_equal(sol.v[n, 0], prev_v)


def test_galerkin_exactness_linear_solution():
    prob = txy_problem()
    space = wx.build_space(wx.build_structured_mesh(3, 3), 2)
    for method in ("gradient", "mass"):
        disc = wx.Discretization(space, wx.uniform_time_partition(1.0, 3), q=1,
                                 method=method)
        rep = wx.compute_error_report(wx.solve(prob, disc), prob, 7)
        for err in (rep.err_u, rep.err_ustar, rep.err_v, rep.err_gradu):
            assert err <= 1e-9


@pytest.mark.parametrize("method", ["gradient", "mass"])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_discrete_velocity_identity(q, method):
    # with homogeneous data, the low Legendre modes of v equal du/dt exactly
    prob, sol = small_homogeneous_run(q=q, n_slabs=4, method=method)
    for n in range(sol.partition.n_slabs):
        tau = sol.partition.lengths[n]
        v_leg = legendre_coeffs(sol, n, "v")
        scale = max(1.0, np.abs(v_leg).max())
        for k in range(q):
            dudt_k = (2 * k + 1) / tau * sol.u[n, k + 1]
            assert np.abs(v_leg[k] - dudt_k).max() <= 1e-10 * scale


def test_energy_conservation_nonuniform_partition():
    prob = wx.standing_wave()
    space = wx.build_space(wx.build_structured_mesh(4, 4, prob.bbox), 2)
    part = wx.TimePartition(np.array([0.0, 0.15, 0.4, 0.5, 0.85, 1.0]))
    disc = wx.Discretization(space, part, q=2)
    sol = wx.solve(prob, disc)
    E = wx.energy_trace(sol, prob.c)
    assert np.abs(E - E[0]).max() <= 1e-12 * E[0]


def test_methods_coincide_for_homogeneous_data():
    _, s1 = small_homogeneous_run(q=2, n_slabs=4, method="gradient")
    _, s2 = small_homogeneous_run(q=2, n_slabs=4, method="mass")
    scale = np.abs(s1.u).max()
    assert np.abs(s1.u - s2.u).max() <= 1e-9 * scale
    assert np.abs(s1.v - s2.v).max() <= 1e-9 * scale


def test_previous_state_must_match_lifting():
    prob = wx.dirichlet_cos()
    space = wx.build_space(wx.build_structured_mesh(3, 3, prob.bbox), 2)
    part = wx.uniform_time_partition(1.0, 2)
    disc = wx.Discretization(space, part, q=1)
    lifting = wx.build_lifting(prob, space, part, 1, "projection")
    u0h, v0h = wx.discrete_initial_data(prob, space, lifting)
    bad = u0h.copy()
    bad[space.boundary_dofs[0]] += 1e-3
    with pytest.raises(wx.ConfigurationError):
        wx.solve_slab(bad, v0h, 0, SlabWorkspace(prob, disc), lifting)


def _smooth_random_problem(rng):
    kx, ky = rng.integers(1, 4, size=2)
    a, b, omega = rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(1, 8)

    def u0(x, y):
        return a * np.sin(kx * np.pi * x) * np.sin(ky * np.pi * y)

    def grad_u0(x, y):
        return (a * kx * np.pi * np.cos(kx * np.pi * x) * np.sin(ky * np.pi * y),
                a * ky * np.pi * np.sin(kx * np.pi * x) * np.cos(ky * np.pi * y))

    def v0(x, y):
        return b * np.sin(ky * np.pi * x) * np.sin(kx * np.pi * y)

    def f(x, y, t):
        return np.sin(np.pi * x) * np.sin(np.pi * y) * np.cos(omega * t)

    return wx.ProblemData(u0=u0, grad_u0=grad_u0, v0=v0, f=f)


def test_unconditional_stability_sanity():
    # max energy bounded by the data for tau/h from small to large, with one
    # generous constant; no step restriction is needed for boundedness
    from wavext.timebasis import gauss_rule

    rng = np.random.default_rng(42)
    space = wx.build_space(wx.build_structured_mesh(4, 4), 2)
    ts, ws = gauss_rule(24, (0.0, 1.0))
    for trial in range(3):
        prob = _smooth_random_problem(rng)
        E0 = 0.5 * (wx.spatial_norm(space, "l2", exact=prob.v0) ** 2
                    + wx.spatial_norm(space, "h1c", exact=prob.u0,
                                      exact_grad=prob.grad_u0) ** 2)
        f_norms = [wx.spatial_norm(space, "l2", exact=lambda x, y: prob.f(x, y, t))
                   for t in ts]
        bound = E0 + float(np.sum(ws * np.asarray(f_norms))) ** 2
        for q in (1, 2):
            for n_slabs in (4, 16, 64):
                disc = wx.Discretization(
                    space, wx.uniform_time_partition(1.0, n_slabs), q=q)
                sol = wx.solve(prob, disc)
                E = wx.energy_trace(sol, prob.c)
                assert E.max() <= 20.0 * bound, (trial, q, n_slabs, E.max(), bound)


# -- the assembled slab system, kept as the oracle of the fast solve ---------

def _oracle_matrix(ws, Nm):
    """The 2q n_I block matrix of one slab, rows (r1_i, r2_i) and columns
    (U_j, V_j) interleaved by temporal index, with D = [0 | I]."""
    q = ws.q
    Dm = np.eye(q, q + 1, 1)
    drop = 1e-14 * max(np.abs(Nm).max(), 1.0)
    blocks = [[None] * (2 * q) for _ in range(2 * q)]

    def put(r, c, scalar, op):
        if abs(scalar) <= drop:
            return
        blocks[r][c] = scalar * op if blocks[r][c] is None else blocks[r][c] + scalar * op

    for i in range(q):
        for j in range(1, q + 1):
            cu, cv = 2 * (j - 1), 2 * (j - 1) + 1
            put(2 * i, cu, -Dm[i, j], ws.C_II)
            put(2 * i, cv, Nm[i, j], ws.C_II)
            put(2 * i + 1, cu, Nm[i, j], ws.K_II)
            put(2 * i + 1, cv, Dm[i, j], ws.M_II)
    return sparse.bmat(blocks, format="csr")


def _interleave(a, b):
    """(q, n_I) row blocks a, b -> the oracle's vector (a_0, b_0, a_1, ...)."""
    return np.stack([a, b], axis=1).ravel()


def _monolithic_march(prob, disc):
    """March all slabs with one LU of the assembled slab system and the
    right-hand side built term by term, refining every solve once."""
    ws = SlabWorkspace(prob, disc)
    q, I, B = ws.q, ws.I, ws.B
    M = wx.assemble(disc.space, "mass")
    K = wx.assemble(disc.space, "stiffness", prob.c)
    C = K if disc.method == "gradient" else M
    C_IB = C[np.ix_(I, B)]
    K_IB, M_IB = K[np.ix_(I, B)], M[np.ix_(I, B)]
    lifting = wx.build_lifting(prob, disc.space, disc.partition, q, disc.bc_mode)
    u0h, v0h = wx.discrete_initial_data(prob, disc.space, lifting, disc.initial_mode)
    tau = float(disc.partition.lengths[0])
    Nm = slab_temporal_matrices(q, (0.0, tau))
    Dm = np.eye(q, q + 1, 1)
    A = _oracle_matrix(ws, Nm)
    lu = splu(A.tocsc())
    n_slabs, n = disc.partition.n_slabs, disc.space.n_dofs
    U, V = np.zeros((n_slabs, q + 1, n)), np.zeros((n_slabs, q + 1, n))
    prev_u, prev_v = u0h, v0h
    for s in range(n_slabs):
        UB, VB = lifting.u_trial[s], lifting.v_trial[s]
        KU0, CV0 = (K @ prev_u)[I], (C @ prev_v)[I]
        MV0, CU0 = (M @ prev_v)[I], (C @ prev_u)[I]
        r1 = np.empty((q, len(I)))
        r2 = np.empty((q, len(I)))
        for i in range(q):
            r1[i] = -Nm[i, 0] * CV0 + Dm[i, 0] * CU0
            r2[i] = -Nm[i, 0] * KU0 - Dm[i, 0] * MV0
            for j in range(1, q + 1):
                r1[i] += Dm[i, j] * (C_IB @ UB[j]) - Nm[i, j] * (C_IB @ VB[j])
                r2[i] -= Nm[i, j] * (K_IB @ UB[j]) + Dm[i, j] * (M_IB @ VB[j])
        b = _interleave(r1, r2)
        x = lu.solve(b)
        x += lu.solve(b - A @ x)
        X = x.reshape(q, 2, len(I))
        U[s, 0], V[s, 0] = prev_u, prev_v
        U[s, 1:, I], V[s, 1:, I] = X[:, 0].T, X[:, 1].T
        U[s, 1:, B], V[s, 1:, B] = UB[1:].T, VB[1:].T
        prev_u, prev_v = U[s, 0] + U[s, 1], V[s, 0] + V[s, 1]
    return U, V


def _block_residual(A, b, U, V):
    """|A x - b| / |b| for x = (U, V) in the oracle's layout."""
    return np.linalg.norm(A @ _interleave(U, V) - b) / np.linalg.norm(b)


@lru_cache(maxsize=None)
def _oracle_space(p, nx):
    return wx.build_space(wx.build_structured_mesh(nx, nx, wx.dirichlet_cos().bbox), p)


def _oracle_workspace(method, q, p=2, nx=3):
    disc = wx.Discretization(_oracle_space(p, nx), wx.uniform_time_partition(1.0, 4),
                             q=q, method=method)
    return SlabWorkspace(wx.dirichlet_cos(), disc)


@settings(max_examples=48, deadline=None)
@given(q=st.integers(1, MAX_TEMPORAL_DEGREE), method=st.sampled_from(["gradient", "mass"]),
       log_tau=st.floats(-3.0, 0.0), seed=st.integers(0, 2 ** 32 - 1))
def test_slab_solve_matches_monolithic_oracle(q, method, log_tau, seed):
    ws = _oracle_workspace(method, q)
    ws.system(10.0 ** log_tau)
    A = _oracle_matrix(ws, ws.Nm)
    r1, r2 = np.random.default_rng(seed).normal(size=(2, q, len(ws.I)))
    b = _interleave(r1, r2)
    U, V = ws.solve(r1, r2)
    x = _interleave(U, V)
    x_ref = splu(A.tocsc()).solve(b)
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
    assert _block_residual(A, b, U, V) <= 1e-11
    # the matrix-free block operator is the oracle matrix, to roundoff
    a1, a2 = ws.apply(U, V)
    scale = np.linalg.norm(abs(A) @ abs(x))
    assert np.linalg.norm(_interleave(a1, a2) - A @ x) <= 1e-14 * scale


@pytest.mark.parametrize("q, p", [(8, 4), (MAX_TEMPORAL_DEGREE, 8)])
def test_slab_solve_refinement_runs_and_succeeds(q, p):
    # mass coupling at high q: the eliminated solve alone misses the contract
    # (about 2.7e-10 at q = 8, p = 4; 2e-6 at q = 12, p = 8), the refinement
    # step recovers it
    ws = _oracle_workspace("mass", q, p=p)
    ws.system(1.0)
    A = _oracle_matrix(ws, ws.Nm)
    r1, r2 = np.random.default_rng(5).normal(size=(2, q, len(ws.I)))
    b = _interleave(r1, r2)
    assert _block_residual(A, b, *ws._eliminate(r1, r2)) > SLAB_TOL
    U, V = ws.solve(r1, r2)
    assert _block_residual(A, b, U, V) <= SLAB_TOL
    x_ref = splu(A.tocsc()).solve(b)
    assert np.linalg.norm(_interleave(U, V) - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


@pytest.mark.parametrize("method", ["gradient", "mass"])
@pytest.mark.parametrize("q", range(1, MAX_TEMPORAL_DEGREE + 1))
def test_slab_solve_meets_contract_with_indefinite_modes(method, q):
    # from q = 4 on, some kept eigenvalues have Re lam < 0, so the Hermitian
    # part of M_II + tau^2 lam K_II need not be definite; the fill-reducing
    # order keeps SuperLU's threshold pivoting, and the solve its residual
    ws = _oracle_workspace(method, q, p=8, nx=2)
    assert (ws._lam.real.min() < 0) == (q >= 4)
    ws.system(1.0)
    A = _oracle_matrix(ws, ws.Nm)
    r1, r2 = np.random.default_rng(q).normal(size=(2, q, len(ws.I)))
    U, V = ws.solve(r1, r2)
    assert _block_residual(A, _interleave(r1, r2), U, V) <= SLAB_TOL


def test_mode_factorization_fill_below_colamd():
    # the big-slab mode matrix (p = 3, 16 x 16, q = 4): a minimum-degree order
    # on A^T + A fills at least 30% less than SuperLU's default COLAMD order
    ws = _oracle_workspace("gradient", 4, p=3, nx=16)
    A = ws.M_II + (ws._lam[0] / 32 ** 2) * ws.K_II
    assert solver_module.factorize(A).nnz <= 0.7 * splu(sparse.csc_matrix(A)).nnz


def test_temporal_degree_bounded():
    space = _oracle_space(2, 3)
    part = wx.uniform_time_partition(1.0, 4)
    wx.Discretization(space, part, q=MAX_TEMPORAL_DEGREE)
    with pytest.raises(wx.ConfigurationError, match="temporal degree"):
        wx.Discretization(space, part, q=MAX_TEMPORAL_DEGREE + 1)


def test_slab_system_probe_residual():
    # the q=1, degree-1 slab system meets the residual contract end to end,
    # checked against the assembled block matrix; a 3x3 mesh, since the
    # two-cell mesh has no interior unknowns
    prob = wx.standing_wave()
    space = wx.build_space(wx.build_structured_mesh(3, 3, prob.bbox), 1)
    part = wx.uniform_time_partition(1.0, 1)
    disc = wx.Discretization(space, part, q=1)
    ws = SlabWorkspace(prob, disc)
    ws.system(1.0)
    A = _oracle_matrix(ws, ws.Nm)
    assert len(ws.I) == 4
    rng = np.random.default_rng(9)
    r1, r2 = rng.normal(size=(2, 1, len(ws.I)))
    U, V = ws.solve(r1, r2)
    assert _block_residual(A, _interleave(r1, r2), U, V) <= 1e-11


def test_fast_solve_within_refined_monolithic_solve():
    # a tau-sweep-mass cell: the monolithic LU meets its residual contract
    # yet is off by about 9e-10; refined once, it agrees with the fast solve
    prob = wx.dirichlet_cos()
    space = wx.build_space(wx.build_structured_mesh(4, 4, prob.bbox), 8)
    disc = wx.Discretization(space, wx.uniform_time_partition(1.0, 16), q=4,
                             method="mass", bc_mode="interpolation")
    sol = wx.solve(prob, disc)
    U, V = _monolithic_march(prob, disc)
    assert np.abs(sol.u - U).max() <= 1e-10 * np.abs(U).max()
    assert np.abs(sol.v - V).max() <= 1e-10 * np.abs(V).max()


class _WatchedLU:
    """A slab-mode factorization that a weak reference can watch."""

    def __init__(self, lu):
        self.solve = lu.solve


def test_slab_cache_bounded_on_graded_partition(monkeypatch):
    # geometric grading: every slab has its own length, so every slab needs
    # its own factorizations; the workspace holds only the last slab's modes
    modes = []
    factorize = solver_module.factorize

    def watched(A):
        lu = _WatchedLU(factorize(A))
        modes.append(weakref.ref(lu))
        return lu

    monkeypatch.setattr(solver_module, "factorize", watched)
    prob = wx.standing_wave()
    space = wx.build_space(wx.build_structured_mesh(4, 4, prob.bbox), 2)
    part = wx.TimePartition(np.concatenate([[0.0], 0.8 ** np.arange(12)[::-1]]))
    disc = wx.Discretization(space, part, q=2)
    ws = SlabWorkspace(prob, disc)
    u0h, v0h = wx.discrete_initial_data(prob, space)
    U = np.zeros((part.n_slabs, 3, space.n_dofs))
    V = np.zeros_like(U)
    prev_u, prev_v = u0h, v0h
    for n in range(part.n_slabs):
        held = len(modes)
        U[n], V[n] = wx.solve_slab(prev_u, prev_v, n, ws, None)
        # new modes for each slab, and only the newest ones are held
        assert len(modes) > held
        assert [ref() is not None for ref in modes] == \
            [False] * held + [True] * (len(modes) - held)
        prev_u, prev_v = U[n, 0] + U[n, 1], V[n, 0] + V[n, 1]
    sol = wx.solve(prob, disc)
    assert np.array_equal(sol.u, U) and np.array_equal(sol.v, V)
    E = wx.energy_trace(sol, prob.c)
    assert np.abs(E - E[0]).max() <= 1e-12 * E[0]


def test_singular_slab_system_raises(monkeypatch, tmp_path):
    # a vanishing stiffness leaves the gradient coupling singular
    from wavext.cli import main

    local_matrices = fem_module.local_matrices

    def no_stiffness(space, kind, *args):
        loc = local_matrices(space, kind, *args)
        return 0.0 * loc if kind == "stiffness" else loc

    monkeypatch.setattr(fem_module, "local_matrices", no_stiffness)
    prob = wx.standing_wave()
    space = wx.build_space(wx.build_structured_mesh(2, 2, prob.bbox), 2)
    disc = wx.Discretization(space, wx.uniform_time_partition(1.0, 2), q=2)
    with pytest.raises(wx.SolverFailure, match="factorization failed"):
        SlabWorkspace(prob, disc)
    assert main(["solve", "--out", str(tmp_path / "singular")]) == 3


def test_nonfinite_slab_data_raises():
    ws = _oracle_workspace("gradient", 2)
    r1, r2 = np.zeros((2, 2, len(ws.I)))
    r1[0, 0] = np.nan
    ws.system(0.5)
    with pytest.raises(wx.SolverFailure):
        ws.solve(r1, r2)


def test_zero_callback_lifting_is_zero():
    shape = lambda *a: np.broadcast(*a).shape
    prob = wx.ProblemData(g_d=lambda x, y, t: np.zeros(shape(x, y, t)),
                          dt_g_d=lambda x, y, t: np.zeros(shape(x, y, t)))
    space = wx.build_space(wx.build_structured_mesh(2, 2), 2)
    part = wx.uniform_time_partition(1.0, 3)
    for mode in ("projection", "interpolation"):
        lift = wx.build_lifting(prob, space, part, 2, mode)
        assert np.abs(lift.u_trial).max() == 0.0
        assert np.abs(lift.v_trial).max() == 0.0


def _load_moments_per_time(ws, n):
    """The loop load_moments replaces: one load_vector per time point.  The
    Legendre table is the one load_moments reads; it has its own oracle in
    test_timebasis.py."""
    npts = max(ws.q + 3, 6)
    graded = ws.problem.singular_at_zero and n == 0
    ts, wts = gauss_rule(npts, ws.partition.slab(n), graded)
    loads = np.stack([wx.load_vector(ws.space, lambda xx, yy: ws.problem.f(xx, yy, t))[ws.I]
                      for t in ts])
    return (legendre_table(ws.q - 1, npts, graded) * wts) @ loads


@pytest.mark.parametrize("make", [lambda: wx.estimator_poly("t2.25"), wx.estimator_poly,
                                  lambda: wx.ProblemData(f=lambda x, y, t: x * y)],
                         ids=["graded-t2.25", "cos4t", "t-free-source"])
def test_load_moments_equal_per_time_loop(make):
    # slab 0 of t2.25 runs the graded rule, the others the plain one, in
    # blocks of several slabs of a nonuniform partition
    prob = make()
    space = wx.build_space(wx.build_structured_mesh(2, 2, prob.bbox), 4)
    lengths = np.random.default_rng(3).uniform(0.5, 1.5, 11)
    part = wx.TimePartition(np.concatenate([[0.0], np.cumsum(lengths / lengths.sum())]))
    ws = SlabWorkspace(prob, wx.Discretization(space, part, q=2))
    assert max(map(len, ws._load_blocks)) > 1
    for n in range(part.n_slabs):
        assert np.array_equal(ws.load_moments(n), _load_moments_per_time(ws, n))


@pytest.mark.parametrize("psi", ["t2.25", "cos4t"])
def test_load_moments_index_their_block(psi):
    # slab n's block is found by index (after the graded slab 0), not by a
    # scan of the block list, which this list refuses; 39 slabs leave a
    # shorter last block
    class IndexOnly(list):
        def __iter__(self):
            raise AssertionError("load_moments scanned the block list")

    prob = wx.estimator_poly(psi)
    space = wx.build_space(wx.build_structured_mesh(2, 2, prob.bbox), 4)
    part = wx.uniform_time_partition(1.0, 39)
    ws = SlabWorkspace(prob, wx.Discretization(space, part, q=2))
    sizes = [len(b) for b in ws._load_blocks]
    assert len(set(sizes[int(prob.singular_at_zero):-1])) == 1 and 1 < sizes[-1] < sizes[-2]
    ws._load_blocks = IndexOnly(ws._load_blocks)
    for n in np.random.default_rng(7).permutation(part.n_slabs).tolist():
        assert np.array_equal(ws.load_moments(n), _load_moments_per_time(ws, n))


def _work_defect(sol, ws, scale=None):
    """max_n |E(t_n) - E(t_{n-1}) - sum_{i<q} (T v_n)_i . F_{n,i}| / max E,
    with F = load_moments(n), optionally multiplied by scale[n]."""
    E = wx.energy_trace(sol, ws.problem.c)
    T = trial_to_legendre(sol.degree)[:-1]
    work = np.array([np.sum((T @ sol.v[n][:, ws.I]) * ws.load_moments(n))
                     for n in range(sol.partition.n_slabs)])
    if scale is not None:
        work *= scale
    return np.abs(np.diff(E) - work).max() / E.max(), work


@settings(max_examples=20, deadline=None)
@given(log_lengths=st.lists(st.floats(-3.0, 0.0), min_size=2, max_size=12),
       q=st.sampled_from([1, 2, 3, 4, 6]), method=st.sampled_from(["gradient", "mass"]))
@example(log_lengths=[0.0, -3.0] * 6, q=6, method="mass")
def test_slab_energy_identity(log_lengths, q, method):
    # testing the second equation with v on homogeneous Dirichlet data: each
    # slab changes the discrete energy by exactly the work of the source on
    # Pi_{q-1} v, on any partition (the paper's unconditional stability)
    prob = wx.estimator_poly()
    space = wx.build_space(wx.build_structured_mesh(2, 2, prob.bbox), 3)
    lengths = 10.0 ** np.array(log_lengths)
    part = wx.TimePartition(np.concatenate([[0.0], np.cumsum(lengths / lengths.sum())]))
    disc = wx.Discretization(space, part, q=q, method=method)
    sol = wx.solve(prob, disc)
    ws = SlabWorkspace(prob, disc)
    defect, work = _work_defect(sol, ws)
    assert defect <= 1e-13
    # the identity sees a 1e-10 change of the slab doing the most work
    scale = np.ones(part.n_slabs)
    scale[np.argmax(np.abs(work))] += 1e-10
    assert _work_defect(sol, ws, scale)[0] > 1e-13


def test_endpoint_rejects_nodes_outside_the_partition():
    # n = -1 used to index the last slab and return the state at t_{N-1}
    prob = wx.standing_wave()
    space = wx.build_space(wx.build_structured_mesh(2, 2, prob.bbox), 2)
    sol = wx.solve(prob, wx.Discretization(space, wx.uniform_time_partition(1.0, 3), q=2))
    assert np.array_equal(sol.endpoint(3, "v"), sol.v[2, 0] + sol.v[2, 1])
    for n in (-1, -3, 4):
        with pytest.raises(IndexError, match="outside 0..3"):
            sol.endpoint(n)


def test_endpoint_rejects_unknown_components():
    # any component but "u" used to return v
    prob = wx.standing_wave()
    space = wx.build_space(wx.build_structured_mesh(2, 2, prob.bbox), 2)
    sol = wx.solve(prob, wx.Discretization(space, wx.uniform_time_partition(1.0, 2), q=2))
    assert np.array_equal(sol.endpoint(1, "u"), sol.u[0, 0] + sol.u[0, 1])
    assert np.array_equal(sol.endpoint(1, "v"), sol.v[0, 0] + sol.v[0, 1])
    for component in ("U", "w", ""):
        with pytest.raises(ValueError, match="'u' or 'v'"):
            sol.endpoint(1, component)


def test_slab_lengths_keyed_to_significant_digits():
    # 2e-15 and 4e-15 differ by far more than 8 ulps of T = 6e-15; each
    # slab still needs its own system, as a fresh workspace builds it
    prob = wx.standing_wave()
    space = wx.build_space(wx.build_structured_mesh(3, 3, prob.bbox), 2)
    disc = wx.Discretization(space, wx.TimePartition(np.array([0.0, 2e-15, 6e-15])), q=2)
    sol = wx.solve(prob, disc)
    U, V = wx.solve_slab(sol.endpoint(1, "u"), sol.endpoint(1, "v"), 1,
                         SlabWorkspace(prob, disc), None)
    assert np.array_equal(sol.u[1], U) and np.array_equal(sol.v[1], V)


def test_uniform_partition_builds_one_slab_system(monkeypatch):
    # T = 1000 over 48 slabs: the lengths differ in their last bits
    built = []
    temporal_matrices = solver_module.slab_temporal_matrices

    def counted(q, slab):
        built.append(slab)
        return temporal_matrices(q, slab)

    monkeypatch.setattr(solver_module, "slab_temporal_matrices", counted)
    prob = wx.standing_wave()
    space = wx.build_space(wx.build_structured_mesh(2, 2, prob.bbox), 2)
    part = wx.uniform_time_partition(1000.0, 48)
    assert len(set(part.lengths)) > 1
    wx.solve(prob, wx.Discretization(space, part, q=1))
    assert len(built) == 1


def test_fine_uniform_partition_factorizes_its_modes_once(monkeypatch):
    # T = 1 over 3,000 slabs: the lengths straddle the 13th significant
    # digit, which once keyed the modes, and made 1,742 mode LUs
    built = []
    factorize = solver_module.factorize

    def counted(A):
        built.append(A.shape)
        return factorize(A)

    monkeypatch.setattr(solver_module, "factorize", counted)
    prob = wx.standing_wave()
    space = wx.build_space(wx.build_structured_mesh(2, 2, prob.bbox), 1)
    part = wx.uniform_time_partition(1.0, 3000)
    assert len({f"{tau:.12e}" for tau in part.lengths}) > 1
    sol = wx.solve(prob, wx.Discretization(space, part, q=2))
    assert len(built) == 1  # one conjugate pair of modes at q = 2
    E = wx.energy_trace(sol, prob.c)
    assert np.abs(E - E[0]).max() <= 1e-12 * E[0]
