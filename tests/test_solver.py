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
from conftest import (endpoint, legendre_coeffs, slab_ends, small_homogeneous_run,
                      txy_problem)
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
    disc = wx.Discretization(space, wx.uniform_time_partition(1.0, 1), q=1)
    u0h, v0h = wx.discrete_initial_data(shaped, disc, wx.build_lifting(shaped, disc))
    assert np.abs(u0h - member).max() <= 1e-11
    assert np.abs(v0h - member).max() <= 1e-11


def test_initial_data_dirichlet_cos_velocity_vanishes():
    prob = wx.dirichlet_cos()
    space = wx.build_space(wx.build_structured_mesh(4, 4, prob.bbox), 2)
    disc = wx.Discretization(space, wx.uniform_time_partition(1.0, 4), q=2)
    _, v0h = wx.discrete_initial_data(prob, disc, wx.build_lifting(prob, disc))
    assert np.abs(v0h).max() <= 1e-12


def test_incompatible_data_rejected():
    prob = wx.dirichlet_cos()
    bad = wx.ProblemData(
        bbox=prob.bbox, g_d=prob.g_d, dt_g_d=prob.dt_g_d,
        u0=lambda x, y: prob.u0(x, y) + 1e-4,
        grad_u0=prob.grad_u0, v0=prob.v0)
    space = wx.build_space(wx.build_structured_mesh(3, 3, prob.bbox), 2)
    # the initial data meet the lifting's first row, the boundary data at t = 0
    disc = wx.Discretization(space, wx.uniform_time_partition(1.0, 2), q=2)
    lifting = wx.build_lifting(prob, disc)
    with pytest.raises(wx.ConfigurationError, match=r"\|g_d\(\.,0\) - u0\|"):
        wx.discrete_initial_data(bad, disc, lifting)
    # v0 vanishes on the boundary, so its bound is DATA_MATCH_TOL * (1 + 0) = 1e-10
    for shift, message in ((1e-4, r"\|dt_g_d\(\.,0\) - v0\| = 1\.000e-04"),
                           (5e-9, r"\|dt_g_d\(\.,0\) - v0\| = 5\.000e-09")):
        bad_v = replace(bad, u0=prob.u0, v0=lambda x, y: prob.v0(x, y) + shift)
        with pytest.raises(wx.ConfigurationError, match=message):
            wx.discrete_initial_data(bad_v, disc, lifting)
    wx.discrete_initial_data(replace(bad, u0=prob.u0, v0=lambda x, y: prob.v0(x, y) + 5e-11),
                             disc, lifting)


def test_solve_reports_boundary_data_off_the_initial_data():
    # the initial data once allowed a 1e-8 gap to the lifting and the first
    # slab only 1e-10, so a 5e-9 gap failed as a slab 1 state disagreement
    prob = wx.dirichlet_cos()
    space = wx.build_space(wx.build_structured_mesh(3, 3, prob.bbox), 2)
    disc = wx.Discretization(space, wx.uniform_time_partition(1.0, 2), q=2)
    for shift in (5e-9, 5e-7):
        shifted = replace(prob, dt_g_d=lambda x, y, t: prob.dt_g_d(x, y, t) + shift)
        with pytest.raises(wx.ConfigurationError, match="initial/boundary data incompatible"):
            wx.solve(shifted, disc)
    wx.solve(replace(prob, dt_g_d=lambda x, y, t: prob.dt_g_d(x, y, t) + 5e-11), disc)


def test_lifting_zero_and_polynomial_data():
    prob = txy_problem()
    space = wx.build_space(wx.build_structured_mesh(3, 3), 2)
    part = wx.uniform_time_partition(1.0, 4)
    disc = wx.Discretization(space, part, q=2)
    # homogeneous data is the zero lifting
    zero = wx.build_lifting(wx.standing_wave(), disc)
    for trial in (zero.u_trial, zero.v_trial):
        assert trial.shape == (4, 3, len(space.boundary_dofs)) and not trial.any()
    # g linear in t: both modes exact and identical
    lp = wx.build_lifting(prob, disc)
    ln = wx.build_lifting(prob, replace(disc, bc_mode="interpolation"))
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
    lift = wx.build_lifting(prob, wx.Discretization(space, part, q=3))
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
        wx.build_lifting(broken, wx.Discretization(space, wx.uniform_time_partition(1.0, 2), 2))


@pytest.mark.parametrize("mode", ["projection", "interpolation"])
def test_lifting_rejects_boundary_data_not_finite_at_a_sample_time(mode):
    # finite at t = 0, so only the lifting's samples from t = 0.5 on see it
    shape = lambda *a: np.broadcast(*a).shape
    prob = wx.ProblemData(g_d=lambda x, y, t: np.where(t < 0.5, 0.0, np.inf)
                          * np.ones(shape(x, y)),
                          dt_g_d=lambda x, y, t: np.zeros(shape(x, y, t)))
    space = wx.build_space(wx.build_structured_mesh(2, 2), 2)
    with pytest.raises(wx.ConfigurationError, match=r"^g_d is not finite at t = 0\.5 at "
                                                    r"the boundary node \(0, 0\)$"):
        wx.build_lifting(prob, wx.Discretization(space, wx.uniform_time_partition(1.0, 4), q=2,
                                                 bc_mode=mode))


def test_initial_velocity_meets_its_definition():
    # interior rows: (M v0h)_I = (v0, phi)_I, with v0h = v0 at the boundary
    # nodes; the boundary block M_IB meets v0 only through the lifting's
    # velocity at t = 0, which once defaulted to zero (off by 0.75 here)
    prob = wx.inline_problem("x*y*t**2 + sin(x + 2*t)*cos(y)")
    space = wx.build_space(wx.build_structured_mesh(4, 4, prob.bbox), 3)
    disc = wx.Discretization(space, wx.uniform_time_partition(1.0, 4), q=2)
    _, v0h = wx.discrete_initial_data(prob, disc, SlabWorkspace(prob, disc).lifting)
    load = wx.load_vector(space, prob.v0)
    defect = (wx.assemble(space, "mass") @ v0h - load)[space.interior_dofs]
    assert np.abs(defect).max() <= 1e-12 * np.abs(load).max()


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
    lift = wx.build_lifting(wrapped, wx.Discretization(space, part, q=3, bc_mode=mode))
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
    ws = SlabWorkspace(prob, disc)
    u0h, v0h = wx.discrete_initial_data(prob, disc, ws.lifting)
    U, V = wx.solve_slab(u0h, v0h, 0, ws, None)
    assert np.abs(U - sol.u[0]).max() <= 1e-12
    assert np.abs(V - sol.v[0]).max() <= 1e-12


@pytest.mark.parametrize("initial_mode", ["projection", "interpolation"])
@pytest.mark.parametrize("bc_mode", ["projection", "interpolation"])
@pytest.mark.parametrize("method", ["gradient", "mass"])
def test_march_by_hand_equals_solve(method, bc_mode, initial_mode):
    # the lifting and the initial data read their modes from the
    # discretization: a default initial_mode once made a march by hand on an
    # interpolation run differ from solve by 5.7e-3
    prob = wx.dirichlet_cos()
    space = wx.build_space(wx.build_structured_mesh(3, 3, prob.bbox), 2)
    disc = wx.Discretization(space, wx.uniform_time_partition(1.0, 3), q=2, method=method,
                             bc_mode=bc_mode, initial_mode=initial_mode)
    sol = wx.solve(prob, disc)
    ws = SlabWorkspace(prob, disc)
    prev_u, prev_v = wx.discrete_initial_data(prob, disc, ws.lifting)
    for n in range(disc.partition.n_slabs):
        U, V = wx.solve_slab(prev_u, prev_v, n, ws, None)  # dirichlet-cos has f = 0
        assert np.array_equal(sol.u[n], U) and np.array_equal(sol.v[n], V), n
        prev_u, prev_v = U[0] + U[1], V[0] + V[1]


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
    E = wx.energy_trace(sol, prob)
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
    ws = SlabWorkspace(prob, disc)
    u0h, v0h = wx.discrete_initial_data(prob, disc, ws.lifting)
    bad = u0h.copy()
    bad[space.boundary_dofs[0]] += 1e-3
    with pytest.raises(wx.ConfigurationError):
        wx.solve_slab(bad, v0h, 0, ws, None)


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
                E = wx.energy_trace(sol, prob)
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
    lifting = wx.build_lifting(prob, disc)
    u0h, v0h = wx.discrete_initial_data(prob, disc, lifting)
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
    u0h, v0h = wx.discrete_initial_data(prob, disc, ws.lifting)
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
    E = wx.energy_trace(sol, prob)
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
        lift = wx.build_lifting(prob, wx.Discretization(space, part, q=2, bc_mode=mode))
        assert np.abs(lift.u_trial).max() == 0.0
        assert np.abs(lift.v_trial).max() == 0.0


def _load_moments_per_time(ws, n):
    """The loop load_moments replaces: one load_vector per time point.  The
    Legendre table is the one load_moments reads; it has its own oracle in
    test_timebasis.py."""
    npts = max(ws.q + 3, 6)
    graded = ws.problem.singular_at_zero and n == 0
    ts, wts = gauss_rule(npts, slab_ends(ws.partition, n), graded)
    loads = np.stack([wx.load_vector(ws.space, lambda xx, yy: ws.problem.f(xx, yy, t))[ws.I]
                      for t in ts])
    return (legendre_table(ws.q - 1, npts, graded) * wts) @ loads


def _eleven_slab_workspace(prob):
    # a nonuniform partition whose loads come in blocks of several slabs
    space = wx.build_space(wx.build_structured_mesh(2, 2, prob.bbox), 4)
    lengths = np.random.default_rng(3).uniform(0.5, 1.5, 11)
    part = wx.TimePartition(np.concatenate([[0.0], np.cumsum(lengths / lengths.sum())]))
    ws = SlabWorkspace(prob, wx.Discretization(space, part, q=2))
    assert max(map(len, ws.load_blocks)) > 1
    return ws


@pytest.mark.parametrize("make", [lambda: wx.estimator_poly("t2.25"), wx.estimator_poly,
                                  lambda: wx.ProblemData(f=lambda x, y, t: x * y)],
                         ids=["graded-t2.25", "cos4t", "t-free-source"])
def test_load_moments_equal_per_time_loop(make):
    # slab 0 of t2.25 runs the graded rule, the others the plain one
    ws = _eleven_slab_workspace(make())
    for block in ws.load_blocks:
        F = ws.load_moments(block)
        assert F.shape == (len(block), ws.q, len(ws.I))
        for n, F_n in zip(block, F):
            assert np.array_equal(F_n, _load_moments_per_time(ws, n))


@pytest.mark.parametrize("psi", ["t2.25", "cos4t"])
def test_solve_equals_march_on_per_time_loads(psi):
    # the march that walks the load blocks against one that hands every
    # slab the loads of its own per-time loop
    prob = wx.estimator_poly(psi)
    ws = _eleven_slab_workspace(prob)
    disc = wx.Discretization(ws.space, ws.partition, q=ws.q)
    sol = wx.solve(prob, disc)
    prev_u, prev_v = wx.discrete_initial_data(prob, disc, ws.lifting)
    for n in range(ws.partition.n_slabs):
        U, V = wx.solve_slab(prev_u, prev_v, n, ws, _load_moments_per_time(ws, n))
        assert np.array_equal(sol.u[n], U) and np.array_equal(sol.v[n], V)
        prev_u, prev_v = U[0] + U[1], V[0] + V[1]


@pytest.mark.parametrize("psi", ["t2.25", "cos4t"])
def test_solve_evaluates_the_source_once_per_block(monkeypatch, psi):
    prob = wx.estimator_poly(psi)
    ws = _eleven_slab_workspace(prob)
    blocks, f_calls = [], []
    load_moments = SlabWorkspace.load_moments

    def counted(ws, block):
        blocks.append(block)
        return load_moments(ws, block)

    def f(x, y, t):
        f_calls.append(t)
        return prob.f(x, y, t)

    monkeypatch.setattr(SlabWorkspace, "load_moments", counted)
    wx.solve(replace(prob, f=f), wx.Discretization(ws.space, ws.partition, q=ws.q))
    assert blocks == ws.load_blocks and len(f_calls) == len(blocks) > 2


def _work_defect(sol, ws, scale=None):
    """max_n |E(t_n) - E(t_{n-1}) - sum_{i<q} (T v_n)_i . F_{n,i}| / max E,
    with F_n the slab's row of load_moments, optionally multiplied by scale[n]."""
    E = wx.energy_trace(sol, ws.problem)
    T = trial_to_legendre(sol.degree)[:-1]
    F = np.concatenate([ws.load_moments(block) for block in ws.load_blocks])
    work = np.array([np.sum((T @ sol.v[n][:, ws.I]) * F[n])
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


@lru_cache(maxsize=None)
def _dirichlet_problem(name):
    """A problem with nonhomogeneous Dirichlet data: dirichlet-cos (no
    source), or an inline problem with f != 0 and moving boundary data."""
    if name == "dirichlet-cos":
        return wx.dirichlet_cos()
    return wx.inline_problem("x*y*t**2 + sin(x + 2*t)*cos(y)")


def _energy_balance(sol, ws, bump=None):
    """The balance's defect max_n |E(t_n) - E(t_{n-1}) - sum_{i<q} a_{i,I}.F_{i,I}
    - W_n| / max E (see test_energy_balance_with_dirichlet_data), and the
    work sum_{i<q} a_{i,k} (M V_{i+1} + K (N U)_i)_k of each boundary row k
    on each slab, (n_slabs, n_B).  bump = (n, k, eps) scales that work of
    row k on slab n by 1 + eps."""
    q, I, B, M, K = sol.degree, ws.I, ws.B, ws.M, ws.K
    T = trial_to_legendre(q)[:q]
    w = sol.partition.lengths[:, None] / (2.0 * np.arange(q) + 1.0)  # tau_n/(2i+1)
    F = None if ws.problem.f is None else \
        np.concatenate([ws.load_moments(block) for block in ws.load_blocks])
    M_I, M_IB = wx.interior_factorization(sol.space, "mass"), M[np.ix_(I, B)]
    rows = np.zeros((sol.partition.n_slabs, len(B)))
    balance = np.zeros(sol.partition.n_slabs)
    for n, (U, V) in enumerate(zip(sol.u, sol.v)):
        N = slab_temporal_matrices(q, (0.0, sol.partition.lengths[n]))
        a, b, d = T @ V, T @ U, U[1:] / w[n, :, None]
        rows[n] = np.sum(a[:, B] * (M @ V[1:].T + K @ (N @ U).T).T[:, B], axis=0)
        if ws.gradient:
            X = -np.sum(b[:, B] * (K @ (N @ V - U[1:]).T).T[:, B])
        else:
            e = d - a
            e[:, I] = -M_I.solve(M_IB @ e[:, B].T).T
            X = np.sum(w[n, :, None] * e * (K @ b.T).T)
        if bump is not None and bump[0] == n:
            rows[n, bump[1]] *= 1.0 + bump[2]
        balance[n] = (0.0 if F is None else np.sum(a[:, I] * F[n])) + rows[n].sum() + X
    E = wx.energy_trace(sol, ws.problem)
    return np.abs(np.diff(E) - balance).max() / E.max(), rows


@settings(max_examples=20, deadline=None)
@given(log_lengths=st.lists(st.floats(-3.0, 0.0), min_size=2, max_size=12),
       q=st.sampled_from([1, 2, 3, 4, 6]), method=st.sampled_from(["gradient", "mass"]),
       bc_mode=st.sampled_from(["projection", "interpolation"]),
       name=st.sampled_from(["dirichlet-cos", "inline"]))
@example(log_lengths=[0.0, -3.0] * 6, q=6, method="mass", bc_mode="interpolation",
         name="dirichlet-cos")
@example(log_lengths=[0.0, -3.0] * 6, q=6, method="gradient", bc_mode="projection",
         name="inline")
def test_energy_balance_with_dirichlet_data(log_lengths, q, method, bc_mode, name):
    """Each slab changes the discrete energy by the source's work on the
    interior rows plus the work W_n done through the boundary:

        E(t_n) - E(t_{n-1}) = sum_{i<q} a_{i,I}.F_{i,I} + W_n,
        W_n = sum_{i<q} a_{i,B}.(M V_{i+1} + K (N U)_i)_B + X_n,

    on slab n of length tau, with U, V its trial coefficients, a_i = (T V)_i
    and b_i = (T U)_i (i < q) the Legendre coefficients of v and u,
    d_i = (2i+1)/tau U_{i+1} those of dt u, N the slab's
    slab_temporal_matrices and F_i the load moments.

    Derivation.  E = (v.Mv + u.Ku)/2, so E(t_n) - E(t_{n-1}) is the slab
    integral of v.M dt v + u.K dt u.  dt v and dt u have degree q - 1, and
    int L_i dt w = W_{i+1} for any trial expansion w (D = [0 | I]), so the
    first integral is sum_i a_i.M V_{i+1} and the second
    sum_i d_i.K int u L_i = sum_i d_i.K (N U)_i.  Adding and taking away
    sum_i a_i.K (N U)_i,

        E(t_n) - E(t_{n-1}) = sum_i a_i.(M V_{i+1} + K (N U)_i)
                              + sum_i (d_i - a_i).K (N U)_i.

    The second slab equation holds on the interior rows,
    (M V_{i+1} + K (N U)_i)_I = F_{i,I}, which splits the first sum into the
    source's work and the boundary rows' work.  The first slab equation
    holds on the interior rows too, (C ((N V)_i - U_{i+1}))_I = 0, where
    (N V)_i - U_{i+1} = tau/(2i+1) (a_i - d_i) and (N U)_i = tau/(2i+1) b_i.
    For the gradient coupling (C = K) K (d_i - a_i) vanishes on I, and K is
    symmetric, so the second sum is

        X_n = -sum_i b_{i,B}.(K ((N V)_i - U_{i+1}))_B.

    For the mass coupling (C = M) e_i = d_i - a_i has (M e_i)_I = 0, so
    e_{i,I} = -M_II^{-1} M_IB e_{i,B} and X_n = sum_i tau/(2i+1) e_i.K b_i.

    The right-hand side reads only the interior rows' equations, which is
    what the identity checks.  With homogeneous data W_n = 0, and it is
    test_slab_energy_identity's.  The worst defect seen over 200 random
    draws was 2.2e-14 max E.
    """
    prob = _dirichlet_problem(name)
    space = wx.build_space(wx.build_structured_mesh(2, 2, prob.bbox), 3)
    lengths = 10.0 ** np.array(log_lengths)
    part = wx.TimePartition(np.concatenate([[0.0], np.cumsum(lengths / lengths.sum())]))
    disc = wx.Discretization(space, part, q=q, method=method, bc_mode=bc_mode)
    sol = wx.solve(prob, disc)
    ws = SlabWorkspace(prob, disc)
    defect, rows = _energy_balance(sol, ws)
    assert defect <= 1e-13
    # the balance sees a 1e-8 change of the boundary row doing the most work
    # (at least 6e-4 max E over the same draws)
    n, k = np.unravel_index(np.argmax(np.abs(rows)), rows.shape)
    assert _energy_balance(sol, ws, (n, k, 1e-8))[0] > 1e-13


def test_solve_slab_rejects_slabs_outside_the_partition():
    # n = -1 once solved with the last slab's length and lifting row, and
    # n = N raised a bare numpy IndexError
    prob = wx.standing_wave()
    space = wx.build_space(wx.build_structured_mesh(2, 2, prob.bbox), 2)
    disc = wx.Discretization(space, wx.uniform_time_partition(1.0, 3), q=2)
    ws = SlabWorkspace(prob, disc)
    u0h, v0h = wx.discrete_initial_data(prob, disc, ws.lifting)
    for n in (-1, 3):
        with pytest.raises(IndexError, match=r"slab %d outside 0\.\.2" % n):
            wx.solve_slab(u0h, v0h, n, ws, None)
    assert ws.Nm is None  # no slab system was made


def test_slab_lengths_keyed_to_significant_digits():
    # 2e-15 and 4e-15 differ by far more than 8 ulps of T = 6e-15; each
    # slab still needs its own system, as a fresh workspace builds it
    prob = wx.standing_wave()
    space = wx.build_space(wx.build_structured_mesh(3, 3, prob.bbox), 2)
    disc = wx.Discretization(space, wx.TimePartition(np.array([0.0, 2e-15, 6e-15])), q=2)
    sol = wx.solve(prob, disc)
    U, V = wx.solve_slab(endpoint(sol, 1, "u"), endpoint(sol, 1, "v"), 1,
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
    E = wx.energy_trace(sol, prob)
    assert np.abs(E - E[0]).max() <= 1e-12 * E[0]
