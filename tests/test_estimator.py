import math

import numpy as np
import pytest

import wavext as wx
from conftest import error_C0, sampled_gap, small_homogeneous_run
from wavext.estimator import (_source_defects, best_approx_constant,
                              compute_estimator, effectivity_index,
                              estimator_constants, gap_constant)
from wavext.fem import BrokenField
from wavext.solver import SpaceTimeSolution
from wavext.timebasis import abs_legendre_integral, gauss_rule, legendre_table


def test_constant_values():
    assert gap_constant(1) == pytest.approx(1.0 / math.pi)
    assert gap_constant(1) == pytest.approx(0.31831, abs=1e-5)
    assert gap_constant(2) == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)))
    assert gap_constant(2) == pytest.approx(0.35355, abs=1e-5)
    for s in (0, 1, 2):
        assert best_approx_constant(s) == pytest.approx(math.pi ** -0.5)
    assert best_approx_constant(3) == pytest.approx(1.0 / math.pi)
    assert best_approx_constant(4) == pytest.approx(1.0 / (2.0 * math.pi))


def test_gap_constant_decays():
    vals = [gap_constant(q) for q in range(2, 9)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_constants_bundle_weights():
    part = wx.uniform_time_partition(1.0, 4)
    cq, cpi, weight = estimator_constants(1, 0)
    assert cq == gap_constant(1) and cpi == best_approx_constant(0)
    # for q = 1 the weight is the node distance t_{m+1} - t_n
    assert weight(0, 2, part) == pytest.approx(0.75)
    _, _, weight2 = estimator_constants(3, 2)
    assert weight2(1, 3, part) == pytest.approx(best_approx_constant(1) * 0.25 / 2)


def _fabricated_low_degree_solution(q=2):
    """Solution whose fields have temporal degree <= q - 1 on every slab and
    zero boundary trace."""
    space = wx.build_space(wx.build_structured_mesh(2, 2), 2)
    part = wx.uniform_time_partition(1.0, 3)
    rng = np.random.default_rng(1)
    U = np.zeros((3, q + 1, space.n_dofs))
    V = np.zeros_like(U)
    I = space.interior_dofs
    for n in range(3):
        U[n, :q, :][:, I] = rng.normal(size=(q, len(I)))
        V[n, :q, :][:, I] = rng.normal(size=(q, len(I)))
    return SpaceTimeSolution(space, part, q, U, V)


def test_annihilation_on_low_degree_data():
    sol = _fabricated_low_degree_solution(q=2)
    f = lambda x, y, t: (1.0 + 2.0 * t) * np.ones(np.broadcast(x, y, t).shape)
    br = compute_estimator(sol, f, 1.0)
    scale = np.abs(sol.u).max()
    assert br.term_post <= 1e-13 * scale
    assert br.eta <= 1e-12 * scale
    assert br.osc_f <= 1e-10 * scale
    assert br.total == br.eta + br.osc_f


def test_estimator_scaling_linearity():
    prob = wx.estimator_poly("cos4t")
    space = wx.build_space(wx.build_structured_mesh(2, 2, prob.bbox), 4)
    disc = wx.Discretization(space, wx.uniform_time_partition(1.0, 4), q=2)
    sol = wx.solve(prob, disc)
    br1 = compute_estimator(sol, prob.f, prob.c)
    lam = -2.5
    scaled = SpaceTimeSolution(sol.space, sol.partition, sol.degree,
                               lam * sol.u, lam * sol.v)
    f_scaled = lambda x, y, t: lam * prob.f(x, y, t)
    br2 = compute_estimator(scaled, f_scaled, prob.c)
    for name in ("term_post", "term_lap_v", "term_lap_u", "eta", "osc_f", "total"):
        assert getattr(br2, name) == pytest.approx(abs(lam) * getattr(br1, name),
                                                   rel=1e-10)
    assert br2.m_star == br1.m_star


def test_estimator_preconditions():
    prob, sol = small_homogeneous_run(q=1, n_slabs=2, nx=2, p=1)
    with pytest.raises(wx.ConfigurationError):
        compute_estimator(sol, None, 1.0)  # p = 1
    prob2, sol2 = small_homogeneous_run(q=1, n_slabs=2, nx=2, p=2)
    with pytest.raises(wx.ConfigurationError):
        compute_estimator(sol2, None, lambda x, y: 1.0 + 0 * x)
    dirty = SpaceTimeSolution(sol2.space, sol2.partition, sol2.degree,
                              sol2.u.copy(), sol2.v.copy())
    dirty.u[0, 0, sol2.space.boundary_dofs[0]] = 0.1
    with pytest.raises(wx.ConfigurationError):
        compute_estimator(dirty, None, 1.0)


def _extremal_nodes(q):
    """-1, the roots of P_q and 1: the extrema of u* - u on a slab."""
    return np.concatenate([[-1.0], np.sort(np.polynomial.legendre.leggauss(q)[0]), [1.0]])


# the closed-form gap against the sampled one at its extremal nodes: measured
# 2.2e-9 relative at most (mass coupling, q = 8, where the gap is 6e-9 and the
# samples of u* - u cancel down from u ~ 1)
GAP_RTOL = 1e-8


@pytest.mark.parametrize("q", range(1, 9))
def test_gap_equals_per_slab_loop(q):
    for method in ("gradient", "mass"):
        prob, sol = small_homogeneous_run(q=q, n_slabs=6, p=3, method=method)
        gap = compute_estimator(sol, None, prob.c).per_slab["gap"]
        np.testing.assert_allclose(gap, sampled_gap(sol, _extremal_nodes(q)),
                                   rtol=GAP_RTOL, atol=0.0, err_msg=method)


def test_effectivity_index():
    assert effectivity_index(1.0, 1.0) == pytest.approx(1.0)
    assert effectivity_index(2.0, 1.0) == pytest.approx(2.0)
    assert math.isnan(effectivity_index(1.0, 0.0))


def test_reliability_single_cell():
    prob = wx.estimator_poly("cos4t")
    space = wx.build_space(wx.build_structured_mesh(2, 2, prob.bbox), 4)
    disc = wx.Discretization(space, wx.uniform_time_partition(1.0, 16), q=1)
    sol = wx.solve(prob, disc)
    err, _ = error_C0(sol, prob.exact_u, "l2", 11)
    br = compute_estimator(sol, prob.f, prob.c)
    assert err <= br.total
    eff = effectivity_index(br.eta, err)
    assert 1.0 <= eff <= 20.0


def test_reliability_on_nonuniform_partition():
    prob = wx.estimator_poly("cos4t")
    space = wx.build_space(wx.build_structured_mesh(2, 2, prob.bbox), 4)
    part = wx.TimePartition(np.array([0.0, 0.1, 0.3, 0.45, 0.7, 1.0]))
    disc = wx.Discretization(space, part, q=2)
    sol = wx.solve(prob, disc)
    err, _ = error_C0(sol, prob.exact_u, "l2", 11)
    br = compute_estimator(sol, prob.f, prob.c)
    assert err <= br.total
    assert br.total == br.eta + br.osc_f


def _source_defects_per_time(sol, f, singular_at_zero):
    """The loop _source_defects replaces: f evaluated at one time per call.
    The Legendre tables are the ones _source_defects reads; they have their
    own oracle in test_timebasis.py."""
    q = sol.degree
    qd = sol.space.rule
    X, Y = qd["pts"][..., 0].ravel(), qd["pts"][..., 1].ravel()
    wsp = qd["wdet"].ravel()
    out = np.zeros(sol.partition.n_slabs)
    for n in range(sol.partition.n_slabs):
        slab = sol.partition.slab(n)
        graded = singular_at_zero and n == 0
        tp, wp = gauss_rule(q + 6, slab, graded)
        fv_p = np.stack([np.broadcast_to(f(X, Y, t), X.shape) for t in tp])
        Pp = legendre_table(q - 1, q + 6, graded)
        scale = (2.0 * np.arange(q) + 1.0) / (slab[1] - slab[0])
        proj = scale[:, None] * ((Pp * wp) @ fv_p)
        to_, wo = gauss_rule(max(q + 4, 8), slab, graded)
        Po = legendre_table(q - 1, max(q + 4, 8), graded)
        for k, t in enumerate(to_):
            defect = np.broadcast_to(f(X, Y, t), X.shape) - Po[:, k] @ proj
            out[n] += wo[k] * math.sqrt(float(np.sum(wsp * defect ** 2)))
    return out


@pytest.mark.parametrize("psi", ["t2.25", "cos4t"])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_source_defects_equal_per_time_loop(psi, q):
    prob = wx.estimator_poly(psi)
    space = wx.build_space(wx.build_structured_mesh(2, 2, prob.bbox), 4)
    part = wx.uniform_time_partition(1.0, 4)
    sol = SpaceTimeSolution(space, part, q, np.zeros((4, q + 1, space.n_dofs)))
    assert np.array_equal(_source_defects(sol, prob.f, prob.singular_at_zero),
                          _source_defects_per_time(sol, prob.f, prob.singular_at_zero))


@pytest.mark.parametrize("q, rules", [(1, (7, 8)), (2, (8,)), (3, (9, 8))],
                         ids=["1-2", "2-1", "3-2"])
def test_source_evaluated_once_per_slab_when_rules_coincide(q, rules):
    # each rule's Gauss times are evaluated once, in one call per block of
    # slabs; at q = 2 the projection rule (q + 6 points) is the outer rule
    # (max(q + 4, 8) points), so one evaluation serves both.  Slab 0 runs
    # the graded rule, 11 panels of each rule, in a block of its own
    prob = wx.estimator_poly("t2.25")
    space = wx.build_space(wx.build_structured_mesh(2, 2, prob.bbox), 4)
    part = wx.uniform_time_partition(1.0, 8)
    sol = SpaceTimeSolution(space, part, q, np.zeros((8, q + 1, space.n_dofs)))
    calls = []

    def f(x, y, t):
        calls.append(t.size)
        return prob.f(x, y, t)

    assert np.array_equal(_source_defects(sol, f, True),
                          _source_defects(sol, prob.f, True))
    assert sum(calls) == sum(11 * npts + 7 * npts for npts in rules)
    n_points = space.rule["wdet"].size
    n_blocks = len(part.blocks(max(rules) * n_points, True))
    assert 2 < n_blocks < 8
    assert len(calls) == len(rules) * n_blocks


def _estimator_per_slab(sol, f, c, singular_at_zero):
    """The per-slab loops compute_estimator replaces: the peak slab from the
    gap sampled at 11 uniform times, one mass product and two broken
    Laplacians per slab, and the sums over the slabs before the peak added
    one slab at a time.  The gap itself is sampled at its extremal nodes."""
    space, partition, q = sol.space, sol.partition, sol.degree
    M = wx.assemble(space, "mass")
    m = int(np.argmax(sampled_gap(sol, np.linspace(-1.0, 1.0, 11))))
    gap = sampled_gap(sol, _extremal_nodes(q))
    N = partition.n_slabs
    v_defect, lap_u, lap_v = np.zeros(N), np.zeros(N), np.zeros(N)
    for n in range(N):
        tau = float(partition.lengths[n])
        v_top = 0.5 * sol.v[n, q]
        u_top = 0.5 * sol.u[n, q]
        v_defect[n] = math.sqrt(max(tau / (2 * q + 1) * float(v_top @ (M @ v_top)), 0.0))
        wgt = float(abs_legendre_integral(q, tau))
        lap_u[n] = BrokenField(space, u_top).l2_norm() * wgt
        lap_v[n] = BrokenField(space, v_top).l2_norm() * wgt
    f_defect = _source_defects_per_time(sol, f, singular_at_zero)
    cq, cpi, weight = estimator_constants(q, q - 1)
    lengths = partition.lengths
    term_post = float(np.max(np.sqrt(cq * lengths) * v_defect))
    tau_m = float(lengths[m])
    osc_f = 2.0 * tau_m * f_defect[m]
    term_lap_v = 2.0 * c ** 2 * tau_m ** 2 * lap_v[m]
    term_lap_u = 2.0 * c ** 2 * tau_m * lap_u[m]
    for n in range(m):
        tau_n = float(lengths[n])
        osc_f += 2.0 * cpi * tau_n * f_defect[n]
        term_lap_v += 2.0 * c ** 2 * float(weight(n, m, partition)) * tau_n * lap_v[n]
        term_lap_u += 2.0 * c ** 2 * cpi * tau_n * lap_u[n]
    return dict(m_star=m, term_post=term_post, osc_f=osc_f, term_lap_v=term_lap_v,
                term_lap_u=term_lap_u, eta=term_post + term_lap_v + term_lap_u,
                gap=gap, v_defect=v_defect, f_defect=f_defect, lap_u=lap_u, lap_v=lap_v)


@pytest.mark.parametrize("nodes", [None, [0.0, 0.1, 0.3, 0.45, 0.7, 1.0]],
                         ids=["uniform", "nonuniform"])
@pytest.mark.parametrize("psi", ["t2.25", "cos4t"])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_estimator_equals_per_slab_loop(q, psi, nodes):
    prob = wx.estimator_poly(psi)
    space = wx.build_space(wx.build_structured_mesh(2, 2, prob.bbox), 3)
    part = wx.uniform_time_partition(1.0, 6) if nodes is None else wx.TimePartition(np.array(nodes))
    for method in ("gradient", "mass"):
        sol = wx.solve(prob, wx.Discretization(space, part, q=q, method=method))
        br = compute_estimator(sol, prob.f, prob.c, singular_at_zero=prob.singular_at_zero)
        expect = _estimator_per_slab(sol, prob.f, prob.c, prob.singular_at_zero)
        assert br.m_star == expect["m_star"], method
        for name in ("v_defect", "lap_u", "lap_v", "f_defect"):
            assert np.array_equal(br.per_slab[name], expect[name]), (method, name)
        np.testing.assert_allclose(br.per_slab["gap"], expect["gap"],
                                   rtol=GAP_RTOL, atol=0.0, err_msg=method)
        assert br.term_post == expect["term_post"], method
        # the terms add the slabs before the peak as one array sum, not onto the
        # peak term one slab at a time: the same products, added in another order
        for name in ("osc_f", "term_lap_v", "term_lap_u", "eta"):
            assert abs(getattr(br, name) - expect[name]) <= 1e-15 * expect[name], (method, name)
