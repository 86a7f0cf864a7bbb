import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import wavext as wx
import wavext.postprocess as postprocess
import wavext.timebasis as timebasis
from conftest import (coeffs_at, coeffs_on_slab, error_C0, evaluate, legendre_coeffs,
                      postprocessed_solution, small_homogeneous_run, to_normalized,
                      txy_problem)
from wavext.estimator import gap_constant
from wavext.solver import SpaceTimeSolution
from wavext.timebasis import gauss_rule, legendre_matrix


def test_reconstruction_constant_when_velocity_vanishes():
    space = wx.build_space(wx.build_structured_mesh(2, 2), 1)
    part = wx.uniform_time_partition(1.0, 3)
    rng = np.random.default_rng(0)
    u0 = rng.normal(size=space.n_dofs)
    U = np.zeros((3, 2, space.n_dofs))
    U[:, 0] = u0
    sol = SpaceTimeSolution(space, part, 1, U, np.zeros_like(U))
    star = postprocessed_solution(sol)
    for t in (0.0, 0.3, 0.99):
        assert np.abs(coeffs_at(star, t) - u0).max() <= 1e-14


def test_reconstruction_derivative_identity():
    # d/dt of the reconstruction equals v coefficientwise (exact by design)
    _, sol = small_homogeneous_run(q=2, n_slabs=4)
    star = postprocessed_solution(sol)
    assert star.degree == sol.degree + 1
    for n in range(sol.partition.n_slabs):
        tau = sol.partition.lengths[n]
        v_leg = legendre_coeffs(sol, n, "v")
        for k in range(sol.degree + 1):
            lhs = (2 * k + 1) / tau * star.u[n, k + 1]
            scale = max(1.0, np.abs(v_leg).max())
            assert np.abs(lhs - v_leg[k]).max() <= 1e-13 * scale
    assert np.abs(star.u[0, 0] - sol.u[0, 0]).max() == 0.0


def test_reconstruction_matches_solution_at_nodes():
    prob, sol = small_homogeneous_run(q=2, n_slabs=8)
    star = postprocessed_solution(sol)
    M = wx.assemble(sol.space, "mass")
    for n in range(sol.partition.n_slabs + 1):
        d = star.endpoint(n) - sol.endpoint(n)
        assert np.sqrt(d @ (M @ d)) <= 1e-10


def test_slab_gap_bounds():
    # per-slab sup and L1 bounds of the reconstruction gap by the top mode of v
    prob, sol = small_homogeneous_run(q=2, n_slabs=6)
    star = postprocessed_solution(sol)
    M = wx.assemble(sol.space, "mass")
    q = sol.degree
    for n in range(sol.partition.n_slabs):
        slab = sol.partition.slab(n)
        tau = slab[1] - slab[0]
        v_top = legendre_coeffs(sol, n, "v")[q]
        defect_l2_sq = tau / (2 * q + 1) * float(v_top @ (M @ v_top))
        ts, ws = gauss_rule(20, slab)
        xs = to_normalized(slab, ts)
        gaps = []
        for x, t in zip(xs, ts):
            d = coeffs_on_slab(star, n, np.array([x]))[0] - \
                coeffs_on_slab(sol, n, np.array([x]))[0]
            gaps.append(np.sqrt(max(d @ (M @ d), 0.0)))
        gaps = np.asarray(gaps)
        sup_bound = np.sqrt(gap_constant(q) * tau) * np.sqrt(defect_l2_sq)
        assert gaps.max() <= sup_bound * (1 + 1e-10)
        l1_gap = float(np.sum(ws * gaps))
        defect_l1 = float(np.sum(ws * np.abs(legendre_matrix(q, xs)[q])
                                 * np.sqrt(max(v_top @ (M @ v_top), 0.0))))
        assert l1_gap <= tau * defect_l1 * (1 + 1e-10)


def test_error_sampling_consistency():
    # sampling a solution against itself gives zero up to the quadrature floor
    prob, sol = small_homogeneous_run(q=1, n_slabs=2, nx=2, p=1)
    space = sol.space

    def exact(x, y, t):
        # one evaluation per time; t is a number or an array of times
        pts = np.column_stack([np.ravel(x), np.ravel(y)])
        vals = [evaluate(space, coeffs_at(sol, tk), pts) for tk in np.ravel(t)]
        return np.reshape(vals, np.broadcast_shapes(np.shape(t), np.shape(x)))

    err, per_slab = error_C0(sol, exact, "l2", samples_per_slab=5)
    assert err <= 1e-12
    assert per_slab.shape == (2,)


def test_error_sampling_monotone_in_nested_samples():
    prob, sol = small_homogeneous_run(q=2, n_slabs=4)
    e3, _ = error_C0(sol, prob.exact_u, "l2", samples_per_slab=3)
    e5, _ = error_C0(sol, prob.exact_u, "l2", samples_per_slab=5)
    assert e5 >= e3 - 1e-15


def test_error_sampling_validation():
    prob, sol = small_homogeneous_run(q=1, n_slabs=2, nx=2, p=1)
    with pytest.raises(wx.ConfigurationError):
        error_C0(sol, None)
    with pytest.raises(wx.ConfigurationError, match="samples_per_slab"):
        wx.compute_error_report(sol, prob, samples_per_slab=2)


def test_error_report_requires_exact_solution():
    prob, sol = small_homogeneous_run(q=1, n_slabs=2, nx=2, p=1)
    anon = wx.ProblemData()
    with pytest.raises(wx.ConfigurationError):
        wx.compute_error_report(sol, anon)
    with pytest.raises(wx.ConfigurationError, match="exact_grad_u"):
        wx.compute_error_report(sol, replace(prob, exact_grad_u=None))


def test_error_report_requires_exact_v():
    prob, sol = small_homogeneous_run(q=1, n_slabs=2, nx=2, p=1)
    with pytest.raises(wx.ConfigurationError, match="exact_v"):
        wx.compute_error_report(sol, replace(prob, exact_v=None))


def test_error_sampling_of_v_requires_the_velocity():
    prob, sol = small_homogeneous_run(q=1, n_slabs=2, nx=2, p=1)
    with pytest.raises(wx.ConfigurationError, match="velocity"):
        wx.compute_error_report(replace(sol, v=None), prob)


def test_energy_trace_requires_the_velocity():
    prob, sol = small_homogeneous_run(q=1, n_slabs=2, nx=2, p=1)
    with pytest.raises(wx.ConfigurationError, match="velocity"):
        wx.energy_trace(postprocessed_solution(sol), prob.c)


def test_energy_trace_values():
    space = wx.build_space(wx.build_structured_mesh(2, 2), 1)
    part = wx.uniform_time_partition(1.0, 2)
    zero = SpaceTimeSolution(space, part, 1,
                             np.zeros((2, 2, space.n_dofs)),
                             np.zeros((2, 2, space.n_dofs)))
    assert np.abs(wx.energy_trace(zero)).max() == 0.0

    prob, sol = small_homogeneous_run(q=2, n_slabs=4)
    M = wx.assemble(sol.space, "mass")
    K = wx.assemble(sol.space, "stiffness", 1.0)
    E = wx.energy_trace(sol, 1.0)
    u0, v0 = sol.endpoint(0), sol.endpoint(0, "v")
    assert E[0] == pytest.approx(0.5 * (v0 @ (M @ v0) + u0 @ (K @ u0)), rel=1e-13)
    assert np.abs(E - E[0]).max() <= 1e-10 * E[0]


def _energy_trace_per_node(sol, c):
    """The loop energy_trace replaces: two sparse products per time node."""
    M = wx.assemble(sol.space, "mass")
    K = wx.assemble(sol.space, "stiffness", c)
    out = np.empty(sol.partition.n_slabs + 1)
    for n in range(sol.partition.n_slabs + 1):
        u, v = sol.endpoint(n, "u"), sol.endpoint(n, "v")
        out[n] = 0.5 * (v @ (M @ v) + u @ (K @ u))
    return out


@pytest.mark.parametrize("q, method", [(1, "gradient"), (2, "mass"), (3, "gradient")])
def test_energy_trace_equals_per_node_loop(q, method):
    prob, sol = small_homogeneous_run(q=q, n_slabs=5, nx=3, p=3, method=method)
    assert np.array_equal(wx.energy_trace(sol, prob.c), _energy_trace_per_node(sol, prob.c))
    prob = wx.dirichlet_cos()
    space = wx.build_space(wx.build_structured_mesh(3, 3, prob.bbox), 2)
    sol = wx.solve(prob, wx.Discretization(space, wx.uniform_time_partition(1.0, 6), q=q,
                                           method=method))
    assert np.array_equal(wx.energy_trace(sol, prob.c), _energy_trace_per_node(sol, prob.c))


def test_convergence_rates_basics():
    assert wx.convergence_rates([1.0, 0.5], [1.0, 0.25]) == [pytest.approx(2.0)]
    rates = wx.convergence_rates([1.0, 0.5, 0.25], [0.4, 0.2, 0.1])
    assert rates == [pytest.approx(1.0), pytest.approx(1.0)]
    assert wx.convergence_rates([1.0, 0.5], [1.0, 0.0]) == [None]
    with pytest.raises(ValueError):
        wx.convergence_rates([1.0], [1.0])
    with pytest.raises(ValueError):
        wx.convergence_rates([0.5, 1.0], [1.0, 2.0])


def test_galerkin_probe_error_report():
    prob = txy_problem()
    space = wx.build_space(wx.build_structured_mesh(2, 2), 2)
    disc = wx.Discretization(space, wx.uniform_time_partition(1.0, 2), q=1)
    rep = wx.compute_error_report(wx.solve(prob, disc), prob, 5)
    assert max(rep.err_u, rep.err_ustar, rep.err_v, rep.err_gradu) <= 1e-9


def _error_C0_per_sample(field, exact, kind, samples, c=1.0, exact_grad=None,
                         component="u"):
    """The loop error_C0 replaces: one single-time spatial_norm per sample."""
    xs = np.linspace(-1.0, 1.0, samples)
    per_slab = np.zeros(field.partition.n_slabs)
    for n in range(field.partition.n_slabs):
        a, b = field.partition.slab(n)
        coeffs = coeffs_on_slab(field, n, xs, component)
        for k, t in enumerate(a + (xs + 1.0) * (b - a) / 2.0):
            grad = None if exact_grad is None else (lambda xx, yy: exact_grad(xx, yy, t))
            err = wx.spatial_norm(field.space, kind, fe=coeffs[k],
                                  exact=lambda xx, yy: exact(xx, yy, t),
                                  exact_grad=grad, c=c)
            per_slab[n] = max(per_slab[n], err)
    return per_slab


@pytest.mark.parametrize("make", [wx.dirichlet_cos, lambda: wx.estimator_poly("t2.25"),
                                  lambda: wx.inline_problem("x*y*t")],
                         ids=["dirichlet-cos", "estimator-poly-t2.25", "inline-xyt"])
def test_error_C0_equals_per_sample_loop(make):
    # batching a slab's sample times must not move a bit; the inline v = x*y
    # carries no t
    prob = make()
    space = wx.build_space(wx.build_structured_mesh(3, 3, prob.bbox), 3)
    sol = wx.solve(prob, wx.Discretization(space, wx.uniform_time_partition(1.0, 4), q=2))
    star = postprocessed_solution(sol)
    for field, kind, component, exact in ((sol, "l2", "u", prob.exact_u),
                                          (star, "l2", "u", prob.exact_u),
                                          (sol, "l2", "v", prob.exact_v),
                                          (sol, "h1c", "u", prob.exact_u),
                                          (star, "h1c", "u", prob.exact_u)):
        grad = prob.exact_grad_u if kind == "h1c" else None
        err, per_slab = error_C0(field, exact, kind, 11, c=prob.c,
                                    exact_grad=grad, component=component)
        expect = _error_C0_per_sample(field, exact, kind, 11, prob.c, grad, component)
        assert np.array_equal(per_slab, expect)
        assert err == expect.max()


def _four_error_C0_passes(sol, prob):
    return np.array([error_C0(sol, prob.exact_u)[0],
                     error_C0(postprocessed_solution(sol), prob.exact_u)[0],
                     error_C0(sol, prob.exact_v, component="v")[0],
                     error_C0(sol, prob.exact_u, "h1c", c=prob.c,
                              exact_grad=prob.exact_grad_u)[0]])


def _report(sol, prob):
    rep = wx.compute_error_report(sol, prob)
    return np.array([rep.err_u, rep.err_ustar, rep.err_v, rep.err_gradu])


@pytest.mark.parametrize("make", [wx.dirichlet_cos, lambda: wx.estimator_poly("t2.25"),
                                  lambda: wx.inline_problem("x*y*t")],
                         ids=["dirichlet-cos", "estimator-poly-t2.25", "inline-xyt"])
def test_error_report_equals_four_error_C0_passes(make):
    # the report contracts each trial row with the spatial tables before it
    # applies the temporal table, so it rounds differently from one
    # error_C0 pass per quantity (the worst seen: 4.3e-15 relative); the
    # inline x*y*t errors sit at 1e-16, hence the absolute floor
    prob = make()
    space = wx.build_space(wx.build_structured_mesh(3, 3, prob.bbox), 3)
    sol = wx.solve(prob, wx.Discretization(space, wx.uniform_time_partition(1.0, 4), q=2))
    expect = _four_error_C0_passes(sol, prob)
    close = lambda got: np.abs(got - expect) <= 1e-14 * expect + 1e-16
    assert close(_report(sol, prob)).all()
    # the tolerance bites: scaling both fields by 1 + 1e-13 moves every quantity past it
    scaled = replace(sol, u=sol.u * (1 + 1e-13), v=sol.v * (1 + 1e-13))
    assert not close(_report(scaled, prob)).any()


def test_error_report_blocks_equal_one_slab_blocks(monkeypatch):
    # blocks of several slabs give the bits of one slab at a time
    prob, sol = small_homogeneous_run(q=3, n_slabs=12, nx=2, p=2)
    n_points = sol.space.rule["wdet"].size
    assert len(sol.partition.blocks(11 * n_points)) < sol.partition.n_slabs / 2
    blocked = _report(sol, prob)
    monkeypatch.setattr(timebasis, "BLOCK_VALUES", 1)
    assert len(sol.partition.blocks(11 * n_points)) == sol.partition.n_slabs
    assert np.array_equal(_report(sol, prob), blocked)


def test_error_report_evaluates_exact_u_once_per_slab():
    # u and the reconstruction are sampled at the same times and share one
    # evaluation of the exact u per block of slabs, which holds each sample
    # time of each slab once; the h1c seminorm reads only the gradient
    prob, sol = small_homogeneous_run(q=2, n_slabs=16, nx=2, p=2)
    calls = []

    def exact_u(x, y, t):
        calls.append(t.shape)
        return prob.exact_u(x, y, t)

    wx.compute_error_report(sol, replace(prob, exact_u=exact_u), samples_per_slab=7)
    assert sum(shape[0] for shape in calls) == sol.partition.n_slabs
    assert all(shape[1:] == (7, 1, 1) for shape in calls)
    assert 1 < len(calls) < sol.partition.n_slabs / 2


def test_error_report_builds_one_trial_table_per_sampled_field(monkeypatch):
    # u, the reconstruction and v: one table each for the whole walk, none
    # per slab (one pass per quantity built four)
    calls, trial_matrix = [], postprocess.trial_matrix

    def counted(q, x):
        calls.append(q)
        return trial_matrix(q, x)

    monkeypatch.setattr(postprocess, "trial_matrix", counted)
    prob, sol = small_homogeneous_run(q=2, n_slabs=8)
    wx.compute_error_report(sol, prob)
    assert len(calls) <= 3


def test_error_report_peak_below_one_reconstruction():
    # a long horizon over a small space: the report holds a slab of the
    # reconstruction at a time, so its peak stays below the whole tensor
    prob, sol = small_homogeneous_run(q=2, n_slabs=256, nx=4, p=2)
    whole = sol.u.shape[0] * (sol.degree + 2) * sol.u.shape[2] * sol.u.itemsize
    wx.compute_error_report(sol, prob)  # fill the space's quadrature caches first
    tracemalloc.start()
    try:
        wx.compute_error_report(sol, prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < whole
