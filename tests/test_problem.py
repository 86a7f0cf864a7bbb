import math
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wavext as wx
from conftest import error_C0
from wavext.errors import ConfigurationError
from wavext.problem import make_preset


def _fd_t(f, x, y, t, h=1e-5):
    return (f(x, y, t + h) - f(x, y, t - h)) / (2 * h)


def _fd_lap(u, x, y, t, h=1e-5):
    return (u(x + h, y, t) + u(x - h, y, t) + u(x, y + h, t) + u(x, y - h, t)
            - 4 * u(x, y, t)) / h ** 2


@pytest.mark.parametrize("name,psi", [("dirichlet-cos", None),
                                      ("standing-wave", None),
                                      ("estimator-poly", "cos4t"),
                                      ("estimator-poly", "t2.25")])
def test_preset_satisfies_the_pde(name, psi):
    # finite-difference oracle: v = du/dt and dv/dt - c^2 lap u = f
    prob = make_preset(name, psi)
    rng = np.random.default_rng(0)
    x_min, x_max, y_min, y_max = prob.bbox
    x = rng.uniform(x_min + 0.1, x_max - 0.1, size=8)
    y = rng.uniform(y_min + 0.1, y_max - 0.1, size=8)
    t = rng.uniform(0.3, 0.9, size=8)
    v_fd = _fd_t(prob.exact_u, x, y, t)
    assert np.abs(v_fd - prob.exact_v(x, y, t)).max() <= 1e-6
    dv_fd = _fd_t(prob.exact_v, x, y, t)
    lap_fd = _fd_lap(prob.exact_u, x, y, t)
    c2 = float(prob.c) ** 2
    f_val = prob.f(x, y, t) if prob.f is not None else 0.0
    assert np.abs(dv_fd - c2 * lap_fd - f_val).max() <= 1e-4
    gx, gy = prob.exact_grad_u(x, y, t)
    gx_fd = (prob.exact_u(x + 1e-5, y, t) - prob.exact_u(x - 1e-5, y, t)) / 2e-5
    gy_fd = (prob.exact_u(x, y + 1e-5, t) - prob.exact_u(x, y - 1e-5, t)) / 2e-5
    assert np.abs(gx - gx_fd).max() <= 1e-6
    assert np.abs(gy - gy_fd).max() <= 1e-6


def test_preset_initial_and_boundary_consistency():
    # initial data are the exact fields at t = 0, Dirichlet data the exact
    # u and v, or None for homogeneous data
    dirichlet = {"dirichlet-cos": True, "standing-wave": False, "estimator-poly-cos4t": False,
                 "estimator-poly-t2.25": False, "inline": True}
    problems = [make_preset("dirichlet-cos"), make_preset("standing-wave"),
                make_preset("estimator-poly", "cos4t"), make_preset("estimator-poly", "t2.25"),
                wx.inline_problem("x*y*t**2 + sin(x + 2*t)*cos(y)", c=1.5)]
    assert sorted(prob.name for prob in problems) == sorted(dirichlet)
    for prob in problems:
        x = np.linspace(prob.bbox[0], prob.bbox[1], 7)
        y = np.linspace(prob.bbox[2], prob.bbox[3], 7)[:, None]
        assert np.array_equal(prob.u0(x, y), prob.exact_u(x, y, 0.0)), prob.name
        assert np.array_equal(prob.grad_u0(x, y), prob.exact_grad_u(x, y, 0.0)), prob.name
        assert np.array_equal(prob.v0(x, y), prob.exact_v(x, y, 0.0)), prob.name
        if not dirichlet[prob.name]:
            assert prob.g_d is None and prob.dt_g_d is None, prob.name
            continue
        xb = np.full(5, prob.bbox[0])
        yb = np.linspace(prob.bbox[2], prob.bbox[3], 5)
        ts = np.linspace(0, 1, 5)
        assert np.array_equal(prob.g_d(xb, yb, ts), prob.exact_u(xb, yb, ts)), prob.name
        assert np.array_equal(prob.dt_g_d(xb, yb, ts), prob.exact_v(xb, yb, ts)), prob.name


def test_homogeneous_presets_vanish_on_boundary():
    for name, psi in (("standing-wave", None), ("estimator-poly", "cos4t")):
        prob = make_preset(name, psi)
        x_min, x_max, y_min, y_max = prob.bbox
        s = np.linspace(y_min, y_max, 9)
        for xb, yb in ((np.full(9, x_min), s), (np.full(9, x_max), s),
                       (s, np.full(9, y_min)), (s, np.full(9, y_max))):
            assert np.abs(prob.exact_u(xb, yb, 0.37)).max() <= 1e-14
        assert prob.g_d is None


def test_make_preset_validation():
    with pytest.raises(wx.ConfigurationError):
        make_preset("nonsense")
    with pytest.raises(wx.ConfigurationError):
        make_preset("dirichlet-cos", psi="cos4t")
    with pytest.raises(wx.ConfigurationError):
        make_preset("estimator-poly", psi="banana")
    with pytest.raises(wx.ConfigurationError):
        make_preset("estimator-poly", psi="t0.5")
    # NaN and inf compare False with 1, so they once passed the exponent
    # check; at 1e200, alpha (alpha - 1) in psi'' overflows
    for psi in ("tnan", "tinf", "t1e400", "t1e200"):
        with pytest.raises(wx.ConfigurationError, match="must be finite"):
            make_preset("estimator-poly", psi=psi)


def test_inline_problem_derives_fields():
    prob = wx.inline_problem("t*t*x*y", c=2.0)
    x, y, t = np.array([0.3]), np.array([0.7]), np.array([0.5])
    assert prob.exact_v(x, y, t) == pytest.approx(2 * 0.5 * 0.21)
    # dtt u - c^2 lap u = 2*x*y (lap of x*y vanishes)
    assert prob.f(x, y, t) == pytest.approx(2 * 0.21)
    gx, gy = prob.exact_grad_u(x, y, t)
    assert gx == pytest.approx(0.25 * 0.7)
    assert gy == pytest.approx(0.25 * 0.3)


def test_power_profile_rate_t25():
    # the t^2.5 profile converges at its regularity-limited rate
    prob = wx.estimator_poly("t2.5")
    space = wx.build_space(wx.build_structured_mesh(2, 2, prob.bbox), 4)
    errs = []
    for n_slabs in (8, 32):
        disc = wx.Discretization(space, wx.uniform_time_partition(1.0, n_slabs), q=2)
        sol = wx.solve(prob, disc)
        err, _ = error_C0(sol, prob.exact_u, "l2", 11)
        errs.append(err)
    rate = math.log2(errs[0] / errs[1]) / 2.0
    assert rate == pytest.approx(2.5, abs=0.25)


def _space_time_callbacks(prob):
    """The problem's (x, y, t) callbacks, one array-valued callback each."""
    out = {"exact_u": prob.exact_u, "exact_v": prob.exact_v,
           "exact_grad_u[0]": lambda x, y, t: prob.exact_grad_u(x, y, t)[0],
           "exact_grad_u[1]": lambda x, y, t: prob.exact_grad_u(x, y, t)[1]}
    if prob.f is not None:
        out["f"] = prob.f
    return out


def _assert_time_batched_equals_stack(prob):
    # the post-processing calls each callback once per block of slabs, with
    # t = ts[..., None, None] for the sample times ts (n_slabs, S) of the
    # block, or (nt,) for a slab's Gauss times; that must be the per-time
    # stack, bit for bit
    space = wx.build_space(wx.build_structured_mesh(2, 2, prob.bbox), 2)
    pts = space.rule["pts"]
    X, Y = pts[..., 0], pts[..., 1]
    ts = np.array([0.0, 0.0123, 0.37, 0.5, 0.81, 1.0])
    for name, cb in _space_time_callbacks(prob).items():
        stacked = np.stack([cb(X, Y, t) for t in ts])
        for shape in ((6,), (2, 3)):
            batched = cb(X, Y, ts.reshape(shape)[..., None, None])
            assert np.shape(batched) == shape + X.shape, name
            assert np.array_equal(batched, stacked.reshape(batched.shape), equal_nan=True), name


@pytest.mark.parametrize("name,psi", [("dirichlet-cos", None),
                                      ("standing-wave", None),
                                      ("estimator-poly", "cos4t"),
                                      ("estimator-poly", "t2.25")])
def test_preset_callbacks_broadcast_in_time(name, psi):
    _assert_time_batched_equals_stack(make_preset(name, psi))


_EXPRESSIONS = st.recursive(
    st.sampled_from(["x", "y", "t", "0", "2", "-1.5", "0.25"]),
    lambda sub: st.one_of(
        st.builds("({}) + ({})".format, sub, sub),
        st.builds("({})*({})".format, sub, sub),
        st.builds("{}({})".format, st.sampled_from(["sin", "cos", "exp"]), sub)),
    max_leaves=6)


@settings(max_examples=40, deadline=None)
@given(_EXPRESSIONS)
def test_inline_callbacks_broadcast_in_time(expr):
    # includes t-free and constant expressions, whose fields carry no t
    _assert_time_batched_equals_stack(wx.inline_problem(expr))


@pytest.mark.parametrize("c", [np.inf, -np.inf, np.nan, -1.0, 0.0, 1e200])
def test_scalar_wavespeed_is_checked_where_it_enters(c):
    # c = inf and c = -1 were once accepted, and c = 1e200 overflowed in c^2
    with pytest.raises(ConfigurationError, match="wavespeed c must be positive"):
        wx.inline_problem("x*y*t", c=c)
    with pytest.raises(ConfigurationError, match="wavespeed c must be positive"):
        wx.ProblemData(c=c)
    with pytest.raises(ConfigurationError, match="wavespeed c must be positive"):
        replace(wx.standing_wave(), c=c)


@pytest.mark.parametrize("c", [np.array(2.0), np.array([2.0]), np.array([1.0, 2.0]), "2", None],
                         ids=["0-d", "1-element", "2-element", "str", "None"])
def test_wavespeed_is_a_real_number_or_a_callable(c):
    # each once raised a bare TypeError or ValueError, in the check itself or
    # (the 0-d array) when assembly keyed its memo on c
    with pytest.raises(ConfigurationError, match="wavespeed c must be positive"):
        wx.ProblemData(c=c)


@pytest.mark.parametrize("c", [10 ** 200, Fraction(10 ** 400, 3)], ids=["int", "Fraction"])
def test_wavespeed_beyond_the_floats_is_rejected_not_overflowed(c):
    # each once raised a bare OverflowError, when its exact square was
    # converted to a float
    with pytest.raises(ConfigurationError, match="wavespeed c must be positive"):
        wx.ProblemData(c=c)
    with pytest.raises(ConfigurationError, match="wavespeed c must be positive"):
        replace(wx.standing_wave(), c=c)


def test_positive_and_callable_wavespeeds_are_accepted():
    assert wx.inline_problem("x*y*t", c=2).c == 2.0
    assert replace(wx.standing_wave(), c=1e150).c == 1e150
    speed = lambda x, y: 1.0 + x  # checked pointwise where it is evaluated
    assert replace(wx.dirichlet_cos(), c=speed).c is speed


def test_run_records_are_frozen():
    # a field assigned after construction would skip the record's check: a
    # bc_mode "bogus" once reached build_lifting, which made it interpolation
    prob = wx.standing_wave()
    disc = wx.Discretization(wx.build_space(wx.build_structured_mesh(2, 2), 1),
                             wx.uniform_time_partition(1.0, 2), q=1)
    for record in (prob, disc):
        for field in fields(record):
            with pytest.raises(FrozenInstanceError):
                setattr(record, field.name, None)
    assert (prob.c, disc.q, disc.bc_mode) == (1.0, 1, "projection")
