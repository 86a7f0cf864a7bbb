"""Problem data, discretization choices, and the built-in benchmark presets.

All spatial and space-time callbacks are vectorized: they accept numpy
arrays for x, y (and t) and broadcast.  Exact solutions, when present, enable
error studies; the solver itself only consumes data fields.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError
from .fem import LagrangeSpace
from .timebasis import TimePartition

#: Largest temporal degree.  The slab solve's eigen-split of the temporal
#: coupling loses accuracy with cond(S), about 3.6x per degree; up to this
#: degree one refinement step meets the solve's residual contract, at q = 20
#: it does not.
MAX_TEMPORAL_DEGREE = 12


def _checked_wavespeed(c):
    """c itself, if callable or a positive scalar whose square is finite."""
    if not callable(c) and not (c > 0 and math.isfinite(c * c)):
        raise ConfigurationError(f"wavespeed c must be positive and c^2 finite, got {c}")
    return c


def _zero(x, y):
    return np.zeros(np.broadcast(x, y).shape)


def _zero_grad(x, y):
    z = np.zeros(np.broadcast(x, y).shape)
    return z, z


@dataclass
class ProblemData:
    """Wave problem data on a rectangle: wavespeed, source, boundary and
    initial data, plus optional exact solution for error studies.  A scalar
    wavespeed c must be positive with c^2 finite; a callable c is checked
    where assembly and the norms evaluate it.

    The Dirichlet datum g_d and its time derivative dt_g_d are callbacks of
    (x, y, t) evaluated at boundary nodes; g_d = None means homogeneous.
    ``singular_at_zero`` marks sources with an algebraic singularity at t = 0
    so time quadrature on the first slab switches to a graded rule.

    The space-time callbacks (f, g_d, dt_g_d and the exact fields) take t as
    a float or as an array that broadcasts against x and y: error sampling,
    the load moments and the estimator pass all times of a slab at once, as
    ts[:, None, None], and expect one leading row per time.
    """

    name: str = "custom"
    bbox: tuple = (0.0, 1.0, 0.0, 1.0)
    c: float = 1.0
    f: Optional[Callable] = None
    g_d: Optional[Callable] = None
    dt_g_d: Optional[Callable] = None
    u0: Callable = field(default=_zero)
    grad_u0: Optional[Callable] = field(default=_zero_grad)
    v0: Callable = field(default=_zero)
    exact_u: Optional[Callable] = None
    exact_v: Optional[Callable] = None
    exact_grad_u: Optional[Callable] = None
    singular_at_zero: bool = False

    def __post_init__(self):
        _checked_wavespeed(self.c)

    def has_exact(self):
        return self.exact_u is not None


@dataclass
class Discretization:
    """Space-time discretization choices.

    method: "gradient" couples the two fields through the stiffness inner
    product; "mass" uses the L2 inner product (equivalent only for
    homogeneous Dirichlet data).
    bc_mode: "projection" builds boundary trajectories with the
    endpoint-exact temporal projection; "interpolation" uses slabwise
    Lagrange interpolation in time (the naive treatment).
    initial_mode: "projection" takes Ritz/L2 projections of the initial
    data; "interpolation" takes nodal interpolants.
    """

    space: LagrangeSpace
    partition: TimePartition
    q: int
    method: str = "gradient"
    bc_mode: str = "projection"
    initial_mode: str = "projection"

    def __post_init__(self):
        check_choices(self.q, self.method, self.bc_mode, self.initial_mode)


def check_choices(q, method, bc_mode, initial_mode):
    """Reject a temporal degree q outside [1, MAX_TEMPORAL_DEGREE] or a mode
    name that Discretization does not define."""
    if not 1 <= q <= MAX_TEMPORAL_DEGREE:
        raise ConfigurationError(f"temporal degree {q} is not in [1, {MAX_TEMPORAL_DEGREE}]")
    for what, name, names in (("coupling method", method, ("gradient", "mass")),
                              ("bc_mode", bc_mode, ("projection", "interpolation")),
                              ("initial_mode", initial_mode, ("projection", "interpolation"))):
        if name not in names:
            raise ConfigurationError(f"unknown {what} {name!r}")


# ---------------------------------------------------------------------------
# presets


def _manufactured(name, u, v, grad_u, f=None, dirichlet=False, bbox=(0.0, 1.0, 0.0, 1.0),
                  c=1.0, singular_at_zero=False):
    """The problem with exact solution u, its time derivative v and its
    gradient grad_u, callbacks of (x, y, t): the initial data are the three
    fields at t = 0, and the Dirichlet data are u and v when ``dirichlet``
    is set (homogeneous otherwise)."""
    return ProblemData(
        name=name,
        bbox=bbox,
        c=c,
        f=f,
        g_d=u if dirichlet else None,
        dt_g_d=v if dirichlet else None,
        u0=lambda x, y: u(x, y, 0.0),
        grad_u0=lambda x, y: grad_u(x, y, 0.0),
        v0=lambda x, y: v(x, y, 0.0),
        exact_u=u,
        exact_v=v,
        exact_grad_u=grad_u,
        singular_at_zero=singular_at_zero,
    )


def _standing(name, profile, dprofile, dirichlet):
    """Standing wave u = cos(sqrt(2) pi t) profile(pi x) sin(pi y) on
    (0,1)^2 x (0,1), with d/dx profile(pi x) = pi dprofile(pi x); the source
    vanishes, and the Dirichlet data is u when ``dirichlet`` is set."""
    rt2pi = np.sqrt(2.0) * np.pi

    def u(x, y, t):
        return np.cos(rt2pi * t) * profile(np.pi * x) * np.sin(np.pi * y)

    def v(x, y, t):
        return -rt2pi * np.sin(rt2pi * t) * profile(np.pi * x) * np.sin(np.pi * y)

    def grad_u(x, y, t):
        co = np.cos(rt2pi * t)
        return (np.pi * co * dprofile(np.pi * x) * np.sin(np.pi * y),
                np.pi * co * profile(np.pi * x) * np.cos(np.pi * y))

    return _manufactured(name, u, v, grad_u, dirichlet=dirichlet)


def dirichlet_cos():
    """Standing wave with nonhomogeneous Dirichlet data on (0,1)^2 x (0,1):
    u = cos(sqrt(2) pi t) cos(pi x) sin(pi y); the source vanishes."""
    return _standing("dirichlet-cos", np.cos, lambda s: -np.sin(s), True)


def standing_wave():
    """Homogeneous standing wave on (0,1)^2 x (0,1):
    u = cos(sqrt(2) pi t) sin(pi x) sin(pi y); zero source and boundary data."""
    return _standing("standing-wave", np.sin, np.cos, False)


_PSI_TABLE = {
    "cos4t": (
        lambda t: np.cos(4.0 * t),
        lambda t: -4.0 * np.sin(4.0 * t),
        lambda t: -16.0 * np.cos(4.0 * t),
        False,
    ),
}


def _power_psi(alpha):
    def psi(t):
        return np.power(np.maximum(t, 0.0), alpha)

    def dpsi(t):
        return alpha * np.power(np.maximum(t, 0.0), alpha - 1.0)

    def ddpsi(t):
        return alpha * (alpha - 1.0) * np.power(np.maximum(t, 0.0), alpha - 2.0)

    return psi, dpsi, ddpsi, True


def estimator_poly(psi="cos4t"):
    """Separable solution on (-1,1)^2 x (0,1) with polynomial spatial profile:
    u = psi(t) (1 - x^2)(1 - y^2), which degree >= 4 spaces represent exactly.

    psi is "cos4t" or "t<alpha>" for a power-law time profile (for example
    "t2.25"), whose source is singular at t = 0.
    """
    key = psi.replace("^", "")
    if key in _PSI_TABLE:
        psi_f, dpsi_f, ddpsi_f, singular = _PSI_TABLE[key]
    elif key.startswith("t"):
        try:
            alpha = float(key[1:])
        except ValueError as exc:
            raise ConfigurationError(f"unknown time profile {psi!r}") from exc
        if not math.isfinite(alpha * (alpha - 1.0)) or alpha <= 1.0:  # the factor of psi''
            raise ConfigurationError("power-law exponent must exceed 1 and alpha (alpha - 1) "
                                     "must be finite")
        psi_f, dpsi_f, ddpsi_f, singular = _power_psi(alpha)
    else:
        raise ConfigurationError(f"unknown time profile {psi!r}")

    def zeta(x, y):
        return (1.0 - x ** 2) * (1.0 - y ** 2)

    def u(x, y, t):
        return psi_f(t) * zeta(x, y)

    def v(x, y, t):
        return dpsi_f(t) * zeta(x, y)

    def grad_u(x, y, t):
        ps = psi_f(t)
        return (-2.0 * x * (1.0 - y ** 2) * ps, -2.0 * y * (1.0 - x ** 2) * ps)

    def f(x, y, t):
        # dtt u - lap u with c = 1
        return ddpsi_f(t) * zeta(x, y) + 2.0 * psi_f(t) * ((1.0 - y ** 2) + (1.0 - x ** 2))

    return _manufactured(f"estimator-poly-{key}", u, v, grad_u, f=f,
                         bbox=(-1.0, 1.0, -1.0, 1.0), singular_at_zero=singular)


def inline_problem(u_expr, c=1.0, bbox=(0.0, 1.0, 0.0, 1.0)):
    """Manufacture a problem from a symbolic expression for u(x, y, t).

    The companion field, source, boundary and initial data are derived by
    symbolic differentiation (v = du/dt, f = dtt u - c^2 lap u).
    """
    import sympy as sp

    c = _checked_wavespeed(float(c))
    x, y, t = sp.symbols("x y t")
    try:
        u_sym = sp.sympify(u_expr, locals={"x": x, "y": y, "t": t})
    except (AttributeError, SyntaxError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"cannot parse u = {u_expr!r}") from exc
    if not isinstance(u_sym, sp.Expr) or u_sym.free_symbols - {x, y, t} \
            or u_sym.atoms(sp.core.function.AppliedUndef) \
            or u_sym.has(sp.zoo, sp.oo, -sp.oo, sp.nan):
        raise ConfigurationError(f"u = {u_expr!r} is not a finite expression in x, y, t")
    v_sym = sp.diff(u_sym, t)
    f_sym = sp.diff(u_sym, t, 2) - c ** 2 * (sp.diff(u_sym, x, 2) + sp.diff(u_sym, y, 2))
    ux_sym = sp.diff(u_sym, x)
    uy_sym = sp.diff(u_sym, y)

    def lam3(expr):
        fn = sp.lambdify((x, y, t), expr, "numpy")
        return lambda xx, yy, tt: np.broadcast_to(
            np.asarray(fn(xx, yy, tt), dtype=float), np.broadcast(xx, yy, tt).shape)

    u_f, v_f, f_f = lam3(u_sym), lam3(v_sym), lam3(f_sym)
    ux_f, uy_f = lam3(ux_sym), lam3(uy_sym)


    def grad_u(xx, yy, tt):
        return ux_f(xx, yy, tt), uy_f(xx, yy, tt)

    return _manufactured("inline", u_f, v_f, grad_u, f=None if f_sym == 0 else f_f,
                         dirichlet=True, bbox=tuple(map(float, bbox)), c=c)


PRESETS = {
    "dirichlet-cos": dirichlet_cos,
    "standing-wave": standing_wave,
    "estimator-poly": estimator_poly,
}


def make_preset(name, psi=None):
    if name not in PRESETS:
        raise ConfigurationError(f"unknown problem preset {name!r}")
    if name == "estimator-poly":
        return estimator_poly(psi) if psi else estimator_poly()
    if psi is not None:
        raise ConfigurationError(f"preset {name!r} takes no psi option")
    return PRESETS[name]()
