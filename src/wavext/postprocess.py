"""Postprocessed approximation, error sampling, energy traces, and rates."""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .fem import assemble, spatial_norm
from .solver import SpaceTimeSolution
from .timebasis import trial_matrix, trial_to_legendre


def postprocessed_solution(sol):
    """Time-antiderivative reconstruction u(., 0) + int_0^t v, one temporal
    degree higher than the solution it is built from.

    By construction its value at t = 0 matches the solution and its time
    derivative equals v exactly; for homogeneous Dirichlet data it also
    matches the solution at every partition node.
    """
    if sol.v is None:
        raise ConfigurationError("postprocessing needs the velocity component")
    q = sol.degree
    N = sol.partition.n_slabs
    lengths = sol.partition.lengths
    T = trial_to_legendre(q)
    U = np.zeros((N, q + 2, sol.u.shape[2]))
    left = sol.u[0, 0].copy()
    scale = 2.0 * np.arange(q + 1) + 1.0
    for n in range(N):
        v_leg = np.tensordot(T, sol.v[n], axes=(1, 0))
        U[n, 0] = left
        U[n, 1:] = (lengths[n] / scale)[:, None] * v_leg
        left = U[n, 0] + U[n, 1]
    return SpaceTimeSolution(sol.space, sol.partition, q + 1, U, None)


def error_C0(sol, exact, kind="l2", samples_per_slab=11, c=1.0,
             exact_grad=None, component="u"):
    """Max-in-time spatial error against an exact space-time callback.

    Each slab is sampled at ``samples_per_slab`` uniformly spaced times
    (endpoints included); the spatial L2 norm (or weighted gradient seminorm,
    kind="h1c") of the difference is maximized over all samples.  The
    callbacks see all times of a slab at once, as t of shape (S, 1, 1).

    Returns (global max, per-slab maxima).
    """
    if exact is None:
        raise ConfigurationError("error sampling needs an exact solution callback")
    if samples_per_slab < 3:
        raise ConfigurationError("samples_per_slab must be at least 3")
    if kind == "h1c" and exact_grad is None:
        raise ConfigurationError("h1c error sampling needs the gradient exact_grad_u")
    xs = np.linspace(-1.0, 1.0, samples_per_slab)
    sig = trial_matrix(sol.degree, xs)
    tensor = sol.u if component == "u" else sol.v
    per_slab = np.zeros(sol.partition.n_slabs)
    for n in range(sol.partition.n_slabs):
        a, b = sol.partition.slab(n)
        ts = (a + (xs + 1.0) * (b - a) / 2.0)[:, None, None]
        coeffs = np.tensordot(sig, tensor[n], axes=(0, 0))
        errs = spatial_norm(sol.space, kind, fe=coeffs,
                            exact=lambda xx, yy: exact(xx, yy, ts),
                            exact_grad=lambda xx, yy: exact_grad(xx, yy, ts), c=c)
        per_slab[n] = np.max(errs)
    return float(per_slab.max()), per_slab


@dataclass
class ErrorReport:
    """The four max-in-time error quantities of a run."""

    err_u: float
    err_ustar: float
    err_v: float
    err_gradu: float
    per_slab: dict = field(default_factory=dict)
    samples_per_slab: int = 11


def compute_error_report(sol, problem, samples_per_slab=11):
    """All four error quantities against the problem's exact solution."""
    if not problem.has_exact():
        raise ConfigurationError(f"problem {problem.name!r} carries no exact solution")
    err_u, ps_u = error_C0(sol, problem.exact_u, "l2", samples_per_slab)
    # the reconstruction is freed before the gradient pass, the largest one
    err_us, ps_us = error_C0(postprocessed_solution(sol), problem.exact_u, "l2",
                             samples_per_slab)
    err_v, ps_v = error_C0(sol, problem.exact_v, "l2", samples_per_slab, component="v")
    err_g, ps_g = error_C0(sol, problem.exact_u, "h1c", samples_per_slab,
                           c=problem.c, exact_grad=problem.exact_grad_u)
    return ErrorReport(err_u, err_us, err_v, err_g,
                       per_slab={"u": ps_u, "ustar": ps_us, "v": ps_v, "gradu": ps_g},
                       samples_per_slab=samples_per_slab)


def energy_trace(sol, c=1.0):
    """Discrete energies E(t_n) = (|v|^2 + |c grad u|^2)/2 at the time nodes."""
    M = assemble(sol.space, "mass")
    K = assemble(sol.space, "stiffness", c)
    out = np.empty(sol.partition.n_slabs + 1)
    for n in range(sol.partition.n_slabs + 1):
        u = sol.endpoint(n, "u")
        v = sol.endpoint(n, "v")
        out[n] = 0.5 * (v @ (M @ v) + u @ (K @ u))
    return out


def convergence_rates(resolutions, errors):
    """Pairwise empirical rates log(e_k/e_{k+1}) / log(r_k/r_{k+1}).

    Nonpositive errors make the corresponding rate undefined (None).
    """
    res = np.asarray(resolutions, dtype=float)
    err = np.asarray(errors, dtype=float)
    if len(res) != len(err) or len(res) < 2:
        raise ValueError("need matching resolution/error sequences of length >= 2")
    if np.any(np.diff(res) >= 0):
        raise ValueError("resolutions must be strictly decreasing")
    out = []
    for k in range(len(res) - 1):
        if err[k] <= 0 or err[k + 1] <= 0:
            out.append(None)
        else:
            out.append(float(np.log(err[k] / err[k + 1]) / np.log(res[k] / res[k + 1])))
    return out
