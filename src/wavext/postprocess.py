"""Error sampling of a solution and of its reconstruction, energy traces, and rates."""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .fem import assemble, spatial_norm
from .timebasis import trial_matrix, trial_to_legendre


def _at(callback, ts):
    """The space-time callback at the sample times ts, as a callback of (x, y)."""
    return lambda x, y: callback(x, y, ts)


@dataclass
class ErrorReport:
    """The four max-in-time error quantities of a run."""

    err_u: float
    err_ustar: float
    err_v: float
    err_gradu: float


def compute_error_report(sol, problem, samples_per_slab=11):
    """All four error quantities against the problem's exact solution, from
    one walk over blocks of slabs of u, its reconstruction u* = u(., 0) +
    int_0^t v and v, each sampled at samples_per_slab uniform times per
    slab, endpoints included.

    u* is built one block at a time, never stored whole: on slab n its q+2
    trial rows are its left-endpoint value, summed slab after slab, and the
    rise (tau_n/(2j+1)) (T v_n)_j, T = trial_to_legendre(q).
    """
    if None in (problem.exact_u, problem.exact_v, problem.exact_grad_u):
        raise ConfigurationError(f"problem {problem.name!r} lacks one of exact_u, exact_v "
                                 "and exact_grad_u, which the error report needs")
    if samples_per_slab < 3:
        raise ConfigurationError("samples_per_slab must be at least 3")
    space, nodes, q = sol.space, sol.partition.nodes, sol.degree
    xs = np.linspace(-1.0, 1.0, samples_per_slab)
    sig, sig_star = trial_matrix(q, xs).T, trial_matrix(q + 1, xs).T
    T = trial_to_legendre(q)
    scale = 2.0 * np.arange(q + 1) + 1.0
    n_points = space.rule["wdet"].size
    left = sol.u[0, 0]
    err = np.zeros(4)
    for block in sol.partition.blocks(samples_per_slab * n_points):
        n = slice(block.start, block.stop)
        a, b = nodes[n, None], nodes[1:][n, None]
        ts = (a + (xs + 1.0) * (b - a) / 2.0)[..., None, None]
        # u and u* under one table: u's rows padded with a zero top row
        rows = np.zeros((2, len(block), q + 2, space.n_dofs))
        rows[0, :, :-1] = sol.u[n]
        rows[1, :, 1:] = ((b - a) / scale)[..., None] * (T @ sol.v[n])
        lefts = np.cumsum(np.concatenate((left[None], rows[1, :, 1])), axis=0)
        rows[1, :, 0], left = lefts[:-1], lefts[-1]
        exact_u = _at(problem.exact_u, ts)  # one evaluation serves u and u*
        e_u = spatial_norm(space, "l2", rows, exact_u, times=sig_star)
        e_v = spatial_norm(space, "l2", sol.v[n], _at(problem.exact_v, ts), times=sig)
        e_g = spatial_norm(space, "h1c", sol.u[n], exact_u, _at(problem.exact_grad_u, ts),
                           problem.c, times=sig)
        err = np.maximum(err, [*e_u.max(axis=(1, 2)), e_v.max(), e_g.max()])
    return ErrorReport(*map(float, err))


def energy_trace(sol, problem):
    """Discrete energies E(t_n) = (|v|^2 + |c grad u|^2)/2 at the time nodes,
    with c the wavespeed of ``problem``, the ProblemData ``sol`` solves."""
    M = assemble(sol.space, "mass")
    K = assemble(sol.space, "stiffness", problem.c)
    energy = 0.0
    for A, tensor in ((M, sol.v), (K, sol.u)):
        # all N+1 node states, one sparse product; the stacked dot products
        # keep each node's BLAS dot, which a C-ordered right operand needs
        x = np.concatenate((tensor[:1, 0], tensor[:, 0] + tensor[:, 1]))
        Ax = np.ascontiguousarray((A @ x.T).T)
        energy = energy + (x[:, None] @ Ax[..., None]).ravel()
    return 0.5 * energy


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
