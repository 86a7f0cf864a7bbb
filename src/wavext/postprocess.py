"""Error sampling of a solution and of its reconstruction, energy traces, and rates."""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .fem import assemble, spatial_norm
from .timebasis import trial_matrix, trial_to_legendre


def _reconstruction_slabs(sol):
    """Yield the slabs (q+2, n_dofs) of the reconstruction u(., 0) + int_0^t v."""
    T = trial_to_legendre(sol.degree)
    scale = 2.0 * np.arange(sol.degree + 1) + 1.0
    left = sol.u[0, 0]
    for tau, v in zip(sol.partition.lengths, sol.v):
        rise = (tau / scale)[:, None] * np.tensordot(T, v, axes=(1, 0))
        yield np.vstack((left, rise))
        left = left + rise[0]


def _sampled(partition, samples_per_slab, *tensors):
    """Per slab, the times (S, 1, 1) of S uniform samples, endpoints included,
    and each trial tensor's values (S, n_dofs) there.  A tensor is an array
    or an iterable of slabs; its trial table is built once, from its first slab."""
    if samples_per_slab < 3:
        raise ConfigurationError("samples_per_slab must be at least 3")
    xs = np.linspace(-1.0, 1.0, samples_per_slab)
    sigs = None
    for a, b, *slabs in zip(partition.nodes, partition.nodes[1:], *tensors):
        sigs = sigs or [trial_matrix(len(slab) - 1, xs) for slab in slabs]
        ts = (a + (xs + 1.0) * (b - a) / 2.0)[:, None, None]
        yield (ts, *(np.tensordot(sig, slab, axes=(0, 0)) for sig, slab in zip(sigs, slabs)))


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
    one walk over the slabs of u, its reconstruction and v."""
    if sol.v is None:
        raise ConfigurationError("the error report needs the velocity component")
    if not problem.has_exact():
        raise ConfigurationError(f"problem {problem.name!r} carries no exact solution")
    if problem.exact_grad_u is None or problem.exact_v is None:
        raise ConfigurationError("the error report needs exact_grad_u and exact_v")
    err = np.zeros(4)
    for ts, u, ustar, v in _sampled(sol.partition, samples_per_slab,
                                    sol.u, _reconstruction_slabs(sol), sol.v):
        exact_u = _at(problem.exact_u, ts)  # one evaluation serves u and u*
        e_u = spatial_norm(sol.space, "l2", np.stack((u, ustar)), exact_u)
        e_v = spatial_norm(sol.space, "l2", v, _at(problem.exact_v, ts))
        e_g = spatial_norm(sol.space, "h1c", u, exact_u, _at(problem.exact_grad_u, ts), problem.c)
        err = np.maximum(err, [*e_u.max(axis=1), e_v.max(), e_g.max()])
    return ErrorReport(*map(float, err))


def energy_trace(sol, c=1.0):
    """Discrete energies E(t_n) = (|v|^2 + |c grad u|^2)/2 at the time nodes."""
    if sol.v is None:
        raise ConfigurationError("the energy needs the velocity component")
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
