import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

import wavext as wx
from wavext import reference
from wavext.errors import ConfigurationError
from wavext.fem import spatial_norm
from wavext.postprocess import _at
from wavext.solver import SpaceTimeSolution
from wavext.timebasis import trial_matrix, trial_to_legendre


@pytest.fixture(scope="session")
def unit_square_p2():
    mesh = wx.build_structured_mesh(2, 2)
    return wx.build_space(mesh, 2)


def txy_problem():
    """Probe with exact solution u = t*x*y (zero source, linear data)."""
    shape = lambda *a: np.broadcast(*a).shape
    return wx.ProblemData(
        name="txy",
        bbox=(0.0, 1.0, 0.0, 1.0),
        g_d=lambda x, y, t: t * x * y,
        dt_g_d=lambda x, y, t: x * y * np.ones(shape(x, y, t)),
        u0=lambda x, y: np.zeros(shape(x, y)),
        grad_u0=lambda x, y: (np.zeros(shape(x, y)), np.zeros(shape(x, y))),
        v0=lambda x, y: x * y,
        exact_u=lambda x, y, t: t * x * y,
        exact_v=lambda x, y, t: x * y * np.ones(shape(x, y, t)),
        exact_grad_u=lambda x, y, t: (t * y * np.ones(shape(x, y, t)),
                                      t * x * np.ones(shape(x, y, t))),
    )


def small_homogeneous_run(q=2, n_slabs=8, nx=4, p=2, method="gradient"):
    prob = wx.standing_wave()
    space = wx.build_space(wx.build_structured_mesh(nx, nx, prob.bbox), p)
    disc = wx.Discretization(space, wx.uniform_time_partition(1.0, n_slabs),
                             q=q, method=method)
    return prob, wx.solve(prob, disc)


def evaluate(space, values, points):
    """The function with coefficients values on a space at one point or an
    array of points of its mesh's rectangle, through the cell that contains
    each point."""
    mesh = space.mesh
    x_min, x_max, y_min, y_max = mesh.bbox
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    fx = np.clip((pts[:, 0] - x_min) / (x_max - x_min) * mesh.nx, 0.0, mesh.nx)
    fy = np.clip((pts[:, 1] - y_min) / (y_max - y_min) * mesh.ny, 0.0, mesh.ny)
    ix = np.minimum(fx.astype(np.int64), mesh.nx - 1)
    iy = np.minimum(fy.astype(np.int64), mesh.ny - 1)
    xi, eta = fx - ix, fy - iy
    lower = eta <= xi
    cell = 2 * (iy * mesh.nx + ix) + np.where(lower, 0, 1)
    rs = np.column_stack([np.where(lower, xi - eta, xi), np.where(lower, eta, eta - xi)])
    vals, _, _ = reference.tabulate(space.degree, rs, order=0)
    out = np.einsum("pi,pi->p", values[space.cell_dofs[cell]], vals)
    return float(out[0]) if np.ndim(points) == 1 else out


def to_normalized(slab, t):
    """Times t on a slab in its normalized coordinate x in [-1, 1]."""
    a, b = slab
    return 2.0 * (np.asarray(t, dtype=float) - a) / (b - a) - 1.0


def containing_slab(partition, t):
    """Index of the slab of a time partition that contains time t."""
    return int(np.clip(np.searchsorted(partition.nodes, t, side="right") - 1,
                       0, partition.n_slabs - 1))


def coeffs_on_slab(sol, n, xnorm, component="u"):
    """Spatial coefficient vectors of a space-time solution at normalized
    times on slab n, shape (len(xnorm), n_dofs)."""
    tensor = sol.u if component == "u" else sol.v
    sig = trial_matrix(sol.degree, np.asarray(xnorm, dtype=float))
    return np.tensordot(sig, tensor[n], axes=(0, 0))


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


def postprocessed_solution(sol):
    """Time-antiderivative reconstruction u(., 0) + int_0^t v, one temporal
    degree higher than the solution it is built from.

    By construction its value at t = 0 matches the solution and its time
    derivative equals v exactly; for homogeneous Dirichlet data it also
    matches the solution at every partition node.
    """
    U = np.fromiter(_reconstruction_slabs(sol), count=sol.partition.n_slabs,
                    dtype=(float, (sol.degree + 2, sol.u.shape[2])))
    return SpaceTimeSolution(sol.space, sol.partition, sol.degree + 1, U, None)


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
    if kind == "h1c" and exact_grad is None:
        raise ConfigurationError("h1c error sampling needs the gradient exact_grad_u")
    if component == "v" and sol.v is None:
        raise ConfigurationError("error sampling of v needs the velocity component")
    per_slab = np.array([
        np.max(spatial_norm(sol.space, kind, fe, _at(exact, ts), _at(exact_grad, ts), c))
        for ts, fe in _sampled(sol.partition, samples_per_slab,
                               sol.u if component == "u" else sol.v)])
    return float(per_slab.max()), per_slab


def sampled_gap(sol, xnorm):
    """Per slab, the largest spatial L2 norm of u* - u over the normalized
    times xnorm, u* the reconstruction u(., 0) + int_0^t v: the estimator's
    gap, sampled."""
    star = postprocessed_solution(sol)
    M = wx.assemble(sol.space, "mass")
    gap = np.zeros(sol.partition.n_slabs)
    for n in range(sol.partition.n_slabs):
        d = coeffs_on_slab(star, n, xnorm) - coeffs_on_slab(sol, n, xnorm)
        gap[n] = np.sqrt(np.maximum(np.einsum("sd,ds->s", d, M @ d.T), 0.0)).max()
    return gap


def legendre_coeffs(sol, n, component="u"):
    """Per-slab Legendre coefficients of a space-time solution on slab n,
    shape (degree+1, n_dofs)."""
    tensor = sol.u if component == "u" else sol.v
    return np.tensordot(trial_to_legendre(sol.degree), tensor[n], axes=(1, 0))


def coeffs_at(sol, t, component="u"):
    """Spatial coefficients of a space-time solution at time t."""
    n = containing_slab(sol.partition, float(t))
    x = to_normalized(sol.partition.slab(n), float(t))
    return coeffs_on_slab(sol, n, np.asarray([x]), component)[0]


def eval_slab(coeffs, partition, n, t):
    """Slab n of per-slab trial coefficients (n_slabs, q+1, ...) at the times t."""
    sig = trial_matrix(coeffs.shape[1] - 1, to_normalized(partition.slab(n), t))
    return np.tensordot(sig, coeffs[n], axes=(0, 0))


def legendre_derivative_matrix(deg, x):
    """Values of P_0'..P_deg' at normalized coords x, shape (deg+1,) + x.shape."""
    x = np.asarray(x, dtype=float)
    out = np.zeros((deg + 1,) + x.shape)
    for s in range(1, deg + 1):
        c = np.zeros(s + 1)
        c[s] = 1.0
        out[s] = npleg.legval(x, npleg.legder(c))
    return out
