"""Constant-free a posteriori error bound for the time discretization.

The bound controls the max-in-time L2 error of u through slabwise temporal
defects of the computed fields: the top-Legendre-mode remainders of v, of
the source, and of the elementwise Laplacians of u and v.  It applies under
homogeneous Dirichlet data and a constant wavespeed, with the spatial
discretization resolved far beyond the temporal one (degree >= 2 so the
elementwise Laplacian is meaningful).

All explicit constants are closed-form; no term hides a generic C.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .fem import BrokenField, assemble
from .timebasis import abs_legendre_integral, gauss_rule, legendre_table, sup_legendre_integral


def gap_constant(q):
    """Constant in the slabwise gap bound between the reconstruction and u:
    1/pi for q = 1, 1/(2 sqrt((q-1) q)) for q > 1."""
    if q < 1:
        raise ValueError("temporal degree must be >= 1")
    return 1.0 / math.pi if q == 1 else 1.0 / (2.0 * math.sqrt((q - 1) * q))


def best_approx_constant(s):
    """Best-uniform-approximation constant: 1/sqrt(pi) for s <= 2, else
    1/((s-2) pi)."""
    if s < 0:
        raise ValueError("degree must be >= 0")
    return math.pi ** -0.5 if s in (0, 1, 2) else 1.0 / ((s - 2) * math.pi)


@dataclass
class EstimatorBreakdown:
    """Estimator value and its per-term decomposition.

    m_star is the 0-based index of the slab where the gap between the
    reconstruction and u peaks.  total = eta + osc_f exactly; osc_f collects
    the two source-oscillation terms (the only data-dependent ones).
    """

    m_star: int
    term_post: float
    term_lap_v: float
    term_lap_u: float
    eta: float
    osc_f: float
    total: float
    per_slab: dict = field(default_factory=dict)


def _source_defects(sol, f, singular_at_zero):
    """Per-slab L1-in-time norms of the spatial L2 norm of (f - its slabwise
    degree-(q-1) temporal L2 projection), from one evaluation of f per rule
    and block of slabs (the graded slab 0 is a block of its own)."""
    space, partition, q = sol.space, sol.partition, sol.degree
    qd = space.rule
    X = qd["pts"][..., 0].ravel()
    Y = qd["pts"][..., 1].ravel()
    wsp = qd["wdet"].ravel()
    nodes, lengths = partition.nodes, partition.lengths
    out = np.zeros(partition.n_slabs)
    n_proj, n_outer = q + 6, max(q + 4, 8)
    scale = 2.0 * np.arange(q) + 1.0

    def sampled(npts, block, graded):
        """Weights per slab (B, nt) and f at the times, (B, nt, P), of the
        npts-point rule on each slab of a block."""
        ts, ws = gauss_rule(npts, (nodes[:-1][block, None], nodes[1:][block, None]), graded)
        fv = np.broadcast_to(f(X, Y, ts.reshape(-1, 1)), (ts.size, X.size))
        return ws, fv.reshape(len(block), -1, X.size)

    for block in partition.blocks(max(n_proj, n_outer) * X.size, singular_at_zero):
        graded = singular_at_zero and block.start == 0
        wp, fv_p = sampled(n_proj, block, graded)
        Pp = legendre_table(q - 1, n_proj, graded)
        proj = (scale / lengths[block, None])[..., None] * ((Pp * wp[:, None]) @ fv_p)  # (B, q, P)
        # at q = 2 both rules are the same 8 points
        wo, fv_o = (wp, fv_p) if n_outer == n_proj else sampled(n_outer, block, graded)
        Po = legendre_table(q - 1, n_outer, graded)
        # one vector-matrix product per node and a sum in node order: a single
        # gemm, or a pairwise sum, would round differently
        defect = fv_o - (Po.T[:, None] @ proj[:, None])[:, :, 0]
        out[block] = np.cumsum(wo * np.sqrt(np.sum(wsp * defect ** 2, axis=-1)), axis=-1)[:, -1]
    return out


def compute_estimator(sol, problem):
    """Evaluate the a posteriori bound on a computed solution of ``problem``.

    The peak slab m* maximizes the L2 gap between u and u* = u(0) + int v,
    taken in closed form: for ``sol`` from :func:`~wavext.solver.solve`,
    u* - u = v_q int_{t_{n-1}}^t L_q on slab n, v_q the top Legendre
    coefficient of v, up to the slab residual.

    Parameters
    ----------
    sol : solution with both fields, homogeneous Dirichlet data.
    problem : the ProblemData ``sol`` solves: the bound reads its source f
        (None for zero), its wavespeed c, which must be a constant, and
        ``singular_at_zero``, which grades the first slab's time rules.

    Returns an :class:`EstimatorBreakdown`; its ``total`` bounds the
    max-in-time L2 error of u (up to spatial resolution).
    """
    if callable(problem.c):
        raise ConfigurationError("the estimator requires a constant wavespeed")
    if sol.space.degree < 2:
        raise ConfigurationError("the estimator needs spatial degree >= 2")
    B = sol.space.boundary_dofs
    bscale = 1.0 + np.abs(sol.u).max()
    if max(np.abs(sol.u[:, :, B]).max(), np.abs(sol.v[:, :, B]).max()) > 1e-9 * bscale:
        raise ConfigurationError("the estimator applies to homogeneous Dirichlet data")

    space = sol.space
    partition = sol.partition
    q = sol.degree
    N = partition.n_slabs
    csq = float(problem.c) ** 2  # ProblemData checked that c > 0 and c^2 is finite
    M = assemble(space, "mass")

    lengths = partition.lengths
    # the top Legendre coefficients: row q of trial_to_legendre(q) is e_q / 2
    v_top = 0.5 * sol.v[:, q]
    u_top = 0.5 * sol.u[:, q]
    # one sparse product for all slabs; the stacked dot products keep each
    # slab's BLAS dot, which a C-ordered right operand needs
    Mv = np.ascontiguousarray((M @ v_top.T).T)
    vMv = (v_top[:, None] @ Mv[..., None]).ravel()
    v_defect = np.sqrt(np.maximum(lengths / (2 * q + 1) * vMv, 0.0))
    gap = sup_legendre_integral(q, lengths) * np.sqrt(np.maximum(vMv, 0.0))
    m = int(np.argmax(gap))
    wgt = abs_legendre_integral(q, lengths)
    lap_u = BrokenField(space, u_top).l2_norm() * wgt
    lap_v = BrokenField(space, v_top).l2_norm() * wgt

    f_defect = np.zeros(N) if problem.f is None else \
        _source_defects(sol, problem.f, problem.singular_at_zero)

    cpi = best_approx_constant(q - 1)
    term_post = float(np.max(np.sqrt(gap_constant(q) * lengths) * v_defect))
    tau_m, pre = float(lengths[m]), lengths[:m]
    # the summation weight of slab n < m: t_{m+1} - t_n for q = 1
    weight = partition.nodes[m + 1] - partition.nodes[:m] if q == 1 \
        else best_approx_constant(q - 2) * pre / 2.0

    osc_f = 2.0 * tau_m * f_defect[m] + np.sum(2.0 * cpi * pre * f_defect[:m])
    # the peak-slab Laplacian-of-v term carries tau_m squared: one factor from
    # the L1 gap bound between the reconstruction and u, one from the weight
    term_lap_v = 2.0 * csq * tau_m ** 2 * lap_v[m] \
        + np.sum(2.0 * csq * weight * pre * lap_v[:m])
    term_lap_u = 2.0 * csq * tau_m * lap_u[m] + np.sum(2.0 * csq * cpi * pre * lap_u[:m])

    eta = term_post + term_lap_v + term_lap_u
    return EstimatorBreakdown(
        m_star=m, term_post=term_post, term_lap_v=term_lap_v, term_lap_u=term_lap_u,
        eta=eta, osc_f=osc_f, total=eta + osc_f,
        per_slab={"gap": gap, "v_defect": v_defect, "f_defect": f_defect,
                  "lap_u": lap_u, "lap_v": lap_v})


def effectivity_index(eta, error):
    """Ratio of the estimator to the measured error; NaN flags a zero error."""
    if error <= 0.0:
        return float("nan")
    return float(eta) / float(error)
