"""Temporal polynomial machinery on a partition of (0, T).

Per slab (t_{n-1}, t_n) two bases appear:

* the test basis: Legendre polynomials L_0..L_{q-1} shifted to the slab and
  normalized so that L_s(t_n) = 1, hence L_s(t_{n-1}) = (-1)^s and
  int L_i L_j dt = delta_ij * tau_n / (2i + 1);
* the trial basis: sigma_0 = 1 and, for j >= 1, the scaled antiderivatives
  sigma_j(t) = (2j - 1)/tau_n * int_{t_{n-1}}^t L_{j-1} ds, which vanish at
  the left endpoint so slab-to-slab continuity pins a single coefficient.

In the normalized coordinate x = 2(t - t_{n-1})/tau_n - 1 the trial basis is
slab-independent: sigma_1 = (x + 1)/2 and sigma_j = (P_j - P_{j-2})/2 for
j >= 2. A handy consequence: the time derivative of a trial expansion has
Legendre coefficient k equal to (2k + 1)/tau_n times trial coefficient k+1.
The slab coupling matrices are therefore closed forms, with no quadrature:
int sigma_j' L_i dt = delta_{i+1,j}, that is D = [0 | I], and
int sigma_j L_i dt = tau_n/(2i + 1) T[i,j] with T = trial_to_legendre(q).

Vector-valued callbacks are supported throughout: a time callback may return
shape (nt,) or (nt, n_channels), and projections preserve the channel axis.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as npleg


@dataclass(frozen=True)
class TimePartition:
    """Strictly increasing time nodes t_0 = 0 < t_1 < ... < t_N = T."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or len(nodes) < 2:
            raise ValueError("a time partition needs at least two nodes")
        if nodes[0] != 0.0:
            raise ValueError("time partitions start at t = 0")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("time nodes must be strictly increasing")

    @property
    def n_slabs(self):
        return len(self.nodes) - 1

    @property
    def lengths(self):
        return np.diff(self.nodes)

    def slab(self, n):
        return float(self.nodes[n]), float(self.nodes[n + 1])


def uniform_time_partition(t_final, n_slabs):
    return TimePartition(np.linspace(0.0, float(t_final), int(n_slabs) + 1))


def to_normalized(slab, t):
    a, b = slab
    return 2.0 * (np.asarray(t, dtype=float) - a) / (b - a) - 1.0


def legendre_matrix(deg, x):
    """Values of P_0..P_deg at normalized coords x, shape (deg+1,) + x.shape."""
    x = np.asarray(x, dtype=float)
    out = np.empty((deg + 1,) + x.shape)
    for s in range(deg + 1):
        c = np.zeros(s + 1)
        c[s] = 1.0
        out[s] = npleg.legval(x, c)
    return out


def trial_matrix(q, x):
    """Values of the trial basis sigma_0..sigma_q at normalized coords x."""
    x = np.asarray(x, dtype=float)
    out = np.zeros((q + 1,) + x.shape)
    out[0] = 1.0
    if q >= 1:
        out[1] = 0.5 * (x + 1.0)
    if q >= 2:
        P = legendre_matrix(q, x)
        for j in range(2, q + 1):
            out[j] = 0.5 * (P[j] - P[j - 2])
    return out


@lru_cache(maxsize=None)
def trial_to_legendre(q):
    """Matrix T with (Legendre coeffs) = T @ (trial coeffs); slab-independent."""
    T = np.zeros((q + 1, q + 1))
    T[0, 0] = 1.0
    if q >= 1:
        T[0, 1] = 0.5
        T[1, 1] = 0.5
    for j in range(2, q + 1):
        T[j, j] = 0.5
        T[j - 2, j] = -0.5
    return T


def legendre_to_trial(coeffs):
    """Invert trial_to_legendre along the leading (mode) axis."""
    coeffs = np.asarray(coeffs, dtype=float)
    q = coeffs.shape[0] - 1
    flat = coeffs.reshape(q + 1, -1)
    return np.linalg.solve(trial_to_legendre(q), flat).reshape(coeffs.shape)


@lru_cache(maxsize=None)
def _reference_rule(npts):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only, one per npts."""
    x, w = npleg.leggauss(npts)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_rule(npts, slab):
    """Gauss-Legendre nodes and weights on a slab; exact to degree 2*npts - 1."""
    if not 1 <= npts <= 30:
        raise ValueError(f"gauss_rule supports 1..30 points, got {npts}")
    a, b = slab
    x, w = _reference_rule(int(npts))
    return a + (x + 1.0) * (b - a) / 2.0, w * (b - a) / 2.0


def graded_gauss_rule(npts, slab):
    """Composite Gauss rule on 11 panels graded geometrically (ratio 0.15)
    toward the left endpoint.

    For data with an algebraic singularity at the left end of the slab, where
    a single Gauss rule loses accuracy.
    """
    a, b = slab
    cuts = [a] + [a + (b - a) * 0.15 ** k for k in range(10, 0, -1)] + [b]
    ts, ws = [], []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        t, w = gauss_rule(npts, (lo, hi))
        ts.append(t)
        ws.append(w)
    return np.concatenate(ts), np.concatenate(ws)


def l2_project_time(r, f, slab, npts):
    """Legendre coefficients of the slabwise L2 projection onto degree r.

    Coefficient k is (2k+1)/tau * int f L_k dt, by an npts-point Gauss rule.
    """
    a, b = slab
    tau = b - a
    ts, ws = gauss_rule(npts, slab)
    fv = np.asarray(f(ts), dtype=float)
    P = legendre_matrix(r, to_normalized(slab, ts))
    moments = np.tensordot(P * ws, fv, axes=(1, 0))
    scale = (2.0 * np.arange(r + 1) + 1.0) / tau
    return moments * scale.reshape((r + 1,) + (1,) * (fv.ndim - 1))


@dataclass
class SlabPoly:
    """Piecewise polynomial in time stored as per-slab Legendre coefficients.

    coeffs has shape (n_slabs, deg+1) or (n_slabs, deg+1, n_channels).
    """

    partition: TimePartition
    coeffs: np.ndarray

    def trial_coeffs(self, n):
        """Slab-n coefficients in the trial (integrated Legendre) basis."""
        return legendre_to_trial(self.coeffs[n])


def endpoint_exact_project(q, f, partition):
    """Continuous piecewise degree-q projection matching f at every partition
    node, with slabwise defect L2-orthogonal to polynomials of degree q - 2.

    On each slab the result is the degree-(q-2) L2 projection of f plus
    explicit corrections along L_{q-1} and L_q fixed by the two endpoint
    conditions; for q = 1 it reduces to nodal interpolation.
    """
    if q < 1:
        raise ValueError("temporal degree must be >= 1")
    probe = np.asarray(f(np.asarray([partition.nodes[0]])), dtype=float)
    channels = probe.shape[1:]
    coeffs = np.zeros((partition.n_slabs, q + 1) + channels)
    sgn = (-1.0) ** q
    signs = (-1.0) ** np.arange(q + 1)
    for n in range(partition.n_slabs):
        slab = partition.slab(n)
        low = np.zeros((q + 1,) + channels)
        if q >= 2:
            low[: q - 1] = l2_project_time(q - 2, f, slab, npts=q + 6)
        f_left = np.asarray(f(np.asarray([slab[0]])), dtype=float)[0]
        f_right = np.asarray(f(np.asarray([slab[1]])), dtype=float)[0]
        delta_left = f_left - np.tensordot(signs, low, axes=(0, 0))
        delta_right = f_right - low.sum(axis=0)
        alpha = (sgn * delta_right - delta_left) / (2.0 * sgn)
        beta = (sgn * delta_right + delta_left) / (2.0 * sgn)
        coeffs[n] = low
        coeffs[n, q - 1] += alpha
        coeffs[n, q] += beta
    return SlabPoly(partition, coeffs)


def lagrange_time_interp(q, f, partition):
    """Slabwise interpolation of f at q+1 uniformly spaced nodes (endpoints
    included), expressed as per-slab Legendre coefficients."""
    if q < 1:
        raise ValueError("temporal degree must be >= 1")
    xs = np.linspace(-1.0, 1.0, q + 1)
    Vinv = np.linalg.inv(legendre_matrix(q, xs).T)
    probe = np.asarray(f(np.asarray([partition.nodes[0]])), dtype=float)
    coeffs = np.zeros((partition.n_slabs, q + 1) + probe.shape[1:])
    for n in range(partition.n_slabs):
        a, b = partition.slab(n)
        fv = np.asarray(f(a + (xs + 1.0) * (b - a) / 2.0), dtype=float)
        coeffs[n] = np.tensordot(Vinv, fv, axes=(1, 0))
    return SlabPoly(partition, coeffs)


def slab_temporal_matrices(q, slab):
    """N[i,j] = int sigma_j L_i dt (i < q, j <= q) in closed form, see the
    module docstring; the solver applies D = [0 | I] as a row selection."""
    if q < 1:
        raise ValueError("temporal degree must be >= 1")
    a, b = slab
    return ((b - a) / (2.0 * np.arange(q) + 1.0))[:, None] * trial_to_legendre(q)[:q]


@lru_cache(maxsize=None)
def temporal_eigensplit(q):
    """Eigen-split of the slab's reduced temporal operator Nq^2, Nq = N[:, 1:].

    Nq scales with the slab length, Nq(tau) = tau Nq(1), so
    Nq(tau)^2 = S diag(tau^2 lam) S^{-1} with S independent of tau.  The
    eigenvalues of the real matrix Nq(1) come in conjugate pairs plus, at odd
    q, one real one; only one member of each pair is kept.  Returns
    (lam, S, Sinv, pairs): lam (m,) the kept eigenvalues of Nq(1)^2, S (q, m)
    their eigenvectors, Sinv (m, q) the matching left eigenvectors, scaled
    so that x = Re(S @ (Sinv @ x)) for real x, and pairs (m,) true where the
    kept mode stands for a conjugate pair.  A solve along each such mode
    thereby stands for its conjugate mode too; the other modes are real.
    """
    N = slab_temporal_matrices(q, (0.0, 1.0))
    nu, vecs = np.linalg.eig(N[:, 1:])
    # LAPACK returns real eigenvalues with an imaginary part of exactly zero
    keep = nu.imag >= 0
    S = vecs[:, keep]
    pairs = nu[keep].imag > 0
    # Sinv from the coordinates (c, d) in the real basis [Re s_k, Im s_k]:
    # x = Re(sum_k s_k z_k) with z_k = c_k - i d_k.  Inverting this real
    # basis keeps Re(S @ Sinv) = I to 1e-13 at q = 8, where the rows of the
    # inverted complex eigenvector matrix leave errors of 1e-10.
    m = S.shape[1]
    Tinv = np.linalg.inv(np.concatenate([S.real, S.imag[:, pairs]], axis=1))
    Sinv = Tinv[:m].astype(complex)
    Sinv[pairs] -= 1j * Tinv[m:]
    return nu[keep] ** 2, S, Sinv, pairs


@lru_cache(maxsize=None)
def _abs_legendre_reference(q):
    """int_{-1}^{1} |P_q(x)| dx for q >= 1: the antiderivative
    (P_{q+1} - P_{q-1}) / (2q + 1) summed signwise between the roots of P_q."""
    x = np.concatenate([[-1.0], np.sort(_reference_rule(q)[0]), [1.0]])
    F = (npleg.legval(x, np.eye(q + 2)[q + 1]) - npleg.legval(x, np.eye(q)[q - 1])) / (2 * q + 1)
    return sum(np.abs(np.diff(F)))


def abs_legendre_integral(q, tau):
    """Exact int over a slab of |L_q(t)| dt."""
    return float(tau) if q == 0 else float(_abs_legendre_reference(q) * tau / 2.0)
