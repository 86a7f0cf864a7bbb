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

Every other temporal map is likewise one cached, read-only reference matrix
per degree: a Gauss rule's Legendre table, and each Dirichlet lifting, which
samples a callback (shape (nt,) or (nt, n_channels)) at all slabs' nodes in
one call and takes the samples straight to trial coefficients.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as npleg


#: Point values (callback values at space-time points) that a blocked
#: evaluation over several slabs holds in one array: 2^13 floats, 64 KB.
BLOCK_VALUES = 2 ** 13


@dataclass(frozen=True)
class TimePartition:
    """Strictly increasing time nodes 0 = t_0 < ... < t_N = T and their slab lengths, read-only."""

    nodes: np.ndarray
    lengths: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float)  # a copy: lengths stay its differences
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or len(nodes) < 2:
            raise ValueError("a time partition needs at least two nodes")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("time nodes must be finite")
        if nodes[0] != 0.0:
            raise ValueError("time partitions start at t = 0")
        lengths = np.diff(nodes)
        if np.any(lengths <= 0):
            raise ValueError("time nodes must be strictly increasing")
        nodes.flags.writeable = lengths.flags.writeable = False
        object.__setattr__(self, "lengths", lengths)

    @property
    def n_slabs(self):
        return len(self.nodes) - 1

    def blocks(self, values_per_slab, first_alone=False):
        """Consecutive ranges of slabs, as many per range as keep an
        evaluation of values_per_slab point values per slab within
        BLOCK_VALUES, and never less than one; with first_alone, slab 0
        (which a graded rule fills with more points) is a range of its own."""
        first = int(first_alone)
        size = max(1, BLOCK_VALUES // values_per_slab)
        return [range(0, 1)] * first + [range(a, min(a + size, self.n_slabs))
                                        for a in range(first, self.n_slabs, size)]


def uniform_time_partition(t_final, n_slabs):
    return TimePartition(np.linspace(0.0, float(t_final), int(n_slabs) + 1))


def legendre_matrix(deg, x):
    """Values of P_0..P_deg at normalized coords x, shape (deg+1,) + x.shape;
    empty for deg < 0."""
    x = np.asarray(x, dtype=float)
    if deg < 0:
        return np.empty((0,) + x.shape)
    return npleg.legval(x, np.eye(deg + 1))


def trial_matrix(q, x):
    """Values of the trial basis sigma_0..sigma_q at normalized coords x:
    sigma_j = sum_k T[k, j] P_k with T = trial_to_legendre(q)."""
    return np.tensordot(trial_to_legendre(q).T, legendre_matrix(q, x), axes=1)


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


@lru_cache(maxsize=None)
def _reference_rule(npts):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only, one per npts."""
    x, w = npleg.leggauss(npts)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@lru_cache(maxsize=None)
def _graded_rule(npts):
    """The npts-point rule on 11 panels of [-1, 1] graded geometrically
    (ratio 0.15) toward -1, read-only, one per npts."""
    x, w = _reference_rule(npts)
    cuts = np.concatenate([[-1.0], -1.0 + 2.0 * 0.15 ** np.arange(10, 0, -1), [1.0]])
    half = (np.diff(cuts) / 2.0)[:, None]
    xs, ws = (cuts[:-1, None] + (x + 1.0) * half).ravel(), (w * half).ravel()
    xs.flags.writeable = ws.flags.writeable = False
    return xs, ws


def gauss_rule(npts, slab, graded=False):
    """Gauss-Legendre nodes and weights on a slab (a, b), exact to degree
    2*npts - 1; graded=True composes the rule over 11 panels graded toward
    the left endpoint, for data with an algebraic singularity there.  For a
    block of slabs, a and b are columns (B, 1) of slab ends and the nodes and
    weights come back as (B, nt), one row per slab."""
    if not 1 <= npts <= 30:
        raise ValueError(f"gauss_rule supports 1..30 points, got {npts}")
    a, b = slab
    x, w = (_graded_rule if graded else _reference_rule)(int(npts))
    return a + (x + 1.0) * (b - a) / 2.0, w * (b - a) / 2.0


@lru_cache(maxsize=None)
def legendre_table(deg, npts, graded):
    """P_0..P_deg at the nodes of gauss_rule(npts, slab, graded), the same on
    every slab; read-only."""
    P = legendre_matrix(deg, (_graded_rule if graded else _reference_rule)(npts)[0])
    P.flags.writeable = False
    return P


@lru_cache(maxsize=None)
def _endpoint_exact_map(q):
    """(x_ref, E): the nodes -1, the q+6 Gauss nodes and 1, and the matrix
    taking samples there to the trial coefficients of
    :func:`endpoint_exact_project`; read-only."""
    if q < 1:
        raise ValueError("temporal degree must be >= 1")
    x, w = _reference_rule(q + 6)
    x_ref = np.concatenate([[-1.0], x, [1.0]])
    # Legendre coefficients, one column per sample: the degree-(q-2) L2
    # projection (2k+1)/2 int f P_k dx from the Gauss samples, then
    # corrections along P_{q-1} and P_q fixed by the two endpoint defects
    leg = np.zeros((q + 1, len(x_ref)))
    leg[: q - 1, 1:-1] = (np.arange(q - 1) + 0.5)[:, None] * legendre_matrix(q - 2, x) * w
    delta_left = np.eye(len(x_ref))[0] - (-1.0) ** np.arange(q + 1) @ leg
    delta_right = np.eye(len(x_ref))[-1] - leg.sum(axis=0)
    sgn = (-1.0) ** q
    leg[q - 1] += (delta_right - sgn * delta_left) / 2.0
    leg[q] += (delta_right + sgn * delta_left) / 2.0
    E = np.linalg.solve(trial_to_legendre(q), leg)
    x_ref.flags.writeable = E.flags.writeable = False
    return x_ref, E


@lru_cache(maxsize=None)
def _lagrange_map(q):
    """(x_ref, E): q+1 uniform nodes and their interpolation matrix; read-only."""
    if q < 1:
        raise ValueError("temporal degree must be >= 1")
    x_ref = np.linspace(-1.0, 1.0, q + 1)
    E = np.linalg.inv(trial_matrix(q, x_ref).T)
    x_ref.flags.writeable = E.flags.writeable = False
    return x_ref, E


def _apply_map(x_ref, E, f, partition):
    """f sampled at every slab's nodes x_ref in one call, with the end nodes
    at the partition nodes exactly, and each slab's samples mapped by E."""
    a, b = partition.nodes[:-1, None], partition.nodes[1:, None]
    ts = a + (x_ref + 1.0) * (b - a) / 2.0
    ts[:, 0], ts[:, -1] = partition.nodes[:-1], partition.nodes[1:]
    fv = np.asarray(f(ts.ravel()), dtype=float)
    fv = fv.reshape(ts.shape + fv.shape[1:])
    return np.moveaxis(np.tensordot(E, fv, axes=(1, 1)), 0, 1)


def endpoint_exact_project(q, f, partition):
    """Continuous piecewise degree-q projection matching f at every partition
    node, with slabwise defect L2-orthogonal to polynomials of degree q - 2:
    on each slab the degree-(q-2) L2 projection of f plus corrections along
    L_{q-1} and L_q fixed by the two endpoint conditions (nodal interpolation
    at q = 1), as trial coefficients of shape (n_slabs, q+1) + channels."""
    return _apply_map(*_endpoint_exact_map(q), f, partition)


def lagrange_time_interp(q, f, partition):
    """Slabwise interpolation of f at q+1 uniformly spaced nodes (endpoints
    included), as trial coefficients of shape (n_slabs, q+1) + channels."""
    return _apply_map(*_lagrange_map(q), f, partition)


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
def _legendre_antiderivative_reference(q):
    """For q >= 1, int_{-1}^{1} |P_q| and the max over [-1, 1] of |F|, both from
    F = int_{-1}^x P_q = (P_{q+1} - P_{q-1}) / (2q + 1) at -1, the roots of
    P_q, where its extrema lie, and 1."""
    x = np.concatenate([[-1.0], np.sort(_reference_rule(q)[0]), [1.0]])
    P = legendre_matrix(q + 1, x)
    F = (P[q + 1] - P[q - 1]) / (2 * q + 1)
    return sum(np.abs(np.diff(F))), np.abs(F).max()


def abs_legendre_integral(q, tau):
    """Exact int over a slab of |L_q(t)| dt, per slab for an array of lengths."""
    return tau if q == 0 else _legendre_antiderivative_reference(q)[0] * tau / 2.0


def sup_legendre_integral(q, tau):
    """Exact max over a slab of |int_{t_{n-1}}^t L_q ds| for q >= 1, per slab."""
    return _legendre_antiderivative_reference(q)[1] * tau / 2.0
