"""Reference-triangle machinery: nodal basis tables and quadrature.

The reference cell is the unit triangle {(r, s): r, s >= 0, r + s <= 1}.
Nodal Lagrange bases on the principal lattice are evaluated through a
Bernstein backing basis, whose lattice collocation matrix stays well
conditioned up to degree 10.  Its tables come from index arithmetic on the
multi-indices alpha: B_alpha = (p!/alpha!) lam^alpha, and
dB_alpha/dlam_k = alpha_k (p!/alpha!) lam^(alpha - e_k) (Kirby 2011;
Ainsworth, Andriamaro and Davydov 2011), applied twice for the Hessians.
"""

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss


def lattice_multi_indices(p):
    """Barycentric integer triples (c1, c2, c3) with c1+c2+c3 = p.

    The ordering (by c3, then by c2, both ascending) fixes the local DOF
    numbering used everywhere else.
    """
    c3, c2 = np.nonzero(np.add.outer(np.arange(p + 1), np.arange(p + 1)) <= p)
    return np.column_stack([p - c2 - c3, c2, c3])


def lattice_points(p):
    """Principal lattice nodes in reference (r, s) coordinates."""
    multi = lattice_multi_indices(p)
    return multi[:, 1:].astype(float) / p


def _bernstein_tables(p, rs, order):
    """Bernstein values (and derivatives up to ``order``) at points ``rs``.

    Returns (vals, grads, hessians); entries beyond ``order`` are None.
    vals has shape (npts, nb); grads (npts, nb, 2); hessians (npts, nb, 2, 2).
    """
    rs = np.asarray(rs, dtype=float)
    lam = np.column_stack([1.0 - rs[:, 0] - rs[:, 1], rs[:, 0], rs[:, 1]])

    # lam powers 0..p, so that 0**0 == 1
    pw = np.ones((3, p + 1, len(rs)))
    for k in range(1, p + 1):
        pw[:, k] = pw[:, k - 1] * lam.T

    multi = lattice_multi_indices(p)
    fact = np.cumprod(np.arange(p + 1).clip(1))  # 0!, 1!, ..., p!
    coef = fact[p] / fact[multi].prod(axis=1)
    eye = np.eye(3, dtype=np.int64)

    def table(e, fac):
        """fac * prod_k lam_k**e_k over exponent triples e (..., 3), points
        first.  A negative exponent comes with fac == 0, so clipping it to 0
        keeps the term 0."""
        e = np.maximum(e, 0)
        out = np.take(pw[0].T, e[..., 0], axis=1)
        out *= np.take(pw[1].T, e[..., 1], axis=1)
        out *= np.take(pw[2].T, e[..., 2], axis=1)
        out *= fac
        return out

    vals = table(multi, coef)
    grads = hess = None
    if order >= 1:
        dlam = table(multi[:, None] - eye, coef[:, None] * multi)
        # chain rule: lam = (1-r-s, r, s)
        grads = np.stack([dlam[..., 1] - dlam[..., 0], dlam[..., 2] - dlam[..., 0]], axis=-1)
    if order >= 2:
        # alpha_k (alpha_m - delta_km) as integers first, so a zero is +0.0
        d2 = table(multi[:, None, None] - eye[:, None] - eye,
                   coef[:, None, None] * (multi[:, :, None] * (multi[:, None] - eye)))
        hess = np.empty(d2.shape[:2] + (2, 2))
        hess[:, :, 0, 0] = d2[:, :, 1, 1] - 2 * d2[:, :, 0, 1] + d2[:, :, 0, 0]
        hess[:, :, 1, 1] = d2[:, :, 2, 2] - 2 * d2[:, :, 0, 2] + d2[:, :, 0, 0]
        hess[:, :, 0, 1] = d2[:, :, 1, 2] - d2[:, :, 0, 1] - d2[:, :, 0, 2] + d2[:, :, 0, 0]
        hess[:, :, 1, 0] = hess[:, :, 0, 1]
    return vals, grads, hess


@lru_cache(maxsize=None)
def _nodal_transform(p):
    """Inverse of the Bernstein collocation matrix at the lattice nodes."""
    nodes = lattice_points(p)
    vals, _, _ = _bernstein_tables(p, nodes, order=0)
    A = np.linalg.inv(vals)
    A.flags.writeable = False
    return A


def tabulate(p, rs, order=1):
    """Nodal basis values/derivatives at reference points ``rs``.

    Returns (vals, grads, hessians): vals (npts, nloc); grads (npts, nloc, 2);
    hessians (npts, nloc, 2, 2) or None when ``order`` < 2.
    """
    rs = np.atleast_2d(np.asarray(rs, dtype=float))
    bvals, bgrads, bhess = _bernstein_tables(p, rs, order)
    A = _nodal_transform(p)
    vals = bvals @ A
    grads = np.einsum("pbk,bn->pnk", bgrads, A) if order >= 1 else None
    hess = np.einsum("pbkm,bn->pnkm", bhess, A) if order >= 2 else None
    return vals, grads, hess


@lru_cache(maxsize=None)
def triangle_rule(degree):
    """Quadrature on the reference triangle, exact for polynomials of
    total degree <= ``degree``.

    Built from a Gauss-Legendre product rule under the collapsed map
    r = xi*(1 - eta), s = eta; the (1 - eta) Jacobian raises the required
    eta-direction degree by one.
    """
    n_xi = (degree + 2) // 2
    n_eta = (degree + 3) // 2
    x1, w1 = leggauss(n_xi)
    x2, w2 = leggauss(n_eta)
    xi = (x1 + 1.0) / 2.0
    eta = (x2 + 1.0) / 2.0
    w1 = w1 / 2.0
    w2 = w2 / 2.0
    R = np.outer(xi, 1.0 - eta)
    S = np.broadcast_to(eta, R.shape)
    W = np.outer(w1, w2 * (1.0 - eta))
    pts, w = np.column_stack([R.ravel(), S.ravel()]), W.ravel()
    pts.flags.writeable = w.flags.writeable = False  # shared by every caller
    return pts, w
