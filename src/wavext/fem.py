"""Lagrange finite element spaces on structured triangulations.

Degrees of freedom sit on the principal lattice of each cell.  For the
structured meshes built by :mod:`wavext.mesh` every lattice node lands on a
global fine grid with (nx*p + 1) x (ny*p + 1) points, so DOF identification
across cells is pure integer arithmetic.
"""

import math
from types import MappingProxyType

import numpy as np
from scipy import sparse

from . import reference
from .errors import check_integer
from .linalg import Factorization, compressed

#: Largest polynomial degree of a Lagrange space.
MAX_SPATIAL_DEGREE = 10


def norm_degree(p):
    """Quadrature degree used for the norms, projections and load vectors
    of a degree-p space."""
    return max(2 * p + 2, 6)


class LagrangeSpace:
    """Continuous degree-p Lagrange space on a structured mesh."""

    def __init__(self, mesh, degree):
        self.mesh = mesh
        self.degree = check_integer("spatial degree p", degree, 1, MAX_SPATIAL_DEGREE)

        p = self.degree
        nx, ny = mesh.nx, mesh.ny
        x_min, x_max, y_min, y_max = mesh.bbox
        ndx, ndy = nx * p, ny * p
        gx = np.linspace(x_min, x_max, ndx + 1)
        gy = np.linspace(y_min, y_max, ndy + 1)
        GX, GY = np.meshgrid(gx, gy)
        self.dof_coords = np.column_stack([GX.ravel(), GY.ravel()])
        self.n_dofs = (ndx + 1) * (ndy + 1)

        # cell -> global DOF map through integer lattice coordinates
        multi = reference.lattice_multi_indices(p)
        vx = np.rint((mesh.vertices[:, 0] - x_min) / (x_max - x_min) * nx).astype(np.int64)
        vy = np.rint((mesh.vertices[:, 1] - y_min) / (y_max - y_min) * ny).astype(np.int64)
        ax = (vx[mesh.cells] * p)  # fine-grid coords of cell vertices, (nc, 3)
        ay = (vy[mesh.cells] * p)
        ga = ax @ multi.T // p  # exact: multi rows sum to p
        gb = ay @ multi.T // p
        self.cell_dofs = (gb * (ndx + 1) + ga).astype(np.int64)

        on_b = (GX.ravel() == gx[0]) | (GX.ravel() == gx[-1]) | \
               (GY.ravel() == gy[0]) | (GY.ravel() == gy[-1])
        self.boundary_dofs = np.flatnonzero(on_b)
        self.interior_dofs = np.flatnonzero(~on_b)

        # affine geometry, one entry per cell
        pts = mesh.vertices[mesh.cells]
        jac = np.empty((mesh.n_cells, 2, 2))
        jac[:, :, 0] = pts[:, 1] - pts[:, 0]
        jac[:, :, 1] = pts[:, 2] - pts[:, 0]
        self.detjac = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        self.jacinv = np.empty_like(jac)
        self.jacinv[:, 0, 0] = jac[:, 1, 1] / self.detjac
        self.jacinv[:, 1, 1] = jac[:, 0, 0] / self.detjac
        self.jacinv[:, 0, 1] = -jac[:, 0, 1] / self.detjac
        self.jacinv[:, 1, 0] = -jac[:, 1, 0] / self.detjac
        # G = J^-1 J^-T per cell, (nc, 2, 2): grad phi_i . grad phi_j = gref_i . G gref_j
        self.metric = np.einsum("cka,cma->ckm", self.jacinv, self.jacinv)
        # the norm-degree rule behind every norm, load and source defect, and
        # behind the stiffness of a callable wavespeed
        rs, w = reference.triangle_rule(norm_degree(p))
        val, gref, href = reference.tabulate(p, rs, order=2)
        rule = {"pts": pts[:, 0, None] + np.einsum("ckm,qm->cqk", jac, rs),
                "wdet": np.outer(self.detjac, w), "val": val, "gref": gref, "href": href}
        for array in (self.metric, *rule.values()):
            array.flags.writeable = False
        self.rule = MappingProxyType(rule)
        # what the space makes on first use and serves to every caller,
        # keyed by (function name, *arguments) with callables by identity
        self.memo = {}

    @property
    def n_local(self):
        p = self.degree
        return (p + 1) * (p + 2) // 2


def build_space(mesh, p):
    """Degree-p Lagrange space with DOFs shared across cell interfaces."""
    return LagrangeSpace(mesh, p)


def _wavespeed_sq(c, pts):
    """c^2 at the points pts (..., 2) for a positive callable or scalar c
    whose square is finite."""
    c = np.broadcast_to(c(pts[..., 0], pts[..., 1]), pts.shape[:-1]) if callable(c) \
        else np.float64(float(c))
    with np.errstate(over="ignore"):  # an overflowing square is rejected below
        csq = c ** 2
    if not np.all((c > 0) & (csq < np.inf)):
        raise ValueError("wavespeed coefficient must be positive and finite")
    return csq


def local_matrices(space, kind, coefficient=1.0):
    """Per-cell element matrices (nc, nloc, nloc): exact for the mass and a constant
    wavespeed, on ``space.rule`` (like the Ritz load) for a callable one."""
    p = space.degree
    if kind == "mass":
        rs, w = reference.triangle_rule(2 * p)
        val = reference.tabulate(p, rs, order=0)[0]
        return space.detjac[:, None, None] * np.einsum("q,qi,qj->ij", w, val, val)
    if kind == "stiffness":
        if callable(coefficient):
            g, pts, wdet = space.rule["gref"], space.rule["pts"], space.rule["wdet"]
        else:
            rs, w = reference.triangle_rule(2 * p - 2)
            g, pts, wdet = reference.tabulate(p, rs)[1], None, np.outer(space.detjac, w)
        w = _wavespeed_sq(coefficient, pts) * wdet
        # sum_q,m,n w_cq G_c,mn gref_qim gref_qjn for i <= j; G is symmetric, so m <= n suffice
        G, n = space.metric, space.n_local
        i, j = np.triu_indices(n)
        outer = lambda k, m: g[:, i, k] * g[:, j, m]
        geo = np.stack([w * G[:, k, m, None] for k, m in ((0, 0), (0, 1), (1, 1))], axis=-1)
        ref = np.stack([outer(0, 0), outer(0, 1) + outer(1, 0), outer(1, 1)], axis=1)
        loc = np.empty((len(w), n, n))
        loc[:, i, j] = loc[:, j, i] = geo.reshape(len(w), -1) @ ref.reshape(-1, len(i))
        return loc
    raise ValueError(f"unknown operator kind {kind!r}")


def _read_only(A):
    """A sparse matrix whose arrays reject writes."""
    for array in (A.data, A.indices, A.indptr):
        array.flags.writeable = False
    return A


def assemble(space, kind, coefficient=1.0):
    """The global mass or (wavespeed-weighted) stiffness matrix of a space.

    The space owns its operators: each (kind, coefficient) is assembled
    once and the same matrix is returned to every caller, read-only (its
    arrays reject writes).  A callable coefficient is keyed by identity.

    Parameters
    ----------
    kind : "mass" for (phi_i, phi_j) or "stiffness" for (c^2 grad phi_i, grad phi_j).
    coefficient : wavespeed c(x, y) as a positive callable or scalar
        (stiffness only; the weight used is c squared).
    """
    key = ("assemble", kind, coefficient)
    if key not in space.memo:
        loc = local_matrices(space, kind, coefficient)
        rows = np.repeat(space.cell_dofs, space.n_local, axis=1).ravel()
        cols = np.tile(space.cell_dofs, (1, space.n_local)).ravel()
        A = sparse.coo_matrix((loc.ravel(), (rows, cols)),
                              shape=(space.n_dofs, space.n_dofs)).tocsr()
        A.sum_duplicates()
        A.sort_indices()
        space.memo[key] = _read_only(A)
    return space.memo[key]


def interior_block(space, kind, coefficient=1.0):
    """The interior-interior block of ``assemble(space, kind, coefficient)``,
    memoized on the space like it and read-only like it."""
    key, I = ("interior_block", kind, coefficient), space.interior_dofs
    if key not in space.memo:
        space.memo[key] = _read_only(compressed(assemble(space, kind, coefficient)[np.ix_(I, I)]))
    return space.memo[key]


def interior_factorization(space, kind, coefficient=1.0):
    """The Factorization of ``interior_block(space, kind, coefficient)``, made
    on the first call only and memoized like it: every interior solve (the
    initial data's projections, the C solve of each slab) runs on it."""
    key = ("interior_factorization", kind, coefficient)
    if key not in space.memo:
        space.memo[key] = Factorization(interior_block(space, kind, coefficient))
    return space.memo[key]


def load_vector(space, g):
    """Moment vector (g, phi_i) for a spatial callback g(x, y).

    Callback values with a leading axis of nt times, shape (nt, nc, nq),
    give the nt moment vectors at once, shape (nt, n_dofs).
    """
    qd = space.rule
    gw = g(qd["pts"][..., 0], qd["pts"][..., 1]) * qd["wdet"]
    loc = np.einsum("...cq,qi->...ci", gw, qd["val"])
    lead = loc.shape[:-2]
    # one bincount over all times: time k owns the bins k*n_dofs ... and
    # each bin sums its entries in the order of a single-time bincount
    idx = space.cell_dofs.ravel() + space.n_dofs * np.arange(math.prod(lead))[:, None]
    return np.bincount(idx.ravel(), weights=loc.ravel(),
                       minlength=idx.shape[0] * space.n_dofs).reshape(*lead, space.n_dofs)


def interpolate_nodal(space, f):
    """Lagrange interpolant: its coefficients, f sampled at the DOF nodes."""
    x, y = space.dof_coords[:, 0], space.dof_coords[:, 1]
    return np.broadcast_to(f(x, y), (space.n_dofs,)).astype(float)


def _gradient_load(space, grad_f, c):
    """Moments (c^2 grad f, grad phi_i): as grad phi_i = J^-T gref_i, c^2 grad f
    is pulled back by J^-1 and contracted with gref in one BLAS product."""
    qd = space.rule
    w, Ji = qd["wdet"] * _wavespeed_sq(c, qd["pts"]), space.jacinv
    gx, gy = grad_f(qd["pts"][..., 0], qd["pts"][..., 1])
    pulled = np.stack([w * (Ji[:, m, 0, None] * gx + Ji[:, m, 1, None] * gy) for m in (0, 1)], -1)
    loc = pulled.reshape(len(w), -1) @ qd["gref"].transpose(0, 2, 1).reshape(-1, space.n_local)
    return np.bincount(space.cell_dofs.ravel(), weights=loc.ravel(), minlength=space.n_dofs)


def ritz_project(space, f, grad_f, c=1.0):
    """Stiffness-orthogonal projection with nodally interpolated boundary values.

    Boundary coefficients are f at the boundary nodes; interior coefficients
    solve (c^2 grad R f, grad z) = (c^2 grad f, grad z) for all interior z,
    which requires the gradient callback grad_f(x, y) -> (df/dx, df/dy).

    The space keeps each projection, keyed by (f, grad_f, c) with callables
    keyed by identity, and every caller gets the same read-only coefficients.
    """
    if grad_f is None:
        raise ValueError("ritz_project needs a gradient callback for the right-hand side")
    key = ("ritz_project", f, grad_f, c)
    if key not in space.memo:
        K = assemble(space, "stiffness", c)
        rhs = _gradient_load(space, grad_f, c)

        I, B = space.interior_dofs, space.boundary_dofs
        out = np.zeros(space.n_dofs)
        xb, yb = space.dof_coords[B, 0], space.dof_coords[B, 1]
        out[B] = np.broadcast_to(f(xb, yb), B.shape)
        rhs_I = rhs[I] - K[np.ix_(I, B)] @ out[B]
        out[I] = interior_factorization(space, "stiffness", c).solve(rhs_I)
        out.flags.writeable = False
        space.memo[key] = out
    return space.memo[key]


# ---------------------------------------------------------------------------
# broken (elementwise) Laplacian


class BrokenField:
    """Per-cell polynomial field Delta(u|_K) of a coefficient vector, or of
    each vector of a stack (S, n_dofs)."""

    def __init__(self, space, values):
        self.space, self.values = space, values

    def l2_norm(self):
        """The L2 norm: a float, or the S norms of a stack."""
        space = self.space
        qd, G = space.rule, space.metric
        coeffs = self.values[..., space.cell_dofs]
        # Delta = sum_km G_km d_k d_m, G = J^-1 J^-T: both symmetric, so 3 products
        vals = sum(f * G[:, k, m, None] * (coeffs @ np.ascontiguousarray(qd["href"][..., k, m]).T)
                   for k, m, f in ((0, 0, 1.0), (0, 1, 2.0), (1, 1, 1.0)))
        norms = np.sqrt(np.sum(qd["wdet"] * vals ** 2, axis=(-2, -1)))
        return float(norms) if norms.ndim == 0 else norms


# ---------------------------------------------------------------------------
# norms


def spatial_norm(space, kind, fe=None, exact=None, exact_grad=None, c=1.0, times=None):
    """L2 norm or weighted H1 seminorm of (exact - fe) over the domain.

    Parameters
    ----------
    kind : "l2" or "h1c" (the latter is sqrt(int c^2 |grad .|^2)).
    fe : coefficient vector (n_dofs,), a stack (S, n_dofs) of S coefficient
        vectors, or None; with ``times``, coefficient rows (..., R, n_dofs).
        A last axis of any other length raises ValueError.
    exact : callback exact(x, y), or None; the norm is of the difference.
        Its values may carry leading axes, (..., S, nc, nq), that broadcast
        against the samples of fe.
    exact_grad : callback (x, y) -> (dx, dy), required for "h1c" with exact.
    times : a temporal table (S, R), or None.  Sample s of fe is then
        sum_r times[s, r] fe[..., r, :], the trial expansion of the rows
        at S sample times: each row meets the spatial tables once, and
        the table is applied to the products, giving (..., S) norms.

    Returns a float, or the norms over the sample axes of fe and of the
    callback values.
    """
    qd = space.rule
    X, Y = qd["pts"][..., 0], qd["pts"][..., 1]
    if kind == "l2":
        w = qd["wdet"]
        targets = [None if exact is None else exact(X, Y)]
    elif kind == "h1c":
        if exact is not None and exact_grad is None:
            raise ValueError("h1c norm against a callback needs exact_grad")
        w = qd["wdet"] * _wavespeed_sq(c, qd["pts"])
        targets = [None, None] if exact is None else list(exact_grad(X, Y))
    else:
        raise ValueError(f"unknown norm kind {kind!r}")
    coeffs = np.zeros(space.n_dofs) if fe is None else np.asarray(fe, dtype=float)
    if coeffs.shape[-1:] != (space.n_dofs,):
        raise ValueError(f"coefficients of shape {coeffs.shape} for a space of "
                         f"{space.n_dofs} DOFs")
    cells = coeffs[..., space.cell_dofs]
    at = lambda table: cells @ np.ascontiguousarray(table).T  # BLAS, one product per row
    # d_k u = sum_m jacinv[c, m, k] R_m, R_m the reference derivatives; rows
    # under a temporal table are few, so both k reuse their R_m
    J = space.jacinv
    ref = None if kind == "l2" or times is None else [at(qd["gref"][..., m]) for m in (0, 1)]
    sq = None
    for k in range(len(targets)):
        target, targets[k] = targets[k], None  # hold one callback value at a time
        if kind == "l2":
            diff = at(qd["val"])
        else:
            r0, r1 = ref or (at(qd["gref"][..., m]) for m in (0, 1))
            diff = np.multiply(r0, J[:, 0, k, None], out=None if ref else r0)
            diff += np.multiply(r1, J[:, 1, k, None], out=None if ref else r1)
            del r0, r1
        if times is not None:
            *lead, rows, nc, nq = diff.shape
            diff = (times @ diff.reshape(*lead, rows, nc * nq)).reshape(*lead, -1, nc, nq)
        if target is not None:
            diff = np.subtract(target, diff, out=diff if diff.ndim >= np.ndim(target) else None)
        np.square(diff, out=diff)
        sq = diff if sq is None else np.add(sq, diff, out=sq)
    sq *= w
    norms = np.sqrt(np.sum(sq, axis=(-2, -1)))
    return float(norms) if norms.ndim == 0 else norms
