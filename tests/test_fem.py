import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import wavext as wx
from conftest import evaluate
from wavext import reference
from wavext.fem import (BrokenField, _gradient_load, _wavespeed_sq, local_matrices,
                        norm_degree, spatial_norm)
from wavext.mesh import build_structured_mesh


def _cell_grad(space, qd):
    """Per-cell basis gradients (nc, nq, nloc, 2) from jacinv and the
    reference gradients."""
    return np.einsum("cmk,qim->cqik", space.jacinv, qd["gref"])


def _affine_map(space):
    """Each cell's origin (nc, 2) and Jacobian (nc, 2, 2), from its vertices."""
    pts = space.mesh.vertices[space.mesh.cells]
    return pts[:, 0], np.stack([pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0]], axis=-1)


def _reference_rule(space, degree):
    """The reference tables of the rule exact at a degree, with its physical
    points pts (nc, nq, 2) and weights wdet (nc, nq)."""
    rs, w = reference.triangle_rule(degree)
    val, gref, _ = reference.tabulate(space.degree, rs)
    origin, jac = _affine_map(space)
    return {"w": w, "val": val, "gref": gref, "wdet": np.outer(space.detjac, w),
            "pts": origin[:, None] + np.einsum("ckm,qm->cqk", jac, rs)}


def _evaluate_on_cell(space, values, cell, points):
    """The local polynomial of one cell at physical points (no containment
    check), by the cell's affine map."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    rs = np.einsum("km,pm->pk", space.jacinv[cell], pts - _affine_map(space)[0][cell])
    vals, _, _ = reference.tabulate(space.degree, rs, order=0)
    return vals @ values[space.cell_dofs[cell]]


def test_dof_counts():
    mesh1 = build_structured_mesh(1, 1)
    assert wx.build_space(mesh1, 1).n_dofs == 4
    assert wx.build_space(mesh1, 2).n_dofs == 9
    sp = wx.build_space(build_structured_mesh(8, 8), 3)
    assert len(sp.boundary_dofs) == 96
    assert len(sp.boundary_dofs) + len(sp.interior_dofs) == sp.n_dofs


def test_degree_out_of_range():
    mesh = build_structured_mesh(1, 1)
    with pytest.raises(ValueError):
        wx.build_space(mesh, 0)
    with pytest.raises(ValueError):
        wx.build_space(mesh, 11)


@pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
def test_nodal_basis_property(p):
    sp = wx.build_space(build_structured_mesh(2, 2), p)
    rng = np.random.default_rng(0)
    probe = rng.choice(sp.n_dofs, size=min(12, sp.n_dofs), replace=False)
    for i in probe:
        e = np.zeros(sp.n_dofs)
        e[i] = 1.0
        vals = evaluate(sp, e, sp.dof_coords[probe])
        expect = (probe == i).astype(float)
        assert np.abs(vals - expect).max() <= 1e-9


def test_mass_partition_of_unity():
    for p in (1, 3):
        sp = wx.build_space(build_structured_mesh(3, 3), p)
        M = wx.assemble(sp, "mass")
        assert M.sum() == pytest.approx(1.0, abs=1e-12)


def test_stiffness_constants_in_kernel():
    for p in (1, 2, 4):
        sp = wx.build_space(build_structured_mesh(3, 2), p)
        K = wx.assemble(sp, "stiffness", 1.0)
        assert np.abs(K @ np.ones(sp.n_dofs)).max() <= 1e-12


def test_p1_local_stiffness_hand_values():
    # cell 1 of the unit-square mesh is the right triangle with legs 1 and the
    # right angle at its third vertex; permuting it right-angle-first gives
    # the classical element matrix.
    sp = wx.build_space(build_structured_mesh(1, 1), 1)
    loc = local_matrices(sp, "stiffness", 1.0)[1]
    perm = [2, 0, 1]
    reordered = loc[np.ix_(perm, perm)]
    expect = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    assert np.abs(reordered - expect).max() <= 1e-14


def test_operator_symmetry_and_mass_positivity():
    sp = wx.build_space(build_structured_mesh(3, 3), 3)
    M = wx.assemble(sp, "mass")
    K = wx.assemble(sp, "stiffness", lambda x, y: 1.0 + 0.5 * x * y)
    for A in (M, K):
        diff = (A - A.T).tocoo()
        scale = np.abs(A.data).max()
        assert (np.abs(diff.data).max() if diff.nnz else 0.0) <= 1e-13 * scale
    rng = np.random.default_rng(1)
    for _ in range(5):
        z = rng.normal(size=sp.n_dofs)
        assert z @ (M @ z) > 0


def test_nonpositive_coefficient_rejected():
    sp = wx.build_space(build_structured_mesh(2, 2), 2)
    with pytest.raises(ValueError):
        wx.assemble(sp, "stiffness", lambda x, y: x - 0.5)
    with pytest.raises(ValueError):
        wx.assemble(sp, "stiffness", 0.0)


def test_interpolation_basics():
    sp = wx.build_space(build_structured_mesh(3, 3), 2)
    ones = wx.interpolate_nodal(sp, lambda x, y: np.ones_like(x))
    assert np.abs(ones - 1.0).max() == 0.0
    lin = wx.interpolate_nodal(sp, lambda x, y: x)
    pts = np.random.default_rng(2).uniform(0, 1, size=(20, 2))
    assert np.abs(evaluate(sp, lin, pts) - pts[:, 0]).max() <= 1e-13


def test_interpolation_convergence_rate_p2():
    f = lambda x, y: np.cos(np.pi * x) * np.sin(np.pi * y)
    errs = []
    for nx in (8, 16):
        sp = wx.build_space(build_structured_mesh(nx, nx), 2)
        errs.append(spatial_norm(sp, "l2", fe=wx.interpolate_nodal(sp, f), exact=f))
    rate = np.log2(errs[0] / errs[1])
    assert rate == pytest.approx(3.0, abs=0.2)


def test_ritz_reproduces_space_members():
    sp = wx.build_space(build_structured_mesh(2, 3), 2)
    target = wx.interpolate_nodal(sp, lambda x, y: x * y + 0.5 * x ** 2)
    r = wx.ritz_project(sp, lambda x, y: x * y + 0.5 * x ** 2,
                        lambda x, y: (y + x, x))
    assert np.abs(r - target).max() <= 1e-11


def test_ritz_reproduces_space_members_under_a_variable_wavespeed():
    # at p = 1 the stiffness of a callable c was once integrated at degree 4
    # and its load at degree 6, so the projection missed this linear f by 4.8e-7
    sp = wx.build_space(build_structured_mesh(4, 4), 1)
    f = lambda x, y: 1 + 2 * x - y
    r = wx.ritz_project(sp, f, lambda x, y: (np.full_like(x, 2.0), np.full_like(y, -1.0)),
                        lambda x, y: np.exp(x * y))
    assert np.abs(r - wx.interpolate_nodal(sp, f)).max() <= 1e-14


def test_ritz_zero_boundary_data():
    sp = wx.build_space(build_structured_mesh(3, 3), 2)
    f = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    gf = lambda x, y: (np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
                       np.pi * np.sin(np.pi * x) * np.cos(np.pi * y))
    r = wx.ritz_project(sp, f, gf)
    assert np.abs(r[sp.boundary_dofs]).max() <= 1e-13


def test_ritz_gradient_convergence_rate():
    f = lambda x, y: np.cos(np.pi * x) * np.sin(np.pi * y)
    gf = lambda x, y: (-np.pi * np.sin(np.pi * x) * np.sin(np.pi * y),
                       np.pi * np.cos(np.pi * x) * np.cos(np.pi * y))
    p = 2
    errs = []
    for nx in (4, 8):
        sp = wx.build_space(build_structured_mesh(nx, nx), p)
        r = wx.ritz_project(sp, f, gf)
        errs.append(spatial_norm(sp, "h1c", fe=r, exact=f, exact_grad=gf))
    assert np.log2(errs[0] / errs[1]) == pytest.approx(p, abs=0.3)


def test_ritz_orthogonality_residual():
    sp = wx.build_space(build_structured_mesh(3, 3), 3)
    f = lambda x, y: np.exp(x) * np.sin(2 * y)
    gf = lambda x, y: (np.exp(x) * np.sin(2 * y), 2 * np.exp(x) * np.cos(2 * y))
    r = wx.ritz_project(sp, f, gf)
    # residual moments (c^2 grad(f - Rf), grad phi_i) for interior i
    qd = sp.rule
    grad = _cell_grad(sp, qd)
    gx, gy = gf(qd["pts"][..., 0], qd["pts"][..., 1])
    cr = r[sp.cell_dofs]
    gx = gx - np.einsum("ci,cqi->cq", cr, grad[..., 0])
    gy = gy - np.einsum("ci,cqi->cq", cr, grad[..., 1])
    loc = np.einsum("cq,cqi->ci", gx * qd["wdet"], grad[..., 0]) \
        + np.einsum("cq,cqi->ci", gy * qd["wdet"], grad[..., 1])
    res = np.bincount(sp.cell_dofs.ravel(), weights=loc.ravel(), minlength=sp.n_dofs)
    assert np.abs(res[sp.interior_dofs]).max() <= 1e-10


def test_interpolant_reproduces_polynomial_at_a_point():
    sp = wx.build_space(build_structured_mesh(2, 2), 2)
    fn = wx.interpolate_nodal(sp, lambda x, y: x * y)
    assert evaluate(sp, fn, (0.3, 0.7)) == pytest.approx(0.21, abs=1e-14)


def test_interface_continuity():
    sp = wx.build_space(build_structured_mesh(2, 2), 4)
    rng = np.random.default_rng(5)
    fn = rng.normal(size=sp.n_dofs)
    counts = {}
    for c, tri in enumerate(sp.mesh.cells):
        for a, b in ((0, 1), (1, 2), (2, 0)):
            key = (min(tri[a], tri[b]), max(tri[a], tri[b]))
            counts.setdefault(key, []).append(c)
    for (va, vb), cells in counts.items():
        if len(cells) != 2:
            continue
        mid = 0.5 * (sp.mesh.vertices[va] + sp.mesh.vertices[vb])
        v1 = _evaluate_on_cell(sp, fn, cells[0], mid)[0]
        v2 = _evaluate_on_cell(sp, fn, cells[1], mid)[0]
        assert abs(v1 - v2) <= 1e-12 * max(1.0, abs(v1))


def test_broken_laplacian_values():
    # Delta(x^2 + y^2) = 4 on the unit square, so the L2 norm is 4
    sp = wx.build_space(build_structured_mesh(2, 2), 2)
    fn = wx.interpolate_nodal(sp, lambda x, y: x ** 2 + y ** 2)
    assert abs(BrokenField(sp, fn).l2_norm() - 4.0) <= 1e-10
    lin = wx.interpolate_nodal(sp, lambda x, y: 1 + 2 * x - y)
    assert BrokenField(sp, lin).l2_norm() <= 1e-11


def test_broken_laplacian_quartic_profile():
    # Delta((1 - x^2)(1 - y^2)) = -2(1 - y^2) - 2(1 - x^2), whose squared L2
    # norm over (-1, 1)^2 is 4 (2 * 32/15 + 2 * (4/3)^2) = 1408/45
    sp = wx.build_space(build_structured_mesh(2, 2, (-1, 1, -1, 1)), 4)
    fn = wx.interpolate_nodal(sp, lambda x, y: (1 - x ** 2) * (1 - y ** 2))
    assert abs(BrokenField(sp, fn).l2_norm() - np.sqrt(1408 / 45)) <= 1e-10


def test_spatial_norm_values():
    sp = wx.build_space(build_structured_mesh(4, 4), 2)
    assert spatial_norm(sp, "l2") == 0.0
    one = lambda x, y: np.ones_like(x)
    assert spatial_norm(sp, "l2", exact=one) == pytest.approx(1.0, abs=1e-13)
    assert spatial_norm(sp, "l2", exact=lambda x, y: x) == \
        pytest.approx(1.0 / np.sqrt(3.0), abs=1e-13)
    fn = wx.interpolate_nodal(sp, lambda x, y: x)
    assert spatial_norm(sp, "h1c", fe=fn) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("shape", [(25 + 5,), (2, 25 - 1), (25, 1), ()],
                         ids=["long", "short-rows", "column", "scalar"])
def test_spatial_norm_rejects_coefficients_off_the_space(shape):
    # a vector 5 entries too long used to index its first 25 and yield a norm
    sp = wx.build_space(build_structured_mesh(2, 2), 2)
    assert sp.n_dofs == 25
    for kind in ("l2", "h1c"):
        with pytest.raises(ValueError, match="25 DOFs"):
            spatial_norm(sp, kind, fe=np.ones(shape))


def test_assemble_memoized_per_space_and_read_only():
    sp = wx.build_space(build_structured_mesh(2, 2), 2)
    M, K = wx.assemble(sp, "mass"), wx.assemble(sp, "stiffness", 1.0)
    assert wx.assemble(sp, "mass") is M and wx.assemble(sp, "stiffness", 1.0) is K
    assert wx.assemble(sp, "stiffness", 2.0) is not K
    other = wx.build_space(build_structured_mesh(2, 2), 2)
    assert wx.assemble(other, "mass") is not M
    for array in (M.data, M.indices, M.indptr):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


def test_interior_factorization_memoized_per_space_and_read_only():
    sp = wx.build_space(build_structured_mesh(3, 3), 2)
    I = sp.interior_dofs
    for kind, c in (("mass", 1.0), ("stiffness", 1.5)):
        fact = wx.interior_factorization(sp, kind, c)
        assert wx.interior_factorization(sp, kind, c) is fact
        block = wx.assemble(sp, kind, c)[np.ix_(I, I)]
        for name in ("data", "indices", "indptr"):
            array = getattr(fact.A, name)
            assert array.dtype == getattr(block, name).dtype
            assert array.tobytes() == getattr(block, name).tobytes()
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
    assert wx.interior_factorization(sp, "stiffness", 2.0) is not \
        wx.interior_factorization(sp, "stiffness", 1.5)


@pytest.mark.parametrize("c", [1.5, lambda x, y: 1.0 + 0.5 * x * y],
                         ids=["scalar-c", "callable-c"])
@pytest.mark.parametrize("method", ["gradient", "mass"])
def test_ritz_projection_memoized_per_space_and_read_only(method, c):
    prob = replace(wx.dirichlet_cos(), c=c)

    def new_space():
        return wx.build_space(build_structured_mesh(3, 3, prob.bbox), 3)

    shared = new_space()
    for n_slabs in (2, 4):  # two cells on one space
        sol = wx.solve(prob, wx.Discretization(shared, wx.uniform_time_partition(1.0, n_slabs),
                                               q=2, method=method))
    memo = wx.ritz_project(shared, prob.u0, prob.grad_u0, prob.c)
    fresh = wx.ritz_project(new_space(), prob.u0, prob.grad_u0, prob.c)
    assert np.array_equal(memo, fresh)
    assert np.array_equal(sol.u[0, 0], fresh)
    with pytest.raises(ValueError, match="read-only"):
        memo[0] = 1.0
    # another callable is projected anew, not served from the memo
    u1 = lambda x, y: 2.0 * prob.u0(x, y)
    grad_u1 = lambda x, y: tuple(2.0 * g for g in prob.grad_u0(x, y))
    other = wx.ritz_project(shared, u1, grad_u1, prob.c)
    assert np.array_equal(other, wx.ritz_project(new_space(), u1, grad_u1, prob.c))
    assert not np.array_equal(other, memo)


def test_h1c_norm_holds_one_callback_value_at_a_time():
    # the tracemalloc peak of an h1c sample stack, in (S, nc, nq) float
    # arrays: the gathered coefficients, both reference derivatives, the
    # running sum and one gradient component of the callback, not both
    sp = wx.build_space(build_structured_mesh(4, 4), 8)
    S = 11
    ts = np.linspace(0.0, 1.0, S)[:, None, None]
    fe = np.random.default_rng(0).standard_normal((S, sp.n_dofs))
    nc, nq = sp.rule["wdet"].shape
    args = dict(fe=fe, exact=lambda x, y: x * y * ts, exact_grad=lambda x, y: (x * ts, y * ts))
    expected = spatial_norm(sp, "h1c", **args)
    tracemalloc.start()
    try:
        norms = spatial_norm(sp, "h1c", **args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(norms, expected)
    assert peak / (S * nc * nq * 8) <= 5.0


def test_assembly_quadrature_exactness():
    # raising the rule degree does not change mass or stiffness entries
    sp = wx.build_space(build_structured_mesh(2, 2), 3)
    M_default = wx.assemble(sp, "mass")
    K_default = wx.assemble(sp, "stiffness", 1.0)
    qd = _reference_rule(sp, 2 * sp.degree + 6)
    loc_m = sp.detjac[:, None, None] * np.einsum("q,qi,qj->ij", qd["w"],
                                                 qd["val"], qd["val"])
    grad = _cell_grad(sp, qd)
    loc_k = np.einsum("cq,cqik,cqjk->cij", qd["wdet"], grad, grad)
    from scipy import sparse
    rows = np.repeat(sp.cell_dofs, sp.n_local, axis=1).ravel()
    cols = np.tile(sp.cell_dofs, (1, sp.n_local)).ravel()
    M_hi = sparse.coo_matrix((loc_m.ravel(), (rows, cols)),
                             shape=(sp.n_dofs, sp.n_dofs)).tocsr()
    K_hi = sparse.coo_matrix((loc_k.ravel(), (rows, cols)),
                             shape=(sp.n_dofs, sp.n_dofs)).tocsr()
    assert abs(M_default - M_hi).max() <= 1e-15
    assert abs(K_default - K_hi).max() <= 1e-12


# ---------------------------------------------------------------------------
# oracles: the per-cell einsum contractions that the reference-table
# products replace (the norms, the broken Laplacian, the stiffness matrix
# and the Ritz load)


def _spatial_norm_oracle(space, kind, fe, exact=None, exact_grad=None, c=1.0):
    qd = space.rule
    X, Y = qd["pts"][..., 0], qd["pts"][..., 1]
    cells = fe[..., space.cell_dofs]
    if kind == "l2":
        w = qd["wdet"]
        u = np.einsum("...ci,qi->...cq", cells, qd["val"])
        diffs = [u if exact is None else exact(X, Y) - u]
    else:
        w = qd["wdet"] * (c(X, Y) if callable(c) else c) ** 2
        grad = _cell_grad(space, qd)
        targets = (None, None) if exact is None else exact_grad(X, Y)
        diffs = []
        for k, target in enumerate(targets):
            du = np.einsum("...ci,cqi->...cq", cells, grad[..., k])
            diffs.append(du if target is None else target - du)
    return np.sqrt(np.sum(w * sum(d ** 2 for d in diffs), axis=(-2, -1)))


def _broken_laplacian_oracle(space, values):
    qd = space.rule
    G = np.einsum("cka,cma->ckm", space.jacinv, space.jacinv)
    lap = np.einsum("ckm,qikm->cqi", G, qd["href"])
    vals = np.einsum("ci,cqi->cq", values[space.cell_dofs], lap)
    return np.sqrt(np.sum(qd["wdet"] * vals ** 2))


def _offset_space(p):
    """A non-square mesh of a box away from the origin."""
    return wx.build_space(build_structured_mesh(3, 2, (2.0, 3.5, -1.0, 0.25)), p)


_TS = np.array([0.0, 0.3, 1.1])[:, None, None]


def _u(x, y):
    return np.sin(x) * np.cos(2 * y) * (1 + _TS)


def _grad_u(x, y):
    return (np.cos(x) * np.cos(2 * y) * (1 + _TS), -2 * np.sin(x) * np.sin(2 * y) * (1 + _TS))


def _c(x, y):
    return 1.0 + 0.3 * np.sin(x * y)


@pytest.mark.parametrize("p", range(1, 11))
def test_spatial_norm_matches_per_cell_oracle(p):
    sp = _offset_space(p)
    rng = np.random.default_rng(p)
    one = rng.normal(size=sp.n_dofs)
    stack = rng.normal(size=(len(_TS), sp.n_dofs))
    cases = [
        ("l2", one, {}),
        ("l2", stack, {}),
        ("l2", one, dict(exact=_u)),
        ("l2", stack, dict(exact=_u)),
        ("h1c", one, {}),
        ("h1c", stack, dict(c=1.7)),
        ("h1c", one, dict(exact=_u, exact_grad=_grad_u, c=_c)),
        ("h1c", stack, dict(exact=_u, exact_grad=_grad_u, c=_c)),
        ("h1c", stack, dict(exact=_u, exact_grad=_grad_u, c=0.6)),
    ]
    for kind, fe, kw in cases:
        got = spatial_norm(sp, kind, fe=fe, **kw)
        expect = _spatial_norm_oracle(sp, kind, fe, **kw)
        assert np.shape(got) == np.shape(expect)
        assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max(), (kind, kw)


@pytest.mark.parametrize("p", [1, 3, 8])
def test_spatial_norm_times_table_matches_sampled_rows(p):
    # rows (2, B, R, n_dofs) under a table (S, R) against the S sampled
    # coefficient vectors of each (2, B) stack, one stack at a time; the
    # callback values carry the (B, S) sample axes
    sp = _offset_space(p)
    rng = np.random.default_rng(p)
    rows = rng.normal(size=(2, 2, 4, sp.n_dofs))
    table = rng.normal(size=(5, 4))
    ts = rng.uniform(size=(2, 5))[..., None, None]
    u = lambda t: lambda x, y: np.sin(x) * np.cos(2 * y) * (1 + t)
    grad_u = lambda t: lambda x, y: (np.cos(x) * np.cos(2 * y) * (1 + t),
                                     -2 * np.sin(x) * np.sin(2 * y) * (1 + t))
    for kind, kw in (("l2", {}), ("l2", dict(exact=u)),
                     ("h1c", dict(c=1.7)), ("h1c", dict(exact=u, exact_grad=grad_u, c=_c))):
        at = lambda t: {k: v(t) if k.startswith("exact") else v for k, v in kw.items()}
        got = spatial_norm(sp, kind, fe=rows, times=table, **at(ts))
        assert got.shape == (2, 2, 5)
        for i, b in np.ndindex(2, 2):
            expect = spatial_norm(sp, kind, fe=table @ rows[i, b], **at(ts[b]))
            assert np.abs(got[i, b] - expect).max() <= 1e-13 * np.abs(expect).max(), (kind, kw)


def _stiffness_oracle(space, c):
    qd = _reference_rule(space, norm_degree(space.degree) if callable(c) else 2 * space.degree - 2)
    csq = c(qd["pts"][..., 0], qd["pts"][..., 1]) ** 2 if callable(c) else c ** 2
    grad = _cell_grad(space, qd)
    return np.einsum("cq,cqik,cqjk->cij", csq * qd["wdet"], grad, grad)


def _gradient_load_oracle(space, grad_f, c):
    qd = space.rule
    X, Y = qd["pts"][..., 0], qd["pts"][..., 1]
    w = qd["wdet"] * (c(X, Y) if callable(c) else c) ** 2
    gx, gy = grad_f(X, Y)
    grad = _cell_grad(space, qd)
    loc = np.einsum("cq,cqi->ci", gx * w, grad[..., 0]) + np.einsum("cq,cqi->ci", gy * w, grad[..., 1])
    return np.bincount(space.cell_dofs.ravel(), weights=loc.ravel(), minlength=space.n_dofs)


def _grad_u0(x, y):
    return np.cos(x) * np.cos(2 * y), -2 * np.sin(x) * np.sin(2 * y)


@pytest.mark.parametrize("p", range(1, 11))
def test_stiffness_and_ritz_load_match_per_cell_oracle(p):
    sp = _offset_space(p)
    for c in (1.0, 1.7, _c):
        expect = _stiffness_oracle(sp, c)
        got = local_matrices(sp, "stiffness", c)
        assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max(), c
        assert np.array_equal(got, got.transpose(0, 2, 1))
        expect = _gradient_load_oracle(sp, _grad_u0, c)
        got = _gradient_load(sp, _grad_u0, c)
        assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max(), c


@pytest.mark.parametrize("p", range(1, 11))
def test_broken_laplacian_matches_per_cell_oracle(p):
    sp = _offset_space(p)
    fn = np.random.default_rng(10 + p).normal(size=sp.n_dofs)
    if p == 1:
        # the reference Hessians of a degree-1 basis vanish identically
        assert _broken_laplacian_oracle(sp, fn) == 0.0
        assert BrokenField(sp, fn).l2_norm() == 0.0
        return
    expect = _broken_laplacian_oracle(sp, fn)
    assert abs(BrokenField(sp, fn).l2_norm() - expect) <= 1e-13 * expect


@pytest.mark.parametrize("p", [1, 2, 4])
def test_broken_laplacian_of_a_stack_equals_per_vector_calls(p):
    sp = _offset_space(p)
    stack = np.random.default_rng(20 + p).normal(size=(5, sp.n_dofs))
    norms = BrokenField(sp, stack).l2_norm()
    assert norms.shape == (5,)
    assert np.array_equal(norms, [BrokenField(sp, u).l2_norm() for u in stack])
    assert isinstance(BrokenField(sp, stack[0]).l2_norm(), float)


def test_rule_and_metric_are_read_only_fields_of_the_space():
    sp = _offset_space(3)
    # the same expressions as the rule and the metric built on demand
    rs, w = reference.triangle_rule(norm_degree(sp.degree))
    _, _, href = reference.tabulate(sp.degree, rs, order=2)
    want = {"href": href, **_reference_rule(sp, norm_degree(sp.degree))}
    del want["w"]  # the rule keeps the weights only as wdet = det J * w
    assert set(sp.rule) == set(want)
    for name, table in want.items():
        assert sp.rule[name].tobytes() == table.tobytes(), name
    metric = np.einsum("cka,cma->ckm", sp.jacinv, sp.jacinv)
    assert sp.metric.tobytes() == metric.tobytes()
    for name, array in [("metric", sp.metric), *sp.rule.items()]:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 1.0
    with pytest.raises(TypeError):
        sp.rule["w"] = w


@pytest.mark.parametrize("method", ["gradient", "mass"])
def test_space_keeps_one_memo_under_tagged_keys(method):
    prob = wx.dirichlet_cos()
    sp = wx.build_space(build_structured_mesh(2, 2, prob.bbox), 2)
    assert sp.memo == {}
    wx.solve(prob, wx.Discretization(sp, wx.uniform_time_partition(1.0, 2), q=2,
                                     method=method))
    assert {key[0] for key in sp.memo} == {"assemble", "interior_block",
                                           "interior_factorization", "ritz_project"}
    assert sp.memo["assemble", "mass", 1.0] is wx.assemble(sp, "mass")
    assert sp.memo["interior_factorization", "stiffness", prob.c] is \
        wx.interior_factorization(sp, "stiffness", prob.c)
    assert sp.memo["ritz_project", prob.u0, prob.grad_u0, prob.c] is \
        wx.ritz_project(sp, prob.u0, prob.grad_u0, prob.c)


@pytest.mark.parametrize("c", [np.inf, np.nan, -1.0, 0.0,
                               lambda x, y: np.where(x > 0.5, np.inf, 1.0), 1e200,
                               lambda x, y: np.where(x > 0.5, 1e200, 1.0)],
                         ids=["inf", "nan", "negative", "zero", "callable-inf",
                              "square-overflows", "callable-square-overflows"])
def test_wavespeed_must_be_positive_and_finite(c):
    # an infinite c once assembled a stiffness matrix of non-finite entries;
    # c = 1e200 raised a bare OverflowError, and a callable reaching it
    # assembled non-finite entries with only numpy warnings
    sp = wx.build_space(build_structured_mesh(2, 2), 2)
    with pytest.raises(ValueError, match="positive and finite"):
        wx.assemble(sp, "stiffness", c)
    with pytest.raises(ValueError, match="positive and finite"):
        spatial_norm(sp, "h1c", np.ones(sp.n_dofs), c=c)
    assert not any(key[0] == "assemble" for key in sp.memo)


def test_wavespeed_square_is_the_square_of_c():
    # the overflow check keeps the arithmetic: float(c) ** 2, or c ** 2 pointwise
    pts = wx.build_space(build_structured_mesh(2, 2), 2).rule["pts"]
    for c in (1.0, 0.7, 3, 1.3e154, 1e-150, np.float64(2.5)):
        assert _wavespeed_sq(c, pts) == float(c) ** 2
    grow = lambda x, y: 1.0 + x * y ** 2
    assert np.array_equal(_wavespeed_sq(grow, pts), grow(pts[..., 0], pts[..., 1]) ** 2)
