from math import factorial

import numpy as np
import pytest

from wavext import reference
from wavext.fem import build_space, norm_degree
from wavext.mesh import build_structured_mesh


# oracle: the per-function loops that the index-arithmetic tables replace


def lattice_multi_indices_loops(p):
    out = []
    for c3 in range(p + 1):
        for c2 in range(p + 1 - c3):
            out.append((p - c2 - c3, c2, c3))
    return np.asarray(out, dtype=np.int64)


def bernstein_tables_loops(p, rs, order):
    rs = np.asarray(rs, dtype=float)
    npts = rs.shape[0]
    lam = np.empty((npts, 3))
    lam[:, 0] = 1.0 - rs[:, 0] - rs[:, 1]
    lam[:, 1] = rs[:, 0]
    lam[:, 2] = rs[:, 1]

    pw = np.ones((3, p + 1, npts))
    for k in range(1, p + 1):
        pw[:, k] = pw[:, k - 1] * lam.T

    multi = lattice_multi_indices_loops(p)
    nb = len(multi)
    coef = np.array([factorial(p) / (factorial(a) * factorial(b) * factorial(c))
                     for a, b, c in multi])

    def mono(e):
        out = np.ones(npts)
        for k in range(3):
            ek = e[k]
            if ek < 0:
                return np.zeros(npts)
            out = out * pw[k, ek]
        return out

    vals = np.empty((npts, nb))
    for i, e in enumerate(multi):
        vals[:, i] = coef[i] * mono(e)

    grads = None
    hess = None
    if order >= 1:
        dlam = np.empty((npts, nb, 3))
        for i, e in enumerate(multi):
            for k in range(3):
                dlam[:, i, k] = coef[i] * e[k] * mono(e - np.eye(3, dtype=int)[k])
        grads = np.empty((npts, nb, 2))
        grads[:, :, 0] = dlam[:, :, 1] - dlam[:, :, 0]
        grads[:, :, 1] = dlam[:, :, 2] - dlam[:, :, 0]
    if order >= 2:
        d2 = np.empty((npts, nb, 3, 3))
        eye = np.eye(3, dtype=int)
        for i, e in enumerate(multi):
            for k in range(3):
                for m in range(3):
                    fac = e[k] * (e[k] - 1) if k == m else e[k] * e[m]
                    d2[:, i, k, m] = coef[i] * fac * mono(e - eye[k] - eye[m])
        hess = np.empty((npts, nb, 2, 2))
        hess[:, :, 0, 0] = d2[:, :, 1, 1] - 2 * d2[:, :, 0, 1] + d2[:, :, 0, 0]
        hess[:, :, 1, 1] = d2[:, :, 2, 2] - 2 * d2[:, :, 0, 2] + d2[:, :, 0, 0]
        hess[:, :, 0, 1] = d2[:, :, 1, 2] - d2[:, :, 0, 1] - d2[:, :, 0, 2] + d2[:, :, 0, 0]
        hess[:, :, 1, 0] = hess[:, :, 0, 1]
    return vals, grads, hess


@pytest.mark.parametrize("p", range(1, 11))
def test_lattice_multi_indices_match_loops(p):
    got = reference.lattice_multi_indices(p)
    want = lattice_multi_indices_loops(p)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("p", range(1, 11))
def test_bernstein_tables_match_loops_bytewise(p):
    # the lattice points, and the rules a degree-p space uses: assembly at
    # 2p - 2 and 2p, norms, loads and the estimator at the norm degree
    space = build_space(build_structured_mesh(1, 1), p)
    point_sets = [reference.lattice_points(p)] + [
        reference.triangle_rule(d)[0] for d in (2 * p - 2, 2 * p, norm_degree(p))]
    for rs in point_sets:
        for order in range(3):
            got = reference._bernstein_tables(p, rs, order)
            want = bernstein_tables_loops(p, rs, order)
            for g, w in zip(got, want):
                if w is None:
                    assert g is None
                    continue
                assert g.shape == w.shape and g.flags.c_contiguous
                assert g.tobytes() == w.tobytes()
