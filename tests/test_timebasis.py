import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import legendre as npleg

from conftest import (containing_slab, eval_slab, gauss_rules_per_slab,
                      legendre_derivative_matrix, legendre_matrix_per_degree, slab_ends,
                      to_normalized, trial_matrix_by_cases)
from wavext import reference
from wavext.problem import MAX_TEMPORAL_DEGREE
from wavext.timebasis import (TimePartition, _endpoint_exact_map, _lagrange_map,
                              _reference_rule, abs_legendre_integral,
                              endpoint_exact_project, gauss_rule, lagrange_time_interp,
                              legendre_matrix, legendre_table, slab_temporal_matrices,
                              sup_legendre_integral, temporal_eigensplit, trial_matrix,
                              trial_to_legendre, uniform_time_partition)


def _values(coeffs, partition, ts):
    """Per-slab trial coefficients at the times ts, each on the slab containing it."""
    return np.array([eval_slab(coeffs, partition, containing_slab(partition, t), t)
                     for t in ts])


def _legendre(coeffs):
    """Per-slab trial coefficients (n_slabs, q+1) as Legendre coefficients."""
    return coeffs @ trial_to_legendre(coeffs.shape[1] - 1).T


def _trial_from_legendre(coeffs):
    """Invert trial_to_legendre along the leading (mode) axis."""
    q = coeffs.shape[0] - 1
    flat = coeffs.reshape(q + 1, -1)
    return np.linalg.solve(trial_to_legendre(q), flat).reshape(coeffs.shape)


def test_partition_validation():
    with pytest.raises(ValueError):
        TimePartition(np.array([0.0]))
    with pytest.raises(ValueError):
        TimePartition(np.array([0.1, 0.5]))
    with pytest.raises(ValueError):
        TimePartition(np.array([0.0, 0.5, 0.5]))
    part = uniform_time_partition(2.0, 4)
    assert part.n_slabs == 4
    assert part.lengths.max() == pytest.approx(0.5)


def test_partition_lengths_are_a_read_only_field():
    # computed once at construction, so every access is the same array,
    # and the nodes are a read-only copy, so the lengths cannot go stale
    nodes = np.array([0.0, 0.1, 0.35, 0.4, 1.0])
    part = TimePartition(nodes)
    assert part.lengths is part.lengths
    assert part.lengths.tobytes() == np.diff(nodes).tobytes()
    nodes[1] = 0.2
    assert part.nodes[1] == 0.1
    for array in (part.nodes, part.lengths):
        with pytest.raises(ValueError, match="read-only"):
            array[1] = 0.3
    assert "lengths" not in repr(part)


@pytest.mark.parametrize("last", [np.nan, np.inf])
def test_partition_rejects_nonfinite_nodes(last):
    # [0, nan] used to build one slab of length nan
    with pytest.raises(ValueError, match="finite"):
        TimePartition(np.array([0.0, last]))
    with pytest.raises(ValueError, match="finite"):
        TimePartition(np.array([0.0, 0.5, last]))


def test_legendre_endpoint_values():
    slab = (0.3, 1.1)
    for s in range(7):
        left, right = legendre_matrix(s, to_normalized(slab, np.array(slab)))[s]
        assert right == pytest.approx(1.0, abs=1e-14)
        assert left == pytest.approx((-1.0) ** s, abs=1e-14)
    assert legendre_matrix(0, to_normalized(slab, 0.7))[0] == 1.0


def test_legendre_orthogonality():
    slab = (0.2, 1.9)
    tau = slab[1] - slab[0]
    ts, ws = gauss_rule(20, slab)
    xs = to_normalized(slab, ts)
    for i in range(9):
        for j in range(9):
            val = np.sum(ws * legendre_matrix(i, xs)[i] * legendre_matrix(j, xs)[j])
            expect = tau / (2 * i + 1) if i == j else 0.0
            assert val == pytest.approx(expect, abs=1e-13)


@pytest.mark.parametrize("tau", [1.0, 0.3])
@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
def test_weighted_legendre_identity(q, tau):
    # int_slab (t - a) L_q L_q' dt = tau q / (2q + 1)
    slab = (0.4, 0.4 + tau)
    ts, ws = gauss_rule(q + 4, slab)
    xs = to_normalized(slab, ts)
    val = np.sum(ws * (ts - slab[0]) * legendre_matrix(q, xs)[q]
                 * legendre_derivative_matrix(q, xs)[q] * 2.0 / tau)
    assert val == pytest.approx(tau * q / (2 * q + 1), abs=1e-12)


def test_gauss_rule_basics():
    ts, ws = gauss_rule(1, (0.0, 1.0))
    assert ts[0] == pytest.approx(0.5) and ws[0] == pytest.approx(1.0)
    ts, ws = gauss_rule(2, (0.0, 1.0))
    assert np.sum(ws * ts ** 3) == pytest.approx(0.25, abs=1e-15)
    for slab in ((0.0, 0.7), (1.2, 3.4)):
        _, ws = gauss_rule(5, slab)
        assert ws.sum() == pytest.approx(slab[1] - slab[0])
    with pytest.raises(ValueError):
        gauss_rule(0, (0.0, 1.0))
    with pytest.raises(ValueError):
        gauss_rule(31, (0.0, 1.0))


def test_gauss_rule_is_the_mapped_reference_rule():
    slab = (0.3, 0.55)
    for n in range(1, 31):
        x, w = np.polynomial.legendre.leggauss(n)
        ts, ws = gauss_rule(n, slab)
        assert np.array_equal(ts, slab[0] + (x + 1.0) * (slab[1] - slab[0]) / 2.0)
        assert np.array_equal(ws, w * (slab[1] - slab[0]) / 2.0)
        for cached in _reference_rule(n):
            with pytest.raises(ValueError, match="read-only"):
                cached[0] = 0.0


def test_graded_rule_resolves_algebraic_singularity():
    ts, ws = gauss_rule(8, (0.0, 1.0), graded=True)
    val = np.sum(ws * ts ** 0.25)
    assert val == pytest.approx(1.0 / 1.25, rel=1e-7)
    # a plain rule of the same size is orders of magnitude worse
    tp, wp = gauss_rule(8, (0.0, 1.0))
    assert abs(np.sum(wp * tp ** 0.25) - 0.8) > 1e-4


def test_graded_rule_is_the_composite_rule():
    # the npts-point rule on 11 panels graded geometrically (ratio 0.15)
    # toward the left endpoint, each panel mapped from [-1, 1] separately
    for slab in ((0.0, 1.0), (0.3, 0.55), (0.0, 1000.0 / 48)):
        a, b = slab
        cuts = [a] + [a + (b - a) * 0.15 ** k for k in range(10, 0, -1)] + [b]
        for npts in (6, 8, 18):
            panels = [gauss_rule(npts, (lo, hi)) for lo, hi in zip(cuts[:-1], cuts[1:])]
            ts, ws = gauss_rule(npts, slab, graded=True)
            assert np.abs(ts - np.concatenate([t for t, _ in panels])).max() <= 1e-15 * b
            assert np.abs(ws - np.concatenate([w for _, w in panels])).max() <= 1e-15 * (b - a)


@pytest.mark.parametrize("q", range(1, MAX_TEMPORAL_DEGREE + 1))
def test_legendre_table_matches_per_slab_table(q):
    # the table the solver and the estimator read in place of the per-slab
    # legendre_matrix(q - 1, to_normalized(slab, ts)), for both rules
    for npts in sorted({max(q + 3, 6), q + 6, max(q + 4, 8)}):
        for graded in (False, True):
            table = legendre_table(q - 1, npts, graded)
            for slab in _ORACLE_SLABS + ((0.0, 1000.0 / 48),):
                ts, _ = gauss_rule(npts, slab, graded)
                per_slab = legendre_matrix(q - 1, to_normalized(slab, ts))
                assert table.shape == per_slab.shape
                assert np.abs(table - per_slab).max() <= 1e-12
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 0.0


def _identical(a, b):
    """Equal shapes, values and sign bits, so -0.0 differs from 0.0."""
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@pytest.mark.parametrize("q", range(13))
def test_bases_equal_their_replaced_evaluations(q):
    # legendre_matrix is one legval call on the identity and trial_matrix is
    # T^T P; both give the bits of the per-degree loop and of the hand-written
    # sigma_0 = 1, sigma_1 = (x + 1)/2, sigma_j = (P_j - P_{j-2})/2, at the
    # report's 11 samples, the Lagrange lifting nodes, -1, 0, 1, a Gauss rule
    # and random points
    points = (np.linspace(-1.0, 1.0, 11), np.linspace(-1.0, 1.0, q + 1),
              np.array([-1.0, 0.0, 1.0]), _reference_rule(q + 6)[0],
              np.random.default_rng(q).uniform(-1.0, 1.0, (3, 5)))
    for x in points:
        assert _identical(legendre_matrix(q, x), legendre_matrix_per_degree(q, x))
        assert _identical(trial_matrix(q, x), trial_matrix_by_cases(q, x))
        # degree q - 2 at q = 1, which the endpoint-exact map asks for
        assert legendre_matrix(-1, x).shape == (0,) + x.shape


def test_block_gauss_rule_equals_per_slab_rules():
    # one gauss_rule call with a block's slab ends as columns gives the bits
    # of one call per slab, on a nonuniform partition whose slab 0 is a
    # block of its own, with either rule
    lengths = np.random.default_rng(5).uniform(0.5, 1.5, 13)
    part = TimePartition(np.concatenate([[0.0], np.cumsum(lengths / lengths.sum())]))
    a, b = part.nodes[:-1], part.nodes[1:]
    for npts in (1, 6, 8, 18, 30):
        blocks = part.blocks(npts * 100, first_alone=True)
        assert len(blocks[0]) == 1 and max(map(len, blocks)) > 1
        for block in blocks:
            for graded in (False, True):
                got = gauss_rule(npts, (a[block, None], b[block, None]), graded)
                for g, ref in zip(got, gauss_rules_per_slab(npts, part, block, graded)):
                    assert _identical(g, ref)


def _slab_l2_projection(r, f, slab, npts):
    """Legendre coefficients of the slabwise L2 projection onto degree r:
    coefficient k is (2k+1)/tau * int f L_k dt, by an npts-point Gauss rule."""
    ts, ws = gauss_rule(npts, slab)
    fv = np.asarray(f(ts), dtype=float)
    P = legendre_matrix(r, to_normalized(slab, ts))
    moments = np.tensordot(P * ws, fv, axes=(1, 0))
    scale = (2.0 * np.arange(r + 1) + 1.0) / (slab[1] - slab[0])
    return moments * scale.reshape((r + 1,) + (1,) * (fv.ndim - 1))


def _endpoint_exact_per_slab(q, f, partition):
    """The slab-by-slab construction the reference map replaces: the
    degree-(q-2) L2 projection plus corrections along L_{q-1} and L_q from
    the two endpoint defects, one L2 projection and two endpoint calls per
    slab, converted to trial coefficients."""
    sgn = (-1.0) ** q
    signs = (-1.0) ** np.arange(q + 1)
    out = []
    for n in range(partition.n_slabs):
        slab = slab_ends(partition, n)
        f_left = np.asarray(f(np.asarray([slab[0]])), dtype=float)[0]
        f_right = np.asarray(f(np.asarray([slab[1]])), dtype=float)[0]
        leg = np.zeros((q + 1,) + f_left.shape)
        if q >= 2:
            leg[: q - 1] = _slab_l2_projection(q - 2, f, slab, q + 6)
        delta_left = f_left - np.tensordot(signs, leg, axes=(0, 0))
        delta_right = f_right - leg.sum(axis=0)
        leg[q - 1] += (sgn * delta_right - delta_left) / (2.0 * sgn)
        leg[q] += (sgn * delta_right + delta_left) / (2.0 * sgn)
        out.append(_trial_from_legendre(leg))
    return np.stack(out)


def _lagrange_per_slab(q, f, partition):
    """Slab-by-slab interpolation at q+1 uniform nodes through the inverse
    Legendre Vandermonde matrix, converted to trial coefficients."""
    xs = np.linspace(-1.0, 1.0, q + 1)
    Vinv = np.linalg.inv(legendre_matrix(q, xs).T)
    out = []
    for n in range(partition.n_slabs):
        a, b = slab_ends(partition, n)
        fv = np.asarray(f(a + (xs + 1.0) * (b - a) / 2.0), dtype=float)
        out.append(_trial_from_legendre(np.tensordot(Vinv, fv, axes=(1, 0))))
    return np.stack(out)


_LIFTING_PARTITIONS = (uniform_time_partition(1.0, 6),
                       TimePartition(np.array([0.0, 0.1, 0.3, 0.7, 0.75, 1.0])),
                       uniform_time_partition(1000.0, 48))
_LIFTING_CALLBACKS = (lambda t: np.sin(3.0 * t) + t / (1.0 + t),
                      lambda t: np.cos(np.multiply.outer(t, (1.0, 0.3, 0.05))))


@pytest.mark.parametrize("q", range(1, MAX_TEMPORAL_DEGREE + 1))
def test_lifting_maps_match_per_slab_oracle(q):
    for project, oracle, cached in ((endpoint_exact_project, _endpoint_exact_per_slab,
                                     _endpoint_exact_map),
                                    (lagrange_time_interp, _lagrange_per_slab, _lagrange_map)):
        for part in _LIFTING_PARTITIONS:
            for f in _LIFTING_CALLBACKS:
                ref = oracle(q, f, part)
                got = project(q, f, part)
                assert got.shape == ref.shape == (part.n_slabs, q + 1) + f(part.nodes).shape[1:]
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        for table in cached(q):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0


@pytest.mark.parametrize("project", [endpoint_exact_project, lagrange_time_interp])
def test_lifting_samples_partition_nodes_exactly(project):
    # one callback call for all slabs; each slab's end samples are its nodes.
    # On slab 1 the affine map alone lands one ulp short: a + (b - a) ties
    # to even at a = 2^-53, b = 1 + 3 * 2^-52
    part = TimePartition(np.array([0.0, 2.0 ** -53, 1.0 + 3 * 2.0 ** -52, 2.0]))
    calls = []
    coeffs = project(3, lambda t: calls.append(t) or np.cos(t), part)
    assert len(calls) == 1
    ts = calls[0].reshape(part.n_slabs, -1)
    assert np.array_equal(ts[:, 0], part.nodes[:-1])
    assert np.array_equal(ts[:, -1], part.nodes[1:])
    assert coeffs.shape == (part.n_slabs, 4)


def _assemble_global_endpoint_projection(q, f, fprime, partition):
    """Independent realization of the projection from its global definition:
    match f at t = 0 and make the derivative defect orthogonal to degree q-1
    on every slab, with continuity across slabs."""
    N = partition.n_slabs
    ndof = N * (q + 1)
    A = np.zeros((ndof, ndof))
    rhs = np.zeros(ndof)
    row = 0
    A[row, : q + 1] = (-1.0) ** np.arange(q + 1)
    rhs[row] = f(np.array([0.0]))[0]
    row += 1
    for n in range(N - 1):
        A[row, n * (q + 1):(n + 1) * (q + 1)] = 1.0
        A[row, (n + 1) * (q + 1):(n + 2) * (q + 1)] = -((-1.0) ** np.arange(q + 1))
        row += 1
    for n in range(N):
        slab = slab_ends(partition, n)
        ts, ws = gauss_rule(q + 8, slab)
        xs = to_normalized(slab, ts)
        dleg = legendre_derivative_matrix(q, xs) * 2.0 / (slab[1] - slab[0])
        tst = legendre_matrix(q - 1, xs)
        fp = fprime(ts)
        for i in range(q):
            A[row, n * (q + 1):(n + 1) * (q + 1)] = (dleg * (tst[i] * ws)).sum(axis=1)
            rhs[row] = np.sum(ws * tst[i] * fp)
            row += 1
    return np.linalg.solve(A, rhs).reshape(N, q + 1)


def test_endpoint_projection_matches_global_definition():
    part = uniform_time_partition(1.0, 4)
    f = lambda t: np.sin(3.0 * t)
    fp = lambda t: 3.0 * np.cos(3.0 * t)
    local = endpoint_exact_project(3, f, part)
    ref = _assemble_global_endpoint_projection(3, f, fp, part)
    assert np.abs(_legendre(local) - ref).max() <= 1e-11


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_endpoint_projection_reproduces_polynomials(q):
    part = TimePartition(np.array([0.0, 0.4, 1.0, 1.3]))
    coef = np.linspace(0.7, -0.3, q + 1)
    f = lambda t: sum(c * t ** k for k, c in enumerate(coef))
    proj = endpoint_exact_project(q, f, part)
    for n in range(part.n_slabs):
        ts = np.linspace(*slab_ends(part, n), 7)
        assert np.abs(eval_slab(proj, part, n, ts) - f(ts)).max() <= 1e-13


def test_endpoint_projection_interpolates_nodes():
    part = uniform_time_partition(2.0, 5)
    f = lambda t: np.exp(-t) * np.cos(4 * t)
    for q in (1, 2, 3):
        proj = endpoint_exact_project(q, f, part)
        assert _values(proj, part, part.nodes) == pytest.approx(f(part.nodes), abs=1e-13)


def test_endpoint_projection_interior_orthogonality():
    part = uniform_time_partition(1.0, 3)
    f = lambda t: np.cos(5 * t) + t ** 2
    for q in (2, 3, 4):
        proj = endpoint_exact_project(q, f, part)
        for n in range(part.n_slabs):
            slab = slab_ends(part, n)
            ts, ws = gauss_rule(q + 8, slab)
            defect = f(ts) - eval_slab(proj, part, n, ts)
            tst = legendre_matrix(q - 2, to_normalized(slab, ts))
            moments = (tst * ws) @ defect
            assert np.abs(moments).max() <= 1e-13


def test_endpoint_projection_sup_stability():
    # empirical sup-norm stability constant stays below 4 for q <= 6
    part = uniform_time_partition(1.0, 6)
    corpus = [lambda t: np.sin(9 * t), lambda t: np.exp(2 * t) / np.exp(2.0),
              lambda t: 1.0 / (1.0 + 25 * (t - 0.4) ** 2), lambda t: np.abs(np.sin(7 * t)) ** 1.5]
    ts_dense = np.linspace(0.0, 1.0, 1201)
    for q in range(1, 7):
        for f in corpus:
            proj = endpoint_exact_project(q, f, part)
            vals = _values(proj, part, ts_dense)
            assert np.abs(vals).max() <= 4.0 * np.abs(f(ts_dense)).max()


def test_endpoint_projection_convergence_rate():
    f = lambda t: np.sin(3.0 * t)
    for q in (1, 2, 3):
        sups = []
        for N in (4, 8, 16):
            part = uniform_time_partition(1.0, N)
            proj = endpoint_exact_project(q, f, part)
            ts = np.linspace(0, 1, 801)
            vals = _values(proj, part, ts)
            sups.append(np.abs(vals - f(ts)).max())
        rate = np.log2(sups[-2] / sups[-1])
        assert rate == pytest.approx(q + 1, abs=0.25)


def test_lagrange_interp_exact_on_polynomials():
    part = uniform_time_partition(1.0, 3)
    for q in (1, 2, 3):
        f = lambda t: (1.0 + t) ** q
        naive = lagrange_time_interp(q, f, part)
        proj = endpoint_exact_project(q, f, part)
        assert np.abs(_legendre(naive) - _legendre(proj)).max() <= 1e-12
        ts = np.linspace(0, 1, 50)
        vals = _values(naive, part, ts)
        assert np.abs(vals - f(ts)).max() <= 1e-12


def _slab_mean_error(project, q, n_slabs):
    # Legendre coefficient 0 is the slab mean; sin 3t has closed-form means
    part = uniform_time_partition(1.0, n_slabs)
    a, b = part.nodes[:-1], part.nodes[1:]
    exact = (np.cos(3.0 * a) - np.cos(3.0 * b)) / (3.0 * (b - a))
    coeffs = project(q, lambda t: np.sin(3.0 * t), part)
    return np.abs(_legendre(coeffs)[:, 0] - exact).max()


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_slab_means_projection_vs_interpolation(q):
    # the projection defect is orthogonal to constants for q >= 2; uniform-node
    # interpolation misses slab means by O(tau^{q+1}) at odd q, and at even q
    # its symmetric nodes integrate one degree more exactly
    if q >= 2:
        assert _slab_mean_error(endpoint_exact_project, q, 16) <= 1e-14
    errs = [_slab_mean_error(lagrange_time_interp, q, n) for n in (8, 16)]
    rate = np.log2(errs[0] / errs[1])
    assert rate == pytest.approx(q + 1 if q % 2 else q + 2, abs=0.25)


def test_slab_matrices_q1_hand_values():
    for tau in (0.5, 1.0):
        N = slab_temporal_matrices(1, (0.0, tau))
        assert np.allclose(N, [[tau, tau / 2]], atol=1e-15)


def test_slab_matrices_scaling_and_structure():
    q = 4
    N1 = slab_temporal_matrices(q, (0.2, 1.0))
    N2 = slab_temporal_matrices(q, (0.2, 0.6))
    assert np.allclose(N2, N1 / 2, atol=1e-15)
    # unisolvence of the slab block
    assert abs(np.linalg.det(N1[:, 1:])) > 0


def _quadrature_temporal_matrices(q, slab):
    """N[i,j] = int sigma_j L_i dt and D[i,j] = int sigma_j' L_i dt by a
    (q+1)-point Gauss rule, exact for these degree-2q integrands."""
    tau = slab[1] - slab[0]
    x, w = np.polynomial.legendre.leggauss(q + 1)
    wt = w * tau / 2.0
    sig = trial_matrix(q, x)
    dsig = np.zeros_like(sig)  # d sigma_j/dx = (2j - 1)/2 P_{j-1}, chained with 2/tau
    dsig[1:] = (np.arange(1, q + 1) - 0.5)[:, None] * legendre_matrix(q - 1, x) * (2.0 / tau)
    tst = legendre_matrix(q - 1, x)
    return (np.einsum("g,ig,jg->ij", wt, tst, sig),
            np.einsum("g,ig,jg->ij", wt, tst, dsig))


_ORACLE_SLABS = ((0.0, 1.0), (0.3, 0.3 + 1.0 / 64), slab_ends(uniform_time_partition(1000.0, 48), 47))


@pytest.mark.parametrize("q", range(1, MAX_TEMPORAL_DEGREE + 1))
def test_slab_matrix_matches_quadrature_oracle(q):
    for slab in _ORACLE_SLABS:
        N_quad, _ = _quadrature_temporal_matrices(q, slab)
        N = slab_temporal_matrices(q, slab)
        assert N.shape == (q, q + 1)
        assert np.abs(N - N_quad).max() <= 1e-14 * np.abs(N_quad).max()


@pytest.mark.parametrize("q", range(1, MAX_TEMPORAL_DEGREE + 1))
def test_velocity_block_is_identity(q):
    # the slab solver applies D = [0 | I] as a row selection, and its
    # elimination of U rests on D[:, 1:] = I
    for slab in _ORACLE_SLABS:
        _, D_quad = _quadrature_temporal_matrices(q, slab)
        assert np.abs(D_quad - np.eye(q, q + 1, 1)).max() <= 1e-14


@pytest.mark.parametrize("q", range(1, MAX_TEMPORAL_DEGREE + 1))
def test_temporal_eigensplit(q):
    lam, S, Sinv, pairs = temporal_eigensplit(q)
    N = slab_temporal_matrices(q, (0.0, 1.0))
    Nq2 = N[:, 1:] @ N[:, 1:]
    assert len(lam) == (q + 1) // 2
    # one real mode at odd q, none at even q; the pairs are truly complex
    assert np.count_nonzero(~pairs) == q % 2
    assert np.all(lam[~pairs].imag == 0)
    assert np.abs(lam[pairs].imag).min(initial=np.inf) > 1e-4
    # Re(S diag(lam) Sinv) reproduces Nq^2 and Re(S Sinv x) = x for real x,
    # to roundoff times the condition of the real basis [Re S, Im S], which
    # grows from 1 at q = 1 to about 2e6 at q = 12
    cond = np.linalg.cond(np.concatenate([S.real, S.imag[:, pairs]], axis=1))
    assert cond <= 1e7
    tol = 1e-15 * max(cond, 10.0)
    assert np.abs(((S * lam) @ Sinv).real - Nq2).max() <= tol * np.abs(Nq2).max()
    assert np.abs((S @ Sinv).real - np.eye(q)).max() <= tol
    # eigenpairs of Nq^2 at every slab length, scaled by tau^2
    tau = 0.37
    N = slab_temporal_matrices(q, (1.0, 1.0 + tau))
    Nq2 = N[:, 1:] @ N[:, 1:]
    assert np.abs(Nq2 @ S - S * (tau ** 2 * lam)).max() <= 1e-12 * np.abs(S).max()


def test_trial_legendre_roundtrip():
    rng = np.random.default_rng(3)
    for q in (1, 3, 6):
        s = rng.normal(size=(q + 1, 2))
        c = np.tensordot(trial_to_legendre(q), s, axes=(1, 0))
        back = _trial_from_legendre(c)
        assert np.abs(back - s).max() <= 1e-13
        # consistency of the two basis evaluations
        xs = np.linspace(-1, 1, 11)
        v1 = np.tensordot(trial_matrix(q, xs), s, axes=(0, 0))
        v2 = np.tensordot(legendre_matrix(q, xs), c, axes=(0, 0))
        assert np.abs(v1 - v2).max() <= 1e-13


def test_cached_tables_are_read_only():
    # every caller shares one cached array: a write through one of them once
    # changed the slab matrices of every later caller in the process
    tables = [trial_to_legendre(3), *temporal_eigensplit(3), reference._nodal_transform(2)]
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table.flat[0] = 5.0
    assert np.array_equal(slab_temporal_matrices(3, (0.0, 1.0))[0], [1.0, 0.5, -0.5, 0.0])


_UNIT = st.floats(-1.0, 1.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), q=st.integers(1, MAX_TEMPORAL_DEGREE),
       lengths=st.lists(st.floats(0.05, 0.25), min_size=2, max_size=4, unique=True))
def test_endpoint_projection_reproduces_random_polynomials(data, q, lengths):
    # a random degree-<=q polynomial in t on a nonuniform partition of (0, T <= 1)
    part = TimePartition(np.concatenate([[0.0], np.cumsum(lengths)]))
    coef = np.array(data.draw(st.lists(_UNIT, min_size=q + 1, max_size=q + 1)))
    f = lambda t: np.polynomial.polynomial.polyval(t, coef)
    proj = endpoint_exact_project(q, f, part)
    for n in range(part.n_slabs):
        ts = np.linspace(*slab_ends(part, n), 7)
        assert np.abs(eval_slab(proj, part, n, ts) - f(ts)).max() <= 1e-12


@pytest.mark.parametrize("q", [1, 2, 3, 5])
def test_abs_legendre_integral_against_quadrature(q):
    from scipy.integrate import quad

    tau = 0.8
    slab = (0.0, tau)
    roots = np.sort(np.polynomial.legendre.leggauss(q)[0])
    breaks = (roots + 1.0) * tau / 2.0
    brute, _ = quad(lambda t: abs(legendre_matrix(q, to_normalized(slab, t))[q]), 0.0, tau,
                    points=breaks, limit=200)
    assert abs_legendre_integral(q, tau) == pytest.approx(brute, rel=1e-10)
    assert abs_legendre_integral(0, tau) == pytest.approx(tau)


@pytest.mark.parametrize("q", range(1, 13))
def test_sup_legendre_integral_against_dense_sampling(q):
    # |int_{-1}^x P_q| on 200,001 points: below the exact max, and within the
    # grid's quadratic error of it (measured 1.1e-9 relative at most, q = 10)
    tau = 0.8
    x = np.linspace(-1.0, 1.0, 200_001)
    dense = tau / 2.0 * np.abs(npleg.legval(x, npleg.legint(np.eye(q + 1)[q], lbnd=-1))).max()
    sup = sup_legendre_integral(q, tau)
    assert dense <= sup * (1.0 + 1e-13)
    assert sup - dense <= 1e-8 * sup
