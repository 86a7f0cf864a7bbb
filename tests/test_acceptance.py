"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The runs mirror the benchmark studies at desk scale; shared solves are cached
in session fixtures.  Criterion 6 checks the accuracy the interpolated
Dirichlet lifting costs, in the reconstruction, where the loss shows (one
order at odd q, none at even q).  Criterion 7(iii) checks the reconstruction
gap bounds where their hypotheses hold: homogeneous data for every q, and
nonhomogeneous data for q >= 2.
"""

import csv
import math

import numpy as np
import pytest

import wavext as wx
from conftest import (coeffs_on_slab, error_C0, legendre_coeffs, legendre_derivative_matrix,
                      postprocessed_solution, slab_ends, to_normalized)
from test_timebasis import _assemble_global_endpoint_projection, _legendre
from wavext.cli import parse_config, run_experiment
from wavext.estimator import gap_constant
from wavext.timebasis import gauss_rule, legendre_matrix


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    return ok


def last_rate(resolutions, errors):
    return wx.convergence_rates(resolutions, errors)[-1]


# ---------------------------------------------------------------------------
# shared runs


def _tau_solutions(prob):
    """q in {1,2,3} x tau in {1/4, 1/8, 1/16}; degree-8 space on the 4x4 mesh
    with the gradient coupling (and the projection lifting for nonhomogeneous
    data)."""
    space = wx.build_space(wx.build_structured_mesh(4, 4, prob.bbox), 8)
    sols = {}
    for q in (1, 2, 3):
        for n_slabs in (4, 8, 16):
            disc = wx.Discretization(space, wx.uniform_time_partition(1.0, n_slabs),
                                     q=q, method="gradient", bc_mode="projection")
            sols[(q, n_slabs)] = wx.solve(prob, disc)
    return space, sols


@pytest.fixture(scope="session")
def tau_study():
    """The tau runs on the nonhomogeneous dirichlet-cos problem, each with its
    error report."""
    prob = wx.dirichlet_cos()
    space, sols = _tau_solutions(prob)
    return prob, space, {key: (sol, wx.compute_error_report(sol, prob, 11))
                         for key, sol in sols.items()}


@pytest.fixture(scope="session")
def h_study(tmp_path_factory):
    """Criterion 4 run matrix executed twice through the CLI layer."""
    base = tmp_path_factory.mktemp("hconv")
    cfg_path = base / "crit4.cfg"
    cfg_path.write_text(
        "problem = dirichlet-cos\n"
        "p = 1\np = 2\nq = 4\n"
        "mesh = 4\nmesh = 8\nmesh = 16\n"
        "tau = 0.03125\n")
    outputs = []
    for tag in ("a", "b"):
        cfg = parse_config(str(cfg_path), "converge-h")
        cfg.out = str(base / tag)
        assert run_experiment(cfg) == 0
        outputs.append((base / tag / "results.csv").read_bytes())
    with open(base / "a" / "results.csv") as fh:
        rows = list(csv.DictReader(fh))
    return rows, outputs


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_energy_conservation():
    prob = wx.standing_wave()
    space = wx.build_space(wx.build_structured_mesh(8, 8, prob.bbox), 2)
    disc = wx.Discretization(space, wx.uniform_time_partition(1.0, 32), q=2,
                             initial_mode="interpolation")
    sol = wx.solve(prob, disc)
    E = wx.energy_trace(sol, prob)
    drift = float(np.abs(E - E[0]).max() / E[0])
    ok = drift <= 1e-10
    assert report(1, ok, f"energy drift {drift:.3e} (tolerance 1e-10)")


def test_criterion_2_galerkin_exactness():
    from conftest import txy_problem

    prob = txy_problem()
    space = wx.build_space(wx.build_structured_mesh(3, 3), 2)
    disc = wx.Discretization(space, wx.uniform_time_partition(1.0, 4), q=1)
    rep = wx.compute_error_report(wx.solve(prob, disc), prob, 11)
    worst = max(rep.err_u, rep.err_ustar, rep.err_v, rep.err_gradu)
    ok = worst <= 1e-9
    assert report(2, ok, f"u = t*x*y probe, worst error {worst:.3e} (tolerance 1e-9)")


def test_criterion_3_discrete_velocity_identity():
    prob = wx.standing_wave()
    space = wx.build_space(wx.build_structured_mesh(4, 4, prob.bbox), 2)
    worst = 0.0
    for method in ("gradient", "mass"):
        for q in (1, 2, 3):
            disc = wx.Discretization(space, wx.uniform_time_partition(1.0, 4),
                                     q=q, method=method)
            sol = wx.solve(prob, disc)
            for n in range(sol.partition.n_slabs):
                tau = sol.partition.lengths[n]
                v_leg = legendre_coeffs(sol, n, "v")
                scale = max(1.0, np.abs(v_leg).max())
                for k in range(q):
                    gap = np.abs(v_leg[k] - (2 * k + 1) / tau * sol.u[n, k + 1]).max()
                    worst = max(worst, gap / scale)
    ok = worst <= 1e-10
    assert report(3, ok, f"max coefficient defect {worst:.3e} over q in (1,2,3), "
                         f"both couplings (tolerance 1e-10)")


def test_criterion_4_h_convergence(h_study):
    rows, _ = h_study
    failures = []
    details = []
    for p in (1, 2):
        group = [r for r in rows if int(r["p"]) == p]
        hs = [float(r["h"]) for r in group]
        for key, target in (("err_u", p + 1), ("err_ustar", p + 1),
                            ("err_v", p + 1), ("err_gradu", p)):
            rate = last_rate(hs, [float(r[key]) for r in group])
            details.append(f"p{p}:{key}={rate:.2f}")
            if abs(rate - target) > 0.25:
                failures.append(f"p={p} {key} rate {rate:.3f} vs {target}+-0.25")
    ok = not failures
    assert report(4, ok, "; ".join(details) + (f" | {failures}" if failures else ""))


def test_criterion_5_tau_convergence(tau_study):
    _, _, runs = tau_study
    taus = [0.25, 0.125, 0.0625]
    failures = []
    details = []
    for q in (1, 2, 3):
        reports = [runs[(q, n)][1] for n in (4, 8, 16)]
        checks = [("err_u", q + 1, 0.3), ("err_v", q + 1, 0.3),
                  ("err_gradu", q + 1, 0.3)]
        if q > 1:
            checks.append(("err_ustar", q + 2, 0.3))
        for key, target, tol in checks:
            rate = last_rate(taus, [getattr(r, key) for r in reports])
            details.append(f"q{q}:{key}={rate:.2f}")
            if abs(rate - target) > tol:
                failures.append(f"q={q} {key} rate {rate:.3f} vs {target}+-{tol}")
    ok = not failures
    assert report(5, ok, "; ".join(details) + (f" | {failures}" if failures else ""))


def test_criterion_6_bc_degradation(tau_study):
    prob, space, runs = tau_study
    taus = [0.25, 0.125, 0.0625]
    naive = {}
    for q in (2, 3):
        naive[q] = []
        for n_slabs in (4, 8, 16):
            disc = wx.Discretization(space, wx.uniform_time_partition(1.0, n_slabs),
                                     q=q, method="mass", bc_mode="interpolation")
            naive[q].append(wx.compute_error_report(wx.solve(prob, disc), prob, 11))
    naive_u = {q: last_rate(taus, [r.err_u for r in naive[q]]) for q in (2, 3)}
    naive_star = {q: last_rate(taus, [r.err_ustar for r in naive[q]]) for q in (2, 3)}
    ptau_star = {q: last_rate(taus, [runs[(q, n)][1].err_ustar for n in (4, 8, 16)])
                 for q in (2, 3)}
    failures = []
    # odd q: the interpolated lifting costs the reconstruction one order
    if naive_star[3] > (3 + 2) - 0.5 or abs(ptau_star[3] - (3 + 2)) > 0.3:
        failures.append("q=3 expects interpolated <= 4.5, projection 5 +- 0.3")
    # even q: the interpolant keeps slab means to O(tau^{q+2}), so nothing is lost
    if abs(naive_star[2] - (2 + 2)) > 0.3 or abs(ptau_star[2] - (2 + 2)) > 0.3:
        failures.append("q=2 expects both 4 +- 0.3")
    detail = ("err_ustar rates interpolated lifting "
              + ", ".join(f"q{q}={naive_star[q]:.3f}" for q in (2, 3))
              + "; projection lifting "
              + ", ".join(f"q{q}={ptau_star[q]:.3f}" for q in (2, 3))
              + "; naive err_u rates "
              + ", ".join(f"q{q}={naive_u[q]:.3f}" for q in (2, 3)))
    ok = not failures
    report(6, ok, detail + (f" | {failures}" if failures else ""))
    assert ok, (
        f"{failures}: {detail}. The lifting reaches the reconstruction "
        "u(0) + int v through the slab means of the v-lifting. The uniform-node "
        "interpolant keeps those means to O(tau^{q+1}) at odd q and O(tau^{q+2}) "
        "at even q; the endpoint-exact projection keeps them exactly for q >= 2. "
        "Expected: err_ustar rate <= q+1.5 for the interpolated lifting at q = 3, "
        "and q+2 +- 0.3 for the projection lifting and for both liftings at q = 2.")


def _gap_bound_ratios(space, sols):
    """Per q, the worst ratio over all runs and slabs of the reconstruction
    gap to its sup bound and of its L1-in-time norm to the L1 bound."""
    M = wx.assemble(space, "mass")
    worst_by_q = {}
    for (q, _), sol in sols.items():
        star = postprocessed_solution(sol)
        for n in range(sol.partition.n_slabs):
            slab = slab_ends(sol.partition, n)
            tau = slab[1] - slab[0]
            v_top = legendre_coeffs(sol, n, "v")[q]
            top_norm = math.sqrt(max(float(v_top @ (M @ v_top)), 0.0))
            defect_l2 = math.sqrt(tau / (2 * q + 1)) * top_norm
            ts, ws = gauss_rule(12, slab)
            xs = to_normalized(slab, ts)
            d = coeffs_on_slab(star, n, xs) - coeffs_on_slab(sol, n, xs)
            gaps = np.sqrt(np.maximum(np.einsum("sd,ds->s", d, M @ d.T), 0.0))
            sup_bound = math.sqrt(gap_constant(q) * tau) * defect_l2
            l1_gap = float(np.sum(ws * gaps))
            l1_bound = tau * float(np.sum(
                ws * np.abs(legendre_matrix(q, xs)[q]))) * top_norm
            worst = worst_by_q.get(q, 0.0)
            if sup_bound > 0:
                worst = max(worst, gaps.max() / sup_bound)
            if l1_bound > 0:
                worst = max(worst, l1_gap / l1_bound)
            worst_by_q[q] = worst
    return worst_by_q


def test_criterion_7_projection_oracles(tau_study):
    # (i) local vs global characterization of the endpoint-exact projection
    part = wx.uniform_time_partition(1.0, 4)
    f = lambda t: np.sin(3.0 * t)
    local = wx.endpoint_exact_project(3, f, part)
    ref = _assemble_global_endpoint_projection(3, f, lambda t: 3 * np.cos(3 * t), part)
    gap_i = float(np.abs(_legendre(local) - ref).max())

    # (ii) weighted Legendre identity
    gap_ii = 0.0
    for q in range(1, 6):
        for tau in (1.0, 0.3):
            slab = (0.0, tau)
            ts, ws = gauss_rule(q + 4, slab)
            xs = to_normalized(slab, ts)
            val = np.sum(ws * (ts - slab[0]) * legendre_matrix(q, xs)[q]
                         * legendre_derivative_matrix(q, xs)[q] * 2.0 / tau)
            gap_ii = max(gap_ii, abs(val - tau * q / (2 * q + 1)))

    # (iii) reconstruction gap bounds on every slab of the tau runs, where
    # their hypotheses hold: homogeneous data for every q, and nonhomogeneous
    # data for q >= 2, where the projection lifting keeps slab means
    _, space, runs = tau_study
    nonhom = _gap_bound_ratios(space, {key: sol for key, (sol, _) in runs.items()})
    hom = _gap_bound_ratios(*_tau_solutions(wx.standing_wave()))
    worst_iii = max(max(hom.values()), nonhom[2], nonhom[3])
    ratios = ("homogeneous " + ", ".join(f"q{q}={v:.3f}" for q, v in sorted(hom.items()))
              + "; nonhomogeneous " + ", ".join(f"q{q}={nonhom[q]:.3f}" for q in (2, 3)))
    ok = gap_i <= 1e-11 and gap_ii <= 1e-12 and worst_iii <= 1.0 + 1e-10
    report(7, ok, f"projection oracle gap {gap_i:.2e} (tol 1e-11); "
                  f"Legendre identity defect {gap_ii:.2e} (tol 1e-12); "
                  f"gap-to-bound ratios {ratios} (each <= 1); "
                  f"nonhomogeneous q1={nonhom[1]:.3f} out of hypothesis")
    assert ok, (
        f"projection oracles: gap {gap_i:.2e}, identity defect {gap_ii:.2e}; "
        f"reconstruction gap bounds violated: ratios {ratios}. The bounds "
        "presuppose that the reconstruction matches u at the partition nodes: "
        "true for homogeneous data, and for nonhomogeneous data when the "
        "lifting keeps slab means of the boundary velocity (q >= 2).")


@pytest.fixture(scope="session")
def estimator_smooth_study():
    prob = wx.estimator_poly("cos4t")
    space = wx.build_space(wx.build_structured_mesh(2, 2, prob.bbox), 4)
    out = {}
    for q in (1, 2):
        for n_slabs in (8, 16, 32, 64):
            disc = wx.Discretization(space, wx.uniform_time_partition(1.0, n_slabs), q=q)
            sol = wx.solve(prob, disc)
            err, _ = error_C0(sol, prob.exact_u, "l2", 11)
            br = wx.compute_estimator(sol, prob)
            out[(q, n_slabs)] = (err, br)
    return out


def test_criterion_8_estimator_reliability(estimator_smooth_study):
    failures = []
    ratios = []
    for q in (1, 2):
        effs = []
        for n_slabs in (8, 16, 32, 64):
            err, br = estimator_smooth_study[(q, n_slabs)]
            if err > br.eta + br.osc_f:
                failures.append(f"q={q} N={n_slabs}: error {err:.3e} exceeds "
                                f"eta+osc {br.eta + br.osc_f:.3e}")
            effs.append(wx.effectivity_index(br.eta, err))
        ratio = max(effs) / min(effs)
        ratios.append(f"q{q}:{ratio:.3f}")
        if ratio > 3.0:
            failures.append(f"q={q}: effectivity max/min {ratio:.3f} > 3")
    ok = not failures
    assert report(8, ok, "reliable at all cells; effectivity max/min "
                         + ", ".join(ratios) + (f" | {failures}" if failures else ""))


def test_criterion_9_estimator_rate_tracking():
    prob = wx.estimator_poly("t2.25")
    space = wx.build_space(wx.build_structured_mesh(2, 2, prob.bbox), 4)
    taus = [0.125, 0.0625, 0.03125, 0.015625]
    errs, etas = [], []
    for n_slabs in (8, 16, 32, 64):
        disc = wx.Discretization(space, wx.uniform_time_partition(1.0, n_slabs), q=2)
        sol = wx.solve(prob, disc)
        err, _ = error_C0(sol, prob.exact_u, "l2", 11)
        br = wx.compute_estimator(sol, prob)
        errs.append(err)
        etas.append(br.eta)
    err_rate = last_rate(taus, errs)
    eta_rate = last_rate(taus, etas)
    ok = abs(err_rate - 2.25) <= 0.2 and abs(eta_rate - 2.25) <= 0.2
    assert report(9, ok, f"err rate {err_rate:.3f}, eta rate {eta_rate:.3f} "
                         f"(target 2.25 +- 0.2)")


def test_criterion_10_determinism(h_study):
    _, outputs = h_study
    ok = outputs[0] == outputs[1]
    assert report(10, ok, f"results.csv byte-identical across reruns "
                          f"({len(outputs[0])} bytes)")
