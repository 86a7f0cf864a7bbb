"""Batch experiment front end: the ``wavext`` command.

Runs convergence studies (in mesh size, time step, or joint degree),
estimator studies, single solves, and energy-conservation checks from a
line-based ``key = value`` config file, writing ``results.csv``,
``rates.txt`` and ``run.log`` into the output directory.  Identical configs
produce byte-identical ``results.csv``.
"""

import argparse
import copy
import csv
import itertools
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, SolverFailure
from .estimator import compute_estimator, effectivity_index
from .fem import MAX_SPATIAL_DEGREE, build_space, norm_degree
from .mesh import build_structured_mesh, mesh_size
from .postprocess import (compute_error_report, convergence_rates,
                          energy_trace)
from .problem import Discretization, check_choices, inline_problem, make_preset
from .reference import triangle_rule
from .solver import solve
from .timebasis import uniform_time_partition

#: Largest U + V storage of one cell, 2 N (q+1) (nx p + 1)^2 floats: 2^27
#: floats (1 GiB), an eighth of an 8 GB machine, since the reconstruction,
#: the error sampling and the factorizations come on top.  The largest
#: shipped cell (converge-h, p = 3, nx = 32, q = 4, tau = 1/32) stores
#: 3,010,880 floats (24 MB).  The error report's samples of one exact
#: callback on one slab, samples_per_slab times the quadrature points of
#: the mesh, are held to the same budget (at most 11 x 51,200 = 563,200
#: values in the shipped cells).
MAX_SOLUTION_FLOATS = 2 ** 27

CSV_COLUMNS = ("run_id", "experiment", "method", "bc_mode", "p", "q", "h",
               "tau", "err_u", "err_ustar", "err_v", "err_gradu", "eta",
               "osc_f", "effectivity", "energy_drift")


@dataclass
class ExperimentConfig:
    """A study's run matrix and settings, with defaults from its ``STUDIES``
    record.  Each field is the config key of its name, which repeats to form
    a list exactly when its default is one.  An empty psi keeps the preset's
    profile; u, c and bbox shape an inline problem."""

    experiment: str
    problem: str
    p: list
    q: list
    mesh: list
    tau: list
    psi: str = ""
    method: str = "gradient"
    bc_mode: str = "projection"
    initial_mode: str = "projection"
    samples_per_slab: int = 11
    T: float = 1.0
    out: str = "results"
    u: str = ""
    c: float = 1.0
    bbox: tuple = (0.0, 1.0, 0.0, 1.0)


@dataclass(frozen=True)
class Study:
    """What an experiment runs, reports and checks.  A sweep of h or tau
    crosses p and q with that axis and rates each (p, q) group over it; a
    pq sweep runs p = q; every axis not swept takes its first value.
    ``targets(p, q)`` gives the last-pair rates that --check holds a group
    to, within ``tol``; ``max_drift`` bounds a conservation study's drift."""

    defaults: dict
    sweep: str = None
    estimator: bool = False  # also needs p >= 2, for elementwise Laplacians
    quantities: tuple = ("err_u", "err_ustar", "err_v", "err_gradu")
    targets: object = None
    tol: float = 0.0
    max_drift: float = None


STUDIES = {
    "converge-h": Study(dict(problem="dirichlet-cos", p=[1, 2, 3], q=[4],
                             mesh=[4, 8, 16, 32], tau=[0.03125]), sweep="h", tol=0.25,
                        targets=lambda p, q: dict(err_u=p + 1, err_ustar=p + 1,
                                                  err_v=p + 1, err_gradu=p)),
    "converge-tau": Study(dict(problem="dirichlet-cos", p=[8], q=[1, 2, 3, 4], mesh=[4],
                               tau=[0.25, 0.125, 0.0625]), sweep="tau", tol=0.3,
                          targets=lambda p, q: dict(err_u=q + 1, err_v=q + 1, err_gradu=q + 1,
                                                    **({"err_ustar": q + 2} if q > 1 else {}))),
    "converge-pq": Study(dict(problem="dirichlet-cos", p=[1, 2, 3, 4, 5, 6],
                              q=[], mesh=[8], tau=[0.25]), sweep="pq"),
    "estimate": Study(dict(problem="estimator-poly", p=[4], q=[1, 2], mesh=[2],
                           tau=[0.125, 0.0625, 0.03125, 0.015625]), sweep="tau",
                      estimator=True, quantities=("err_u", "eta", "osc_f")),
    "solve": Study(dict(problem="dirichlet-cos", p=[2], q=[2], mesh=[8], tau=[0.125])),
    "energy": Study(dict(problem="standing-wave", p=[2], q=[2], mesh=[8], tau=[0.03125],
                         initial_mode="interpolation"),
                    quantities=("energy_drift",), max_drift=1e-10),
}

EXPERIMENTS = tuple(STUDIES)

#: Other spellings of the method and bc_mode names, matched in lower case.
_SPELLINGS = {"method": {"gradientcoupling": "gradient", "i": "gradient",
                         "masscoupling": "mass", "ii": "mass"},
              "bc_mode": {"ptau": "projection", "ptaulifting": "projection",
                          "lagrange": "interpolation", "naivelagrangeintime": "interpolation"}}


def _bbox(value):
    parts = value.split()
    if len(parts) != 4:
        raise ConfigurationError("bbox needs four numbers: x_min x_max y_min y_max")
    return tuple(float(v) for v in parts)


#: Parser of one value of each key that is not a plain word.
_PARSERS = {"p": int, "q": int, "mesh": int, "samples_per_slab": int, "tau": float,
            "T": float, "c": float, "bbox": _bbox,
            "method": lambda v: _SPELLINGS["method"].get(v.lower(), v.lower()),
            "bc_mode": lambda v: _SPELLINGS["bc_mode"].get(v.lower(), v.lower())}


def parse_config(path, experiment):
    """The experiment's defaults, overwritten by the keys a ``key = value``
    config file sets: the ExperimentConfig fields, lists by key repetition."""
    cfg = default_config(experiment)
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in {f.name for f in fields(cfg)}:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw and not isinstance(getattr(cfg, key), list):
            raise ConfigurationError(f"{path}: key {key!r} given more than once")
        raw.setdefault(key, []).append(value)
    if raw.get("experiment", [experiment]) != [experiment]:
        raise ConfigurationError(
            f"config names experiment {raw['experiment'][0]!r}, "
            f"but {experiment!r} was requested")
    for key, values in raw.items():
        try:
            parsed = [_PARSERS.get(key, str)(v) for v in values]
        except ValueError as exc:
            raise ConfigurationError(f"{path}: invalid {key} value: {exc}") from exc
        setattr(cfg, key, parsed if isinstance(getattr(cfg, key), list) else parsed[0])
    stray = raw.keys() & ({"psi"} if cfg.problem == "inline" else {"u", "c", "bbox"})
    if stray:
        raise ConfigurationError(f"{path}: problem {cfg.problem!r} takes no "
                                 f"{' or '.join(sorted(stray))} key")
    _validate(cfg)
    return cfg


def default_config(experiment):
    if experiment not in STUDIES:
        raise ConfigurationError(f"unknown experiment {experiment!r}")
    return ExperimentConfig(experiment, **copy.deepcopy(STUDIES[experiment].defaults))


def _validate(cfg):
    study = STUDIES[cfg.experiment]
    qs = cfg.p if study.sweep == "pq" else cfg.q  # a pq sweep runs q = p
    for name, values in (("p", cfg.p), ("q", qs), ("mesh", cfg.mesh), ("tau", cfg.tau)):
        if not values:
            raise ConfigurationError(f"{name} list must not be empty")
    for q in qs:
        check_choices(q, cfg.method, cfg.bc_mode, cfg.initial_mode)
    if len(set(cfg.p)) < len(cfg.p) or len(set(cfg.q)) < len(cfg.q):
        raise ConfigurationError("p and q values must not repeat")
    if not all(0 < v < math.inf for v in cfg.tau + [cfg.T]):
        raise ConfigurationError("tau and T values must be positive and finite")
    for tau in cfg.tau:
        n_slabs = cfg.T / tau  # inf when tau is tiny
        if not (math.isfinite(n_slabs) and round(n_slabs) >= 1
                and abs(round(n_slabs) * tau - cfg.T) <= 1e-9 * cfg.T):
            raise ConfigurationError(f"tau = {tau} does not divide the final time {cfg.T}")
    if any(v < 1 for v in cfg.mesh):
        raise ConfigurationError("mesh values must be >= 1")
    res = {"h": [-n for n in cfg.mesh], "tau": cfg.tau}.get(study.sweep, [])
    if any(a <= b for a, b in zip(res, res[1:])):  # rates run coarse to fine
        raise ConfigurationError("rates need tau strictly decreasing, mesh strictly increasing")
    p_min = 2 if study.estimator else 1
    if not all(p_min <= v <= MAX_SPATIAL_DEGREE for v in cfg.p):
        raise ConfigurationError(f"p values must be in [{p_min}, {MAX_SPATIAL_DEGREE}]")
    if cfg.samples_per_slab < 3:
        raise ConfigurationError("samples_per_slab must be >= 3")
    if not cfg.out:
        raise ConfigurationError("out must name an output directory")
    x_min, x_max, y_min, y_max = cfg.bbox
    if not (all(map(math.isfinite, cfg.bbox)) and x_min < x_max and y_min < y_max):
        raise ConfigurationError(f"bbox {cfg.bbox} is not a finite nondegenerate box")
    if cfg.problem == "inline" and not cfg.u:
        raise ConfigurationError("inline problems need a u = <expression> line")
    _make_problem(cfg)  # an unknown preset or psi, an unusable u or c
    for cell in _cells(cfg):
        label = f"cell p={cell['p']} q={cell['q']} mesh={cell['nx']} tau={cell['tau']}"
        floats = 2 * round(cfg.T / cell["tau"]) * (cell["q"] + 1) \
            * (cell["nx"] * cell["p"] + 1) ** 2
        if floats > MAX_SOLUTION_FLOATS:
            raise ConfigurationError(f"{label}: U and V would hold more than "
                                     f"{MAX_SOLUTION_FLOATS} values")
        points = 2 * cell["nx"] ** 2 * len(triangle_rule(norm_degree(cell["p"]))[1])
        if cfg.samples_per_slab * points > MAX_SOLUTION_FLOATS:
            raise ConfigurationError(f"{label}: samples_per_slab = {cfg.samples_per_slab} "
                                     f"would sample more than {MAX_SOLUTION_FLOATS} "
                                     "values on one slab")


def _make_problem(cfg):
    if cfg.problem == "inline":
        return inline_problem(cfg.u, c=cfg.c, bbox=cfg.bbox)
    return make_preset(cfg.problem, cfg.psi or None)


def _cells(cfg):
    """Deterministic run matrix for an experiment config (see Study): the
    cells of each (p, q) group are consecutive, coarse to fine."""
    sweep = STUDIES[cfg.experiment].sweep
    pq, rated = sweep == "pq", sweep in ("h", "tau")
    axes = itertools.product(cfg.p if sweep else cfg.p[:1],
                             [None] if pq else cfg.q if rated else cfg.q[:1],
                             cfg.mesh if sweep == "h" else cfg.mesh[:1],
                             cfg.tau if sweep == "tau" else cfg.tau[:1])
    return [dict(p=p, q=p if pq else q, nx=nx, tau=tau) for p, q, nx, tau in axes]


def run_cell(cfg, cell, problem, space):
    """Solve one run-matrix cell on its degree-p space over the nx-by-nx
    mesh and return its CSV row values."""
    n_slabs = round(cfg.T / cell["tau"])
    partition = uniform_time_partition(cfg.T, n_slabs)
    disc = Discretization(space, partition, cell["q"], method=cfg.method,
                          bc_mode=cfg.bc_mode, initial_mode=cfg.initial_mode)
    try:
        sol = solve(problem, disc)
    except SolverFailure as exc:
        raise SolverFailure(
            f"cell p={cell['p']} q={cell['q']} mesh={cell['nx']} "
            f"tau={cell['tau']}: {exc}", residual=exc.residual) from exc

    # every problem the CLI builds is manufactured, so it has an exact solution
    rep = compute_error_report(sol, problem, cfg.samples_per_slab)
    row = dict(dict.fromkeys(CSV_COLUMNS[1:]), experiment=cfg.experiment, method=cfg.method,
               bc_mode=cfg.bc_mode, p=cell["p"], q=cell["q"], h=mesh_size(space.mesh),
               tau=cell["tau"], **asdict(rep))
    if STUDIES[cfg.experiment].estimator:
        br = compute_estimator(sol, problem)
        eff = effectivity_index(br.eta, rep.err_u)  # NaN for a zero error
        row.update(eta=br.eta, osc_f=br.osc_f, effectivity=None if math.isnan(eff) else eff)
    energies = energy_trace(sol, problem)
    if energies[0] > 0:
        row["energy_drift"] = float(np.abs(energies - energies[0]).max() / energies[0])
    row["dofs"] = 2 * space.n_dofs * (cell["q"] * n_slabs + 1)
    return row


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.11e}"
    return str(value)


def _write_results(rows, out_dir):
    path = out_dir / "results.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for i, row in enumerate(rows):
            writer.writerow([_fmt(row.get(c)) if c != "run_id" else f"r{i:03d}"
                             for c in CSV_COLUMNS])
    return path


def _report(cfg, rows):
    """The text of rates.txt and the study's --check failures, from one pass
    over the rows: each (p, q) group's rates and effectivity ratio feed both."""
    study = STUDIES[cfg.experiment]
    res, quantities = study.sweep, study.quantities
    lines = [f"experiment: {cfg.experiment}", ""]
    failures = [f"p={r['p']} q={r['q']} tau={r['tau']}: error exceeds eta + osc_f"
                for r in rows if study.estimator and r["err_u"] is not None
                and r["err_u"] > r["eta"] + r["osc_f"]]
    if res in ("h", "tau"):
        # the interpolated lifting's per-slab defect spoils the rates in tau
        targets = study.targets if res == "h" or cfg.bc_mode == "projection" else None
        for (p, q), group in itertools.groupby(rows, key=lambda r: (r["p"], r["q"])):
            group = list(group)
            lines.append(f"p = {p}, q = {q} (rates in {res})")
            lines += [f"  {res}={_fmt(r[res])} "
                      + " ".join(f"{k}={_fmt(r[k])}" for k in quantities) for r in group]
            rates = {}
            for k in quantities:
                errs = [r[k] for r in group]
                if len(group) >= 2 and None not in errs:
                    rates[k] = convergence_rates([r[res] for r in group], errs)
                    lines.append(f"  rates[{k}]: " + " ".join(
                        "n/a" if v is None else f"{v:.3f}" for v in rates[k]))
            lines.append("")
            effs = [r["effectivity"] for r in group if r["effectivity"]]
            if effs:
                ratio = max(effs) / min(effs)
                lines.append(f"  effectivity min {min(effs):.3f} "
                             f"max {max(effs):.3f} ratio {ratio:.3f}")
                if ratio > 3.0:
                    failures.append(f"p={p} q={q}: effectivity ratio {ratio:.2f} > 3")
            for k, target in (targets(p, q).items() if targets and len(group) >= 2 else ()):
                rate = rates.get(k, [None])[-1]
                if rate is None or abs(rate - target) > study.tol:
                    failures.append(f"p={p} q={q}: {k} last-pair rate {rate} not "
                                    f"within {target}+-{study.tol}")
    elif study.max_drift is not None:
        drift = rows[0]["energy_drift"]
        lines.append(f"energy drift: {_fmt(drift)}")
        if drift is None or drift > study.max_drift:
            failures.append(f"energy drift {drift} exceeds {study.max_drift:g}")
    else:
        if res:
            lines.append("p = q sweep at fixed mesh and time step (errors vs DOFs)")
            errs = [r["err_u"] for r in rows]
            if any(b >= a for a, b in zip(errs, errs[1:])):
                failures.append("err_u not strictly decreasing in p = q")
        for r in rows:
            head = f"p=q={r['p']:2d} dofs={r['dofs']:8d} " if res else ""
            lines.append("  " + head + " ".join(f"{k}={_fmt(r[k])}" for k in quantities))
    return "\n".join(lines) + "\n", failures


def _run_cells(cfg, cells):
    """Rows and wall times in seconds of cells run in order: the problem is
    built once, and consecutive cells with the same (p, nx) share a space."""
    problem = _make_problem(cfg)
    space = None
    out = []
    for cell in cells:
        start = time.time()
        if space is None or (space.degree, space.mesh.nx) != (cell["p"], cell["nx"]):
            mesh = build_structured_mesh(cell["nx"], cell["nx"], problem.bbox)
            space = build_space(mesh, cell["p"])
        out.append((run_cell(cfg, cell, problem, space), time.time() - start))
    return out


def run_experiment(cfg, jobs=1, check=False):
    """Execute the run matrix; write results.csv, rates.txt, run.log.

    Returns the process exit code (0 ok, 4 when --check thresholds fail).
    """
    out_dir = Path(cfg.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        raise ConfigurationError(f"cannot create output directory {out_dir}: {exc}") from exc
    cells = _cells(cfg)
    log_lines = [f"experiment {cfg.experiment}: {len(cells)} cells, "
                 f"problem {cfg.problem}{(' psi=' + cfg.psi) if cfg.psi else ''}"]
    start = time.time()
    workers = min(jobs, len(cells))
    if workers > 1:
        # one cell per task, so a worker shares no space between cells; the
        # pool forks all its workers at once, so never more than the cells
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = [one for (one,) in pool.map(_run_cells, [cfg] * len(cells),
                                               [[cell] for cell in cells])]
    else:
        done = _run_cells(cfg, cells)
    rows = [row for row, _ in done]
    log_lines += [f"  p={c['p']} q={c['q']} nx={c['nx']} tau={c['tau']} done in {secs:.2f}s"
                  for c, (_, secs) in zip(cells, done)]
    try:  # a directory or a read-only file where an output goes
        csv_path = _write_results(rows, out_dir)
        text, failures = _report(cfg, rows)
        (out_dir / "rates.txt").write_text(text)
        log_lines.append(f"total {time.time() - start:.2f}s -> {csv_path}")
        failures = failures if check else []
        log_lines += [f"CHECK FAIL: {msg}" for msg in failures]
        (out_dir / "run.log").write_text("\n".join(log_lines) + "\n")
    except OSError as exc:
        raise ConfigurationError(f"cannot write output in {out_dir}: {exc}") from exc
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    return 4 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="wavext",
        description="Space-time FEM experiment driver for the acoustic wave equation")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None,
                        help="key = value config file (defaults are built in)")
        sp.add_argument("--out", type=str, default=None,
                        help="output directory (overrides the config)")
        sp.add_argument("--jobs", type=int, default=1)
        sp.add_argument("--check", action="store_true",
                        help="apply experiment-specific acceptance thresholds")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config, args.experiment) if args.config \
            else default_config(args.experiment)
        if args.out:
            cfg = replace(cfg, out=args.out)
        return run_experiment(cfg, jobs=max(1, args.jobs), check=args.check)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
