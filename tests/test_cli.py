import csv
import re
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wavext.cli as cli
import wavext.fem as fem
import wavext.linalg as linalg
import wavext.solver as solver
import wavext.timebasis as timebasis
from wavext.cli import (CSV_COLUMNS, EXPERIMENTS, _cells, _make_problem, _report,
                        _run_cells, default_config, main, parse_config,
                        run_cell)
from wavext.errors import ConfigurationError
from wavext.fem import assemble, build_space, interior_factorization
from wavext.mesh import build_structured_mesh
from wavext.problem import Discretization, make_preset
from wavext.solver import SlabWorkspace
from wavext.timebasis import uniform_time_partition


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_rows(out_dir):
    with open(out_dir / "results.csv") as fh:
        return list(csv.DictReader(fh))


def test_parse_lists_and_comments(tmp_path):
    cfg = parse_config(write(tmp_path, "a.cfg", """
        # comment
        problem = dirichlet-cos
        p = 1
        p = 2   # inline comment
        q = 3
        mesh = 4
        tau = 0.25
        method = MassCoupling
        bc_mode = NaiveLagrangeInTime
    """), "converge-h")
    assert cfg.p == [1, 2] and cfg.q == [3]
    assert cfg.method == "mass" and cfg.bc_mode == "interpolation"


def test_parse_rejects_unknown_key(tmp_path):
    with pytest.raises(ConfigurationError):
        parse_config(write(tmp_path, "a.cfg", "frobnicate = 1\n"), "solve")


def test_parse_rejects_experiment_mismatch(tmp_path):
    path = write(tmp_path, "a.cfg", "experiment = energy\n")
    with pytest.raises(ConfigurationError):
        parse_config(path, "solve")


def test_parse_rejects_bad_values(tmp_path):
    with pytest.raises(ConfigurationError):
        parse_config(write(tmp_path, "a.cfg", "tau = -0.5\n"), "solve")
    with pytest.raises(ConfigurationError):
        parse_config(write(tmp_path, "b.cfg", "p = 1\np = x\n"), "solve")


def test_main_exit_codes(tmp_path):
    bad = write(tmp_path, "bad.cfg", "unknown_key = 1\n")
    assert main(["solve", "--config", bad]) == 2
    # tau that does not divide the final time
    nd = write(tmp_path, "nd.cfg", "tau = 0.3\n")
    assert main(["solve", "--config", nd, "--out", str(tmp_path / "nd")]) == 2


@pytest.mark.parametrize("text", [
    "p = 11\n",
    "problem = inline\nu = t*x\nbbox = a b c d\n",
    "problem = inline\nu = t*x\nbbox = 1 0 0 1\n",
    "problem = inline\nu = t*x\nc = -1\n",
    "problem = inline\nu = t*x\nc = inf\n",
    "problem = inline\nu = t*x\nc = 1e200\n",
    "problem = inline\n",
    "samples_per_slab = 2\n",
    "initial_mode = sideways\n",
    "T = nan\n",
    "tau = nan\n",
    "problem = inline\nu = x*(\n",
    "problem = inline\nu = z*t\n",
    "problem = inline\nu = foo(x)*t\n",
    "problem = inline\nu = 1/0\n",
    "q = 13\n",
    "q = 0\n",
    "q = 1\nq = 13\n",
    "problem = nosuch\n",
    "problem = estimator-poly\npsi = t0.5\n",
    "problem = estimator-poly\npsi = tnan\n",
    "problem = estimator-poly\npsi = tinf\n",
    "problem = estimator-poly\npsi = t1e400\n",
    "problem = estimator-poly\npsi = t1e200\n",
    "p = 1\np = 1\n",
    "q = 1\nq = 1\n",
])
def test_bad_config_values_exit_2(tmp_path, capsys, text):
    # every value is checked before the output directory is made
    path = write(tmp_path, "bad.cfg", "mesh = 2\n" + text)
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_unreadable_config_exits_2(tmp_path, capsys, kind):
    path = tmp_path / "a.cfg"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"mesh = 2\n\xff\xfe\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 2
    assert f"cannot read config {path}" in capsys.readouterr().err
    assert not out.exists()


def test_default_config_rejects_an_unknown_experiment():
    with pytest.raises(ConfigurationError, match="unknown experiment 'nosuch'"):
        default_config("nosuch")


@pytest.mark.parametrize("text, stray", [
    ("problem = dirichlet-cos\nc = 2\nu = x*y*t\nbbox = 0 2 0 2\n", "bbox or c or u"),
    ("problem = estimator-poly\nbbox = 0 2 0 2\n", "bbox"),
    ("c = 2\n", "c"),
    ("problem = inline\nu = x*y*t\npsi = t2.25\n", "psi"),
], ids=["preset-u-c-bbox", "preset-bbox", "default-preset-c", "inline-psi"])
def test_keys_of_another_problem_exit_2(tmp_path, capsys, text, stray):
    # u, c and bbox shape an inline problem, psi a preset's time profile;
    # given to the other kind, they were once ignored
    path = write(tmp_path, "keys.cfg", "mesh = 2\n" + text)
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 2
    assert f"takes no {stray} key" in capsys.readouterr().err
    assert not out.exists()


def test_unusable_out_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "sub"):
        assert main(["solve", "--out", str(out)]) == 2
        assert "configuration error: cannot create output directory" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["results.csv", "rates.txt", "run.log"])
def test_unwritable_output_file_exits_2(tmp_path, capsys, name):
    # checked only when the outputs are written, after the cells have run
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    path = write(tmp_path, "s.cfg", "p = 1\nmesh = 2\ntau = 0.5\n")
    assert main(["solve", "--config", path, "--out", str(out)]) == 2
    assert f"configuration error: cannot write output in {out}" in capsys.readouterr().err


@pytest.mark.parametrize("tau", ["1e-320", "0.3"])
def test_tau_checked_before_any_output(tmp_path, capsys, tau):
    # 1/1e-320 overflows to inf; 0.3 leaves a partial slab
    path = write(tmp_path, "tau.cfg", f"tau = {tau}\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 2
    assert "does not divide the final time" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("experiment, text", [
    ("converge-tau", "tau = 0.25\ntau = 0.5\n"),
    ("converge-tau", "tau = 0.5\ntau = 0.5\n"),
    ("estimate", "problem = estimator-poly\ntau = 0.125\ntau = 0.25\n"),
    ("converge-h", "mesh = 4\nmesh = 2\n"),
    ("converge-h", "mesh = 2\nmesh = 2\n"),
])
def test_unordered_resolutions_rejected_before_any_output(tmp_path, capsys, experiment, text):
    # rates need the resolutions coarse to fine: tau decreasing, mesh increasing
    path = write(tmp_path, "res.cfg", "p = 1\nq = 1\n" + text)
    out = tmp_path / "out"
    assert main([experiment, "--config", path, "--out", str(out)]) == 2
    assert "rates need tau strictly decreasing, mesh strictly increasing" in capsys.readouterr().err
    assert not out.exists()


def test_converge_tau_check_with_several_p(tmp_path, capsys):
    # --check takes the rates of each (p, q) group apart
    path = write(tmp_path, "ct.cfg", "p = 4\np = 5\nq = 1\nmesh = 2\ntau = 0.25\ntau = 0.125\n")
    out = tmp_path / "out"
    assert main(["converge-tau", "--config", path, "--out", str(out), "--check"]) == 0
    assert [(r["p"], r["tau"]) for r in read_rows(out)] == \
        [("4", "2.50000000000e-01"), ("4", "1.25000000000e-01"),
         ("5", "2.50000000000e-01"), ("5", "1.25000000000e-01")]
    # at tau = 1/2 -> 1/4 the rates are still short of q + 1: a check
    # failure per group, not a traceback
    path = write(tmp_path, "coarse.cfg", "p = 2\np = 3\nq = 1\nmesh = 2\ntau = 0.5\ntau = 0.25\n")
    assert main(["converge-tau", "--config", path, "--out", str(tmp_path / "coarse"),
                 "--check"]) == 4
    err = capsys.readouterr().err
    assert "p=2 q=1: err_u last-pair rate" in err and "p=3 q=1: err_gradu last-pair rate" in err


@pytest.mark.parametrize("text", ["tau = 1e-9\n", "mesh = 100000\n"])
def test_run_size_checked_before_any_output(tmp_path, capsys, monkeypatch, text):
    # 1e9 slabs, or 4e10 DOFs: U and V would not fit in memory
    def nothing_built(*args):
        raise AssertionError("a cell was started")

    monkeypatch.setattr(cli, "build_structured_mesh", nothing_built)
    monkeypatch.setattr(cli, "_run_cells", nothing_built)
    path = write(tmp_path, "big.cfg", text)
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 2
    assert f"would hold more than {cli.MAX_SOLUTION_FLOATS} values" in capsys.readouterr().err
    assert not out.exists()


def test_samples_per_slab_checked_before_any_output(tmp_path, capsys, monkeypatch):
    # 1e9 samples per slab: the error report would start with an 8 GB
    # linspace; nothing is allocated and no output is written
    def nothing_built(*args):
        raise AssertionError("a cell was started")

    monkeypatch.setattr(cli, "build_structured_mesh", nothing_built)
    monkeypatch.setattr(cli, "_run_cells", nothing_built)
    path = write(tmp_path, "many.cfg", "samples_per_slab = 1000000000\n")
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        assert main(["solve", "--config", path, "--out", str(out)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert f"would sample more than {cli.MAX_SOLUTION_FLOATS} values on one slab" \
        in capsys.readouterr().err
    assert not out.exists()


def test_samples_per_slab_budget_is_exact(tmp_path):
    # p = 1 on a 2 x 2 mesh: 8 cells of 16 norm points, so 2^27 / 128 = 2^20
    # samples per slab fill the budget exactly
    base = "p = 1\nq = 1\nmesh = 2\ntau = 0.5\nsamples_per_slab = "
    cfg = parse_config(write(tmp_path, "full.cfg", base + f"{2 ** 20}\n"), "solve")
    assert cfg.samples_per_slab == 2 ** 20
    with pytest.raises(ConfigurationError, match="samples_per_slab = 1048577"):
        parse_config(write(tmp_path, "over.cfg", base + f"{2 ** 20 + 1}\n"), "solve")


def test_shipped_configs_parse():
    # every configs/*.cfg passes parse_config, under the experiment that its
    # reduced golden copy names
    shipped = sorted((_ROOT / "configs").glob("*.cfg"))
    assert len(shipped) == 7
    for path in shipped:
        golden = (_ROOT / "tests" / "golden" / path.name).read_text()
        experiment = re.search(r"^experiment\s*=\s*(\S+)", golden, re.M).group(1)
        assert parse_config(path, experiment).experiment == experiment


def test_estimate_degree_checked_before_any_output(tmp_path, capsys):
    # the estimator needs elementwise Laplacians, which p = 1 cannot give
    path = write(tmp_path, "est.cfg",
                 "problem = estimator-poly\np = 1\nq = 1\nmesh = 2\ntau = 0.5\n")
    out = tmp_path / "out"
    assert main(["estimate", "--config", path, "--out", str(out)]) == 2
    assert f"p values must be in [2, {cli.MAX_SPATIAL_DEGREE}]" in capsys.readouterr().err
    assert not out.exists()


def test_nonfinite_boundary_data_exit_2(tmp_path, capsys):
    # log(0) * 0 is NaN at the x = 0 side; the solve must not start, and the
    # lifting, built before the initial data, names g_d
    path = write(tmp_path, "log.cfg",
                 "problem = inline\nu = log(x)*t\np = 1\nq = 1\nmesh = 2\ntau = 0.5\n")
    with np.errstate(divide="ignore", invalid="ignore"):
        code = main(["solve", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == ("configuration error: g_d is not finite at t = 0 "
                                       "at the boundary node (0, 0)\n")


def test_boundary_data_checked_at_every_sample_time(tmp_path, capsys):
    # finite until t = 0.5, the end of slab 2: once, the solve started and
    # failed there with exit 3, after numpy warnings from the slab products
    path = write(tmp_path, "pole.cfg", "problem = inline\nu = x*y/(t - 0.5)\np = 2\nq = 2\n"
                 "mesh = 2\ntau = 0.25\n")
    with np.errstate(divide="warn", invalid="warn"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["solve", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == ("configuration error: g_d is not finite at t = 0.5 "
                                       "at the boundary node (0, 0)\n")
    # the data's own division warns; nothing in wavext does
    assert caught and not [w for w in caught if "wavext" in w.filename]


_KNOWN_KEYS = ("experiment", "problem", "psi", "p", "q", "mesh", "tau", "method",
               "bc_mode", "initial_mode", "samples_per_slab", "T", "out", "u",
               "c", "bbox")
_NUMBERS = st.one_of(st.integers(-3, 40).map(str),
                     st.floats(allow_nan=True, allow_infinity=True).map(str),
                     st.sampled_from(["1e999", "-inf", "nan", "0x10", ""]))
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
#: Mostly valid values for the word-valued keys, so that a config often
#: gets past its first lines.
_WORDS = {"experiment": ["converge-h", "solve"],
          "problem": ["dirichlet-cos", "estimator-poly", "inline"],
          "psi": ["cos4t", "t2.25"], "method": ["gradient", "MassCoupling", "ii"],
          "bc_mode": ["projection", "lagrange"],
          "initial_mode": ["projection", "interpolation"],
          "out": ["results"], "u": ["t*x", "x*("]}


def _values(key):
    if key == "bbox":
        return st.lists(st.one_of(_NUMBERS, st.sampled_from(["a", "b"])),
                        min_size=3, max_size=5).map(" ".join)
    if key in _WORDS:
        return st.one_of(st.sampled_from(_WORDS[key]), _TEXT)
    return st.one_of(_NUMBERS, _TEXT)


_KEYED = st.sampled_from(_KNOWN_KEYS + ("frobnicate", "P")).flatmap(
    lambda key: _values(key).map(lambda value: f"{key} = {value}"))
# three keyed lines to one line of free text, which rarely parses
_LINES = st.one_of(_KEYED, _KEYED, _KEYED, _TEXT)


@settings(max_examples=500, deadline=None)
@given(experiment=st.sampled_from(EXPERIMENTS), lines=st.lists(_LINES, max_size=6))
def test_parse_config_fuzz(tmp_path_factory, experiment, lines):
    # whatever the file holds, the parser returns a config or raises
    # ConfigurationError
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_text("\n".join(lines), encoding="utf-8")
    try:
        cfg = parse_config(str(path), experiment)
    except ConfigurationError:
        return
    assert cfg.experiment == experiment


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_empty_config_gives_defaults(tmp_path, experiment):
    assert parse_config(write(tmp_path, "e.cfg", ""), experiment) == \
        default_config(experiment)


def test_problem_only_config_builds_the_preset(tmp_path):
    cfg = parse_config(write(tmp_path, "e.cfg", "problem = estimator-poly\n"),
                       "converge-h")
    built, preset = _make_problem(cfg), make_preset("estimator-poly")
    assert built.name == preset.name == "estimator-poly-cos4t"
    assert built.singular_at_zero == preset.singular_at_zero
    x, y, t = np.meshgrid(np.linspace(-1, 1, 5), np.linspace(-1, 1, 5),
                          np.linspace(0, 1, 5))
    for name in ("f", "exact_u", "exact_v"):
        assert np.array_equal(getattr(built, name)(x, y, t),
                              getattr(preset, name)(x, y, t))


def test_solve_experiment_writes_outputs(tmp_path):
    cfg_path = write(tmp_path, "s.cfg", """
        problem = standing-wave
        p = 1
        q = 1
        mesh = 2
        tau = 0.5
    """)
    out = tmp_path / "out1"
    assert main(["solve", "--config", cfg_path, "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 1
    assert list(rows[0].keys()) == list(CSV_COLUMNS)
    assert float(rows[0]["err_u"]) > 0
    assert (out / "rates.txt").exists() and (out / "run.log").exists()
    # identical rerun produces identical bytes
    out2 = tmp_path / "out2"
    assert main(["solve", "--config", cfg_path, "--out", str(out2)]) == 0
    assert (out / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


def test_rows_rederivable_by_single_solve(tmp_path):
    conv = write(tmp_path, "h.cfg", """
        problem = standing-wave
        p = 1
        q = 1
        mesh = 2
        mesh = 4
        tau = 0.5
    """)
    out = tmp_path / "conv"
    assert main(["converge-h", "--config", conv, "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 2
    single = write(tmp_path, "s.cfg", """
        problem = standing-wave
        p = 1
        q = 1
        mesh = 4
        tau = 0.5
    """)
    out_s = tmp_path / "single"
    assert main(["solve", "--config", single, "--out", str(out_s)]) == 0
    srow = read_rows(out_s)[0]
    for key in ("err_u", "err_ustar", "err_v", "err_gradu", "h", "tau"):
        assert srow[key] == rows[1][key]


def test_energy_check_passes_and_fails(tmp_path):
    ok = write(tmp_path, "e.cfg", "p = 2\nq = 2\nmesh = 4\ntau = 0.125\n")
    assert main(["energy", "--config", ok, "--out", str(tmp_path / "eo"),
                 "--check"]) == 0
    # boundary-driven problem does not conserve energy: check must fail
    bad = write(tmp_path, "b.cfg",
                "problem = dirichlet-cos\np = 2\nq = 2\nmesh = 4\ntau = 0.25\n")
    assert main(["energy", "--config", bad, "--out", str(tmp_path / "eb"),
                 "--check"]) == 4


def test_estimate_rows_have_estimator_columns(tmp_path):
    cfg = write(tmp_path, "est.cfg", """
        problem = estimator-poly
        psi = cos4t
        p = 4
        q = 1
        mesh = 2
        tau = 0.25
        tau = 0.125
    """)
    out = tmp_path / "est"
    assert main(["estimate", "--config", cfg, "--out", str(out), "--check"]) == 0
    rows = read_rows(out)
    assert len(rows) == 2
    for row in rows:
        assert float(row["eta"]) > 0
        assert float(row["osc_f"]) >= 0
        assert float(row["effectivity"]) > 1.0
        assert float(row["err_u"]) <= float(row["eta"]) + float(row["osc_f"])


def test_inline_problem_roundtrip(tmp_path):
    cfg = write(tmp_path, "i.cfg", """
        problem = inline
        u = cos(t)*sin(pi*x)*sin(pi*y)
        p = 2
        q = 2
        mesh = 4
        tau = 0.25
    """)
    out = tmp_path / "inl"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    row = read_rows(out)[0]
    assert float(row["err_u"]) < 1e-2


def test_default_configs_valid():
    # main runs default_config unvalidated when no --config is given
    for name in EXPERIMENTS:
        cfg = default_config(name)
        assert cfg.experiment == name
        cli._validate(cfg)


#: A 4-cell converge-tau study: 2 q x 2 tau on one space.
_TAU_STUDY = """
    problem = dirichlet-cos
    p = 3
    q = 1
    q = 2
    mesh = 2
    tau = 0.5
    tau = 0.25
"""


@pytest.mark.parametrize("experiment, text", [
    ("converge-h", "problem = standing-wave\np = 1\nq = 1\nmesh = 2\nmesh = 4\ntau = 0.5\n"),
    # the serial run shares one space among the cells, the pool does not
    ("converge-tau", _TAU_STUDY),
], ids=["converge-h", "converge-tau"])
def test_jobs_parallel_matches_serial(tmp_path, experiment, text):
    cfg_path = write(tmp_path, "p.cfg", text)
    a, b = tmp_path / "ser", tmp_path / "par"
    assert main([experiment, "--config", cfg_path, "--out", str(a)]) == 0
    assert main([experiment, "--config", cfg_path, "--out", str(b),
                 "--jobs", "2"]) == 0
    for name in ("results.csv", "rates.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    n_cells = len(read_rows(a))
    for out in (a, b):
        timed = re.findall(r"^  p=\d+ q=\d+ nx=\d+ tau=\S+ done in \d+\.\d\ds$",
                           (out / "run.log").read_text(), re.M)
        assert len(timed) == n_cells


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in
    this process, so no worker is ever started."""

    made = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("jobs, text, workers", [
    ("5000", "problem = standing-wave\np = 1\nq = 1\nmesh = 2\nmesh = 4\ntau = 0.5\n", [2]),
    ("5000", "problem = standing-wave\np = 1\nq = 1\nmesh = 2\ntau = 0.5\n", []),
    ("3", _TAU_STUDY, [3]),
], ids=["two-cells", "one-cell", "fewer-jobs-than-cells"])
def test_jobs_start_at_most_one_worker_per_cell(tmp_path, monkeypatch, jobs, text, workers):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "made", [])
    experiment = "converge-tau" if text is _TAU_STUDY else "converge-h"
    serial, pooled = tmp_path / "ser", tmp_path / "pool"
    assert main([experiment, "--config", write(tmp_path, "j.cfg", text), "--out", str(serial)]) == 0
    assert main([experiment, "--config", write(tmp_path, "j.cfg", text), "--out", str(pooled),
                 "--jobs", jobs]) == 0
    assert _RecordingPool.made == workers
    assert (serial / "results.csv").read_bytes() == (pooled / "results.csv").read_bytes()


def test_cell_row_same_alone_and_in_its_group(tmp_path):
    cfg = parse_config(write(tmp_path, "t.cfg", _TAU_STUDY), "converge-tau")
    cells = _cells(cfg)
    grouped = [row for row, _ in _run_cells(cfg, cells)]
    assert len(cells) == 4
    for cell, row in zip(cells, grouped):
        (alone, _), = _run_cells(cfg, [cell])
        assert alone == row


def test_tau_study_assembles_each_operator_once(tmp_path, monkeypatch):
    kinds = []
    local_matrices = fem.local_matrices

    def counted(space, kind, *args):
        kinds.append(kind)
        return local_matrices(space, kind, *args)

    monkeypatch.setattr(fem, "local_matrices", counted)
    path = write(tmp_path, "t.cfg", _TAU_STUDY)
    assert main(["converge-tau", "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert len(read_rows(tmp_path / "out")) == 4
    assert sorted(kinds) == ["mass", "stiffness"]


@pytest.mark.parametrize("method", ["gradient", "mass"])
def test_tau_study_factorizes_each_interior_block_once(tmp_path, monkeypatch, method):
    # every interior solve (Ritz and L2 projections, the C solve of each
    # slab) runs on one of two LUs; the slab modes call factorize through
    # the solver's own import, so only interior LUs are counted
    shapes = []
    factorize = linalg.factorize

    def counted(A):
        shapes.append(A.shape)
        return factorize(A)

    monkeypatch.setattr(linalg, "factorize", counted)
    path = write(tmp_path, "t.cfg", _TAU_STUDY + f"method = {method}\n")
    assert main(["converge-tau", "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert len(read_rows(tmp_path / "out")) == 4
    assert shapes == [(25, 25)] * 2


_ROOT = Path(__file__).parent.parent


@pytest.mark.parametrize("cfg_path, experiment, lus", [
    ("configs/energy.cfg", "energy", 2),
    ("perfbench/workloads/big-slab.smoke.cfg", "converge-h", 4),
    ("perfbench/workloads/tau-sweep-mass.smoke.cfg", "converge-tau", 6),
    ("perfbench/workloads/estimate-singular.smoke.cfg", "estimate", 4),
], ids=["energy", "big-slab", "tau-sweep-mass", "estimate-singular"])
def test_runs_factorize_only_what_they_solve_with(tmp_path, monkeypatch, cfg_path,
                                                  experiment, lus):
    # energy: gradient coupling and interpolated initial data, so the LU of
    # K_II and one slab mode; M_II is applied, never solved with
    count = Counter()
    splu = linalg.splu

    def counted(A, *args, **kwargs):
        count["lu"] += 1
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(linalg, "splu", counted)
    path = str(_ROOT / cfg_path)
    assert main([experiment, "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert count["lu"] == lus


def test_workspaces_share_the_interior_blocks():
    prob = make_preset("standing-wave")
    space = build_space(build_structured_mesh(3, 3, prob.bbox), 2)
    part = uniform_time_partition(1.0, 2)
    first, second = (SlabWorkspace(prob, Discretization(space, part, q=q, method=method))
                     for q, method in ((1, "gradient"), (2, "mass")))
    for name in ("M_II", "K_II"):
        assert getattr(first, name) is getattr(second, name)
    assert first.C_II is first.K_II and second.C_II is second.M_II


def test_estimate_study_builds_each_gauss_rule_once(tmp_path, monkeypatch):
    counts = Counter()
    leggauss = timebasis.npleg.leggauss

    def counted(npts):
        counts[npts] += 1
        return leggauss(npts)

    monkeypatch.setattr(timebasis.npleg, "leggauss", counted)
    timebasis._reference_rule.cache_clear()
    path = write(tmp_path, "e.cfg", "problem = estimator-poly\npsi = t2.25\np = 4\nq = 1\n"
                 "q = 2\nmesh = 2\ntau = 0.25\ntau = 0.125\n")
    assert main(["estimate", "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert counts and max(counts.values()) == 1


def _estimate_rows(effectivities):
    """Synthetic estimate rows, one per (p, q, effectivity), error 1."""
    return [dict(p=p, q=q, tau=0.5 ** k, err_u=1.0, eta=eff, osc_f=0.0, effectivity=eff)
            for k, (p, q, eff) in enumerate(effectivities)]


def test_estimate_check_takes_effectivity_ratios_per_p_and_q():
    cfg = replace(default_config("estimate"), p=[2, 6], q=[1])
    # ratios 2 and 1.25 per group, 5 pooled
    rows = _estimate_rows([(2, 1, 1.0), (2, 1, 2.0), (6, 1, 4.0), (6, 1, 5.0)])
    assert _report(cfg, rows)[1] == []
    text, failures = _report(cfg, _estimate_rows([(2, 1, 1.0), (2, 1, 3.5), (6, 1, 1.0),
                                                  (6, 1, 1.5)]))
    assert failures == ["p=2 q=1: effectivity ratio 3.50 > 3"]
    # the ratio that fails is the one rates.txt prints
    assert "  effectivity min 1.000 max 3.500 ratio 3.500\n" in text
    rows = _estimate_rows([(6, 1, 1.0)])
    rows[0]["err_u"] = 2.0
    assert _report(cfg, rows)[1] == ["p=6 q=1 tau=1.0: error exceeds eta + osc_f"]


def test_pq_check_needs_err_u_strictly_decreasing():
    cfg = replace(default_config("converge-pq"), p=[1, 2, 3])

    def rows(*errs):
        return [dict(p=p, q=p, dofs=100 * p, err_u=e, err_ustar=e, err_v=e, err_gradu=e)
                for p, e in enumerate(errs, start=1)]

    assert _report(cfg, rows(1e-1, 1e-2, 1e-3))[1] == []
    text, failures = _report(cfg, rows(1e-1, 1e-2, 1e-2))
    assert failures == ["err_u not strictly decreasing in p = q"]
    assert text.splitlines()[2:] == [
        "p = q sweep at fixed mesh and time step (errors vs DOFs)",
        "  p=q= 1 dofs=     100 err_u=1.00000000000e-01 err_ustar=1.00000000000e-01 "
        "err_v=1.00000000000e-01 err_gradu=1.00000000000e-01",
        "  p=q= 2 dofs=     200 err_u=1.00000000000e-02 err_ustar=1.00000000000e-02 "
        "err_v=1.00000000000e-02 err_gradu=1.00000000000e-02",
        "  p=q= 3 dofs=     300 err_u=1.00000000000e-02 err_ustar=1.00000000000e-02 "
        "err_v=1.00000000000e-02 err_gradu=1.00000000000e-02"]


@pytest.mark.parametrize("experiment, text", [
    ("converge-tau", _TAU_STUDY + "method = mass\nbc_mode = interpolation\n"),
    ("estimate", "p = 4\nq = 2\nmesh = 2\ntau = 0.25\n"),
], ids=["mass-coupling", "estimate"])
def test_run_cell_leaves_shared_operators_unchanged(tmp_path, experiment, text):
    cfg = parse_config(write(tmp_path, "c.cfg", text), experiment)
    problem = _make_problem(cfg)
    cell = _cells(cfg)[0]

    def new_space():
        mesh = build_structured_mesh(cell["nx"], cell["nx"], problem.bbox)
        return build_space(mesh, cell["p"])

    shared = new_space()
    run_cell(cfg, cell, problem, shared)
    fresh = new_space()
    for kind, c in (("mass", 1.0), ("stiffness", problem.c)):
        for operator in (assemble, lambda *a: interior_factorization(*a).A):
            used, clean = operator(shared, kind, c), operator(fresh, kind, c)
            for name in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(used, name), getattr(clean, name))


def test_slab_residual_failure_exits_3(tmp_path, capsys, monkeypatch):
    # no slab solve meets a zero tolerance, refined or not: the failure
    # travels from checked_solve through solve_slab and run_cell to main
    monkeypatch.setattr(solver, "SLAB_TOL", 0.0)
    path = write(tmp_path, "s.cfg", "mesh = 2\ntau = 0.5\n")
    assert main(["solve", "--config", path, "--out", str(tmp_path / "s")]) == 3
    err = capsys.readouterr().err
    assert re.search(r"^solver failure: cell p=2 q=2 mesh=2 tau=0\.5: slab 1: "
                     r"slab solve residual \d\.\d{3}e[-+]\d+ exceeds 0\.0e\+00 \* \|b\|$",
                     err, re.MULTILINE), err


def test_solver_failure_exit_code(tmp_path, monkeypatch):
    from wavext.errors import SolverFailure

    def boom(cfg, cell, problem, space):
        raise SolverFailure(f"cell p={cell['p']}: synthetic failure")

    monkeypatch.setattr(cli, "run_cell", boom)
    assert main(["solve", "--out", str(tmp_path / "sf")]) == 3
