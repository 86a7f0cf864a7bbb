"""The benchmark's layer trace and correctness gate hold for the package.

``perfbench/layers.py`` wraps named functions and methods of wavext and
skips a name that no longer exists, so a change that deletes or renames a
traced layer would still run the benchmark, with that layer silently absent
from the per-layer split.  ``perfbench/run.py`` compares every row of a
pass with its reference CSV and counts a miss as a failed cell.
"""

import importlib.util
import os
import sys
from dataclasses import replace
from pathlib import Path

import pytest

# imported before any tracer installs: a module that the install itself
# imports binds the wrappers, and keeps them after the uninstall
import wavext.cli as cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERS = PERFBENCH / "layers.py"
RUN = PERFBENCH / "run.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: Spans of functions that left the package, which ``SPANS`` still lists:
#: they neither resolve nor get entered.  Every other span must do both, so
#: a layer that silently drops out of the per-layer split fails here.
REMOVED = {
    # the space owns the interior solves; Factorization(A).solve serves the rest
    "linalg.solve_spd",
    # the error report streams the reconstruction and samples u, u* and v in
    # one walk; both are test oracles in tests/conftest.py
    "postprocess.postprocessed_solution",
    "postprocess.error_C0",
}


def test_every_benchmark_span_resolves():
    layers = _load("perfbench_layers", LAYERS)
    tracer = layers.Tracer()
    try:
        assert sorted(tracer.install()) == sorted(REMOVED)
    finally:
        tracer.uninstall()


@pytest.fixture
def run(monkeypatch):
    """perfbench/run.py, which pins BLAS threads and extends sys.path on load."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    monkeypatch.setattr(sys, "path", list(sys.path))
    return _load("perfbench_run", RUN)


def _run_smoke_workloads(run, tmp_path):
    """Run each reduced workload once; yield its name, workload and output."""
    for name in sorted(run.WORKLOADS):
        workload = run.Workload(name, smoke=True)
        workload.load()
        out = tmp_path / name
        assert cli.run_experiment(replace(workload.cfg, out=str(out)), check=True) == 0
        yield name, workload, out


def test_smoke_workloads_pass_the_correctness_gate(tmp_path, run):
    # the benchmark refuses a pass whose rows leave its reference CSV; run
    # that gate on the reduced workloads here rather than only in a full
    # benchmark run
    missed = {name: run.compare_rows(workload.reference,
                                     run._read_rows(out / "results.csv"))[0]
              for name, workload, out in _run_smoke_workloads(run, tmp_path)}
    assert missed == {name: 0 for name in run.WORKLOADS}


def test_smoke_workloads_enter_every_traced_span(tmp_path, run):
    tracer = run.layers.Tracer()
    try:
        assert sorted(tracer.install()) == sorted(REMOVED)
        for _ in _run_smoke_workloads(run, tmp_path):
            pass
    finally:
        tracer.uninstall()
    assert set(run.layers.SPANS) - set(tracer.summary()) == REMOVED
