"""Byte-for-byte regression of the CLI outputs.

``tests/golden/<name>.cfg`` is a reduced copy of ``configs/<name>.cfg``
(each runs in well under a second); ``tests/golden/<name>/`` holds the
``results.csv`` and ``rates.txt`` it must reproduce.  The files are never
regenerated to hide a move nobody can explain: a change meant to move
printed digits regenerates them and lists each moved cell.

The CLI runs in one child process with one BLAS thread, as the benchmark
runs it: the p = 8 solves' roundoff depends on the thread count, which is
fixed when numpy loads.
"""

import csv
import difflib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wavext

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(path.stem for path in GOLDEN.glob("*.cfg"))

#: Runs the CLI on each argv list of argv[1] and prints, per run, the exit
#: code and what the run wrote to stderr.
_CHILD = """
import contextlib, io, json, sys
from wavext.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        runs.append((main(argv), err.getvalue()))
print(json.dumps(runs))
"""

#: The ordered failure lines that ``--check`` prints for each golden config,
#: with each rate masked as ``*``; a config not named here passes its check.
#: The reduced convergence-h study has too coarse a mesh for its rates.
CHECK_FAILURES = {"convergence-h": [
    "p=1 q=1: err_u last-pair rate * not within 2+-0.25",
    "p=1 q=1: err_ustar last-pair rate * not within 2+-0.25",
    "p=1 q=1: err_v last-pair rate * not within 2+-0.25",
    "p=1 q=2: err_u last-pair rate * not within 2+-0.25",
    "p=1 q=2: err_ustar last-pair rate * not within 2+-0.25",
    "p=1 q=2: err_v last-pair rate * not within 2+-0.25",
    "p=2 q=1: err_u last-pair rate * not within 3+-0.25",
    "p=2 q=1: err_ustar last-pair rate * not within 3+-0.25",
    "p=2 q=1: err_v last-pair rate * not within 3+-0.25",
    "p=2 q=1: err_gradu last-pair rate * not within 2+-0.25",
]}


def _experiment(cfg_path):
    for line in cfg_path.read_text().splitlines():
        key, _, value = line.partition("=")
        if key.strip() == "experiment":
            return value.strip()
    raise AssertionError(f"{cfg_path} names no experiment")


def test_every_shipped_config_has_a_golden_copy():
    shipped = Path(__file__).parent.parent / "configs"
    assert CASES == sorted(path.stem for path in shipped.glob("*.cfg"))


def _run_goldens(root, *flags):
    """Every reduced config run by the CLI at one BLAS thread with the extra
    flags: name -> (exit code, stderr text, output directory)."""
    runs = [[_experiment(GOLDEN / f"{name}.cfg"), "--config", str(GOLDEN / f"{name}.cfg"),
             "--out", str(root / name), *flags] for name in CASES]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(Path(wavext.__file__).parents[1]),
                                           os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(runs)], env=env,
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    results = json.loads(child.stdout.splitlines()[-1])
    return {name: (code, err, root / name) for name, (code, err) in zip(CASES, results)}


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory):
    """name -> (exit code, output directory) of each golden run."""
    runs = _run_goldens(tmp_path_factory.mktemp("golden"))
    return {name: (code, out) for name, (code, _, out) in runs.items()}


def _relative_move(old, new):
    """|new - old| / |old| for two printed numbers; inf for a text cell, a
    cell that left zero, or one that appeared or vanished."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return math.inf
    return abs(b - a) / abs(a) if a != 0.0 else math.inf


def _moved_cells(golden, new):
    """Each results.csv cell whose text differs, as (run_id, column, golden,
    new, relative move), worst first; a row present on one side only moves
    every one of its cells."""
    old_rows, new_rows = (list(csv.DictReader(io.StringIO(text))) for text in (golden, new))
    moved = []
    for a, b in itertools.zip_longest(old_rows, new_rows, fillvalue={}):
        run_id = a.get("run_id") or b.get("run_id")
        for col in dict.fromkeys([*a, *b]):
            old, new = a.get(col, "<absent>"), b.get(col, "<absent>")
            if old != new:
                moved.append((run_id, col, old, new, _relative_move(old, new)))
    return sorted(moved, key=lambda cell: -cell[4])


def _golden_mismatch(name, golden_dir, out_dir):
    """A report of how a run's outputs differ from the golden copy, or "" if
    they are byte-identical: every moved results.csv cell, worst first, and
    every differing rates.txt line."""
    report = []
    old, new = ((d / "results.csv").read_text() for d in (golden_dir, out_dir))
    if old != new:
        cells = _moved_cells(old, new)
        report.append(f"{name}/results.csv: {len(cells)} moved cells, worst first")
        report += [f"  {run_id} {col}: {a} -> {b} (relative {rel:.2g})"
                   for run_id, col, a, b, rel in cells]
    old, new = ((d / "rates.txt").read_text().splitlines() for d in (golden_dir, out_dir))
    if old != new:
        report.append(f"{name}/rates.txt: differing lines (- golden, + new)")
        report += [f"  {line}" for line in difflib.unified_diff(old, new, lineterm="", n=0)
                   if line[:1] in "+-" and not line.startswith(("---", "+++"))]
    return "\n".join(report)


def test_golden_mismatch_names_each_moved_cell(tmp_path):
    golden, new = tmp_path / "golden", tmp_path / "new"
    for d in (golden, new):
        d.mkdir()
    header = "run_id,p,err_u,energy_drift\n"
    (golden / "results.csv").write_text(header + "r000,2,1.00000000000e-03,4.0e-16\n"
                                        "r001,2,2.00000000000e-04,5.0e-16\n")
    (new / "results.csv").write_text(header + "r000,2,1.00000000001e-03,2.0e-16\n"
                                     "r001,2,2.00000000000e-04,5.0e-16\n")
    rates = "p = 2\n  rates[err_u]: 2.001\n  rates[err_v]: 1.990\n"
    (golden / "rates.txt").write_text(rates)
    (new / "rates.txt").write_text(rates.replace("2.001", "2.002"))
    report = _golden_mismatch("case", golden, new).splitlines()
    assert report == [
        "case/results.csv: 2 moved cells, worst first",
        "  r000 energy_drift: 4.0e-16 -> 2.0e-16 (relative 0.5)",
        "  r000 err_u: 1.00000000000e-03 -> 1.00000000001e-03 (relative 1e-11)",
        "case/rates.txt: differing lines (- golden, + new)",
        "  -  rates[err_u]: 2.001",
        "  +  rates[err_u]: 2.002",
    ]
    (new / "results.csv").write_text(header + "r000,2,1.00000000000e-03,4.0e-16\n")
    (new / "rates.txt").write_text(rates)
    assert _golden_mismatch("case", golden, new).splitlines()[1:] == [
        "  r001 run_id: r001 -> <absent> (relative inf)",
        "  r001 p: 2 -> <absent> (relative inf)",
        "  r001 err_u: 2.00000000000e-04 -> <absent> (relative inf)",
        "  r001 energy_drift: 5.0e-16 -> <absent> (relative inf)",
    ]
    assert _golden_mismatch("case", golden, golden) == ""


@pytest.mark.parametrize("name", CASES)
def test_outputs_match_golden_bytes(golden_runs, name):
    code, out = golden_runs[name]
    assert code == 0
    if any((out / fname).read_bytes() != (GOLDEN / name / fname).read_bytes()
           for fname in ("results.csv", "rates.txt")):
        pytest.fail(_golden_mismatch(name, GOLDEN / name, out), pytrace=False)


def test_check_outcomes_are_pinned(tmp_path):
    """--check on every golden config: the exit code and the ordered failure
    lines, rates masked.  The checks run after the outputs are written, so
    the outputs match the goldens as without --check."""
    for name, (code, err, out) in _run_goldens(tmp_path, "--check").items():
        failures = [re.sub(r"rate \S+ not", "rate * not", line.removeprefix("check failed: "))
                    for line in err.splitlines()]
        assert failures == CHECK_FAILURES.get(name, []), name
        assert code == (4 if failures else 0), name
        assert not _golden_mismatch(name, GOLDEN / name, out), name
