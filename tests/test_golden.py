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

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wavext

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(path.stem for path in GOLDEN.glob("*.cfg"))

#: Runs each (experiment, config, out) of argv[1] through the CLI and
#: prints the exit codes.
_CHILD = """
import json, sys
from wavext.cli import main
print(json.dumps([main([exp, "--config", cfg, "--out", out])
                  for exp, cfg, out in json.loads(sys.argv[1])]))
"""


def _experiment(cfg_path):
    for line in cfg_path.read_text().splitlines():
        key, _, value = line.partition("=")
        if key.strip() == "experiment":
            return value.strip()
    raise AssertionError(f"{cfg_path} names no experiment")


def test_every_shipped_config_has_a_golden_copy():
    shipped = Path(__file__).parent.parent / "configs"
    assert CASES == sorted(path.stem for path in shipped.glob("*.cfg"))


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory):
    """Every reduced config run by the CLI at one BLAS thread: name -> (exit
    code, output directory)."""
    root = tmp_path_factory.mktemp("golden")
    runs = [(_experiment(GOLDEN / f"{name}.cfg"), str(GOLDEN / f"{name}.cfg"), str(root / name))
            for name in CASES]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(Path(wavext.__file__).parents[1]),
                                           os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(runs)], env=env,
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    codes = json.loads(child.stdout.splitlines()[-1])
    return {name: (code, root / name) for name, code in zip(CASES, codes)}


@pytest.mark.parametrize("name", CASES)
def test_outputs_match_golden_bytes(golden_runs, name):
    code, out = golden_runs[name]
    assert code == 0
    for fname in ("results.csv", "rates.txt"):
        assert (out / fname).read_bytes() == (GOLDEN / name / fname).read_bytes(), \
            f"{name}/{fname} differs from the golden copy"
