"""Byte-for-byte regression of the CLI outputs.

``tests/golden/<name>.cfg`` is a reduced copy of ``configs/<name>.cfg``
(each runs in well under a second); ``tests/golden/<name>/`` holds the
``results.csv`` and ``rates.txt`` it must reproduce.  The files are never
regenerated to hide a move nobody can explain: a change meant to move
printed digits regenerates them and lists each moved cell.
"""

from pathlib import Path

import pytest

from wavext.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(path.stem for path in GOLDEN.glob("*.cfg"))


def _experiment(cfg_path):
    for line in cfg_path.read_text().splitlines():
        key, _, value = line.partition("=")
        if key.strip() == "experiment":
            return value.strip()
    raise AssertionError(f"{cfg_path} names no experiment")


def test_every_shipped_config_has_a_golden_copy():
    shipped = Path(__file__).parent.parent / "configs"
    assert CASES == sorted(path.stem for path in shipped.glob("*.cfg"))


@pytest.mark.parametrize("name", CASES)
def test_outputs_match_golden_bytes(tmp_path, name):
    cfg = GOLDEN / f"{name}.cfg"
    assert main([_experiment(cfg), "--config", str(cfg), "--out", str(tmp_path)]) == 0
    for fname in ("results.csv", "rates.txt"):
        assert (tmp_path / fname).read_bytes() == (GOLDEN / name / fname).read_bytes(), \
            f"{name}/{fname} differs from the golden copy"
