"""The CLI's studies as records: their outputs' layout and their table."""

import csv
import itertools
import re
from dataclasses import replace

import pytest

from wavext.cli import CSV_COLUMNS, EXPERIMENTS, STUDIES, main
from wavext.fem import MAX_SPATIAL_DEGREE
from wavext.problem import MAX_TEMPORAL_DEGREE


def _malformed(study):
    """What is wrong with a Study record, as a list of messages."""
    problems = []
    if study.sweep not in ("h", "tau", "pq", None):
        problems.append(f"sweep {study.sweep!r}")
    problems += [f"quantity {k!r}" for k in study.quantities if k not in CSV_COLUMNS]
    if study.max_drift is not None and study.sweep is not None:  # one cell, one drift
        problems.append(f"drift bound on a {study.sweep} sweep")
    if study.targets is not None:
        if study.sweep not in ("h", "tau"):
            problems.append(f"rate targets on a {study.sweep} sweep")
        if not study.tol > 0:
            problems.append(f"tolerance {study.tol}")
        degrees = itertools.product(range(1, MAX_SPATIAL_DEGREE + 1),
                                    range(1, MAX_TEMPORAL_DEGREE + 1))
        problems += sorted({f"rate target {k!r}" for p, q in degrees
                            for k in study.targets(p, q) if k not in CSV_COLUMNS})
    return problems


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_study_records_are_well_formed(name):
    assert _malformed(STUDIES[name]) == []


def test_malformed_records_are_caught():
    h, solve = STUDIES["converge-h"], STUDIES["solve"]
    assert _malformed(replace(solve, sweep="p")) == ["sweep 'p'"]
    assert _malformed(replace(solve, quantities=("err_u", "error"))) == ["quantity 'error'"]
    assert _malformed(replace(solve, targets=h.targets, tol=h.tol)) == [
        "rate targets on a None sweep"]
    assert _malformed(replace(h, tol=0.0)) == ["tolerance 0.0"]
    assert _malformed(replace(STUDIES["energy"], sweep="pq")) == ["drift bound on a pq sweep"]
    assert _malformed(replace(h, targets=lambda p, q: {"err_u": p, "err_w": q})) == [
        "rate target 'err_w'"]


def test_experiments_keep_their_order():
    assert EXPERIMENTS == ("converge-h", "converge-tau", "converge-pq", "estimate", "solve",
                           "energy")


def test_solve_rates_layout(tmp_path):
    """solve's rates.txt: the header and a blank line, then one line per
    results.csv row with its four errors as printed there, in {:.11e}."""
    cfg = tmp_path / "s.cfg"
    cfg.write_text("problem = standing-wave\np = 1\nq = 1\nmesh = 2\ntau = 0.5\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "results.csv") as fh:
        rows = list(csv.DictReader(fh))
    lines = (out / "rates.txt").read_text().splitlines()
    assert lines[:2] == ["experiment: solve", ""]
    errors = ("err_u", "err_ustar", "err_v", "err_gradu")
    assert lines[2:] == ["  " + " ".join(f"{k}={r[k]}" for k in errors) for r in rows]
    assert len(rows) == 1
    assert all(re.fullmatch(r"-?\d\.\d{11}e[+-]\d{2}", rows[0][k]) for k in errors)
