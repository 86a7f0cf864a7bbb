"""wavext benchmark: whole studies through the public experiment driver.

Each workload is one study config stored under ``perfbench/workloads``.  A
pass runs every cell of it with ``wavext.cli.run_experiment(cfg, jobs=1,
check=True)`` into a fresh directory, then compares each CSV row with the
seed's values under ``perfbench/reference``.  Passes repeat until they
total ``--seconds`` (at least one pass is always made).

    python3 perfbench/run.py --workload big-slab --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` reports the end-to-end metrics (``study_s``, ``setup_s``,
``peak_rss_mb``).  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics from :mod:`layers`.  The last line of standard
output is one JSON object; the lines before it are a readable summary.  A
full record (environment, every pass, and the spans of a traced run) goes to
``.perfbench/results`` at the root of the checkout.
"""

import argparse
import csv
import gzip
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: Workload name -> experiment its config runs.  Why each one exists is in
#: perfbench/README.md; the three stress different layers.
WORKLOADS = {
    "big-slab": "converge-h",
    "tau-sweep-mass": "converge-tau",
    "estimate-singular": "estimate",
}

#: The list each experiment computes its rates along.  The driver's rate
#: report needs it in its configured order, so only the other lists are
#: shuffled.
RESOLUTION = {"converge-h": "mesh", "converge-tau": "tau", "estimate": "tau"}

#: Fresh processes timed per run for ``setup_s``; the median is reported.
SETUP_PROBES = 7

#: A value matches the seed when |new - ref| <= max(RTOL * |ref|, ATOL).
#: A residual-checked solver that agrees to 1e-14 moves the smallest
#: reference value (about 2e-8) by far less than ATOL; a wrong rate moves
#: the finest errors by percents.
RTOL = 1e-6
ATOL = 1e-12

#: One BLAS thread, set before numpy loads and inherited by the setup
#: probes.  A second thread bought under 3% on big-slab and competes with
#: the other tenants of a small shared host, which makes timings wander.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(BENCH_DIR))
import layers  # noqa: E402  (perfbench/layers.py)


class BenchError(Exception):
    """The benchmark cannot run here (no sources, missing files)."""


def import_wavext():
    init = SRC / "wavext" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no wavext sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import wavext

    if Path(wavext.__file__).resolve() != init.resolve():
        raise BenchError(f"imported wavext from {wavext.__file__}, not {init}")


# ---------------------------------------------------------------------------
# reference check


def _row_key(row):
    return (row["p"], row["q"], f"{float(row['h']):.6e}", f"{float(row['tau']):.6e}")


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _same_value(ref, new):
    if ref == new:
        return True
    try:
        a, b = float(ref), float(new)
    except ValueError:
        return False
    return abs(b - a) <= max(RTOL * abs(a), ATOL)


def compare_rows(reference, rows):
    """Return (cells that miss the reference, rows byte-identical to it)."""
    found = {}
    for row in rows:
        found.setdefault(_row_key(row), row)
    missed = identical = 0
    for ref in reference:
        row = found.get(_row_key(ref))
        fields = [c for c in ref if c != "run_id"]
        if row is None or any(not _same_value(ref[c], row.get(c, "")) for c in fields):
            missed += 1
        elif all(ref[c] == row[c] for c in fields):
            identical += 1
    return missed, identical


# ---------------------------------------------------------------------------
# passes


class Workload:
    def __init__(self, name, smoke=False):
        if name not in WORKLOADS:
            raise BenchError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
        stem = f"{name}.smoke" if smoke else name
        self.name = name
        self.experiment = WORKLOADS[name]
        self.config = BENCH_DIR / "workloads" / f"{stem}.cfg"
        reference = BENCH_DIR / "reference" / f"{stem}.csv"
        for path in (self.config, reference):
            if not path.is_file():
                raise BenchError(f"missing {path}")
        self.reference = _read_rows(reference)

    def load(self):
        from wavext.cli import parse_config

        self.cfg = parse_config(self.config, self.experiment)

    def run_pass(self, rng):
        """One pass over all cells, in an order drawn from ``rng``.

        The order changes which cell groups run first, never a group's
        resolution sequence; the reference comparison is keyed by cell.
        """
        from wavext.cli import run_experiment

        cfg = self.cfg
        shuffled = {k: rng.sample(getattr(cfg, k), len(getattr(cfg, k)))
                    for k in ("p", "q", "mesh", "tau")
                    if k != RESOLUTION[self.experiment]}
        attempted = len(self.reference)
        with tempfile.TemporaryDirectory(dir=WORK, prefix="pass-") as out:
            pass_cfg = replace(cfg, out=out, **shuffled)
            t0 = time.perf_counter()
            try:
                code = run_experiment(pass_cfg, jobs=1, check=True)
            except Exception:  # a failing cell is counted, not fatal
                elapsed = time.perf_counter() - t0
                traceback.print_exc(file=sys.stderr)
                return dict(seconds=elapsed, attempted=attempted,
                            failed=attempted, identical=0)
            elapsed = time.perf_counter() - t0
            rows = _read_rows(Path(out) / "results.csv")
        missed, identical = compare_rows(self.reference, rows)
        failed = attempted if code != 0 else missed
        return dict(seconds=elapsed, attempted=attempted, failed=failed,
                    identical=identical)


def setup_time(workload):
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC),
         str(workload.config), workload.experiment],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _spread(values):
    """Median, quartiles, and the highest percentile with >= 10 samples above it."""
    vals = sorted(values)
    n = len(vals)
    stats = dict(n=n, median=statistics.median(vals))
    if n >= 2:
        stats["q1"], _, stats["q3"] = statistics.quantiles(vals, n=4)
    if n > 10:
        stats[f"p{int(100 * (n - 10) / n)}"] = vals[n - 11]
    return stats


def measure_untraced(workload, seed, seconds, probes):
    """Passes until they total ``seconds``, with the setup probes spread
    between them: the speed of a shared machine drifts over seconds, and
    probes taken back to back would all sample one moment of it.

    ``study_s`` is the median pass.  On a small shared host the speed of the
    same pass wanders by tens of percent from second to second, in CPU time
    as much as in wall time.  The fastest pass is an extreme of that noise;
    the median of many passes varied less from run to run.  The quartiles
    and tail go into the record and the summary.
    """
    rng = random.Random(seed)
    workload.load()
    passes, setup = [], []
    measured = 0.0
    while not passes or measured < seconds:
        if len(setup) < probes and measured >= len(setup) * seconds / probes:
            setup.append(setup_time(workload))
            continue
        passes.append(workload.run_pass(rng))
        measured += passes[-1]["seconds"]
    while len(setup) < probes:
        setup.append(setup_time(workload))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "study_s": (statistics.median(p["seconds"] for p in passes), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    detail = dict(study_s=_spread([p["seconds"] for p in passes]),
                  setup_s=_spread(setup))
    return metrics, passes, detail, None


def measure_traced(workload, seed, seconds):
    rng = random.Random(seed)
    workload.load()
    tracer = layers.Tracer()
    untraced, traced, per_pass, spans = [], [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(workload.run_pass(rng))
        missing = tracer.install()
        try:
            traced.append(workload.run_pass(rng))
        finally:
            tracer.uninstall()
        per_pass.append((tracer.summary(), tracer.fill_nnz))
        spans.append(list(tracer.spans))
        tracer.reset()

    metrics = {}
    for name in layers.SPANS:
        metrics[f"{name}.self_s"] = (statistics.median(
            s.get(name, (0.0, 0))[0] for s, _ in per_pass), "s")
        metrics[f"{name}.calls"] = (statistics.median(
            s.get(name, (0.0, 0))[1] for s, _ in per_pass), "count")
    metrics["linalg.fill_nnz"] = (statistics.median(f for _, f in per_pass), "count")
    t_traced = statistics.median(p["seconds"] for p in traced)
    t_untraced = statistics.median(p["seconds"] for p in untraced)
    metrics["trace.overhead_frac"] = (t_traced / t_untraced - 1.0, "ratio")

    self_sums = [sum(v[0] for v in s.values()) for s, _ in per_pass]
    detail = dict(
        untraced_study_s=_spread([p["seconds"] for p in untraced]),
        traced_study_s=_spread([p["seconds"] for p in traced]),
        self_time_coverage=statistics.median(
            s / p["seconds"] for s, p in zip(self_sums, traced)),
        fill_read_s=statistics.median(
            s.get(layers.FILL_SPAN, (0.0, 0))[0] for s, _ in per_pass),
        missing_spans=missing,
    )
    return metrics, untraced + traced, detail, spans


# ---------------------------------------------------------------------------
# environment and output


def environment():
    import numpy
    import scipy

    env = dict(
        nproc=os.cpu_count(),
        usable_cpus=len(os.sched_getaffinity(0)),
        cpu_model=platform.processor() or platform.machine(),
        mem_total_mb=round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
        python=platform.python_version(),
        numpy=numpy.__version__,
        scipy=scipy.__version__,
        blas_threads={k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        loadavg_at_start=os.getloadavg(),
        commit=None,
    )
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next(line.split(":", 1)[1].strip() for line in fh
                                    if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
        env["blas_config"] = blas.get("openblas configuration")
    except (TypeError, KeyError):
        pass
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            env["commit"] = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return env


def measure(name, seed, seconds, trace, smoke=False, probes=SETUP_PROBES):
    """Run one workload; return (result line, full record, spans per traced pass)."""
    workload = Workload(name, smoke)
    env = environment()
    WORK.mkdir(exist_ok=True)
    if trace:
        metrics, passes, detail, spans = measure_traced(workload, seed, seconds)
    else:
        metrics, passes, detail, spans = measure_untraced(workload, seed, seconds, probes)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    result = dict(
        correct=failed == 0,
        attempted=attempted,
        failed=failed,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    record = dict(workload=name, seed=seed, seconds=seconds, trace=trace,
                  smoke=smoke, environment=env, passes=passes, detail=detail,
                  result=result)
    return result, record, spans


def save(record, spans):
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = (f"{record['workload']}{'-smoke' if record['smoke'] else ''}"
            f"-seed{record['seed']}-trace{record['trace']}-{time.time_ns()}")
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans:
        with gzip.open(results / f"{stem}-spans.jsonl.gz", "wt") as fh:
            for i, pass_spans in enumerate(spans):
                for span in pass_spans:
                    fh.write(json.dumps([i, *span]) + "\n")
    return results / f"{stem}.json"


def summarize(record, path):
    result = record["result"]
    passes = record["passes"]
    lines = [f"workload {record['workload']} seed {record['seed']} "
             f"trace {record['trace']}: {len(passes)} passes, "
             f"load {record['environment']['loadavg_at_start'][0]:.2f}"]
    for key, stats in record["detail"].items():
        lines.append(f"  {key}: {json.dumps(stats)}")
    fail_frac = result["failed"] / result["attempted"]
    identical = sum(p["identical"] for p in passes)
    lines.append(f"  fail_frac: {fail_frac:.6g} ratio "
                 f"({result['failed']} of {result['attempted']} cells)")
    lines.append(f"  byte-identical rows: {identical} of {result['attempted']}")
    for key, m in result["metrics"].items():
        lines.append(f"  {key}: {m['value']:.6g} {m['unit']}")
    lines.append(f"  record: {path}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# smoke check


def smoke():
    """Reduced-size run of every workload, untraced and traced.

    Confirms that every metric named in BENCHMARK.json is printed with its
    unit, that every traced span resolves, that each span is entered on at
    least one workload, and that every reduced pass matches its reference.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from WORKLOADS")
    entered = set()
    for name in WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, record, spans = measure(name, 0, 0, trace, smoke=True, probes=1)
            path = save(record, spans)
            print(summarize(record, path))
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            need = {m["name"]: m["unit"] for m in wanted}
            if got != need:
                problems.append(f"{name} trace {trace}: metrics {got} != {need}")
            if not result["correct"]:
                problems.append(f"{name} trace {trace}: {result['failed']} failed cells")
            if trace:
                if record["detail"]["missing_spans"]:
                    problems.append(f"unresolved spans {record['detail']['missing_spans']}")
                entered |= {k[:-len(".calls")] for k, m in result["metrics"].items()
                            if k.endswith(".calls") and m["value"] > 0}
    never = [s for s in layers.SPANS if s not in entered]
    if never:
        problems.append(f"spans never entered: {never}")
    for msg in problems:
        print(f"smoke: {msg}", file=sys.stderr)
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 0 if not problems else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-size check of every workload and metric name")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    try:
        import_wavext()
        if args.smoke:
            return smoke()
        result, record, spans = measure(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(summarize(record, save(record, spans)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
