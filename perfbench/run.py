"""knappflow benchmark: time to verdict on four seeded workloads.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload slab_sweep --seed 1 --seconds 10 --trace 0

With ``--trace 0`` it repeats whole units of the workload until the next
would end past ``--seconds`` (at least one unit) and prints the
end-to-end metrics, whose times are CPU seconds rescaled by the speed
gauge in ``speed.py``.  With ``--trace 1`` it runs a fixed number of
units untraced, traced and untraced again, and prints the per-layer
metrics.  Every output is checked against ``perfbench/reference.json``.
One line per metric (name, value, unit) is followed by a JSON result
line; the run record, metrics and spans go to ``.perfbench_out/``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("slab_sweep", "surface_sweep", "sr_scan", "multiplier_oracle")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# Set-up is timed in fresh interpreters that import the package and exit.
SETUP_PROBES = 5
PROBE_CODE = "import knappflow"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return ap.parse_args(argv)


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def probe_setup(gauge) -> list[tuple[float, int]]:
    """CPU seconds of each probe interpreter, from its start to its exit.

    Returns ``(cpu_s, gauge mark)`` per probe, with a gauge slice on
    either side of each probe.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probes = []
    for _ in range(SETUP_PROBES):
        gauge.slice()
        mark = gauge.mark()
        before = children_cpu_s()
        subprocess.run(
            [sys.executable, "-c", PROBE_CODE], env=env, cwd=ROOT, check=True,
            stdout=subprocess.DEVNULL,
        )
        probes.append((children_cpu_s() - before, mark))
    gauge.slice()
    return probes


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "knappflow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_record(args) -> dict:
    import numpy
    import scipy

    from knappflow import _kernels

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "backend": "numba" if _kernels.NUMBA_ENABLED else "numpy",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_units(workload, units) -> tuple[list, float]:
    t0 = time.perf_counter()
    outputs = [workload.run(unit) for unit in units]
    return outputs, time.perf_counter() - t0


def timed_phase(workload, rng, seconds: float, gauge):
    """Run whole units until the next would end past ``seconds`` of wall time.

    Gauge slices run at the start, inside and between units, and at the
    end.  Each unit's output is checked, untimed, as soon as it exists and
    then dropped, so peak memory does not grow with the number of units.
    Returns the units, their checks, their gauge pieces and their wall
    seconds without the slices.
    """
    units, checks, pieces, walls = [], [], [], []
    start = time.perf_counter()
    gauge.slice()
    while True:
        unit = workload.make_unit(rng)
        w0 = time.perf_counter()
        gauge.start()
        output = workload.run(unit)
        pieces.append(gauge.stop())
        walls.append(time.perf_counter() - w0 - pieces[-1].slice_wall_s)
        units.append(unit)
        checks.append(workload.check(unit, output))
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            gauge.slice()
            return units, checks, pieces, walls
        gauge.after_work()


def measure_timed(args, workload, rng) -> tuple[list, list, dict, dict, dict]:
    """The ``--trace 0`` run: set-up and timed phase under the speed gauge."""
    import knappflow.sweep
    from speed import SpeedGauge

    gauge = SpeedGauge()
    probes = probe_setup(gauge)
    # Slab sweeps and lattices spend up to 0.3 s per lambda_hat call, so
    # the gauge also gets a chance to slice after each one.
    with gauge.polling(knappflow.sweep, "lambda_hat"):
        gauge.start()
        workload.setup(rng)
        setup_piece = gauge.stop()
        units, checks, pieces, walls = timed_phase(workload, rng, args.seconds, gauge)
    rss = peak_rss_mb()
    items = sum(workload.items(u) for u in units)
    scaled = [gauge.rescaled(p) for p in pieces]
    setup_s = statistics.median(gauge.rescale(c, m) for c, m in probes)
    metrics = {
        "setup_s": (setup_s + gauge.rescaled(setup_piece), "s"),
        "unit_s": (statistics.median(scaled), "s"),
        "items_per_s": (items / sum(scaled), "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    extra = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(p.cpu_s for p in pieces), "s"),
        "speed_factor": (gauge.factor(), "ratio"),
    }
    info = {
        "setup_probe_cpu_s": [c for c, _ in probes],
        "setup_extra_cpu_s": setup_piece.cpu_s,
        "unit_wall_s": walls,
        "unit_cpu_s": [p.cpu_s for p in pieces],
        "gauge_slice_cpu_s": gauge.slices,
    }
    return units, checks, metrics, extra, info


def measure_traced(workload, rng) -> tuple[list, list, dict, list]:
    """The ``--trace 1`` run: warm-up, traced and untraced passes over the
    same units; the overhead compares the two passes that both ran warm."""
    from tracing import Tracer, layer_metrics

    workload.setup(rng)
    units = [workload.make_unit(rng) for _ in range(workload.trace_units)]
    outputs, _ = run_units(workload, units)
    with Tracer() as tracer:
        traced_outputs, traced_s = run_units(workload, units)
    plain_outputs, plain_s = run_units(workload, units)
    items = sum(workload.items(u) for u in units)
    metrics = layer_metrics(tracer.spans, items)
    metrics["trace.overhead_s"] = ((traced_s - plain_s) / len(units), "s")
    outputs += traced_outputs + plain_outputs
    checks = [workload.check(u, o) for u, o in zip(units * 3, outputs)]
    return units * 3, checks, metrics, tracer.spans


def measure(args) -> tuple[dict, dict, dict, dict, list]:
    """Run one benchmark.

    Returns the metrics of the result line, the metrics that are only
    printed, run information, check totals and the trace's spans.
    """
    import numpy as np

    import workloads as wl

    workload = wl.make_workload(args.workload, wl.load_reference())
    rng = np.random.default_rng(args.seed)
    if args.trace:
        units, checks, metrics, spans = measure_traced(workload, rng)
        extra, info = {}, {}
    else:
        units, checks, metrics, extra, info = measure_timed(args, workload, rng)
        spans = []
    attempted = sum(c.items for c in checks)
    failed = sum(c.failed for c in checks)
    extra["fail_frac"] = (failed / attempted, "ratio")
    info.update(
        units=len(units),
        max_rel_dev=max(c.max_rel_dev for c in checks),
        csv_sha256=wl.csv_digest(checks),
    )
    if args.workload == "sr_scan":
        rs = [r for _, r in units]
        info["r_repeat_frac"] = sum(r in rs[:i] for i, r in enumerate(rs)) / len(rs)
    totals = {"attempted": attempted, "failed": failed}
    return metrics, extra, info, totals, spans


def as_json(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def write_out(args, record, metrics, info, spans) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    t0 = spans[0][1] if spans else 0.0
    payload = {
        "record": record,
        "metrics": as_json(metrics),
        "info": info,
        "spans": [[n, s - t0, e - t0, p, note] for n, s, e, p, note in spans],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    # Pin BLAS/OpenMP pools before numpy loads: all load comes from this
    # one single-threaded process.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "knappflow" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import knappflow

    if Path(knappflow.__file__).resolve().parent != SRC / "knappflow":
        print(f"perfbench: imported knappflow from {knappflow.__file__}, not {SRC}", file=sys.stderr)
        return 2

    record = run_record(args)
    metrics, extra, info, totals, spans = measure(args)
    out_path = write_out(args, record, {**metrics, **extra}, info, spans)

    print("run: " + " ".join(f"{k}={v}" for k, v in record.items() if k != "threads"))
    for key in ("units", "max_rel_dev", "csv_sha256", "r_repeat_frac"):
        if key in info:
            print(f"info: {key} {info[key]}")
    print(f"info: record {out_path.relative_to(ROOT)}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"metric {name} {value!r} {unit}")
    result = {
        "correct": totals["failed"] == 0,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": as_json(metrics),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
