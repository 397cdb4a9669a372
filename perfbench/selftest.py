"""Self-test of the benchmark harness at its smallest sizes (about a minute).

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that
- every metric BENCHMARK.json names is printed, with its unit, both as a
  ``metric`` line and in the JSON result line, and that the raw time,
  speed and failure figures are printed too;
- a traced run's counts repeat exactly for the same seed and match the
  recorded per-window figures;
- the correctness gate passes the real outputs and fires on a perturbed
  reference value, a perturbed output and a wrong verdict;
- in a directory holding only BENCHMARK.json and perfbench/, the
  benchmark exits non-zero without printing a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import workloads as wl  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
PRINTED_ONLY = {"wall_s": "s", "cpu_s": "s", "speed_factor": "ratio", "fail_frac": "ratio"}
# Per-window figures of the traced surface sweep, recorded at the
# reference commit (a slab window differs only in spending 7,962,624 nodes).
SURFACE_WINDOW_COUNTS = {
    "kernels.term_sums.calls": 216.0,
    "kernels.term_sums.nodes": 276480.0,
    "kernels.mult_values.calls": 1728.0,
    "amplitudes.lambda_hat.calls": 27.0,
    "amplitudes.term_integrals": 108.0,
    "amplitudes.nonconverged_terms": 0.0,
}

# Faults the gate must catch, fixed rather than scaled by the gate's own
# tolerances so that a loosened tolerance fails the self-test: a record
# value off by 1e-5 relative (a grid that is too coarse does 9.3e-5), a
# multiplier off by 1e-8 * t, a ratio exponent off by 0.2.
RECORD_FAULT = 1e-5
MULTIPLIER_FAULT = 1e-8
VERDICT_FAULT = 0.2

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {what}")
    if not ok:
        failures.append(what)


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def printed_metrics(stdout: str) -> dict[str, str]:
    units = {}
    for line in stdout.splitlines():
        if line.startswith("metric "):
            _, name, _, unit = line.split()
            units[name] = unit
    return units


def check_output(workload: str, trace: int, proc) -> dict:
    expect(proc.returncode == 0, f"{workload} trace={trace} exits 0")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           f"{workload} trace={trace} result line has exactly the four keys")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{workload} trace={trace} outputs pass the check")
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == declared, f"{workload} trace={trace} result metrics and units match BENCHMARK.json")
    want_printed = dict(declared, **(PRINTED_ONLY if not trace else {"fail_frac": "ratio"}))
    expect(printed_metrics(proc.stdout) == want_printed,
           f"{workload} trace={trace} prints every metric with its unit")
    return result


def check_end_to_end() -> None:
    for workload in ("surface_sweep", "multiplier_oracle"):
        check_output(workload, 0, run_bench(workload, 1, 0))


def check_trace_counts() -> None:
    first = check_output("surface_sweep", 1, run_bench("surface_sweep", 3, 1))
    second = check_output("surface_sweep", 1, run_bench("surface_sweep", 3, 1))
    units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    counts = [n for n, u in units.items() if u in ("count/item", "B/item", "ratio")]
    expect(all(first["metrics"][n] == second["metrics"][n] for n in counts),
           "traced counts repeat exactly for the same seed")
    expect(all(first["metrics"][n]["value"] == v for n, v in SURFACE_WINDOW_COUNTS.items()),
           "traced surface counts match the recorded per-window figures")


def check_gate() -> None:
    reference = wl.load_reference()
    sweep_wl = wl.make_workload("surface_sweep", reference)
    ks = (1, 2, 3)
    out = sweep_wl.run(ks)
    expect(sweep_wl.check(ks, out).failed == 0, "gate passes a real surface sweep")
    bad_ref = copy.deepcopy(reference)
    bad_ref["surface"][wl.pair_key(wl.DEFAULT_S, wl.DEFAULT_R)]["2"]["sup_amp"] *= 1 + RECORD_FAULT
    checked = wl.make_workload("surface_sweep", bad_ref).check(ks, out)
    expect(checked.failed == 1, "gate fails the window whose reference value was perturbed")

    oracle = wl.make_workload("multiplier_oracle", reference)
    pairs = oracle.make_unit(np.random.default_rng(0))
    ms, oracles = oracle.run(pairs)
    expect(oracle.check(pairs, (ms, oracles)).failed == 0, "gate passes real multiplier values")
    ms[7] += MULTIPLIER_FAULT * pairs[0][7]
    expect(oracle.check(pairs, (ms, oracles)).failed == 1, "gate fails a perturbed multiplier value")

    # sr_scan's check, fed the reference records themselves as output.
    scan = wl.make_workload("sr_scan", reference)
    scan.ks = ks
    s, r = wl.S_GRID[0], wl.R_GRID[0]
    records = [reference["slab"][wl.pair_key(s, r)][str(k)] for k in ks]
    analytic = s - 1.0 - 2.0 * r

    def output(measured: float) -> tuple[str, str]:
        verdict = {"measured_ratio_exponent": measured, "analytic_ratio_exponent": analytic}
        return "", json.dumps({"records": records, "verdict": verdict})

    expect(scan.check((s, r), output(analytic)).failed == 0, "gate passes reference sr_scan records")
    expect(scan.check((s, r), output(analytic + VERDICT_FAULT)).failed == 1,
           "gate fails an sr_scan verdict off s - 1 - 2r")
    scan.reference = bad_ref["slab"]
    scan.reference[wl.pair_key(s, r)]["3"]["norm_total"] *= 1 - RECORD_FAULT
    expect(scan.check((s, r), output(analytic)).failed == 1,
           "gate fails an sr_scan pair whose reference value was perturbed")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("surface_sweep", 1, 0, cwd=bare)
    expect(proc.returncode != 0 and "{" not in proc.stdout,
           "without the package the benchmark exits non-zero and prints no result")
    shutil.rmtree(bare)


def main() -> int:
    check_gate()
    check_end_to_end()
    check_trace_counts()
    check_bare_directory()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
