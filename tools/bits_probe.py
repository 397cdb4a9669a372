"""Report which golden digests hold under other BLAS kernels and SIMD levels.

The golden digests (``tests/test_golden_sweeps.py``) fix the last bits
of BLAS dot products and of numpy's vectorised ``power`` and ``exp``,
and both follow the CPU: OpenBLAS picks its kernel at start-up and
numpy dispatches its loops to the widest SIMD level the CPU has.  This
script runs the golden tests in a fresh interpreter once per setting:

- the defaults;
- ``OPENBLAS_CORETYPE=Haswell`` and ``OPENBLAS_CORETYPE=Prescott``
  (older OpenBLAS kernels);
- ``NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4"`` (numpy's
  AVX-512 loops off);
- ``NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4 X86_V3"``
  (numpy's dispatch down to its ``X86_V2`` baseline: ``show_runtime()``
  then finds no SIMD level above it).

It prints, per setting, which of the digests match.  It is a report,
not a gate: it exits 0 whatever it finds.  Run it from anywhere:

    python tools/bits_probe.py
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = "tests/test_golden_sweeps.py"
SETTINGS = (
    ("defaults", {}),
    ("OPENBLAS_CORETYPE=Haswell", {"OPENBLAS_CORETYPE": "Haswell"}),
    ("OPENBLAS_CORETYPE=Prescott", {"OPENBLAS_CORETYPE": "Prescott"}),
    ("AVX-512 dispatch off", {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}),
    (
        "dispatch at X86_V2",
        {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"},
    ),
)
OUTCOME = re.compile(r"^(PASSED|FAILED|ERROR) \S+::(\S+)", re.MULTILINE)


def run_golden(extra: dict[str, str]) -> tuple[dict[str, bool], int]:
    """Each golden test's pass or fail under ``extra``, and pytest's exit code."""
    # one BLAS thread, as in CI and perfbench: the digests assume it
    env = {"OPENBLAS_NUM_THREADS": "1", **os.environ, **extra}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", GOLDEN],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=900,
    )
    outcomes = {name: kind == "PASSED" for kind, name in OUTCOME.findall(proc.stdout)}
    return outcomes, proc.returncode


def main() -> int:
    results = [(label, *run_golden(extra)) for label, extra in SETTINGS]
    names = sorted({name for _, outcomes, _ in results for name in outcomes})
    width = max(map(len, names), default=0)
    for label, outcomes, code in results:
        matched = sum(outcomes.values())
        print(f"{label}: {matched}/{len(names)} digests match (pytest exit {code})")
        for name in names:
            mark = {True: "match", False: "DIFFERS"}.get(outcomes.get(name), "no result")
            print(f"  {name:<{width}}  {mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
