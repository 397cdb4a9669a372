"""The names the benchmark harness wraps or polls must exist in the package.

``perfbench/tracing.py`` replaces each ``(module, attr)`` of its ``TRACED``
table with a timing wrapper, and ``perfbench/run.py`` polls its speed gauge
after ``knappflow.sweep.lambda_hat``.  A renamed or deleted function would
break ``--trace 1`` or every benchmark run without failing a package test.
The harness also reads two values without calling a hooked name: the
backend flag ``run.py`` writes into its run record, and the multiplier
values the ``multiplier_oracle`` workload collects.  The tracer counts a
``term_sums`` call's nodes as the length of its first argument, so the
per-layer counts of one traced window are pinned too.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_traced():
    return load_tracing().TRACED


def test_traced_table_is_readable():
    traced = load_traced()
    assert len(traced) > 0
    assert all(len(entry) == 3 for entry in traced)


@pytest.mark.parametrize(
    "module_name, attr",
    [(module_name, attr) for _, module_name, attr in load_traced()]
    + [("knappflow.sweep", "lambda_hat")],
)
def test_hooked_name_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


def test_values_read_by_the_harness():
    # run.py records "numba" if the flag is set, else "numpy"
    assert importlib.import_module("knappflow._kernels").NUMBA_ENABLED is False
    symbols = importlib.import_module("knappflow.symbols")
    # the workload compares .value against complex numpy arrays, on both branches
    for t, om in ((0.5, 3.0), (0.5, 1e-9), (0.5, 0.0)):
        assert type(symbols.duhamel_multiplier(t, om).value) is complex


@pytest.mark.parametrize("mode, nodes", [("slab", 1944), ("surface", 1080)])
def test_traced_window_counts(mode, nodes):
    # one window: two refinement levels, each one term_sums call for all
    # four terms at all 27 lattice points
    tracing = load_tracing()
    sweep = importlib.import_module("knappflow.sweep")
    with tracing.Tracer() as tracer:
        sweep.sweep_core(0.01, 2e-6, [3], mode)
    metrics = tracing.layer_metrics(tracer.spans, 1)
    assert metrics["kernels.term_sums.calls"] == (2, "count/item")
    assert metrics["kernels.term_sums.nodes"] == (nodes, "count/item")
