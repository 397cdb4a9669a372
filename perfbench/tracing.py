"""Call spans around the package's public functions, and the per-layer metrics they give.

``Tracer`` wraps each function on the name its caller resolves (so
``knappflow._kernels.term_sums``, which ``amplitudes`` looks up at call
time, but ``knappflow.amplitudes.quadrature_grid`` for the name
``amplitudes`` imported from ``boxes``), records one span per call in
memory and restores the originals when its ``with`` block ends.  The
package itself is not edited.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from collections import defaultdict
from time import perf_counter

# (span name, module whose global the caller resolves, attribute)
TRACED = (
    ("kernels.term_sums", "knappflow._kernels", "term_sums"),
    ("kernels.mult_values", "knappflow._kernels", "mult_values"),
    ("boxes.quadrature_grid", "knappflow.amplitudes", "quadrature_grid"),
    ("boxes.admissible_eta_region", "knappflow.amplitudes", "admissible_eta_region"),
    ("construction.kernels", "knappflow.amplitudes", "kernels"),
    ("amplitudes.lambda_hat", "knappflow.sweep", "lambda_hat"),
    ("amplitudes.product_norm_boxes", "knappflow.amplitudes", "product_norm_boxes"),
    ("amplitudes.sobolev_norm_monomial", "knappflow.amplitudes", "sobolev_norm_monomial"),
    ("amplitudes.output_norm_from_samples", "knappflow.sweep", "output_norm_from_samples"),
    ("amplitudes.norm_report", "knappflow.sweep", "norm_report"),
    ("sweep.sweep_core", "knappflow.sweep", "sweep_core"),
    ("sweep.records_from_core", "knappflow.sweep", "records_from_core"),
    ("sweep.standard_fits", "knappflow.sweep", "standard_fits"),
    ("sweep.smoothness_verdict", "knappflow.sweep", "smoothness_verdict"),
    ("sweep.csv_lines", "knappflow.sweep", "csv_lines"),
    ("sweep.report_json", "knappflow.sweep", "report_json"),
    ("symbols.duhamel_multiplier", "knappflow.symbols", "duhamel_multiplier"),
    ("symbols.duhamel_multiplier_oracle", "knappflow.symbols", "duhamel_multiplier_oracle"),
)

# What a span notes about its call, beyond its timing.
NOTES = {
    "kernels.term_sums": lambda args, result: len(args[0]),
    "boxes.admissible_eta_region": lambda args, result: result is not None,
    "amplitudes.lambda_hat": lambda args, result: sum(
        f.startswith("nonconverged") for f in result.flags
    ),
}

# Bytes of input per quadrature node that term_sums must read: three
# float64 coordinates and one float64 weight.  Computed, not measured.
TERM_SUMS_BYTES_PER_NODE = 32


class Tracer:
    """Wraps the ``TRACED`` functions for the life of a ``with`` block.

    ``spans`` holds ``[name, start, end, parent, note]`` lists in call
    order; ``parent`` is the index of the enclosing span or -1.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for name, module_name, attr in TRACED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, NOTES.get(name)))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn, note):
        spans = self.spans
        open_ = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_.pop()
            if note is not None:
                span[4] = note(args, result)
            return result

        return traced


def _percentile_ms(durations: list[float], index: int) -> float:
    if len(durations) < 2:
        return 1e3 * durations[0] if durations else 0.0
    return 1e3 * statistics.quantiles(durations, n=10, method="inclusive")[index]


def layer_metrics(spans: list[list], items: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced run, per item of the traced work.

    Returns ``{name: (value, unit)}``.  Layers the workload never reached
    read 0.
    """
    calls: dict[str, int] = defaultdict(int)
    inclusive: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        inclusive[name] += end - start
        self_time[name] += end - start - child_time[i]
        durations[name].append(end - start)

    # A term integral is every term_sums call between one non-empty
    # admissible region and the next; the last call's grid is accepted.
    integrals: list[list[int]] = []
    for name, _, _, _, note in spans:
        if name == "boxes.admissible_eta_region" and note:
            integrals.append([])
        elif name == "kernels.term_sums":
            integrals[-1].append(note)
    integrals = [nodes for nodes in integrals if nodes]
    nodes_spent = sum(sum(nodes) for nodes in integrals)
    nodes_accepted = sum(nodes[-1] for nodes in integrals)
    nonconverged = sum(note for name, *_, note in spans if name == "amplitudes.lambda_hat")

    def per_item(value: float) -> float:
        return value / items

    term_calls = calls["kernels.term_sums"]
    metrics = {
        "kernels.term_sums.calls": (per_item(term_calls), "count/item"),
        "kernels.term_sums.nodes": (per_item(nodes_spent), "count/item"),
        "kernels.term_sums.self_s": (per_item(self_time["kernels.term_sums"]), "s/item"),
        "kernels.term_sums.ns_per_node": (
            1e9 * inclusive["kernels.term_sums"] / nodes_spent if nodes_spent else 0.0,
            "ns",
        ),
        "kernels.term_sums.bytes_computed": (
            per_item(TERM_SUMS_BYTES_PER_NODE * nodes_spent),
            "B/item",
        ),
        "kernels.mult_values.calls": (per_item(calls["kernels.mult_values"]), "count/item"),
        "boxes.quadrature_grid.calls": (per_item(calls["boxes.quadrature_grid"]), "count/item"),
        "boxes.quadrature_grid.self_s": (per_item(self_time["boxes.quadrature_grid"]), "s/item"),
        "construction.kernels.calls": (per_item(calls["construction.kernels"]), "count/item"),
        "construction.kernels.self_s": (per_item(self_time["construction.kernels"]), "s/item"),
        "amplitudes.lambda_hat.calls": (per_item(calls["amplitudes.lambda_hat"]), "count/item"),
        "amplitudes.lambda_hat.self_s": (per_item(self_time["amplitudes.lambda_hat"]), "s/item"),
        "amplitudes.lambda_hat.p50_ms": (_percentile_ms(durations["amplitudes.lambda_hat"], 4), "ms"),
        "amplitudes.lambda_hat.p90_ms": (_percentile_ms(durations["amplitudes.lambda_hat"], 8), "ms"),
        "amplitudes.term_integrals": (per_item(len(integrals)), "count/item"),
        "amplitudes.refine_rounds": (term_calls / len(integrals) if integrals else 0.0, "ratio"),
        "amplitudes.useful_node_ratio": (
            nodes_accepted / nodes_spent if nodes_spent else 0.0,
            "ratio",
        ),
        "amplitudes.nonconverged_terms": (per_item(nonconverged), "count/item"),
        "amplitudes.norm_report.calls": (per_item(calls["amplitudes.norm_report"]), "count/item"),
        "sweep.fits.s": (
            per_item(inclusive["sweep.standard_fits"] + inclusive["sweep.smoothness_verdict"]),
            "s/item",
        ),
        "sweep.serialize.s": (
            per_item(inclusive["sweep.csv_lines"] + inclusive["sweep.report_json"]),
            "s/item",
        ),
    }
    for name in (
        "amplitudes.product_norm_boxes",
        "amplitudes.sobolev_norm_monomial",
        "amplitudes.output_norm_from_samples",
    ):
        metrics[f"{name}.self_s"] = (per_item(self_time[name]), "s/item")
    for name in ("sweep.sweep_core", "sweep.records_from_core"):
        metrics[f"{name}.s"] = (per_item(inclusive[name]), "s/item")
    for name in ("symbols.duhamel_multiplier", "symbols.duhamel_multiplier_oracle"):
        metrics[f"{name}.calls"] = (per_item(calls[name]), "count/item")
        metrics[f"{name}.self_s"] = (per_item(self_time[name]), "s/item")
    return metrics
