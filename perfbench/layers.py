"""The uqe layers that the traced run wraps, and the per-layer metrics.

Layers are the package's modules. `accounting` is left out because its cost
per release is O(1), and `verify` because it is a self-check, not user
traffic. Counts are totals over the first calls of a run (the calls the
output digest covers), so they repeat exactly for a seed; times, shares and
per-unit rates use every traced call.
"""

from __future__ import annotations

import numpy as np

from tracer import ROOT_SPAN

LAYER_MODULES = (
    "noise",
    "quantile",
    "sparse_vector",
    "aggregates",
    "emq",
    "datasets",
    "bench",
    "cli",
)

SCAN = "sparse_vector.run_above_threshold"
BUILD = "quantile.build_histogram"
MULTI = "quantile.estimate_multiple_quantiles"
DATASET = "quantile.Dataset"


def philox_position(gen: np.random.Generator) -> int:
    """64-bit words drawn so far from a Philox generator.

    Philox4x64 fills a buffer of four words per counter step, so the
    position is 4 * counter + buffer_pos - 4 (a fresh generator reads 0).
    """
    state = gen.bit_generator.state
    c = state["state"]["counter"]
    counter = int(c[0]) | int(c[1]) << 64 | int(c[2]) << 128 | int(c[3]) << 192
    return 4 * counter + int(state["buffer_pos"]) - 4


def _scan_rng(args, kwargs):
    return args[2] if len(args) > 2 else kwargs["rng"]


def _before_scan(args, kwargs) -> int:
    return philox_position(_scan_rng(args, kwargs).gen)


def _after_scan(t, start, args, kwargs, outcome) -> None:
    t.add("noise.draws", philox_position(_scan_rng(args, kwargs).gen) - start)
    t.add(f"{SCAN}.queries", outcome.cap if outcome.exhausted else outcome.index)
    t.add(f"{SCAN}.exhausted", int(outcome.exhausted))


def _after_build(t, _, args, kwargs, hist) -> None:
    t.add(f"{BUILD}.elements", int(np.size(args[0])))
    t.add(f"{BUILD}.buckets", len(hist.counts))
    t.peak(f"{BUILD}.max_bucket", max(hist.counts))


def _after_estimate(t, _, args, kwargs, est) -> None:
    if t.parent_name == MULTI:
        t.add(f"{MULTI}.nodes", 1)
        t.add(f"{MULTI}.node_elements", args[0].n)


def _after_multi(t, _, args, kwargs, result) -> None:
    t.add(f"{MULTI}.empty_slices", sum(result.empty_slice))


def _after_emq(t, _, args, kwargs, value) -> None:
    t.add("emq.emq_estimate.elements", int(np.size(args[0])))


def _after_load(t, _, args, kwargs, values) -> None:
    t.add("datasets.load_csv.rows", len(values))


# (layer, public function, before hook, after hook)
TRACED = (
    ("quantile", "build_histogram", None, _after_build),
    ("quantile", "counting_query_stream", None, None),
    ("quantile", "estimate_quantile", None, _after_estimate),
    ("quantile", "estimate_quantile_unbounded", None, None),
    ("quantile", "estimate_small_quantile_inverted", None, None),
    ("quantile", "estimate_multiple_quantiles", None, _after_multi),
    ("sparse_vector", "run_above_threshold", _before_scan, _after_scan),
    ("aggregates", "dp_sum", None, None),
    ("aggregates", "clipped_sum", None, None),
    ("emq", "emq_estimate", None, _after_emq),
    ("datasets", "true_quantile", None, None),
    ("datasets", "perturb", None, None),
    ("datasets", "load_csv", None, _after_load),
    ("bench", "run_quantile_experiment", None, None),
    ("cli", "main", None, None),
)

SPAN_NAMES = tuple(f"{layer}.{attr}" for layer, attr, _, _ in TRACED) + (DATASET,)

COUNT_METRICS = (
    ("noise.draws", "count"),
    ("noise.draws_per_query", "ratio"),
    ("noise.threshold_draws_per_run", "ratio"),
    (f"{SCAN}.queries", "count"),
    (f"{SCAN}.us_per_query", "us"),
    (f"{SCAN}.exhausted", "count"),
    (f"{BUILD}.elements", "count"),
    (f"{BUILD}.ns_per_element", "ns"),
    (f"{BUILD}.max_bucket", "index"),
    (f"{BUILD}.buckets", "count"),
    (f"{MULTI}.nodes", "count"),
    (f"{MULTI}.node_elements", "count"),
    (f"{MULTI}.empty_slices", "count"),
    ("emq.emq_estimate.elements", "count"),
    ("datasets.load_csv.rows", "count"),
    ("trace.overhead_frac", "frac"),
)

PER_LAYER = tuple(
    (f"{span}.{field}", unit)
    for span in SPAN_NAMES
    for field, unit in (("calls", "count"), ("self_ms", "ms"), ("share", "frac"))
) + COUNT_METRICS


def install(tracer, api) -> None:
    """Trace every function in TRACED, wherever uqe binds it, and the
    benchmark's own Dataset constructions."""
    modules = [getattr(api, name) for name in LAYER_MODULES] + [api.package]
    for layer, attr, before, after in TRACED:
        home = getattr(api, layer)
        others = [m for m in modules if m is not home]
        tracer.install([home, *others], f"{layer}.{attr}", attr, before, after)
    tracer.install([api], DATASET, "Dataset")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, window: int, overhead_frac: float) -> dict[str, float]:
    """Every PER_LAYER metric from a finished traced run (0 where unused)."""
    totals = tracer.span_totals(window)
    unused = {"window": 0, "n": 0, "total_ns": 0, "self_ns": 0}
    wall_ns = totals[ROOT_SPAN]["total_ns"]
    out: dict[str, float] = {}
    for span in SPAN_NAMES:
        entry = totals.get(span, unused)
        out[f"{span}.calls"] = entry["window"]
        out[f"{span}.self_ms"] = _ratio(entry["self_ns"] / 1e6, entry["n"])
        out[f"{span}.share"] = entry["self_ns"] / wall_ns
    counts, peaks = tracer.window_counts(window)
    every, _ = tracer.window_counts(len(tracer.counts))
    scan = totals.get(SCAN, unused)
    build = totals.get(BUILD, unused)
    draws, queries = counts["noise.draws"], counts[f"{SCAN}.queries"]
    out["noise.draws"] = draws
    out["noise.draws_per_query"] = _ratio(draws, queries)
    out["noise.threshold_draws_per_run"] = _ratio(draws - queries, scan["window"])
    out[f"{SCAN}.queries"] = queries
    out[f"{SCAN}.us_per_query"] = _ratio(scan["total_ns"] / 1e3, every[f"{SCAN}.queries"])
    out[f"{SCAN}.exhausted"] = counts[f"{SCAN}.exhausted"]
    out[f"{BUILD}.elements"] = counts[f"{BUILD}.elements"]
    out[f"{BUILD}.ns_per_element"] = _ratio(build["total_ns"], every[f"{BUILD}.elements"])
    out[f"{BUILD}.max_bucket"] = peaks.get(f"{BUILD}.max_bucket", 0)
    out[f"{BUILD}.buckets"] = counts[f"{BUILD}.buckets"]
    for key in ("nodes", "node_elements", "empty_slices"):
        out[f"{MULTI}.{key}"] = counts[f"{MULTI}.{key}"]
    out["emq.emq_estimate.elements"] = counts["emq.emq_estimate.elements"]
    out["datasets.load_csv.rows"] = counts["datasets.load_csv.rows"]
    out["trace.overhead_frac"] = overhead_frac
    return out
