"""Experiment harness: resampling protocol, error tables and figure data.

The quantile benchmark repeatedly draws a sample without replacement,
perturbs it (tie-breaking for the interval baseline; every method sees the
same perturbed copy), estimates a grid of quantiles, and scores each method
against the reference quantile of the unperturbed sample. The sum benchmark
estimates a private clip once per resample and reuses it across the inner
Laplace draws. All randomness is derived from (seed, stream) pairs laid out
deterministically, so a rerun with the same spec is byte-identical.

As in the estimator's cost model, the O(n) work is done once per resample:
one histogram build, one sort and one reference pass serve every release
on it, and memory holds one resample at a time.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .aggregates import _clip_floor, _laplace, clipped_sum
from .datasets import check_perturb_scale, perturb, true_quantile
from .emq import (
    BoundedRange,
    _draw_from_edges,
    _interval_edges,
    _interval_logs,
    emq_pdf_curve,
    uqe_pdf_curve,
)
from .noise import NoiseKind, RandomSource, sample
from .quantile import (
    GeometricGrid,
    LogBucketHistogram,
    build_histogram,
    check_beta,
    counting_query_stream,
)
from .sparse_vector import DEFAULT_MAX_QUERIES, _first_window_halts, check_eps, check_noise_eps

__all__ = [
    "DEFAULT_QUANTILE_GRID",
    "EMQ_SUM_QS",
    "ExperimentSpec",
    "ResultRecord",
    "run_quantile_experiment",
    "run_sum_experiment",
    "normalized_error_rows",
    "records_to_json",
    "emit_pdf_figures",
]

DEFAULT_QUANTILE_GRID = tuple(round(0.05 + 0.01 * i, 2) for i in range(91))
EMQ_SUM_QS = (0.95, 0.96, 0.97, 0.98, 0.99)

# stream-id offsets so samples, perturbations and mechanism draws never collide
_SAMPLE_BASE = 1_000_000
_PERTURB_BASE = 2_000_000
_MECH_BASE = 10_000_000


@dataclass(frozen=True, eq=False)
class ExperimentSpec:
    """Dataset plus the resampling protocol parameters.

    round_outputs rounds the quantile experiment's releases to integers.
    Rounding applies to the quantile experiment only: run_sum_experiment
    does not read the flag, and its records are the same with it or without.
    """

    data: np.ndarray
    name: str
    declared_range: BoundedRange
    sample_size: int = 1000
    outer_trials: int = 100
    inner_trials: int = 100
    eps_grid: tuple[float, ...] = (1.0,)
    quantile_grid: tuple[float, ...] = DEFAULT_QUANTILE_GRID
    methods: tuple[str, ...] = ("uqe", "emq")
    perturb_scale: float = 0.1
    beta: float = 1.001
    sum_beta: float = 1.001
    round_outputs: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 1 or data.size == 0:
            raise ValueError("data must be a non-empty 1-d array")
        if not 1 <= self.sample_size <= data.size:
            raise ValueError("sample size must be between 1 and the dataset size")
        if self.outer_trials < 1 or self.inner_trials < 1:
            raise ValueError("trial counts must be at least 1")
        for m in self.methods:
            if m not in ("uqe", "emq"):
                raise ValueError(f"unknown method: {m!r}")
        levels = np.asarray(self.quantile_grid, dtype=float)
        # NaN fails both comparisons, so it is rejected with the rest
        if levels.ndim != 1 or levels.size == 0 or not ((levels >= 0) & (levels <= 1)).all():
            raise ValueError("the quantile grid must be non-empty with levels in [0, 1]")
        for eps in self.eps_grid:
            check_eps(eps)
            if "uqe" in self.methods:  # its runs take the even split
                check_noise_eps(eps / 2.0, "eps1")
        check_perturb_scale(self.perturb_scale)
        check_beta(self.beta)
        check_beta(self.sum_beta, "sum_beta")
        object.__setattr__(self, "data", data)


@dataclass(frozen=True)
class ResultRecord:
    dataset: str
    experiment: str
    method: str
    eps: float
    q: float
    mae: float
    std: float
    n_outer: int
    n_inner: int
    runtime: float | None = None


def _draw_sample(
    spec: ExperimentSpec, trial: int, source: RandomSource
) -> tuple[np.ndarray, np.ndarray]:
    """(unperturbed sample, perturbed copy) for one outer trial; source is
    re-keyed to each of the two streams they are drawn from."""
    source._rekey(_SAMPLE_BASE + trial)
    idx = source.gen.choice(spec.data.size, size=spec.sample_size, replace=False)
    clean = spec.data[idx]
    source._rekey(_PERTURB_BASE + trial)
    return clean, perturb(clean, spec.perturb_scale, source)


def _prepare(spec: ExperimentSpec, noisy: np.ndarray, lower: float, beta: float) -> dict:
    """The O(n) work every release on one resample shares, by method: the
    grid histogram for uqe, and for emq the sorted interval edges with their
    _interval_logs, each only when its method runs. Neither draws
    randomness."""
    prepared = {}
    if "uqe" in spec.methods:
        prepared["uqe"] = build_histogram(noisy, beta, lower, DEFAULT_MAX_QUERIES)
    if "emq" in spec.methods:
        edges = _interval_edges(noisy, spec.declared_range)
        prepared["emq"] = (edges, *_interval_logs(edges))
    return prepared


def _check_finite(estimates, beta: float) -> None:
    """Released grid estimates, which JSON can print only when finite. A
    candidate beta^k + ell - 1 is inf once beta^k passes the float range,
    or a little sooner above a lower bound near it: a ValueError that names
    the last index before that. A release that overflowed has read the
    powers that far, or nearly, so finding the index costs little."""
    if np.isfinite(estimates).all():
        return
    top = GeometricGrid(beta, 0.0).max_index_at_most(np.finfo(float).max)
    raise ValueError(
        f"a released estimate is not finite: at beta {beta!r} the grid's "
        f"candidates overflow a float past index {top}"
    )


def _uqe_block(
    hist: LogBucketHistogram, qs, eps: float, source: RandomSource, streams
) -> np.ndarray:
    """The uqe releases at the levels qs, level i from mechanism stream
    streams[i]: the grid values of one batch of AboveThreshold runs
    (sparse_vector._first_window_halts) at thresholds q * n, with the even
    split eps / 2, exponential noise and the bench's query cap. A value
    that overflows a float is a ValueError, before it is scored."""
    stream = counting_query_stream(hist, DEFAULT_MAX_QUERIES)
    thresholds = np.asarray(qs, dtype=float) * hist.n
    keys = [_MECH_BASE + s for s in streams]
    halts = _first_window_halts(
        stream, thresholds, eps / 2.0, eps / 2.0, NoiseKind.EXPONENTIAL, source, keys
    )
    est = np.array([hist.grid.value(h) for h in halts.tolist()])
    _check_finite(est, hist.grid.beta)
    return est


def _emq_block(
    intervals: tuple[np.ndarray, ...], qs, eps: float, source: RandomSource, streams
) -> np.ndarray:
    """The emq draws at the levels qs as one batch, level i's uniforms from
    mechanism stream streams[i]."""
    uniforms = np.empty((len(streams), intervals[0].size))
    for row, stream in zip(uniforms, streams):
        source._rekey(_MECH_BASE + stream)
        row[...] = source.uniform_open(row.size)
    return _draw_from_edges(*intervals, qs, eps, uniforms)


# each method's block: its releases at levels qs from what _prepare made
_BLOCKS = {"uqe": _uqe_block, "emq": _emq_block}


def run_quantile_experiment(spec: ExperimentSpec) -> list[ResultRecord]:
    """Mean absolute error per (method, eps, q) over the resampling protocol.

    Cell c, one (eps, method, q), releases on resample t from mechanism
    stream c * outer_trials + t. The q cells of one (eps, method) block are
    contiguous, and each method releases a block's levels as one batch. A
    record's runtime is its block's time divided evenly among the levels,
    summed over the resamples.
    """
    rr = spec.declared_range
    outer = spec.outer_trials
    levels = np.asarray(spec.quantile_grid, dtype=float)
    m = levels.size
    blocks = [(eps, method) for eps in spec.eps_grid for method in spec.methods]
    cells = [(eps, method, q) for eps, method in blocks for q in spec.quantile_grid]
    errs = np.empty((len(cells), outer))
    runtime = np.zeros(len(cells))
    source = RandomSource(spec.seed)
    for t in range(outer):
        clean, noisy = _draw_sample(spec, t, source)
        noisy = np.clip(noisy, rr.a, rr.b)
        refs = true_quantile(clean, levels)
        prepared = _prepare(spec, noisy, rr.a, spec.beta)
        for b, (eps, method) in enumerate(blocks):
            first = b * m
            streams = [c * outer + t for c in range(first, first + m)]
            start = time.perf_counter()
            est = _BLOCKS[method](prepared[method], levels, eps, source, streams)
            runtime[first : first + m] += (time.perf_counter() - start) / m
            if spec.round_outputs:
                np.rint(est, out=est)
            errs[first : first + m, t] = np.abs(est - refs)
    mae, std = errs.mean(axis=1), errs.std(axis=1)
    return [
        ResultRecord(
            dataset=spec.name,
            experiment="quantile",
            method=method,
            eps=float(eps),
            q=float(q),
            mae=float(mae[c]),
            std=float(std[c]),
            n_outer=outer,
            n_inner=1,
            runtime=float(runtime[c]),
        )
        for c, (eps, method, q) in enumerate(cells)
    ]


def run_sum_experiment(spec: ExperimentSpec) -> list[ResultRecord]:
    """Private-sum errors: the clip method pays eps, the Laplace release pays eps.

    The grid method always clips at q = 0.99; the interval baseline reports
    its best q from EMQ_SUM_QS, as the head-to-head protocol prescribes.
    Row r, one (eps, method, q), draws its clip on resample t from
    mechanism stream 2 * (r * outer_trials + t) and its Laplace noise from
    the next one; emq draws the clips of its levels as one batch. A
    record's runtime is the time of its rows' clips and sums, summed over
    the resamples. spec.round_outputs is not read: rounding applies to the
    quantile experiment only.
    """
    rr = spec.declared_range
    outer = spec.outer_trials
    blocks = [
        (eps, method, (0.99,) if method == "uqe" else EMQ_SUM_QS)
        for eps in spec.eps_grid
        for method in spec.methods
    ]
    per_outer = np.empty((sum(len(qs) for _, _, qs in blocks), outer))
    runtime = np.zeros(len(blocks))
    source = RandomSource(spec.seed)
    for t in range(outer):
        clean, noisy = _draw_sample(spec, t, source)
        noisy = np.clip(noisy, 0.0, rr.b)
        total = clean.sum()
        prepared = _prepare(spec, noisy, 0.0, spec.sum_beta)
        r = 0
        for b, (eps, method, qs) in enumerate(blocks):
            start = time.perf_counter()
            streams = [2 * ((r + i) * outer + t) for i in range(len(qs))]
            clips = _BLOCKS[method](prepared[method], qs, eps, source, streams)
            for clip, stream in zip(clips, streams):
                if clip <= 0.0:
                    clip = _clip_floor(rr)
                source._rekey(_MECH_BASE + stream + 1)
                lap = sample(_laplace(clip, eps), source, size=spec.inner_trials)
                per_outer[r, t] = np.abs(clipped_sum(noisy, clip) + lap - total).mean()
                r += 1
            runtime[b] += time.perf_counter() - start
    mae, std = per_outer.mean(axis=1), per_outer.std(axis=1)
    records = []
    r = 0
    for b, (eps, method, qs) in enumerate(blocks):
        best_mae, best_std, best_q = min(
            (float(mae[r + i]), float(std[r + i]), q) for i, q in enumerate(qs)
        )
        r += len(qs)
        records.append(
            ResultRecord(
                dataset=spec.name,
                experiment="sum",
                method=method,
                eps=float(eps),
                q=float(best_q),
                mae=best_mae,
                std=best_std,
                n_outer=outer,
                n_inner=spec.inner_trials,
                runtime=float(runtime[b]),
            )
        )
    return records


def normalized_error_rows(records: list[ResultRecord]) -> list[dict]:
    """Per (eps, q): each method's MAE divided by the grid method's MAE."""
    base = {
        (r.eps, r.q): r.mae
        for r in records
        if r.method == "uqe" and r.experiment == "quantile"
    }
    rows = []
    for r in records:
        if r.experiment != "quantile":
            continue
        denom = base.get((r.eps, r.q))
        normalized = r.mae / denom if denom else float("nan")
        rows.append(
            {
                "eps": r.eps,
                "q": r.q,
                "method": r.method,
                "mae": r.mae,
                "normalized": normalized,
            }
        )
    return rows


def records_to_json(records: list[ResultRecord], include_runtime: bool = False) -> str:
    """Canonical JSON: fixed key order and separators, so reruns are comparable
    byte for byte. Runtimes vary between runs and are opt-in. JSON has no
    inf or NaN: a record that holds one is a ValueError."""
    payload = [dict(vars(r)) for r in records]
    if not include_runtime:
        for row in payload:
            del row["runtime"]
    if not payload:
        return "[]\n"
    # The bytes of json.dumps(payload, sort_keys=True, indent=2) from one call
    # of json's C encoder, which any indent would bypass for its pure-Python
    # one. The item separator breaks the lines inside a record; a JSON string
    # holds no raw newline, so of flat records "},\n    {" joins two records.
    text = json.dumps(payload, sort_keys=True, separators=(",\n    ", ": "), allow_nan=False)
    text = text[2:-2].replace("},\n    {", "\n  },\n  {\n    ")
    return "[\n  {\n    " + text + "\n  }\n]\n"


def _write_csv(path: Path, rows: list[tuple[float, float]]) -> None:
    lines = ["value,density"]
    lines += [f"{v!r},{d!r}" for v, d in rows]
    path.write_text("\n".join(lines) + "\n")


def emit_pdf_figures(
    data,
    rng_range: BoundedRange,
    q: float,
    eps: float,
    beta: float,
    out_dir,
    label: str,
    lower: float = 0.0,
) -> dict[str, Path]:
    """Write the two step-density curves for one assumed range.

    The interval baseline's curve depends on the range; the grid estimator's
    curve is computed without ever seeing it, so running this twice with
    different ranges writes identical grid-curve files. Uses Gumbel noise with
    eps1 = eps2 = eps/2, the configuration whose halt distribution has a
    closed form.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid_x, emq_density = emq_pdf_curve(data, rng_range, q, eps)
    emq_path = out / f"emq_pdf_{label}.csv"
    _write_csv(emq_path, list(zip(grid_x.tolist(), emq_density.tolist())))

    curve = uqe_pdf_curve(data, lower, q, eps, beta=beta)
    rows = []
    for left, right, density in zip(
        curve.lefts.tolist(), curve.rights.tolist(), curve.density.tolist()
    ):
        rows.append((left, density))
        rows.append((right, density))
    uqe_path = out / f"uqe_pdf_{label}.csv"
    _write_csv(uqe_path, rows)
    return {"emq": emq_path, "uqe": uqe_path}
