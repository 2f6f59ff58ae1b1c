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

from .aggregates import clipped_sum
from .datasets import perturb, true_quantile
from .emq import (
    BoundedRange,
    _draw_from_edges,
    _interval_edges,
    emq_pdf_curve,
    uqe_pdf_curve,
)
from .noise import NoiseKind, NoiseSpec, RandomSource, sample
from .quantile import LogBucketHistogram, QuantileRequest, _release, build_histogram
from .sparse_vector import DEFAULT_MAX_QUERIES, check_eps

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
    """Dataset plus the resampling protocol parameters."""

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

    def as_dict(self, include_runtime: bool = False) -> dict:
        out = {
            "dataset": self.dataset,
            "experiment": self.experiment,
            "method": self.method,
            "eps": self.eps,
            "q": self.q,
            "mae": self.mae,
            "std": self.std,
            "n_outer": self.n_outer,
            "n_inner": self.n_inner,
        }
        if include_runtime:
            out["runtime"] = self.runtime
        return out


def _draw_sample(spec: ExperimentSpec, trial: int) -> tuple[np.ndarray, np.ndarray]:
    """(unperturbed sample, perturbed copy) for one outer trial."""
    picker = RandomSource(spec.seed, _SAMPLE_BASE + trial)
    idx = picker.gen.choice(spec.data.size, size=spec.sample_size, replace=False)
    clean = spec.data[idx]
    noisy = perturb(clean, spec.perturb_scale, RandomSource(spec.seed, _PERTURB_BASE + trial))
    return clean, noisy


def _mech_rng(spec: ExperimentSpec, index: int) -> RandomSource:
    return RandomSource(spec.seed, _MECH_BASE + index)


def _prepare(
    spec: ExperimentSpec, noisy: np.ndarray, lower: float, beta: float
) -> tuple[LogBucketHistogram | None, np.ndarray | None]:
    """The O(n) work every release on one resample shares: the grid
    histogram for uqe and the sorted interval edges for emq, each only when
    its method runs. Neither draws randomness."""
    hist = edges = None
    if "uqe" in spec.methods:
        hist = build_histogram(noisy, beta, lower, DEFAULT_MAX_QUERIES)
    if "emq" in spec.methods:
        edges = _interval_edges(noisy, spec.declared_range)
    return hist, edges


def _estimate_one(
    method: str,
    hist: LogBucketHistogram | None,
    edges: np.ndarray | None,
    q: float,
    eps: float,
    rng: RandomSource,
) -> float:
    if method == "uqe":
        req = QuantileRequest.even_split(q, eps, beta=hist.beta)
        return _release(hist, req, rng).value
    return _draw_from_edges(edges, q, eps, rng)


def run_quantile_experiment(spec: ExperimentSpec) -> list[ResultRecord]:
    """Mean absolute error per (method, eps, q) over the resampling protocol.

    Cell c, one (eps, method, q), releases on resample t from mechanism
    stream c * outer_trials + t. A record's runtime is the time of its
    cell's releases, summed over the resamples.
    """
    rr = spec.declared_range
    levels = np.asarray(spec.quantile_grid, dtype=float)
    cells = [
        (eps, method, q)
        for eps in spec.eps_grid
        for method in spec.methods
        for q in spec.quantile_grid
    ]
    errs = np.empty((len(cells), spec.outer_trials))
    runtime = np.zeros(len(cells))
    for t in range(spec.outer_trials):
        clean, noisy = _draw_sample(spec, t)
        noisy = np.clip(noisy, rr.a, rr.b)
        refs = true_quantile(clean, levels)
        hist, edges = _prepare(spec, noisy, rr.a, spec.beta)
        for c, (eps, method, q) in enumerate(cells):
            start = time.perf_counter()
            rng = _mech_rng(spec, c * spec.outer_trials + t)
            est = _estimate_one(method, hist, edges, q, eps, rng)
            if spec.round_outputs:
                est = float(np.rint(est))
            # q varies fastest over the cells
            errs[c, t] = abs(est - refs[c % levels.size])
            runtime[c] += time.perf_counter() - start
    return [
        ResultRecord(
            dataset=spec.name,
            experiment="quantile",
            method=method,
            eps=float(eps),
            q=float(q),
            mae=float(errs[c].mean()),
            std=float(errs[c].std()),
            n_outer=spec.outer_trials,
            n_inner=1,
            runtime=float(runtime[c]),
        )
        for c, (eps, method, q) in enumerate(cells)
    ]


def run_sum_experiment(spec: ExperimentSpec) -> list[ResultRecord]:
    """Private-sum errors: the clip method pays eps, the Laplace release pays eps.

    The grid method always clips at q = 0.99; the interval baseline reports
    its best q from EMQ_SUM_QS, as the head-to-head protocol prescribes.
    Block b, one (eps, method, q), draws its clip on resample t from
    mechanism stream 2 * (b * outer_trials + t) and its Laplace noise from
    the next one. A record's runtime is the time of its blocks' clips and
    sums, summed over the resamples.
    """
    rr = spec.declared_range
    blocks = [
        (eps, method, q)
        for eps in spec.eps_grid
        for method in spec.methods
        for q in ((0.99,) if method == "uqe" else EMQ_SUM_QS)
    ]
    per_outer = np.empty((len(blocks), spec.outer_trials))
    runtime = np.zeros(len(blocks))
    for t in range(spec.outer_trials):
        clean, noisy = _draw_sample(spec, t)
        noisy = np.clip(noisy, 0.0, rr.b)
        total = clean.sum()
        hist, edges = _prepare(spec, noisy, 0.0, spec.sum_beta)
        for b, (eps, method, q) in enumerate(blocks):
            start = time.perf_counter()
            index = 2 * (b * spec.outer_trials + t)
            clip = _estimate_one(method, hist, edges, q, eps, _mech_rng(spec, index))
            if clip <= 0.0:
                clip = rr.width * 1e-9
            lap = sample(
                NoiseSpec(NoiseKind.LAPLACE, clip / eps),
                _mech_rng(spec, index + 1),
                size=spec.inner_trials,
            )
            per_outer[b, t] = np.abs(clipped_sum(noisy, clip) + lap - total).mean()
            runtime[b] += time.perf_counter() - start
    records = []
    b = 0
    for eps in spec.eps_grid:
        for method in spec.methods:
            rows = range(b, b + (1 if method == "uqe" else len(EMQ_SUM_QS)))
            b = rows.stop
            mae, std, best_q = min(
                (float(per_outer[r].mean()), float(per_outer[r].std()), blocks[r][2]) for r in rows
            )
            records.append(
                ResultRecord(
                    dataset=spec.name,
                    experiment="sum",
                    method=method,
                    eps=float(eps),
                    q=float(best_q),
                    mae=mae,
                    std=std,
                    n_outer=spec.outer_trials,
                    n_inner=spec.inner_trials,
                    runtime=float(runtime[rows].sum()),
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
    byte for byte. Runtimes vary between runs and are opt-in."""
    payload = [r.as_dict(include_runtime=include_runtime) for r in records]
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


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
