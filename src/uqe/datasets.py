"""Synthetic data generators, CSV ingestion and the reference quantile."""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from .noise import RandomSource

__all__ = [
    "check_perturb_scale",
    "generate_synthetic",
    "load_csv",
    "perturb",
    "true_quantile",
]

SYNTHETIC_KINDS = ("uniform", "gaussian")


def generate_synthetic(kind: str, n: int, rng: RandomSource) -> np.ndarray:
    """uniform[-5, 5] or gaussian(0, 5) draws, the two synthetic benchmarks."""
    if n < 1:
        raise ValueError("n must be at least 1")
    key = kind.strip().lower()
    if key == "uniform":
        return rng.gen.uniform(-5.0, 5.0, n)
    if key == "gaussian":
        return rng.gen.normal(0.0, 5.0, n)
    raise ValueError(f"unknown synthetic kind: {kind!r} (choose from {SYNTHETIC_KINDS})")


def load_csv(path, column: str) -> np.ndarray:
    """Read one numeric column; parse failures report the offending row."""
    path = Path(path)
    with path.open(newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows, None)
        if header is None or column not in header:
            raise ValueError(
                f"column {column!r} not found in {path} (available: {header})"
            )
        # a repeated name reads its last column, as a DictReader row does
        col = len(header) - 1 - header[::-1].index(column)
        # blank rows are skipped and short rows read None, as in a DictReader
        cells = [row[col] if col < len(row) else None for row in rows if row]
    if not cells:
        raise ValueError(f"{path} has no data rows")
    try:
        out = np.fromiter(map(float, cells), dtype=float, count=len(cells))
    except (TypeError, ValueError):
        # only on failure: find the first bad cell; header is row 1
        for row_number, raw in enumerate(cells, start=2):
            try:
                float(raw)
            except (TypeError, ValueError):
                raise ValueError(
                    f"{path}, row {row_number}: cannot parse {raw!r} as a number"
                ) from None
        raise
    return out


def check_perturb_scale(scale: float) -> None:
    """The jitter rule: the scale is finite and >= 0."""
    if not 0.0 <= scale < math.inf:
        raise ValueError(f"perturb_scale must be finite and >= 0, got {scale!r}")


def perturb(values, scale: float, rng: RandomSource) -> np.ndarray:
    """Gaussian jitter used to break ties for the interval-based baseline."""
    vals = np.asarray(values, dtype=float)
    check_perturb_scale(scale)
    if scale == 0.0:
        return vals.copy()
    return vals + rng.gen.normal(0.0, scale, vals.shape)


def true_quantile(values, q):
    """Reference quantile: linear interpolation between order statistics.

    q is one level, which gives a float, or a 1-d array of levels, which
    gives an array from one partition of the data. Among tied order
    statistics the two forms may pick a different one, so a tie of 0.0 and
    -0.0 can come back with either sign.
    """
    levels = np.asarray(q, dtype=float)
    # NaN fails both comparisons, so it is rejected with the rest
    if levels.ndim > 1 or not ((levels >= 0.0) & (levels <= 1.0)).all():
        raise ValueError("q must lie in [0, 1]")
    out = np.quantile(np.asarray(values, dtype=float), levels)
    return float(out) if levels.ndim == 0 else out
