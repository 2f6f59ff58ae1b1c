"""Exponential-mechanism quantile estimation over a declared bounded range.

The mechanism sorts the data, forms the n+1 intervals [x_j, x_{j+1}] with
bookends a and b, gives interval j the weight exp(-eps*|j - q*n|/2) times its
length, picks an interval by Gumbel-max over the log weights, and returns a
uniform draw inside it. Its output density is a step function, which is what
the range-contrast figure plots against the grid-based estimator's curve.

Everything is computed in log space: for large n the weights underflow long
before the distribution degenerates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .noise import RandomSource, _check_source
from .quantile import _check_q, build_histogram, counting_query_stream
from .sparse_vector import (
    DEFAULT_MAX_QUERIES,
    check_eps,
    gumbel_halt_log_pmf,
    gumbel_no_halt_prob,
    stream_prefix,
)

__all__ = [
    "BoundedRange",
    "emq_interval_pmf",
    "emq_estimate",
    "emq_pdf_curve",
    "UqePdfCurve",
    "uqe_pdf_curve",
]

# log weights _draw_from_edges computes at once (64 KB): a batch then holds
# one (levels x n+2) array of uniforms, and no second one of its size
_WEIGHT_CHUNK = 1 << 13

# points of emq_pdf_curve's plot grid, spread evenly over the declared
# range: the resolution of the range-contrast figures
_PDF_GRID_POINTS = 1001

# intervals uqe_pdf_curve emits past the first candidate above every point,
# so the plot shows the tail; the halt mass beyond them is the residual
_PDF_PAD_STEPS = 25


@dataclass(frozen=True)
class BoundedRange:
    """A publicly declared interval [a, b] that contains all the data."""

    a: float
    b: float

    def __post_init__(self) -> None:
        # NaN fails the comparison too
        if not -math.inf < self.a < self.b < math.inf:
            raise ValueError("range must be finite with a < b")

    @property
    def width(self) -> float:
        return self.b - self.a


def _interval_edges(data, rng_range: BoundedRange) -> np.ndarray:
    vals = np.sort(np.asarray(data, dtype=float))
    if vals.size == 0:
        raise ValueError("data must be non-empty")
    # NaN sorts last and fails the comparison, so it is rejected too
    if not (vals[0] >= rng_range.a and vals[-1] <= rng_range.b):
        raise ValueError("data outside the declared range")
    return np.concatenate(([rng_range.a], vals, [rng_range.b]))


def _interval_logs(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ranks j = 0..n as floats, log interval lengths) of the edges
    _interval_edges gives: the parts of the log weights every (q, eps)
    shares. A zero-length interval has log length -inf."""
    ranks = np.arange(edges.size - 1, dtype=float)
    with np.errstate(divide="ignore"):
        return ranks, np.log(np.diff(edges))


def _log_weights(edges: np.ndarray, q: float, eps: float) -> np.ndarray:
    check_eps(eps)
    _check_q(q)
    n = edges.size - 2
    ranks, log_gaps = _interval_logs(edges)
    return -eps * np.abs(ranks - q * n) / 2.0 + log_gaps


def emq_interval_pmf(data, rng_range: BoundedRange, q: float, eps: float) -> np.ndarray:
    """Normalized selection probabilities over intervals j = 0..n."""
    return _pmf_from_edges(_interval_edges(data, rng_range), q, eps)


def _pmf_from_edges(edges: np.ndarray, q: float, eps: float) -> np.ndarray:
    """emq_interval_pmf on the edges _interval_edges gives."""
    logw = _log_weights(edges, q, eps)
    shifted = logw - logw.max()
    w = np.exp(shifted)
    return w / w.sum()


def emq_estimate(
    data, rng_range: BoundedRange, q: float, eps: float, rng: RandomSource
) -> float:
    """One eps-DP draw: Gumbel-max interval choice, then uniform inside it."""
    _check_source(rng)
    edges = _interval_edges(data, rng_range)
    check_eps(eps)
    _check_q(q)
    uniforms = rng.uniform_open((1, edges.size))
    return float(_draw_from_edges(edges, *_interval_logs(edges), [q], eps, uniforms)[0])


def _draw_from_edges(
    edges: np.ndarray,
    ranks: np.ndarray,
    log_gaps: np.ndarray,
    qs,
    eps: float,
    uniforms: np.ndarray,
) -> np.ndarray:
    """emq_estimate at each level of qs, on the edges _interval_edges gives
    and their _interval_logs, for a valid eps and levels.

    Row i of uniforms holds level i's n + 2 open uniforms, in the order one
    stream draws them: n + 1 for the Gumbel noise of the intervals, then
    the one that places the draw inside the chosen interval. The rows are
    overwritten. Every step is elementwise along a row, so a row gives the
    bits of a draw of its level alone; nothing here draws randomness, so
    one sort can serve every (q, eps) draw on the same data. Besides the
    uniforms, a batch holds at most _WEIGHT_CHUNK log weights at a time.
    """
    # log(-log u) is minus the Gumbel noise; the score of interval j is
    # its log weight minus it, computed for a few levels at a time
    scores = uniforms[:, :-1]
    np.log(scores, out=scores)
    np.negative(scores, out=scores)
    np.log(scores, out=scores)
    shifts = np.multiply(qs, edges.size - 2)[:, None]
    step = max(1, _WEIGHT_CHUNK // ranks.size)
    logw = np.empty((min(step, shifts.size), ranks.size))
    for start in range(0, shifts.size, step):
        rows = slice(start, start + step)
        w = logw[: scores[rows].shape[0]]
        np.subtract(ranks, shifts[rows], out=w)
        np.abs(w, out=w)
        w *= -eps
        w /= 2.0
        w += log_gaps
        np.subtract(w, scores[rows], out=scores[rows])
    j = np.argmax(scores, axis=1)
    lo = edges[j]
    return lo + uniforms[:, -1] * (edges[j + 1] - lo)


def emq_pdf_curve(
    data, rng_range: BoundedRange, q: float, eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """Step density (interval probability / interval length) on a plot grid
    of _PDF_GRID_POINTS evenly spaced points across the declared range."""
    edges = _interval_edges(data, rng_range)
    probs = _pmf_from_edges(edges, q, eps)
    gaps = np.diff(edges)
    density = np.zeros_like(probs)
    positive = gaps > 0
    density[positive] = probs[positive] / gaps[positive]
    grid = np.linspace(rng_range.a, rng_range.b, _PDF_GRID_POINTS)
    idx = np.clip(np.searchsorted(edges, grid, side="right") - 1, 0, probs.size - 1)
    return grid, density[idx]


@dataclass(frozen=True)
class UqePdfCurve:
    """Step PDF of the grid estimator modified to draw uniformly in its cell.

    Interval k spans [beta^(k-1)+ell-1, beta^k+ell-1); its mass is the
    closed-form Gumbel halt probability. residual is the no-halt mass beyond
    the last emitted interval, so mass.sum() + residual = 1.
    """

    lefts: np.ndarray
    rights: np.ndarray
    mass: np.ndarray
    density: np.ndarray
    residual: float


def uqe_pdf_curve(
    data, lower_bound: float, q: float, eps: float, beta: float = 1.001
) -> UqePdfCurve:
    """Exact output PDF of the Gumbel-noise grid estimator (eps1 = eps2 = eps/2).

    The number of emitted intervals depends only on the data and beta (enough
    candidates to pass every point, plus _PDF_PAD_STEPS), never on any declared
    range, so the curve is identical no matter what range a baseline assumes.
    It is at most DEFAULT_MAX_QUERIES, where the estimator stops, so time and
    memory are bounded by that cap, not by the magnitude of the data.
    """
    check_eps(eps)
    _check_q(q)
    hist = build_histogram(data, beta, lower_bound, DEFAULT_MAX_QUERIES)
    grid = hist.grid
    n = hist.n
    k_full = int(hist.buckets[-1]) + 1  # first query index where the prefix hits n
    k_max = min(k_full + _PDF_PAD_STEPS, DEFAULT_MAX_QUERIES)
    values = stream_prefix(counting_query_stream(hist), k_max)
    t = q * n
    log_pmf = gumbel_halt_log_pmf(values, t, eps / 2.0)
    mass = np.exp(log_pmf)
    edges = grid.powers(k_max + 1) + grid.lower_bound - 1.0
    lefts, rights = edges[:-1], edges[1:]
    widths = rights - lefts
    return UqePdfCurve(
        lefts=lefts,
        rights=rights,
        mass=mass,
        density=mass / widths,
        residual=float(gumbel_no_halt_prob(values, t, eps / 2.0)),
    )
