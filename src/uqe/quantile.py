"""Differentially private quantile estimation on a geometric candidate grid.

The estimator runs AboveThreshold over counting queries
f_i(x) = |{x_j : x_j - ell + 1 < beta^i}| with threshold T = q*n and returns
the candidate beta^k + ell - 1 at the halting index k. The counting queries
are monotonic with sensitivity 1 under swap neighbors, which is what the
privacy accounting of this pipeline rests on.

Preprocessing is a single O(n) pass into a dense log-spaced bucket histogram
and its running sums, after which each query is one array read.
Variants here: a fully unbounded estimator (no declared bounds, two runs), an
inverted transform for small quantiles of upper-bounded data, and recursive
splitting for several quantiles at once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from .accounting import (
    MultiQuantileBudget,
    NeighborModel,
    PrivacyGuarantee,
    QueryClass,
    guarantee_for,
    multi_quantile_guarantee,
)
from .noise import NoiseKind, RandomSource
from .sparse_vector import (
    DEFAULT_MAX_QUERIES,
    QueryStream,
    SvtConfig,
    SvtOutcome,
    check_max_queries,
    check_split,
    run_above_threshold,
    run_above_threshold_noiseless,
)

__all__ = [
    "Dataset",
    "check_beta",
    "GeometricGrid",
    "LogBucketHistogram",
    "build_histogram",
    "counting_query_stream",
    "QuantileRequest",
    "QuantileEstimate",
    "UnboundedEstimate",
    "MultiQuantileResult",
    "estimate_quantile",
    "estimate_quantile_unbounded",
    "estimate_small_quantile_inverted",
    "estimate_multiple_quantiles",
    "request_guarantee",
]


@dataclass(frozen=True, eq=False)
class Dataset:
    """Finite real-valued data with an optional public lower bound."""

    values: np.ndarray
    lower_bound: float | None = None

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("values must be a non-empty 1-d sequence")
        if not np.isfinite(vals).all():
            raise ValueError("values must be finite")
        if self.lower_bound is not None:
            if not math.isfinite(self.lower_bound):
                raise ValueError("the lower bound must be finite")
            if vals.min() < self.lower_bound:
                raise ValueError("all values must be >= the declared lower bound")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return int(self.values.size)


def check_beta(beta: float, name: str = "beta") -> None:
    """The grid ratio rule: beta is finite and > 1."""
    if not (beta > 1.0 and math.isfinite(beta)):
        raise ValueError(f"{name} must be finite and > 1, got {beta!r}")


class GeometricGrid:
    """Candidate values beta^i + ell - 1 with powers cached by multiplication.

    The cache is the grid definition: every bucket boundary and every output
    value comes from the same iteratively multiplied floats, so membership
    tests are exact against the values the query stream actually uses.
    """

    def __init__(self, beta: float, lower_bound: float) -> None:
        check_beta(beta)
        self.beta = float(beta)
        self.lower_bound = float(lower_bound)
        self._log_beta = math.log(self.beta)
        self._powers = np.ones(1)

    def powers(self, size: int) -> np.ndarray:
        """beta^0 .. beta^(size-1), read-only; extends the cache as needed.

        np.cumprod multiplies in sequence, so each new power is the previous
        one times beta, as a scalar loop computes it; powers past the float
        range are inf.
        """
        pows = self._powers
        if pows.size < size:
            steps = np.full(size - pows.size + 1, self.beta)
            steps[0] = pows[-1]
            with np.errstate(over="ignore"):
                np.cumprod(steps, out=steps)
            pows = self._powers = np.concatenate((pows, steps[1:]))
            pows.flags.writeable = False
        return pows[:size]

    def power(self, i: int) -> float:
        """beta^i from the multiplication cache (extends it as needed)."""
        if i < 0:
            raise ValueError("power index must be >= 0")
        if i >= self._powers.size:
            # doubling keeps a run of increasing indices linear overall
            self.powers(max(i + 1, 2 * self._powers.size))
        return float(self._powers[i])

    def value(self, i: int) -> float:
        """Grid candidate number i: beta^i + ell - 1."""
        return self.power(i) + self.lower_bound - 1.0

    def shift(self, values: np.ndarray) -> np.ndarray:
        """Map data to y = x - ell + 1 >= 1, the domain the buckets live on.

        A y that is not finite has no bucket, so it is rejected. With finite
        data only a negative ell (whose shift can overflow) or a NaN ell
        gives one, so only then is y checked, with overflow warnings off.
        """
        x = np.asarray(values, dtype=float)
        if self.lower_bound >= 0.0:
            y = x - self.lower_bound + 1.0
        else:
            with np.errstate(over="ignore"):
                y = x - self.lower_bound + 1.0
            if y.size and not y.max() < np.inf:
                raise ValueError("value - lower bound + 1 is not a finite number")
        # NaN fails the comparison, so this rejects it along with y < 1
        if y.size and not y.min() >= 1.0:
            raise ValueError("value below the grid lower bound, or NaN")
        return y

    def bucket_indices(self, y: np.ndarray, limit: int | None = None) -> np.ndarray:
        """Bucket b with beta^b <= y < beta^(b+1), vectorized over y >= 1.

        A log-floor guess is corrected by direct comparison against the
        cached powers, so boundary points land exactly where the strict
        inequality of the counting queries expects them. With a limit, every
        y >= beta^limit goes to the one bucket `limit`, and the cache stops
        at beta^(limit+1). NaN, inf and y < 1 have no bucket and raise
        ValueError before any of them reaches the log or the integer cast.
        """
        y = np.asarray(y, dtype=float)
        if y.size == 0:
            return np.zeros(0, dtype=np.int64)
        # NaN fails both comparisons; checking the floats, not the cast
        # indices, keeps this independent of how a platform casts NaN and inf
        if not y.min() >= 1.0:
            raise ValueError("the bucket domain is the finite numbers >= 1")
        guess = np.floor(np.log(y) / self._log_beta)
        top = guess.max()
        if not top < math.inf:
            raise ValueError("the bucket domain is the finite numbers >= 1")
        idx = guess.astype(np.int64)
        if limit is not None and top > limit:
            np.minimum(idx, limit, out=idx)
            top = limit
        lower, upper = self._edges(int(top) + 1, limit)
        for _ in range(64):
            moved = False
            low = y < lower[idx]
            if low.any():
                idx[low] -= 1
                moved = True
            high = y >= upper[idx]
            if high.any():
                idx[high] += 1
                moved = True
                if int(idx.max()) >= lower.size:
                    lower, upper = self._edges(int(idx.max()) + 1, limit)
            if not moved:
                return idx
        raise AssertionError("bucket correction did not converge")

    def _edges(self, buckets: int, limit: int | None) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper edges of buckets 0 .. buckets-1; bucket `limit`
        has no upper edge."""
        pows = self.powers(buckets + 1)
        upper = pows[1:]
        if limit is not None and buckets > limit:
            upper = upper.copy()
            upper[limit] = np.inf
        return pows[:-1], upper

    def _bucket(self, y: float, limit: int | None) -> int:
        """bucket_indices of one y >= 1, without building arrays: a log guess
        corrected against power(i), and the cache filled only as far."""
        b = int(math.log(y) / self._log_beta)
        if limit is not None:
            b = min(b, limit)
        pows = self.powers(b + 2)
        while y < pows[b]:
            b -= 1
        while b != limit and y >= pows[b + 1]:
            b += 1
            pows = self.powers(b + 2)
        return b

    def max_index_at_most(self, y: float) -> int:
        """Largest i >= 0 with beta^i <= y, or -1 when y < 1; a y that is
        not finite is a ValueError. For y >= 1 this is y's bucket."""
        y = float(y)
        if not -math.inf < y < math.inf:
            raise ValueError("max_index_at_most needs a finite number")
        return -1 if y < 1.0 else self._bucket(y, None)


class LogBucketHistogram:
    """Dense per-bucket counts of shifted data and their running sums.

    cumulative[i-1] is the counting query f_i, the number of points in
    buckets < i; past the last bucket every query reads n. Each query is one
    array read.
    """

    def __init__(self, grid: GeometricGrid, totals) -> None:
        totals = np.asarray(totals, dtype=np.int64)
        if totals.ndim != 1 or (totals < 0).any():
            raise ValueError("bucket totals must be a 1-d array of counts >= 0")
        self.grid = grid
        self.totals = totals
        self.cumulative = np.cumsum(totals)
        self.n = int(self.cumulative[-1]) if totals.size else 0
        totals.flags.writeable = False
        self.cumulative.flags.writeable = False

    @functools.cached_property
    def counts(self) -> Mapping[int, int]:
        """Read-only {bucket: count} view of the nonzero buckets."""
        nz = np.flatnonzero(self.totals)
        return MappingProxyType(dict(zip(nz.tolist(), self.totals[nz].tolist())))

    def prefix_count(self, i: int) -> int:
        """|{x_j : x_j - ell + 1 < beta^i}|, i.e. everything in buckets < i."""
        if i <= 0 or not self.cumulative.size:
            return 0
        return int(self.cumulative[min(i, self.cumulative.size) - 1])


# sized so a block's shift/log/index temporaries stay cache-resident,
# keeping the per-element build cost flat from small n to millions
_BUILD_BLOCK = 1 << 16


def _bincount_blocks(x: np.ndarray, keys: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Sum of np.bincount(keys(block)) over the _BUILD_BLOCK blocks of x."""
    totals = np.zeros(0, dtype=np.int64)
    for start in range(0, x.size, _BUILD_BLOCK):
        bc = np.bincount(keys(x[start : start + _BUILD_BLOCK]))
        if bc.size > totals.size:
            bc[: totals.size] += totals
            totals = bc
        else:
            totals[: bc.size] += bc
    return totals


def build_histogram(
    values, beta: float, lower_bound: float, max_queries: int | None = None
) -> LogBucketHistogram:
    """Shift, bucket and bincount the data in blocks. O(n) arithmetic.

    A run capped at max_queries reads no bucket past max_queries - 1, so
    with a cap every larger index goes to the one bucket max_queries and the
    grid's powers stop at beta^(max_queries+1): the work is bounded by the
    cap, not by how many buckets the data spans.
    """
    grid = GeometricGrid(beta, lower_bound)
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        raise ValueError("cannot build a histogram from empty data")
    totals = _bincount_blocks(
        x, lambda block: grid.bucket_indices(grid.shift(block), max_queries)
    )
    return LogBucketHistogram(grid, totals)


def counting_query_stream(
    hist: LogBucketHistogram, max_queries: int = DEFAULT_MAX_QUERIES
) -> QueryStream:
    """f_i = prefix count through bucket i-1, read from hist.cumulative.

    Monotonic with sensitivity 1 under swap neighbors: swapping one point
    moves every prefix count by at most 1, in the same direction.
    """
    return QueryStream(hist.cumulative, hist.n, max_queries=max_queries)


@dataclass(frozen=True)
class QuantileRequest:
    """Everything an estimation run needs besides the data and randomness."""

    q: float
    eps1: float
    eps2: float
    beta: float = 1.001
    noise: NoiseKind = NoiseKind.EXPONENTIAL
    neighbor: NeighborModel = NeighborModel.SWAP
    max_queries: int = DEFAULT_MAX_QUERIES

    def __post_init__(self) -> None:
        if not 0.0 <= self.q <= 1.0:
            raise ValueError("q must lie in [0, 1]")
        check_split(self.eps1, self.eps2, self.noise)
        check_beta(self.beta)
        check_max_queries(self.max_queries)

    @classmethod
    def even_split(cls, q: float, eps: float, **kwargs) -> "QuantileRequest":
        """The default budget split eps1 = eps2 = eps/2."""
        return cls(q=q, eps1=eps / 2.0, eps2=eps / 2.0, **kwargs)


def request_guarantee(req: QuantileRequest) -> PrivacyGuarantee:
    """Privacy of one estimation run under the request's neighbor model."""
    if req.neighbor is NeighborModel.SWAP:
        return guarantee_for(
            QueryClass.MONOTONIC, req.neighbor, req.noise, req.eps1, req.eps2
        )
    return guarantee_for(
        QueryClass.COUNT_MINUS_QN, req.neighbor, req.noise, req.eps1, req.eps2, q=req.q
    )


@dataclass(frozen=True)
class QuantileEstimate:
    """A grid candidate; halt_index is None when the run hit its query cap."""

    value: float
    halt_index: int | None
    exhausted: bool


def _finish(grid: GeometricGrid, outcome: SvtOutcome) -> QuantileEstimate:
    if outcome.exhausted:
        return QuantileEstimate(grid.value(outcome.cap), None, True)
    return QuantileEstimate(grid.value(outcome.index), outcome.index, False)


def _scan(
    stream: QueryStream,
    t: float,
    req: QuantileRequest,
    rng: RandomSource | None,
    noiseless: bool,
) -> SvtOutcome:
    """AboveThreshold with threshold t, or its noiseless oracle."""
    if noiseless:
        return run_above_threshold_noiseless(stream, t)
    if rng is None:
        raise ValueError("a RandomSource is required unless noiseless=True")
    return run_above_threshold(stream, SvtConfig(req.eps1, req.eps2, req.noise, t), rng)


def estimate_quantile(
    data: Dataset,
    req: QuantileRequest,
    rng: RandomSource | None = None,
    *,
    noiseless: bool = False,
    threshold: float | None = None,
) -> QuantileEstimate:
    """AboveThreshold with T = q*n over the counting stream; output the halt candidate.

    threshold overrides q*n (used by the sum procedure's bias-variance
    knob). noiseless runs the deterministic comparison instead of the
    private mechanism, for oracle tests only.
    """
    if data.lower_bound is None:
        raise ValueError("estimate_quantile needs a declared lower bound")
    hist = build_histogram(data.values, req.beta, data.lower_bound, req.max_queries)
    return _release(hist, req, rng, noiseless=noiseless, threshold=threshold)


def _release(
    hist: LogBucketHistogram,
    req: QuantileRequest,
    rng: RandomSource | None,
    *,
    noiseless: bool = False,
    threshold: float | None = None,
) -> QuantileEstimate:
    """estimate_quantile on an already built histogram.

    The histogram must come from build_histogram with the request's beta
    and max_queries. It draws no randomness, so one build can serve every
    (q, eps) release on the same data, each drawing only its own scan noise.
    """
    t = req.q * hist.n if threshold is None else float(threshold)
    stream = counting_query_stream(hist, max_queries=req.max_queries)
    return _finish(hist.grid, _scan(stream, t, req, rng, noiseless))


@dataclass(frozen=True)
class UnboundedEstimate:
    """Result of the two-run estimator for data with no declared bounds.

    first_halt / second_halt are candidate indices k >= 0 (k = 0 means the
    run halted on its sign-counting query), None when that run exhausted its
    cap or, for second_halt, never ran.
    """

    value: float
    exhausted: bool
    first_halt: int | None
    second_halt: int | None
    second_ran: bool


def _sign_split_totals(
    values: np.ndarray, grid: GeometricGrid, max_queries: int
) -> tuple[np.ndarray, np.ndarray]:
    """Bucket totals of both unbounded runs from one pass over the data.

    Each point is bucketed once, at y = |x| + 1 on the grid with lower bound
    0. For x >= 0 that is the float x - 0 + 1 the first run's shift
    computes, and for x <= 0 the float (-x) - 0 + 1 of the second run's, so
    both runs read the buckets they would build on their own. Returns the
    totals over x >= 0 (first run) and over x <= 0 (second run); the zeros,
    +0.0 and -0.0 alike, sit in bucket 0 of both.
    """
    zeros = 0

    def keys(block: np.ndarray) -> np.ndarray:
        nonlocal zeros
        zeros += int(np.count_nonzero(block == 0.0))
        y = np.abs(block)
        y += 1.0
        idx = grid.bucket_indices(y, max_queries)
        idx *= 2
        idx += block < 0.0
        return idx

    totals = _bincount_blocks(values, keys)
    if totals.size % 2:
        totals = np.append(totals, 0)
    nonneg, nonpos = totals[0::2], totals[1::2].copy()
    nonpos[0] += zeros
    return nonneg, nonpos


def _signed_stream(totals: np.ndarray, n: int, max_queries: int) -> QueryStream:
    """g_0 counts the points of the other sign, left out of totals; from
    i = 1 on, g_i adds those in buckets < i. Monotonic with sensitivity 1
    under swap neighbors. The stream's position p is candidate index p - 1.
    """
    lead = n - int(totals.sum())
    return QueryStream(
        np.concatenate(([lead], lead + np.cumsum(totals))),
        n,
        max_queries=max_queries,
    )


def estimate_quantile_unbounded(
    data: Dataset,
    req: QuantileRequest,
    rng: RandomSource | None = None,
    *,
    noiseless: bool = False,
) -> UnboundedEstimate:
    """Quantile estimation with no declared bounds at all.

    First run: T = q*n over g_i = |{x_j + 1 < beta^i}|, i from 0. A halt at
    k > 0 yields beta^k - 1. A halt at k = 0 says at least ~q*n points are
    negative, so a second run on the negated data with T = (1-q)*n searches
    below zero and a halt at k > 0 yields -(beta^k - 1). If that run also
    halts at 0, the estimate is 0. Each run pays the request's (eps1, eps2);
    the two compose.
    """
    grid = GeometricGrid(req.beta, 0.0)
    cap = req.max_queries
    nonneg, nonpos = _sign_split_totals(data.values, grid, cap)
    first = _scan(_signed_stream(nonneg, data.n, cap), req.q * data.n, req, rng, noiseless)
    if first.exhausted:
        return UnboundedEstimate(grid.value(cap - 1), True, None, None, False)
    k1 = first.index - 1
    if k1 > 0:
        return UnboundedEstimate(grid.power(k1) - 1.0, False, k1, None, False)
    t2 = (1.0 - req.q) * data.n
    second = _scan(_signed_stream(nonpos, data.n, cap), t2, req, rng, noiseless)
    if second.exhausted:
        return UnboundedEstimate(-(grid.value(cap - 1)), True, 0, None, True)
    k2 = second.index - 1
    if k2 > 0:
        return UnboundedEstimate(-(grid.power(k2) - 1.0), False, 0, k2, True)
    return UnboundedEstimate(0.0, False, 0, 0, True)


def estimate_small_quantile_inverted(
    data: Dataset,
    upper_bound: float,
    req: QuantileRequest,
    rng: RandomSource | None = None,
    *,
    noiseless: bool = False,
) -> QuantileEstimate:
    """Small quantiles of upper-bounded data: negate, estimate 1-q, negate back."""
    if not math.isfinite(upper_bound):
        raise ValueError("the upper bound must be finite")
    if data.values.max() > upper_bound:
        raise ValueError("all values must be <= the declared upper bound")
    negated = Dataset(-data.values, lower_bound=-float(upper_bound))
    est = estimate_quantile(negated, replace(req, q=1.0 - req.q), rng, noiseless=noiseless)
    return QuantileEstimate(-est.value, est.halt_index, est.exhausted)


@dataclass(frozen=True)
class MultiQuantileResult:
    """Jointly estimated quantiles, nondecreasing by construction."""

    quantiles: tuple[float, ...]
    estimates: tuple[float, ...]
    exhausted: tuple[bool, ...]
    empty_slice: tuple[bool, ...]
    budget: MultiQuantileBudget


def _sorted_cumulative(grid: GeometricGrid, y: np.ndarray, cap: int) -> np.ndarray:
    """build_histogram(..., max_queries=cap).cumulative of sorted shifted data y.

    Bucket i < top holds the y below beta^(i+1), and the last bucket, top =
    min(cap, bucket of y[-1]), holds all y.size points; each count is one
    binary search.
    """
    top = grid._bucket(float(y[-1]), cap)
    counts = np.searchsorted(y, grid.powers(top + 1)[1:], side="left")
    return np.append(counts, y.size)


def estimate_multiple_quantiles(
    data: Dataset,
    qs: Sequence[float],
    req: QuantileRequest,
    rng: RandomSource | None = None,
    *,
    noiseless: bool = False,
) -> MultiQuantileResult:
    """Recursive splitting: estimate the middle quantile, partition, recurse.

    Each node's threshold is (q_mid - mass_lo) * n_total, fixed in advance by
    the quantile list and the public data size, never by realized slice sizes.
    Ties go left (the left slice takes values <= the estimate). A left child
    keeps its parent's grid but is capped at the parent's halt index; a right
    child restarts the grid at the parent's estimate. Together these force the
    returned estimates to be nondecreasing. An empty slice (or a slice whose
    boundaries leave no room for a candidate) reports its split boundary and
    is flagged.

    The data are sorted once per call. A node is an index range of the
    sorted values, split by binary search at its estimate; its counting
    queries are binary searches for the grid powers in its shifted slice,
    the same cumulative counts a histogram build of that slice gives. Nodes
    run depth first, left before right, which is the order their noise is
    drawn in.
    """
    if data.lower_bound is None:
        raise ValueError("multi-quantile estimation needs a declared lower bound")
    q_arr = np.asarray(qs, dtype=float)
    if q_arr.ndim != 1 or q_arr.size == 0:
        raise ValueError("qs must be a non-empty 1-d sequence")
    # NaN fails every comparison, so these reject it too
    if not (np.diff(q_arr) > 0).all():
        raise ValueError("qs must be sorted and distinct")
    if not (q_arr[0] > 0.0 and q_arr[-1] < 1.0):
        raise ValueError("quantiles must lie strictly inside (0, 1)")

    n_total = data.n
    m = q_arr.size
    estimates = np.empty(m)
    exhausted = [False] * m
    empty = [False] * m
    xs = np.sort(data.values)
    # one grid serves every node: its powers do not depend on the lower
    # bound, so a node only moves the bound
    grid = GeometricGrid(req.beta, data.lower_bound)
    # (xs[a:b], quantiles lo..hi-1, grid lower bound, upper, mass_lo, fallback)
    todo = [(0, n_total, 0, m, data.lower_bound, math.inf, 0.0, data.lower_bound)]
    while todo:
        a, b, lo, hi, lower, upper, mass_lo, fallback = todo.pop()
        if lo >= hi:
            continue
        mid = lo + (hi - lo) // 2
        grid.lower_bound = lower
        cap = req.max_queries
        if math.isfinite(upper):
            cap = min(cap, grid.max_index_at_most(upper - lower + 1.0))
        if a == b or cap < 1:
            estimates[lo:hi] = fallback
            empty[lo:hi] = [True] * (hi - lo)
            continue
        y = grid.shift(xs[a:b])
        counts = _sorted_cumulative(grid, y, cap)
        stream = QueryStream(counts, b - a, max_queries=cap)
        t = float((q_arr[mid] - mass_lo) * n_total)
        est = _finish(grid, _scan(stream, t, req, rng, noiseless))
        estimates[mid] = est.value
        exhausted[mid] = est.exhausted
        split = a + int(np.searchsorted(xs[a:b], est.value, side="right"))
        # the left child is pushed last, so it runs next
        todo.append((split, b, mid + 1, hi, est.value, upper, q_arr[mid], est.value))
        todo.append((a, split, lo, mid, lower, est.value, mass_lo, est.value))
    return MultiQuantileResult(
        quantiles=tuple(float(q) for q in q_arr),
        estimates=tuple(float(v) for v in estimates),
        exhausted=tuple(exhausted),
        empty_slice=tuple(empty),
        budget=multi_quantile_guarantee(m, req.eps1, req.eps2, req.noise),
    )
