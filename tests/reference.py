"""A literal model of the quantile estimators: the tests' one bitwise oracle.

It is written from the definitions the package documents, not from its
code, and shares no grid, histogram, stream or runner with it:
- the grid beta^0, beta^1, ..., each power the one before times beta, as
  GeometricGrid documents its cache;
- the counting queries f_i = |{x : (x - ell) + 1 < beta^i}|, counted by
  comparison over the sorted shifted data, never through bucket indices;
- AboveThreshold as a loop that draws one sample() per query, in query
  order, and stops at the cap, and its noiseless twin, which halts at the
  first f_i >= T;
- the estimators as the docstrings in uqe.quantile state them.

Only the noise sampler and the request and result types come from uqe, so
a model release equals the package's bit for bit, and the generator ends
in the same state, exactly when the package implements the definitions.

It also holds the checked constructors of a counting stream from its runs
(query_stream, stream_rules) and of a histogram from its non-empty buckets
and running counts (histogram, histogram_runs), which the tests build
streams and histograms with and check every built one against.
"""

import bisect
import itertools
import math
from dataclasses import replace

import numpy as np

from uqe.noise import NoiseSpec, sample
from uqe.quantile import (
    LogBucketHistogram,
    MultiQuantileResult,
    QuantileEstimate,
    UnboundedEstimate,
)
from uqe.sparse_vector import DEFAULT_MAX_QUERIES, QueryStream, SvtConfig, SvtOutcome


def powers(beta, k):
    """beta^0 .. beta^k as an array, each the one before times beta:
    multiply.accumulate runs p_i = p_(i-1) * beta in order."""
    steps = np.full(k + 1, float(beta))
    steps[0] = 1.0
    with np.errstate(over="ignore"):
        return np.multiply.accumulate(steps)


def power(beta, k):
    """beta^k, the last of powers(beta, k)."""
    return float(powers(beta, k)[-1])


def bucket(beta, y, limit=None):
    """The largest b with beta^b <= y (-1 for y < 1), capped at limit, for
    each finite y: a binary search among powers that run past max(y) or
    past the limit."""
    y = np.asarray(y, dtype=float)
    top = float(y.max())
    # as many powers as logs say reach past top, doubled until they do
    k = int(math.log(max(top, 1.0)) / math.log(beta) * (1 + 1e-6)) + 2
    k = k if limit is None else min(k, limit + 1)
    pows = powers(beta, k)
    while (limit is None or k <= limit) and not pows[-1] > top:
        k *= 2
        pows = powers(beta, k)
    b = np.searchsorted(pows, y, "right") - 1
    return b if limit is None else np.minimum(b, limit)


def counts(ys, beta):
    """f_1, f_2, ...: how many of the sorted ys lie below beta^i."""
    p = 1.0
    while True:
        p *= beta
        yield bisect.bisect_left(ys, p)


def run_values(starts, values):
    """f_1, f_2, ... of the runs f_i = values[j] for starts[j] < i <=
    starts[j + 1], the last run going on for ever."""
    for j in range(len(values) - 1):
        yield from itertools.repeat(values[j], starts[j + 1] - starts[j])
    yield from itertools.repeat(values[-1])


def above_threshold(queries, cap, cfg, rng):
    """AboveThreshold: the threshold's noise, then one noise draw per query,
    in order, until f_i + noise >= noisy threshold; cap queries at most."""
    noisy_t = cfg.threshold + sample(NoiseSpec(cfg.noise, 1.0 / cfg.eps1), rng)
    spec = NoiseSpec(cfg.noise, 1.0 / cfg.eps2)
    for i, f in zip(range(1, cap + 1), queries):
        if f + sample(spec, rng) >= noisy_t:
            return SvtOutcome(i)
    return SvtOutcome(None, cap)


def first_crossing(queries, cap, threshold):
    """The noiseless twin: the first f_i >= threshold, no draws."""
    for i, f in zip(range(1, cap + 1), queries):
        if f >= threshold:
            return SvtOutcome(i)
    return SvtOutcome(None, cap)


def iterative_em(queries, cap, threshold, eps, rng):
    """The Gumbel run's step-wise twin: at step i pick one of {threshold,
    f_1, ..., f_i} by the exponential mechanism with exponent eps/2 (Gumbel
    noise on the scaled scores, i + 1 uniforms), and halt iff it picks f_i.
    Distributionally AboveThreshold with Gumbel noise, eps1 = eps2 = eps/2."""
    s = eps / 2.0
    scores = [s * threshold]
    for i, f in zip(range(1, cap + 1), queries):
        scores.append(s * f)
        gumbels = -np.log(-np.log(rng.uniform_open(len(scores))))
        if int(np.argmax(np.asarray(scores) + gumbels)) == i:
            return SvtOutcome(i)
    return SvtOutcome(None, cap)


def _scan(queries, cap, t, req, rng):
    """AboveThreshold at t under the request's split and noise; rng None
    gives the noiseless twin."""
    if rng is None:
        return first_crossing(queries, cap, t)
    return above_threshold(queries, cap, SvtConfig(req.eps1, req.eps2, req.noise, t), rng)


def estimate_quantile(values, lower, req, rng, threshold=None):
    """AboveThreshold with T = q n (or threshold) over f_i = |{x : (x - ell)
    + 1 < beta^i}|, releasing beta^k + ell - 1 at the halt k, or at k = cap
    when the run reaches its cap."""
    ys = sorted((float(x) - lower) + 1.0 for x in values)
    t = req.q * len(ys) if threshold is None else threshold
    out = _scan(counts(ys, req.beta), req.max_queries, t, req, rng)
    k = req.max_queries if out.exhausted else out.index
    return QuantileEstimate(power(req.beta, k) + lower - 1.0, out.index, out.exhausted)


def estimate_quantile_unbounded(values, req, rng):
    """Run 1: T = q n over g_i = |{x : x + 1 < beta^i}| for i = 0, 1, ...;
    a halt at k > 0 releases beta^k - 1. A halt at k = 0 runs the same on
    -x with T = (1 - q) n: a halt at k > 0 releases -(beta^k - 1), at 0 it
    releases 0. A run has cap queries, k = 0 .. cap - 1; one that reaches
    the cap releases its last candidate, with its sign."""
    cap, n = req.max_queries, len(values)

    def run(xs, t):
        # x + 1 < beta^0 = 1 is x < 0, decided on x: x + 1 rounds to 1 for
        # the negatives closest to zero
        ys = sorted(x + 1.0 for x in xs)
        g = itertools.chain([sum(x < 0.0 for x in xs)], counts(ys, req.beta))
        out = _scan(g, cap, t, req, rng)
        return None if out.exhausted else out.index - 1

    xs = [float(x) for x in values]
    k1 = run(xs, req.q * n)
    if k1 is None:
        return UnboundedEstimate(power(req.beta, cap - 1) - 1.0, True, None, None, False)
    if k1 > 0:
        return UnboundedEstimate(power(req.beta, k1) - 1.0, False, k1, None, False)
    k2 = run([-x for x in xs], (1.0 - req.q) * n)
    if k2 is None:
        return UnboundedEstimate(-(power(req.beta, cap - 1) - 1.0), True, 0, None, True)
    if k2 > 0:
        return UnboundedEstimate(-(power(req.beta, k2) - 1.0), False, 0, k2, True)
    return UnboundedEstimate(0.0, False, 0, 0, True)


def estimate_small_quantile_inverted(values, upper, req, rng):
    """Negate the data, estimate the 1 - q quantile above -upper, negate back."""
    negated = [-float(x) for x in values]
    est = estimate_quantile(negated, -float(upper), replace(req, q=1.0 - req.q), rng)
    return QuantileEstimate(-est.value, est.halt_index, est.exhausted)


def estimate_multiple_quantiles(values, lower, qs, req, rng):
    """Recursive splitting, depth first and left first: a node estimates its
    middle quantile with threshold (q_mid - mass_lo) n on its slice, capped
    at max{i : beta^i <= upper - lower + 1} below a finite upper; the left
    child takes the points <= the estimate and keeps the grid, capped by
    the estimate, and the right child the rest, its grid starting at the
    estimate. An empty slice, or a cap below 1, releases the split boundary
    for each of its quantiles and flags it. The model has no budget."""
    n, m = len(values), len(qs)
    estimates, exhausted, empty = [None] * m, [False] * m, [False] * m

    def node(xs, lo, hi, lower, upper, mass_lo, fallback):
        if lo >= hi:
            return
        mid = lo + (hi - lo) // 2
        cap = req.max_queries
        if upper < math.inf:
            cap = int(bucket(req.beta, [upper - lower + 1.0], cap)[0])
        if not xs or cap < 1:
            estimates[lo:hi] = [fallback] * (hi - lo)
            empty[lo:hi] = [True] * (hi - lo)
            return
        t = (qs[mid] - mass_lo) * n
        est = estimate_quantile(xs, lower, replace(req, max_queries=cap), rng, threshold=t)
        estimates[mid], exhausted[mid] = est.value, est.exhausted
        node([x for x in xs if x <= est.value], lo, mid, lower, est.value, mass_lo, est.value)
        node([x for x in xs if x > est.value], mid + 1, hi, est.value, upper, qs[mid], est.value)

    node([float(x) for x in values], 0, m, lower, math.inf, 0.0, lower)
    quantiles = tuple(float(q) for q in qs)
    return MultiQuantileResult(quantiles, tuple(estimates), tuple(exhausted), tuple(empty), None)


def histogram_runs(buckets, running):
    """The counting stream's runs of a histogram, as LogBucketHistogram holds
    them, from its non-empty buckets and their running counts: int64 starts
    and float values, behind a run of 0 from offset 0 when bucket 0 is
    empty. Buckets and counts that no data can give are a ValueError."""
    buckets = np.asarray(buckets, dtype=np.int64)
    running = np.asarray(running, dtype=np.int64)
    if buckets.ndim != 1 or running.shape != buckets.shape or not buckets.size:
        raise ValueError("buckets and running counts must be 1-d, of one length >= 1")
    if not (buckets[0] >= 0 and running[0] > 0):
        raise ValueError("buckets must be >= 0 and each must hold a point")
    if not ((buckets[1:] > buckets[:-1]).all() and (running[1:] > running[:-1]).all()):
        raise ValueError("buckets and running counts must increase strictly")
    lead = int(buckets[0] != 0)
    starts, values = np.zeros(lead + buckets.size, np.int64), np.zeros(lead + buckets.size)
    starts[lead:], values[lead:] = buckets, running
    return starts, values


def histogram(grid, buckets, running, max_queries=DEFAULT_MAX_QUERIES):
    """The histogram of the non-empty buckets and running counts given, on
    grid and capped at max_queries, checked as histogram_runs checks them."""
    return LogBucketHistogram(grid, query_stream(*histogram_runs(buckets, running), max_queries))


def stream_rules(starts, values):
    """The rules of a counting stream's runs, which QueryStream leaves to
    its builders (it checks only the cap): int64 starts that begin at 0 and
    increase strictly, and float values of the same length that are numbers
    and never fall. Runs that break one are a ValueError."""
    if not (isinstance(starts, np.ndarray) and starts.dtype == np.int64):
        raise ValueError("run starts must be an int64 array")
    if not (isinstance(values, np.ndarray) and values.dtype == np.float64):
        raise ValueError("run values must be a float array")
    if starts.ndim != 1 or values.shape != starts.shape or not starts.size:
        raise ValueError("starts and values must be 1-d, of one length >= 1")
    if starts[0] != 0 or (starts[1:] <= starts[:-1]).any():
        raise ValueError("run starts must begin at 0 and increase strictly")
    if np.isnan(values).any() or (values[1:] < values[:-1]).any():
        raise ValueError("query values must be numbers that never fall")


def query_stream(starts, values, max_queries=DEFAULT_MAX_QUERIES):
    """The counting stream of the runs given, as int64 starts and float
    values copied from them, checked by stream_rules."""
    starts, values = np.array(starts, dtype=np.int64), np.array(values, dtype=float)
    stream_rules(starts, values)
    return QueryStream(starts, values, max_queries)
