"""The deterministic release the oracle tests compare against, a stream
builder for runner tests, the one-level EMQ draw the batched draw is
checked against, and the EMQ interval choices the Monte Carlo tests count.
Every test also runs the histograms and the streams the package builds
through the checks of reference.histogram_runs and of the public
QueryStream constructor (built_histograms_pass_the_reference_checks,
built_streams_pass_the_public_checks).
A hypothesis profile, "derandomized", draws the same examples on every run
and keeps no example database, so what a run catches rests on the
committed examples and the fixed draws alone.

The mechanisms take a RandomSource and have one release path. A test gets
their noiseless release by swapping the runner behind them: every
AboveThreshold scan then halts at the first query that reaches its
threshold, and dp_sum adds no Laplace noise to the clipped sum.
"""

import numpy as np
import pytest
from hypothesis import settings

from uqe import aggregates, quantile
from uqe.emq import _interval_edges, _log_weights
from uqe.noise import RandomSource
from uqe.quantile import LogBucketHistogram
from uqe.sparse_vector import DEFAULT_MAX_QUERIES, QueryStream, run_above_threshold_noiseless

import reference


settings.register_profile("derandomized", derandomize=True, database=None)


@pytest.fixture(autouse=True, scope="session")
def built_histograms_pass_the_reference_checks():
    """LogBucketHistogram keeps the runs a build wrote unchecked. In the
    tests each histogram's buckets and running counts pass the checks of
    reference.histogram_runs too, which writes the same runs from them."""
    init = LogBucketHistogram.__init__

    def checked(hist, grid, starts, values):
        init(hist, grid, starts, values)
        starts, values = reference.histogram_runs(hist.buckets, hist.running)
        for got, want in ((hist._starts, starts), (hist._values, values)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert not got.flags.writeable
        assert hist.n == values[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LogBucketHistogram, "__init__", checked)
        yield


@pytest.fixture(autouse=True, scope="session")
def built_streams_pass_the_public_checks():
    """QueryStream._built skips the public constructor's checks for the
    streams the package builds, valid by construction. In the tests each
    such stream passes those checks too, and must come out of both
    constructors the same, its running maximum included (the values it
    takes for one), so every property that runs an estimator also checks
    its streams."""
    built = QueryStream._built

    def checked(cls, starts, values, max_queries):
        public = cls(starts, values, max_queries)
        stream = built(starts, values, max_queries)
        for name in ("starts", "values", "peak"):
            want, got = getattr(public, name), getattr(stream, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert not got.flags.writeable
        assert stream.max_queries == public.max_queries
        return stream

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(QueryStream, "_built", classmethod(checked))
        yield


def release_without_noise(mp):
    """Patch, through the MonkeyPatch mp, every mechanism's noise away."""
    mp.setattr(
        quantile,
        "run_above_threshold",
        lambda stream, cfg, rng: run_above_threshold_noiseless(stream, cfg.threshold),
    )
    mp.setattr(aggregates, "sample", lambda spec, rng, size=None: 0.0)


@pytest.fixture
def noiseless(monkeypatch):
    """A RandomSource to pass the mechanisms, which release without noise
    for the rest of the test and never draw from it."""
    release_without_noise(monkeypatch)
    return RandomSource(0)


def head_stream(head, tail=None, max_queries=DEFAULT_MAX_QUERIES):
    """f_i = head[i-1] for i <= len(head), then tail up to the cap, as runs
    of one query each. Without a tail the stream ends after its head: no
    runner reads past the cap, so it is capped at len(head)."""
    head = np.array(head, dtype=float)
    if tail is None:
        return QueryStream(np.arange(head.size), head, min(max_queries, head.size))
    return QueryStream(np.arange(head.size + 1), np.append(head, tail), max_queries)


def emq_draw_oracle(edges, q, eps, rng):
    """One EMQ draw at level q on interval edges, as a scalar loop body: the
    log weights, n + 1 Gumbel uniforms from rng, the argmax, then one more
    uniform for the place inside the chosen interval."""
    n = edges.size - 2
    j = np.arange(n + 1, dtype=float)
    gaps = np.diff(edges)
    with np.errstate(divide="ignore"):
        logw = -eps * np.abs(j - q * n) / 2.0 + np.log(gaps)
    gumbels = -np.log(-np.log(rng.uniform_open(logw.size)))
    k = int(np.argmax(logw + gumbels))
    u = float(rng.uniform_open())
    return float(edges[k] + u * (edges[k + 1] - edges[k]))


def simulate_emq_choices(data, rng_range, q, eps, rng, trials):
    """Interval indices of trials EMQ choices, for Monte Carlo comparison
    to emq_interval_pmf: Gumbel-max over the log weights, in blocks of
    2**17 trials."""
    logw = _log_weights(_interval_edges(data, rng_range), q, eps)
    out = np.empty(trials, dtype=np.int64)
    for start in range(0, trials, 1 << 17):
        block = min(1 << 17, trials - start)
        gumbels = -np.log(-np.log(rng.uniform_open((block, logw.size))))
        out[start : start + block] = np.argmax(logw[None, :] + gumbels, axis=1)
    return out
