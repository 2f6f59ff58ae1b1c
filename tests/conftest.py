"""The deterministic release the oracle tests compare against, a stream
builder for runner tests, the one-level EMQ draw the batched draw is
checked against, and the EMQ interval choices the Monte Carlo tests count.
QueryStream checks only its cap: every test runs the streams the package
builds, and the streams it builds itself, through the checks of
reference.stream_rules (streams_pass_the_reference_checks), and the
histograms the package builds through those of reference.histogram_runs
(built_histograms_pass_the_reference_checks).
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
    """LogBucketHistogram holds the stream a build wrote unchecked. In the
    tests each histogram's buckets and running counts pass the checks of
    reference.histogram_runs too, which writes the same runs from them."""
    init = LogBucketHistogram.__init__

    def checked(hist, grid, stream):
        init(hist, grid, stream)
        starts, values = reference.histogram_runs(hist.buckets, hist.running)
        for got, want in ((stream.starts, starts), (stream.values, values)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert hist.n == values[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LogBucketHistogram, "__init__", checked)
        yield


@pytest.fixture(autouse=True, scope="session")
def streams_pass_the_reference_checks():
    """QueryStream checks only its cap, and leaves the rules of its runs to
    the package's builders. In the tests every stream passes
    reference.stream_rules as well, and holds read-only arrays, so every
    property that runs an estimator also checks its streams."""
    init = QueryStream.__init__

    def checked(stream, starts, values, max_queries):
        init(stream, starts, values, max_queries)
        try:
            reference.stream_rules(starts, values)
        except ValueError as e:
            raise AssertionError(f"a stream breaks a rule of its runs: {e}") from None
        assert not (starts.flags.writeable or values.flags.writeable)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(QueryStream, "__init__", checked)
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
    of one query each, built by reference.query_stream: the values must
    never fall. Without a tail the stream ends after its head: no runner
    reads past the cap, so it is capped at len(head)."""
    head = np.array(head, dtype=float)
    if tail is None:
        return reference.query_stream(np.arange(head.size), head, min(max_queries, head.size))
    return reference.query_stream(np.arange(head.size + 1), np.append(head, tail), max_queries)


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
