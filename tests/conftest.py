"""The deterministic release the oracle tests compare against, and a
stream builder for runner tests.

The mechanisms take a RandomSource and have one release path. A test gets
their noiseless release by swapping the runner behind them: every
AboveThreshold scan then halts at the first query that reaches its
threshold, and dp_sum adds no Laplace noise to the clipped sum.
"""

import numpy as np
import pytest

from uqe import aggregates, quantile
from uqe.noise import RandomSource
from uqe.sparse_vector import DEFAULT_MAX_QUERIES, QueryStream, run_above_threshold_noiseless


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
