"""Tests for AboveThreshold, its closed-form Gumbel PMF and the EM twin.

Frozen oracle values were computed by numerically integrating over the noisy
threshold (scipy.integrate.quad on the Gumbel density/CDF product), not by
the closed form under test.
"""

import numpy as np
import pytest

from uqe.noise import NoiseKind, RandomSource
from uqe.sparse_vector import (
    DEFAULT_MAX_QUERIES,
    QueryStream,
    SvtConfig,
    SvtOutcome,
    gumbel_halt_log_pmf,
    gumbel_no_halt_prob,
    run_above_threshold,
    run_above_threshold_noiseless,
    run_iterative_em,
    simulate_halt_indices,
    simulate_iterative_em,
    stream_prefix,
)

from conftest import head_stream

# quad-based oracle values for values (1.0, 2.0, 0.5), T = 1.5, eps1 = eps2 = 1
ORACLE_VALUES = [1.0, 2.0, 0.5]
ORACLE_T = 1.5
ORACLE_PMF = [0.37754066879814546, 0.31526344548335616, 0.031191541011903266]
ORACLE_NO_HALT = 0.2760043447065952


def test_gumbel_pmf_trivial_instance():
    # two zero queries at threshold zero: 1/2 then 1/6
    pmf = np.exp(gumbel_halt_log_pmf([0.0, 0.0], 0.0, 1.0))
    assert pmf == pytest.approx([0.5, 1 / 6])
    assert gumbel_no_halt_prob([0.0, 0.0], 0.0, 1.0) == pytest.approx(1 / 3)


def test_gumbel_pmf_matches_integral_oracle():
    got = np.exp(gumbel_halt_log_pmf(ORACLE_VALUES, ORACLE_T, 1.0))
    assert got == pytest.approx(ORACLE_PMF, abs=1e-8)
    assert gumbel_no_halt_prob(ORACLE_VALUES, ORACLE_T, 1.0) == pytest.approx(
        ORACLE_NO_HALT, abs=1e-8
    )


def test_gumbel_pmf_normalizes():
    rng = np.random.default_rng(10)
    for _ in range(200):
        k = int(rng.integers(1, 8))
        values = rng.uniform(-3, 3, k)
        t = float(rng.uniform(-3, 3))
        eps = float(rng.uniform(0.2, 3.0))
        total = np.exp(gumbel_halt_log_pmf(values, t, eps)).sum()
        total += gumbel_no_halt_prob(values, t, eps)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_gumbel_pmf_shift_invariance():
    values = np.array([0.3, -1.2, 2.0])
    base = gumbel_halt_log_pmf(values, 0.5, 1.3)
    shifted = gumbel_halt_log_pmf(values + 40.0, 40.5, 1.3)
    assert np.allclose(base, shifted, atol=1e-12)


def test_gumbel_pmf_survives_huge_exponents():
    values = np.array([800.0, 900.0, 850.0])
    logp = gumbel_halt_log_pmf(values, 850.0, 1.0)
    assert np.all(np.isfinite(logp))
    total = np.exp(logp).sum() + gumbel_no_halt_prob(values, 850.0, 1.0)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_em_product_identity_matches_closed_form():
    # product of per-step selection odds telescopes into the halt pmf
    rng = np.random.default_rng(4)
    for _ in range(300):
        k = int(rng.integers(1, 7))
        values = rng.uniform(-3, 3, k)
        t = float(rng.uniform(-3, 3))
        eps = float(rng.uniform(0.2, 3.0))
        s = eps / 2.0  # selection exponent eps/(2*delta) with delta = 1
        exp_scores = np.exp(s * values)
        denom = np.exp(s * t) + np.cumsum(exp_scores)
        p_sel = exp_scores / denom
        product = np.cumprod(np.concatenate(([1.0], 1.0 - p_sel[:-1]))) * p_sel
        closed = np.exp(gumbel_halt_log_pmf(values, t, eps / 2.0))
        assert np.allclose(product, closed, atol=1e-12)


def test_simulated_halts_match_oracle_pmf():
    trials = 400_000
    cfg = SvtConfig(1.0, 1.0, NoiseKind.GUMBEL, ORACLE_T)
    idx = simulate_halt_indices(ORACLE_VALUES, cfg, RandomSource(51), trials)
    freq = np.bincount(idx, minlength=4) / trials
    probs = [ORACLE_NO_HALT] + ORACLE_PMF
    for outcome, p in enumerate(probs):
        se = np.sqrt(p * (1 - p) / trials)
        assert abs(freq[outcome] - p) < 4 * se


def test_scalar_runner_matches_simulator_distribution():
    values = [0.5, 1.5, -0.2]
    cfg = SvtConfig(1.0, 1.0, NoiseKind.GUMBEL, 1.0)
    trials = 20_000
    scal = np.array([
        run_above_threshold(
            head_stream(values), cfg, RandomSource(60, stream=i)
        ).index
        or 0
        for i in range(trials)
    ])
    probs = np.exp(gumbel_halt_log_pmf(values, 1.0, 1.0))
    probs = np.concatenate(([gumbel_no_halt_prob(values, 1.0, 1.0)], probs))
    freq = np.bincount(scal, minlength=4) / trials
    for outcome, p in enumerate(probs):
        se = np.sqrt(p * (1 - p) / trials)
        assert abs(freq[outcome] - p) < 5 * se


@pytest.mark.parametrize("kind", [NoiseKind.LAPLACE, NoiseKind.EXPONENTIAL, NoiseKind.GUMBEL])
def test_huge_first_query_halts_immediately(kind):
    cfg = SvtConfig(0.5, 0.5, kind, 0.0)
    idx = simulate_halt_indices([1000.0, 0.0], cfg, RandomSource(3), 10_000)
    assert (idx == 1).mean() >= 0.999


def test_noiseless_mode_halts_at_first_crossing():
    stream = head_stream([0.1 * i for i in range(1, 11)])
    out = run_above_threshold_noiseless(stream, 0.55)
    assert out == SvtOutcome(6)
    assert not out.exhausted


def test_noiseless_mode_reports_exhaustion():
    stream = head_stream([0.0, 0.0, 0.0])
    out = run_above_threshold_noiseless(stream, 10.0)
    assert out.exhausted
    assert out.cap == 3
    assert out.index is None


def test_cap_respected_on_endless_stream():
    stream = head_stream([], -100.0, max_queries=5)
    cfg = SvtConfig(1.0, 1.0, NoiseKind.EXPONENTIAL, 1e9)
    out = run_above_threshold(stream, cfg, RandomSource(8))
    assert out.exhausted and out.cap == 5


def test_default_cap_value():
    assert QueryStream([0], [0.0]).max_queries == DEFAULT_MAX_QUERIES == 200_000


def test_gumbel_requires_equal_split():
    with pytest.raises(ValueError):
        SvtConfig(1.0, 0.5, NoiseKind.GUMBEL, 0.0)
    SvtConfig(1.0, 0.5, NoiseKind.LAPLACE, 0.0)  # fine for other kinds
    # inf would make the noise scale 0, which used to fail only at the first draw
    for eps in (np.inf, np.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="eps1"):
            SvtConfig(eps, 0.5, NoiseKind.LAPLACE, 0.0)


def test_iterative_em_trivial_half():
    # one query exactly at threshold: select it with probability 1/2
    halts = simulate_iterative_em([0.0], 0.0, 1.0, RandomSource(12), 100_000)
    p = (halts == 1).mean()
    assert abs(p - 0.5) < 4 * np.sqrt(0.25 / 100_000)


def test_iterative_em_scalar_runner_agrees():
    values = [1.0, 0.0]
    trials = 20_000
    scal = np.array([
        run_iterative_em(
            head_stream(values), 0.5, 2.0, RandomSource(77, stream=i)
        ).index
        or 0
        for i in range(trials)
    ])
    closed = np.exp(gumbel_halt_log_pmf(values, 0.5, 1.0))  # eps1=eps2=eps/2
    probs = np.concatenate(([gumbel_no_halt_prob(values, 0.5, 1.0)], closed))
    freq = np.bincount(scal, minlength=3) / trials
    for outcome, p in enumerate(probs):
        se = np.sqrt(p * (1 - p) / trials)
        assert abs(freq[outcome] - p) < 5 * se


def test_simulated_em_matches_gumbel_run():
    values = [0.2, 1.1, 0.6, -0.4]
    t, eps, trials = 0.8, 1.6, 300_000
    em = simulate_iterative_em(values, t, eps, RandomSource(21), trials)
    cfg = SvtConfig(eps / 2, eps / 2, NoiseKind.GUMBEL, t)
    at = simulate_halt_indices(values, cfg, RandomSource(22), trials)
    f_em = np.bincount(em, minlength=5) / trials
    f_at = np.bincount(at, minlength=5) / trials
    for outcome in range(5):
        pooled = (f_em[outcome] + f_at[outcome]) / 2
        se = np.sqrt(2 * pooled * (1 - pooled) / trials) + 1e-12
        assert abs(f_em[outcome] - f_at[outcome]) < 4 * se


def test_stream_prefix_and_tailless_stream():
    stream = head_stream([3.0, 1.0, 4.0])
    assert np.array_equal(stream_prefix(stream, 2), [3.0, 1.0])
    # reading a prefix does not consume the stream
    assert np.array_equal(stream_prefix(stream, 3), [3.0, 1.0, 4.0])
    # the open last run goes on past the cap
    assert np.array_equal(stream_prefix(QueryStream([0, 1], [2.0, 5.0], 1), 3), [2.0, 5.0, 5.0])


def test_stream_validation():
    with pytest.raises(ValueError):
        QueryStream([0], [0.0], max_queries=0)
    # runs start at 0 and increase strictly, one value each
    for starts, values in (
        ([], []),
        ([1], [0.0]),
        ([0, 0], [1.0, 2.0]),
        ([0, 2, 1], [1.0, 2.0, 3.0]),
        ([0, 1], [1.0]),
        ([0, 1], [[1.0, 2.0]]),
    ):
        with pytest.raises(ValueError):
            QueryStream(starts, values)
