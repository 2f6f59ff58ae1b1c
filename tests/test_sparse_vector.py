"""Tests for AboveThreshold, its closed-form Gumbel outcome law and the EM twin.

Frozen oracle values were computed by numerically integrating over the noisy
threshold (scipy.integrate.quad on the Gumbel density/CDF product), not by
the closed form under test.
"""

import numpy as np
import pytest

from uqe.noise import NoiseKind, RandomSource
from uqe.quantile import build_histogram, counting_query_stream
from uqe.sparse_vector import (
    DEFAULT_MAX_QUERIES,
    QueryStream,
    SvtConfig,
    SvtOutcome,
    gumbel_outcome_log_pmf,
    run_above_threshold,
    run_above_threshold_noiseless,
    simulate_halt_indices,
    simulate_iterative_em,
    stream_prefix,
)

import reference
from conftest import head_stream

# quad-based oracle values for values (1.0, 2.0, 0.5), T = 1.5, eps1 = eps2 = 1:
# no halt, then a halt at queries 1, 2 and 3
ORACLE_VALUES = [1.0, 2.0, 0.5]
ORACLE_T = 1.5
ORACLE_PMF = [0.2760043447065952, 0.37754066879814546, 0.31526344548335616, 0.031191541011903266]

DBL_MAX = np.finfo(float).max
EXTREME_EPS = [1e-300, 1.0, 1e4, 1e9, 1e15, 1e300, DBL_MAX]


def gumbel_pmf(values, threshold, eps):
    return np.exp(gumbel_outcome_log_pmf(values, threshold, eps))


def test_gumbel_pmf_trivial_instance():
    # two zero queries at threshold zero: no halt 1/3, then 1/2 and 1/6
    assert gumbel_pmf([0.0, 0.0], 0.0, 1.0) == pytest.approx([1 / 3, 0.5, 1 / 6])
    # no query, no halt
    assert gumbel_pmf([], 0.0, 1.0).tolist() == [1.0]


def test_gumbel_pmf_matches_integral_oracle():
    assert gumbel_pmf(ORACLE_VALUES, ORACLE_T, 1.0) == pytest.approx(ORACLE_PMF, abs=1e-8)


def test_gumbel_pmf_normalizes():
    rng = np.random.default_rng(10)
    for _ in range(200):
        k = int(rng.integers(1, 8))
        values = rng.uniform(-3, 3, k)
        t = float(rng.uniform(-3, 3))
        eps = float(rng.uniform(0.2, 3.0))
        assert gumbel_pmf(values, t, eps).sum() == pytest.approx(1.0, abs=1e-12)


def test_gumbel_pmf_shift_invariance():
    values = np.array([0.3, -1.2, 2.0])
    base = gumbel_outcome_log_pmf(values, 0.5, 1.3)
    shifted = gumbel_outcome_log_pmf(values + 40.0, 40.5, 1.3)
    assert np.allclose(base, shifted, atol=1e-12)


def test_gumbel_pmf_survives_huge_exponents():
    logp = gumbel_outcome_log_pmf(np.array([800.0, 900.0, 850.0]), 850.0, 1.0)
    assert np.all(np.isfinite(logp))
    assert np.exp(logp).sum() == pytest.approx(1.0, abs=1e-12)


def pdf_stream():
    """The counting queries uqe_pdf_curve reads on 400 lognormal points at
    beta 1.01: up to the first that reaches n, then 25 more."""
    hist = build_histogram(RandomSource(37).gen.lognormal(3.0, 1.0, 400), 1.01, 0.0)
    return stream_prefix(counting_query_stream(hist), int(hist.buckets[-1]) + 26)


# a stream, and streams whose values or threshold are close to where a
# float's spacing or range ends: 1e16 + 1 rounds to 1e16, and the scores of
# values near +-DBL_MAX pass the float range at eps > 1
EXTREME_INPUTS = {
    "pdf stream": (pdf_stream(), 0.6 * 400),
    "near 1e16": ([0.0, 1e16, 1e16 + 2, 2e16], 1e16 + 1),
    "near +1e308": ([-DBL_MAX, 1e308, DBL_MAX, DBL_MAX], 1e308),
    "near -1e308": ([-DBL_MAX, -1e308, 0.0, DBL_MAX], -1e308),
    "threshold DBL_MAX": ([-DBL_MAX, 0.0, DBL_MAX], DBL_MAX),
    "threshold -DBL_MAX": ([-DBL_MAX, -1e308, DBL_MAX], -DBL_MAX),
}


@pytest.mark.parametrize("eps", EXTREME_EPS)
@pytest.mark.parametrize("case", list(EXTREME_INPUTS))
def test_gumbel_law_is_a_distribution_at_every_budget(case, eps):
    # the law as two closed forms summed to 1.27 near 1e16 at eps 1, and to
    # 2 on the pdf stream from eps 5e14 on; a RuntimeWarning fails the test
    values, threshold = EXTREME_INPUTS[case]
    pmf = gumbel_pmf(values, threshold, eps)
    assert pmf.shape == (len(values) + 1,)
    assert np.isfinite(pmf).all() and (pmf >= 0).all()
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)


def test_gumbel_law_at_the_budget_extremes():
    values, threshold = EXTREME_INPUTS["pdf stream"]
    # at eps 1e-300 every score is 0 within 1e-297: a halt at query k has
    # probability 1 / (k (k + 1)), no halt 1 / (K + 1)
    ks = np.arange(1, values.size + 1)
    want = np.concatenate(([1 / (values.size + 1)], 1 / (ks * (ks + 1))))
    assert gumbel_pmf(values, threshold, 1e-300) == pytest.approx(want, rel=1e-12)
    # from eps 1e4 on, a query that ties the threshold scores 0 and every
    # other one is 1e4 or more from it: a halt at the tie or at the next
    # query, 1/2 each. The threshold 1e16 + 1 rounds to 1e16.
    for case in ("pdf stream", "near 1e16"):
        values, threshold = EXTREME_INPUTS[case]
        tie = int(np.flatnonzero(np.asarray(values) == threshold)[0]) + 1
        want = np.zeros(len(values) + 1)
        want[tie : tie + 2] = 0.5
        for eps in EXTREME_EPS[2:]:
            assert gumbel_pmf(values, threshold, eps) == pytest.approx(want, abs=1e-15)


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
        closed = gumbel_pmf(values, t, eps / 2.0)[1:]
        assert np.allclose(product, closed, atol=1e-12)


def test_simulated_halts_match_oracle_pmf():
    trials = 400_000
    cfg = SvtConfig(1.0, 1.0, NoiseKind.GUMBEL, ORACLE_T)
    idx = simulate_halt_indices(ORACLE_VALUES, cfg, RandomSource(51), trials)
    freq = np.bincount(idx, minlength=4) / trials
    for outcome, p in enumerate(ORACLE_PMF):
        se = np.sqrt(p * (1 - p) / trials)
        assert abs(freq[outcome] - p) < 4 * se


def test_scalar_runner_matches_simulator_distribution():
    values = [-0.2, 0.5, 1.5]
    cfg = SvtConfig(1.0, 1.0, NoiseKind.GUMBEL, 1.0)
    trials = 20_000
    scal = np.array([
        run_above_threshold(
            head_stream(values), cfg, RandomSource(60, stream=i)
        ).index
        or 0
        for i in range(trials)
    ])
    probs = gumbel_pmf(values, 1.0, 1.0)
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
    stream = counting_query_stream(build_histogram([1.0], 2.0, 0.0))
    assert stream.max_queries == DEFAULT_MAX_QUERIES == 200_000


def test_gumbel_requires_equal_split():
    with pytest.raises(ValueError):
        SvtConfig(1.0, 0.5, NoiseKind.GUMBEL, 0.0)
    SvtConfig(1.0, 0.5, NoiseKind.LAPLACE, 0.0)  # fine for other kinds
    # inf would make the noise scale 0, which used to fail only at the first draw
    for eps in (np.inf, np.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="eps1"):
            SvtConfig(eps, 0.5, NoiseKind.LAPLACE, 0.0)


@pytest.mark.parametrize("rng", [None, np.random.default_rng(0), 7], ids=["None", "Generator", "7"])
def test_the_runner_draws_only_from_a_random_source(rng):
    # a ValueError before any draw, not an AttributeError at the first one
    cfg = SvtConfig(1.0, 1.0, NoiseKind.LAPLACE, 0.0)
    with pytest.raises(ValueError, match="RandomSource"):
        run_above_threshold(head_stream([1.0, 2.0]), cfg, rng)


def test_a_nan_threshold_is_a_value_error_on_both_release_paths():
    # no query clears NaN, so every run used to end exhausted
    stream = head_stream([1.0, 2.0])
    with pytest.raises(ValueError, match="threshold"):
        SvtConfig(1.0, 1.0, NoiseKind.LAPLACE, np.nan)
    with pytest.raises(ValueError, match="threshold"):
        run_above_threshold_noiseless(stream, np.nan)
    # every query clears -inf and none clears +inf
    for threshold, want in ((-np.inf, SvtOutcome(1)), (np.inf, SvtOutcome(None, 2))):
        assert run_above_threshold_noiseless(stream, threshold) == want
        cfg = SvtConfig(1.0, 1.0, NoiseKind.LAPLACE, threshold)
        assert run_above_threshold(stream, cfg, RandomSource(9)) == want


def test_iterative_em_trivial_half():
    # one query exactly at threshold: select it with probability 1/2
    halts = simulate_iterative_em([0.0], 0.0, 1.0, RandomSource(12), 100_000)
    p = (halts == 1).mean()
    assert abs(p - 0.5) < 4 * np.sqrt(0.25 / 100_000)


def test_iterative_em_scalar_runner_agrees():
    values = [1.0, 0.0]
    trials = 20_000
    scal = np.array([
        reference.iterative_em(values, len(values), 0.5, 2.0, RandomSource(77, stream=i)).index
        or 0
        for i in range(trials)
    ])
    probs = gumbel_pmf(values, 0.5, 1.0)  # eps1=eps2=eps/2
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
    stream = head_stream([1.0, 3.0, 4.0])
    assert np.array_equal(stream_prefix(stream, 2), [1.0, 3.0])
    # reading a prefix does not consume the stream
    assert np.array_equal(stream_prefix(stream, 3), [1.0, 3.0, 4.0])
    # the open last run goes on past the cap
    stream = reference.query_stream([0, 1], [2.0, 5.0], 1)
    assert np.array_equal(stream_prefix(stream, 3), [2.0, 5.0, 5.0])


def test_stream_validation():
    # the one rule QueryStream checks itself
    with pytest.raises(ValueError, match="max_queries"):
        QueryStream(np.zeros(1, dtype=np.int64), np.zeros(1), 0)
    # the rules of the runs, which the tests hold every stream to: runs
    # start at 0 and increase strictly, one value each, and the values are
    # numbers that never fall
    for starts, values in (
        ([], []),
        ([1], [0.0]),
        ([0, 0], [1.0, 2.0]),
        ([0, 2, 1], [1.0, 2.0, 3.0]),
        ([0, 1], [1.0]),
        ([0, 1], [[1.0, 2.0]]),
        ([0, 5, 10], [0.0, np.nan, 100.0]),
        ([0], [np.nan]),
        ([0, 5, 10], [0.0, 5.0, np.nan]),
        ([0, 5, 10], [0.0, -np.inf, 100.0]),
        ([0, 1], [3.0, 1.0]),
    ):
        with pytest.raises(ValueError):
            reference.query_stream(starts, values)
