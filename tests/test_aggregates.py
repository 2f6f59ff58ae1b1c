"""Tests for the private clipped-sum and mean procedures."""

import math
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest

from uqe import aggregates
from uqe.aggregates import (
    THRESHOLD_MODES,
    ClipMethod,
    SumConfig,
    SumResult,
    clipped_sum,
    dp_mean,
    dp_sum,
)
from uqe.emq import BoundedRange
from uqe.noise import RandomSource


@pytest.mark.parametrize("n", [3, 3 * (1 << 16) + 5])
@pytest.mark.parametrize(
    "cfg",
    [
        SumConfig(eps=1.0),
        SumConfig(eps=1.0, method=ClipMethod.EMQ, emq_range=BoundedRange(-1e9, 1e9)),
    ],
)
def test_dp_sum_rejects_negative_and_nonfinite_data(n, cfg):
    # negative data under the one message for both clip methods; a value
    # that is not finite, -inf included, is the finiteness error first
    data = np.arange(float(n))
    for bad, message in [
        (-1.0, "the sum procedure assumes nonnegative data"),
        (np.nan, "values must be finite"),
        (np.inf, "values must be finite"),
        (-np.inf, "values must be finite"),
    ]:
        for at in (0, n - 1):
            x = data.copy()
            x[at] = bad
            with pytest.raises(ValueError, match=message):
                dp_sum(x, cfg, RandomSource(1))
    x = data.copy()
    x[0], x[-1] = -1.0, np.nan
    with pytest.raises(ValueError, match="values must be finite"):
        dp_sum(x, cfg, RandomSource(1))


def test_clipped_sum_arithmetic():
    assert clipped_sum([1.0, 2.0, 10.0], 5.0) == 8.0
    assert clipped_sum([1.0, 2.0, 10.0], 100.0) == 13.0
    # nondecreasing in the clip
    data = np.random.default_rng(60).uniform(0, 20, 50)
    sums = [clipped_sum(data, c) for c in np.linspace(0, 25, 40)]
    assert all(a <= b for a, b in zip(sums, sums[1:]))


@pytest.mark.parametrize("n", [3, 3 * (1 << 16) + 5])
def test_clipped_sum_rejects_nan(n):
    data = np.arange(float(n))
    with pytest.raises(ValueError, match="clip must not be NaN"):
        clipped_sum(data, float("nan"))
    data[-1] = np.nan
    with pytest.raises(ValueError, match="clipped sum is NaN"):
        clipped_sum(data, 5.0)
    # +inf clips to the clip; with an infinite clip it meets -inf
    data[-1], data[0] = np.inf, -np.inf
    assert clipped_sum(data, 5.0) == -np.inf
    with pytest.raises(ValueError, match="clipped sum is NaN"):
        clipped_sum(data, np.inf)


def test_noiseless_high_quantile_clip_recovers_true_sum(noiseless):
    data = np.arange(1.0, 11.0)
    res = dp_sum(data, SumConfig(eps=1.0, q=0.99), noiseless)
    assert res.estimate == 55.0
    assert res.clip >= data.max()
    assert res.epsilon_total == 2.0
    assert not res.clip_clamped and not res.clip_exhausted


def test_noiseless_mean_of_constant_data(noiseless):
    data = np.full(5, 7.0)
    res = dp_mean(data, SumConfig(eps=1.0, q=0.99), noiseless)
    assert res.estimate == pytest.approx(7.0)


def test_mean_is_sum_over_n_for_shared_randomness():
    data = np.arange(0.0, 30.0)
    cfg = SumConfig(eps=0.5)
    s = dp_sum(data, cfg, RandomSource(61))
    m = dp_mean(data, cfg, RandomSource(61))
    assert m.estimate == s.estimate / 30
    assert m.clip == s.clip


def test_noise_scale_matches_laplace_std():
    rng = RandomSource(62)
    data = np.array([1.0, 2.0, 3.0])
    cfg = SumConfig(eps=0.5)
    # each release's noise in units of its own Laplace scale b = clip/eps
    z = []
    for _ in range(10_000):
        res = dp_sum(data, cfg, rng)
        z.append((res.estimate - clipped_sum(data, res.clip)) * cfg.eps / res.clip)
    z = np.array(z)
    # Laplace(1) has std sqrt(2) and mean 0
    assert z.std() == pytest.approx(np.sqrt(2.0), rel=0.1)
    assert z.mean() == pytest.approx(0.0, abs=0.1)


def test_clamp_on_nonpositive_clip():
    # the interval [-1e9, 1] holds all but 1e-8 of the range, so the EMQ
    # clip falls below 0 and is clamped to 1e-9 of the range's width
    data = np.array([1.0, 2.0, 3.0])
    cfg = SumConfig(eps=1.0, method=ClipMethod.EMQ, emq_range=BoundedRange(-1e9, 10))
    res = dp_sum(data, cfg, RandomSource(63))
    assert res.clip_clamped
    assert res.clip == (1e9 + 10) * 1e-9
    assert np.isfinite(res.estimate)


# a UQE clip is beta^k - 1 with k >= 1, so even all-zero data at the
# smallest beta above 1 leaves the clip unclamped
ALL_ZERO, TINY_BETA = np.zeros(50), SumConfig(eps=1.0, beta=1.0 + 2.0**-52)


def test_uqe_clip_stays_positive_on_all_zero_data():
    seeded = dp_sum(ALL_ZERO, TINY_BETA, RandomSource(64))
    assert seeded.clip >= 2.0**-52 and not seeded.clip_clamped


def test_noiseless_uqe_clip_on_all_zero_data_is_the_first_candidate(noiseless):
    res = dp_sum(ALL_ZERO, TINY_BETA, noiseless)
    assert res.clip == 2.0**-52  # 2.2e-16
    assert not res.clip_clamped


def test_threshold_modes_raise_the_clip(noiseless):
    data = np.arange(1.0, 101.0)
    base = dp_sum(data, SumConfig(eps=0.5, q=0.5), noiseless)
    at_n = dp_sum(data, SumConfig(eps=0.5, q=0.5, threshold_mode="n"), noiseless)
    padded_cfg = SumConfig(eps=0.5, q=0.5, threshold_mode="n-plus-inv-eps")
    # no count reaches n + 1/eps without noise: the clip is the cap's
    # candidate, past the float range
    padded_clip, exhausted = aggregates._choose_clip(data, padded_cfg, noiseless)
    assert base.clip < at_n.clip <= padded_clip == math.inf and exhausted
    assert at_n.clip >= data.max()
    # whose Laplace noise has no finite scale (this released 5050.0, the
    # unclipped sum, as the fixture draws no noise)
    with pytest.raises(ValueError, match="the Laplace scale clip / eps = inf"):
        dp_sum(data, padded_cfg, noiseless)


def test_a_laplace_scale_whose_noise_overflows_a_float_is_a_value_error():
    # an EMQ clip of a few units at this eps makes clip / eps about 5e307:
    # the release was a noise value past the float range
    cfg = SumConfig(eps=1e-307, method=ClipMethod.EMQ, emq_range=BoundedRange(0.0, 10.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"the Laplace scale clip / eps = \S+e\+30[78] "):
            dp_sum(np.arange(1, 11.0), cfg, RandomSource(1))
        result = dp_sum(np.arange(1, 11.0), replace(cfg, eps=1e-300), RandomSource(1))
    assert math.isfinite(result.estimate)


def test_emq_clip_method_runs():
    data = np.linspace(0.5, 9.5, 40)
    cfg = SumConfig(eps=1.0, method=ClipMethod.EMQ, emq_range=BoundedRange(0, 10))
    res = dp_sum(data, cfg, RandomSource(64))
    assert 0 < res.clip < 10
    assert res.epsilon_total == 2.0


def test_private_sum_is_usually_close():
    rng = RandomSource(65)
    data = rng.gen.uniform(0, 10, 1000)
    cfg = SumConfig(eps=1.0)
    errs = [
        abs(dp_sum(data, cfg, rng.spawn(i + 1)).estimate - data.sum())
        for i in range(50)
    ]
    assert float(np.mean(errs)) < 60.0  # loose sanity bound, scale ~ sqrt(2)*10


@pytest.mark.parametrize("beta", [1.0, 0.5, -2.0, math.inf, math.nan])
@pytest.mark.parametrize("emq_range", [None, BoundedRange(0, 100)])
def test_sum_config_checks_beta_for_either_method(beta, emq_range):
    method = ClipMethod.UQE if emq_range is None else ClipMethod.EMQ
    with pytest.raises(ValueError, match="beta"):
        SumConfig(eps=1.0, method=method, beta=beta, emq_range=emq_range)


def test_a_declared_range_goes_with_the_emq_clip_only():
    # the UQE clip needs no range, and used to accept one and ignore it
    with pytest.raises(ValueError, match="UQE one reads none"):
        SumConfig(eps=1.0, emq_range=BoundedRange(0, 100))
    with pytest.raises(ValueError, match="EMQ clip needs a declared range"):
        SumConfig(eps=1.0, method=ClipMethod.EMQ)


@pytest.mark.parametrize("mode", THRESHOLD_MODES)
def test_threshold_mode_is_rejected_where_no_uqe_clip_reads_it(mode):
    # the EMQ clip has no AboveThreshold threshold to move
    with pytest.raises(ValueError, match="threshold_mode"):
        SumConfig(
            eps=1.0, method=ClipMethod.EMQ, emq_range=BoundedRange(0, 100), threshold_mode=mode
        )
    assert SumConfig(eps=1.0, threshold_mode=mode).threshold_mode == mode


def test_validation():
    for eps in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="eps"):
            SumConfig(eps=eps)
    with pytest.raises(ValueError):
        SumConfig(eps=1.0, q=0.0)
    with pytest.raises(ValueError):
        SumConfig(eps=1.0, method=ClipMethod.EMQ)
    with pytest.raises(ValueError):
        SumConfig(eps=1.0, threshold_mode="bogus")
    with pytest.raises(ValueError):
        dp_sum(np.array([-1.0, 2.0]), SumConfig(eps=1.0), RandomSource(1))
    with pytest.raises(ValueError):
        dp_sum(np.array([]), SumConfig(eps=1.0), RandomSource(1))
    with pytest.raises(TypeError):
        dp_sum(np.array([1.0]), SumConfig(eps=1.0))
    assert ClipMethod("emq") is ClipMethod.EMQ
    with pytest.raises(ValueError):
        ClipMethod("tree")
    d = asdict(dp_sum(np.array([1.0]), SumConfig(eps=1.0), RandomSource(1)))
    assert set(d) == {"estimate", "clip", "epsilon_total", "clip_clamped", "clip_exhausted"}
