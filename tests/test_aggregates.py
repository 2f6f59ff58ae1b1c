"""Tests for the private clipped-sum and mean procedures."""

from dataclasses import asdict

import numpy as np
import pytest

from uqe.aggregates import ClipMethod, SumConfig, SumResult, clipped_sum, dp_mean, dp_sum
from uqe.emq import BoundedRange
from uqe.noise import RandomSource


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
    padded = dp_sum(data, SumConfig(eps=0.5, q=0.5, threshold_mode="n-plus-inv-eps"), noiseless)
    assert base.clip < at_n.clip <= padded.clip
    assert at_n.clip >= data.max()
    assert padded.estimate == 5050.0


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
