"""Unit tests for the noise primitives."""

import json

import numpy as np
import pytest
from scipy.integrate import quad

from uqe.noise import NoiseKind, NoiseSpec, RandomSource, pdf, sample

ALL_KINDS = [NoiseKind.LAPLACE, NoiseKind.GUMBEL, NoiseKind.EXPONENTIAL]


def test_pdf_point_values():
    assert pdf(NoiseSpec(NoiseKind.LAPLACE, 2.0), 0.0) == pytest.approx(0.25)
    assert pdf(NoiseSpec(NoiseKind.GUMBEL, 1.0), 0.0) == pytest.approx(np.exp(-1.0))
    assert pdf(NoiseSpec(NoiseKind.EXPONENTIAL, 2.0), 0.0) == pytest.approx(0.5)
    assert pdf(NoiseSpec(NoiseKind.EXPONENTIAL, 2.0), -1e-9) == 0.0
    assert pdf(NoiseSpec(NoiseKind.EXPONENTIAL, 1.0), 3.0) == pytest.approx(np.exp(-3.0))


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("scale", [0.25, 1.0, 3.0])
def test_pdf_integrates_to_one(kind, scale):
    spec = NoiseSpec(kind, scale)
    lo = 0.0 if kind is NoiseKind.EXPONENTIAL else -80.0 * scale
    total, _ = quad(lambda z: pdf(spec, z), lo, 80.0 * scale, limit=200)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_sample_means():
    rng = RandomSource(seed=7, stream=0)
    n = 1_000_000
    expo = sample(NoiseSpec(NoiseKind.EXPONENTIAL, 2.0), rng, n)
    assert expo.mean() == pytest.approx(2.0, abs=0.01)
    assert expo.min() >= 0.0
    gum = sample(NoiseSpec(NoiseKind.GUMBEL, 1.0), rng, n)
    assert gum.mean() == pytest.approx(np.euler_gamma, abs=0.01)
    lap = sample(NoiseSpec(NoiseKind.LAPLACE, 1.5), rng, n)
    assert lap.mean() == pytest.approx(0.0, abs=0.01)
    assert lap.var() == pytest.approx(2 * 1.5**2, rel=0.02)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_bitwise_reproducible_streams(kind):
    spec = NoiseSpec(kind, 1.0)
    a = sample(spec, RandomSource(123, stream=4), 1000)
    b = sample(spec, RandomSource(123, stream=4), 1000)
    c = sample(spec, RandomSource(123, stream=5), 1000)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def philox_state(rng):
    return json.dumps(rng.gen.bit_generator.state, sort_keys=True, default=np.ndarray.tolist)


def test_keyed_stream_equals_spawned_stream():
    # one generator built with the stream id, or a second one spawned from
    # a stream-0 source, is keyed alike: same Philox state, same draws
    for seed, stream in [(0, 0), (11, 10_000_007), (2**64 - 1, 2**63 + 5)]:
        direct, spawned = RandomSource(seed, stream), RandomSource(seed).spawn(stream)
        assert philox_state(direct) == philox_state(spawned)
        assert direct.uniform_open(257).tobytes() == spawned.uniform_open(257).tobytes()
        assert philox_state(direct) == philox_state(spawned)


def test_uniform_open_avoids_endpoints():
    u = RandomSource(1).uniform_open(200_000)
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_one_uniform_per_sample():
    # same stream, same count of draws -> the next draw after n samples agrees
    r1 = RandomSource(9)
    sample(NoiseSpec(NoiseKind.LAPLACE, 1.0), r1, 100)
    tail1 = r1.uniform_open()
    r2 = RandomSource(9)
    r2.uniform_open(100)
    tail2 = r2.uniform_open()
    assert tail1 == tail2


def test_exponential_ratio_identity():
    spec = NoiseSpec(NoiseKind.EXPONENTIAL, 2.0)
    z = np.linspace(0.0, 10.0, 50)
    ratio = pdf(spec, z + 1.0) / pdf(spec, z)
    assert np.allclose(ratio, np.exp(-0.5))


def test_laplace_ratio_bound():
    spec = NoiseSpec(NoiseKind.LAPLACE, 1.0)
    z = np.linspace(-5, 5, 101)
    assert np.all(pdf(spec, z) <= np.exp(1.0) * pdf(spec, z + 1.0) + 1e-15)


def test_scalar_and_shaped_draws():
    rng = RandomSource(2)
    x = sample(NoiseSpec(NoiseKind.GUMBEL, 1.0), rng)
    assert np.ndim(x) == 0
    y = sample(NoiseSpec(NoiseKind.GUMBEL, 1.0), rng, (3, 2))
    assert y.shape == (3, 2)


def test_invalid_scale_rejected():
    with pytest.raises(ValueError):
        NoiseSpec(NoiseKind.LAPLACE, 0.0)
    with pytest.raises(ValueError):
        NoiseSpec(NoiseKind.GUMBEL, -1.0)


def test_noise_kind_parse():
    # the CLI converts its --noise values with the enum constructor
    assert NoiseKind("expo") is NoiseKind.EXPONENTIAL
    assert NoiseKind("laplace") is NoiseKind.LAPLACE
    assert NoiseKind("gumbel") is NoiseKind.GUMBEL
    with pytest.raises(ValueError):
        NoiseKind("gaussian")
