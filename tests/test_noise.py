"""Unit tests for the noise primitives."""

import json

import numpy as np
import pytest
from scipy.integrate import quad

from uqe.noise import NOISE_REACH, NoiseKind, NoiseSpec, RandomSource, _to_uniform, pdf, sample

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


U53 = 2**53


class Fixed:
    """A stand-in source whose every uniform is u."""

    def __init__(self, u):
        self.u = u

    def uniform_open(self, size=None):
        return self.u if size is None else np.full(size, self.u)


@pytest.mark.parametrize(
    "k, want",
    [
        (0, 2.0**-54),
        (1, 1.5 / U53),
        (2**52, 0.5),
        (U53 - 2, 1.0 - 2.0**-52),
        # (k + 0.5) / 2**53 rounds to 1.0 here
        (U53 - 1, 1.0 - 2.0**-53),
    ],
)
def test_uniform_map_stays_inside_the_open_interval(k, want):
    scalar = _to_uniform(np.int64(k))
    array = _to_uniform(np.array([k, k], dtype=np.int64))
    assert scalar == want and array.tolist() == [want, want]
    for kind in ALL_KINDS:
        for b in (1e-3, 1.0, 7.5):
            spec = NoiseSpec(kind, b)
            for z in (sample(spec, Fixed(scalar)), *sample(spec, Fixed(scalar), 2)):
                assert np.isfinite(z) and abs(z) <= NOISE_REACH * b


def test_noise_reach_is_within_one_scale_of_the_largest_value():
    top = sample(NoiseSpec(NoiseKind.EXPONENTIAL, 1.0), Fixed(_to_uniform(np.int64(0))))
    assert NOISE_REACH - 1.0 < top <= NOISE_REACH


def with_state(rng, counter, buffer_pos):
    state = rng.gen.bit_generator.state
    state["state"]["counter"] = np.array(counter, dtype=np.uint64)
    state["buffer_pos"] = buffer_pos
    rng.gen.bit_generator.state = state
    return rng


def skip_starts():
    """Generators at every buffer position 0..4, one holding the spare
    32-bit half of an integer draw, and counters whose carry crosses 64-bit
    words."""
    for pos in range(5):
        yield f"buffer_pos={pos}", lambda pos=pos: with_state(RandomSource(3, 1), [5, 0, 0, 0], pos)
    for drawn in range(4):

        def spare(drawn=drawn):
            rng = RandomSource(4)
            rng.gen.integers(0, 10)
            rng.uniform_open(drawn)
            return rng

        yield f"has_uint32 after {drawn}", spare
    top = 2**64 - 1
    for counter in ([top - 1, 0, 0, 0], [top - 1, top, top, 7], [top, top, top, top]):
        for pos in (1, 4):
            yield f"counter={counter} pos={pos}", lambda c=counter, p=pos: with_state(
                RandomSource(5), c, p
            )


@pytest.mark.parametrize("n", [*range(10), 1023, 1024, 1025, 4099])
def test_skip_leaves_the_state_of_drawing(n):
    for label, start in skip_starts():
        skipped, drawn = start(), start()
        assert philox_state(skipped) == philox_state(drawn), label
        skipped.skip(n)
        drawn.uniform_open(n)
        assert repr(skipped.gen.bit_generator.state) == repr(drawn.gen.bit_generator.state), label
        # the next draws agree too, the spare 32-bit half included
        assert skipped.gen.integers(0, 10, 3).tolist() == drawn.gen.integers(0, 10, 3).tolist()
        assert skipped.uniform_open(9).tobytes() == drawn.uniform_open(9).tobytes(), label


def bounded_uniforms(rng, size):
    """Uniforms from numpy's bounded-integer draw of [0, 2**53)."""
    return _to_uniform(rng.gen.integers(0, U53, size=size))


@pytest.mark.parametrize("size", [None, 0, 1, 3, 255, 256, 1023, 1024, 5000, (2, 3)])
@pytest.mark.parametrize("earlier", [0, 1, 3, 7])
@pytest.mark.parametrize("spare", [False, True])
def test_uniform_open_is_the_bounded_integer_draw(size, earlier, spare):
    # the top 53 bits of a raw word are what integers(0, 2**53) returns,
    # and the generator ends in the same state, the spare 32-bit half of an
    # earlier integer draw included; skips between draws keep it so
    raw, bounded = RandomSource(31, 2), RandomSource(31, 2)
    for rng in (raw, bounded):
        rng.gen.bit_generator.random_raw(earlier)
        if spare:
            rng.gen.integers(0, 10)
    for skip in (0, 5, 1031):
        got, want = raw.uniform_open(size), bounded_uniforms(bounded, size)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert philox_state(raw) == philox_state(bounded)
        raw.skip(skip)
        bounded.skip(skip)
        assert philox_state(raw) == philox_state(bounded)
    assert raw.gen.integers(0, 10, 3).tolist() == bounded.gen.integers(0, 10, 3).tolist()
