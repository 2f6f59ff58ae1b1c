"""Unit tests for the noise primitives."""

import json

import numpy as np
import pytest
from scipy import stats

from uqe.noise import (
    NOISE_REACH,
    NoiseKind,
    NoiseSpec,
    RandomSource,
    _int_state,
    _noise_of_words,
    _place,
    _to_uniform,
    sample,
)

ALL_KINDS = [NoiseKind.LAPLACE, NoiseKind.GUMBEL, NoiseKind.EXPONENTIAL]


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


def place(rng, n):
    """Put rng n >= 0 uniforms on, as the runner's cursor and _rekey do:
    one state read, then noise._place."""
    if n:
        _place(rng.gen.bit_generator, _int_state(rng.gen.bit_generator.state), n)


def plain(state):
    """A Philox state dict with its arrays as lists, so == compares values."""
    if isinstance(state, dict):
        return {k: plain(v) for k, v in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


@pytest.mark.parametrize("stream", [0, 5, 2**64 - 1, 10_000_123])
def test_rekey_is_a_fresh_source_on_that_stream(stream):
    rng = RandomSource(17, 3)
    for draw in (
        lambda: None,
        lambda: rng.uniform_open(5),
        lambda: rng.gen.integers(0, 10),  # a 32-bit draw leaves a spare half-word
        lambda: rng.gen.normal(size=3),
        lambda: place(rng, 4099),
    ):
        draw()
        rng._rekey(stream)
        fresh = RandomSource(17, stream)
        assert plain(rng.gen.bit_generator.state) == plain(fresh.gen.bit_generator.state)
        assert rng.stream == stream and repr(rng) == repr(fresh)
        words = rng.gen.bit_generator.random_raw(1000)
        assert words.tolist() == fresh.gen.bit_generator.random_raw(1000).tolist()
        assert rng.gen.integers(0, 10, 3).tolist() == fresh.gen.integers(0, 10, 3).tolist()


@pytest.mark.parametrize("skip", [0, 1, 3, 4, 5, 255, 1023, 1024, 4099, 2**70 + 3])
def test_rekey_past_uniforms_is_a_fresh_source_that_skipped_them(skip):
    rng = RandomSource(17, 3)
    rng.gen.integers(0, 10)  # a spare 32-bit half-word the re-key drops
    rng._rekey(2**64 - 1, skip)
    fresh = RandomSource(17, 2**64 - 1)
    place(fresh, skip)
    assert plain(rng.gen.bit_generator.state) == plain(fresh.gen.bit_generator.state)
    assert rng.stream == 2**64 - 1 and repr(rng) == repr(fresh)
    assert rng.uniform_open(9).tobytes() == fresh.uniform_open(9).tobytes()


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


def test_a_kind_that_is_not_a_noise_kind_is_rejected_where_the_spec_is_made():
    # the noise formulas pick their branch by kind, and would
    # take the last for any other value
    for kind in ("laplace", None, 1):
        with pytest.raises(ValueError, match="unknown noise kind"):
            NoiseSpec(kind, 1.0)


def test_noise_kind_parse():
    # the CLI converts its --noise values with the enum constructor
    assert NoiseKind("expo") is NoiseKind.EXPONENTIAL
    assert NoiseKind("laplace") is NoiseKind.LAPLACE
    assert NoiseKind("gumbel") is NoiseKind.GUMBEL
    with pytest.raises(ValueError):
        NoiseKind("gaussian")


U53 = 2**53


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
    # the raw words whose top 53 bits are k, as random_raw gives one (an
    # int) and many (an array); the low 11 bits play no part
    word = k << 11
    words = np.array([word, word | 0x7FF], dtype=np.uint64)
    for kind in ALL_KINDS:
        for b in (1e-3, 1.0, 7.5):
            spec = NoiseSpec(kind, b)
            one, two = _noise_of_words(spec, word), _noise_of_words(spec, words)
            assert two.tolist() == [one, one]
            assert np.isfinite(one) and abs(one) <= NOISE_REACH * b


def test_noise_reach_is_within_one_scale_of_the_largest_value():
    top = _noise_of_words(NoiseSpec(NoiseKind.EXPONENTIAL, 1.0), 0)
    assert NOISE_REACH - 1.0 < top <= NOISE_REACH


# the top-53-bit integers k of the two ends of (0, 1), of 1/2 and of the
# points next to them, and a spread of random ones
K_GRID = np.concatenate(
    [
        np.array([0, 1, 2, 2**20, 2**52 - 1, 2**52, 2**52 + 1, U53 - 2**20, U53 - 2, U53 - 1]),
        np.random.default_rng(2024).integers(0, U53, 200),
    ]
).astype(np.uint64)

# the distribution each kind draws, as scipy states it independently of the
# package, and whether the noise falls as its uniform grows: Laplace noise
# (b log 2u below 1/2, -b log(2 - 2u) above) and Gumbel noise
# -b log(-log u) have CDF u, exponential noise -b log u has survival
# function u
REFERENCE = {
    NoiseKind.LAPLACE: (stats.laplace, False),
    NoiseKind.GUMBEL: (stats.gumbel_r, False),
    NoiseKind.EXPONENTIAL: (stats.expon, True),
}


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("scale", [0.25, 1.0, 3.0])
def test_noise_is_the_inverse_cdf_of_its_distribution(kind, scale):
    # the mechanisms' privacy analysis assumes these densities; the noise
    # of a word must be the point where the distribution's tail at the
    # word's uniform ends, in both tails, to float accuracy
    dist, falling = REFERENCE[kind]
    spec = NoiseSpec(kind, scale)
    u = _to_uniform(K_GRID.astype(np.int64))
    words = K_GRID << np.uint64(11) | np.uint64(0x5A5)  # low bits play no part
    noise = _noise_of_words(spec, words)
    # one word as an int takes the scalar path to the same values
    assert noise.tolist() == [_noise_of_words(spec, int(w)) for w in words]
    below, above = dist.cdf(noise, scale=scale), dist.sf(noise, scale=scale)
    if falling:
        below, above = above, below
    # 1 - u is exact for u in [1/2, 1), and within one ulp of 1 below it
    np.testing.assert_allclose(below, u, rtol=1e-12)
    np.testing.assert_allclose(above, 1.0 - u, rtol=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_noise_is_monotone_in_its_uniform(kind):
    # NOISE_REACH bounds every value by the noise at the two end uniforms,
    # which holds only if no word between them reaches further
    _, falling = REFERENCE[kind]
    ends = [np.arange(0, 4096), np.arange(2**52 - 2048, 2**52 + 2048), np.arange(U53 - 4096, U53)]
    k = np.sort(np.concatenate([*ends, K_GRID.astype(np.int64)]))
    noise = _noise_of_words(NoiseSpec(kind, 1.0), k.astype(np.uint64) << np.uint64(11))
    steps = np.diff(noise)
    assert np.all(steps <= 0.0) if falling else np.all(steps >= 0.0)
    assert max(abs(noise[0]), abs(noise[-1])) <= NOISE_REACH


def allocating_noise(spec, words):
    """The noise of raw words with a new array at every step: the formula
    the in-place computation must reproduce bit for bit."""
    b = spec.scale
    u = np.minimum(((words >> 11) + 0.5) / U53, np.nextafter(1.0, 0.0))
    if spec.kind is NoiseKind.LAPLACE:
        v = 2.0 * u - 1.0
        return -b * np.sign(v) * np.log1p(-np.abs(v))
    if spec.kind is NoiseKind.GUMBEL:
        return -b * np.log(-np.log(u))
    return -b * np.log(u)


# 0 and the top word (the uniforms 2**-54 and 1 - 2**-53), 2**63, whose
# uniform is 0.5 (Laplace v = 0, of sign 0), and the words around it
EDGE_WORDS = [0, 2**64 - 1, 2**63, 2**63 - 2**11, 2**63 + 2**11, 2**63 - 1, 2**63 + 1]
SCALES = [5e-324, 1e-300, 1e-3, 0.5, 1.0, 7.5, 1e300, 1.7e308]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_in_place_noise_is_the_allocating_formula(kind):
    drawn = RandomSource(12).gen.bit_generator.random_raw(20_000)
    words = np.concatenate([np.array(EDGE_WORDS, dtype=np.uint64), drawn])
    unit = _noise_of_words(NoiseSpec(kind, 1.0), words)
    with np.errstate(over="ignore"):
        for b in SCALES:
            spec = NoiseSpec(kind, b)
            got = _noise_of_words(spec, words)
            assert got.tobytes() == allocating_noise(spec, words).tobytes(), b
            # the value at scale b is b times the value at scale 1
            assert (b * unit).tobytes() == got.tobytes(), b
            # and one word, as an int, takes the scalar path to the same bits
            for word in EDGE_WORDS:
                want = allocating_noise(spec, np.uint64(word))
                assert np.float64(_noise_of_words(spec, word)).tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("size", [None, 1, 7, (2, 3)])
def test_sample_is_the_noise_of_the_words_it_draws(kind, size):
    spec = NoiseSpec(kind, 0.5)
    drawn, raw = RandomSource(8, 1), RandomSource(8, 1)
    got = sample(spec, drawn, size)
    want = _noise_of_words(spec, raw.gen.bit_generator.random_raw(size))
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert np.shape(got) == np.shape(want)
    # and each value is the inverse CDF at the uniform uniform_open gives
    u = RandomSource(8, 1).uniform_open(size)
    if kind is NoiseKind.LAPLACE:
        v = 2.0 * u - 1.0
        inverse = -0.5 * np.sign(v) * np.log1p(-np.abs(v))
    elif kind is NoiseKind.GUMBEL:
        inverse = -0.5 * np.log(-np.log(u))
    else:
        inverse = -0.5 * np.log(u)
    assert np.asarray(got).tobytes() == np.asarray(inverse).tobytes()


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
def test_place_leaves_the_state_of_drawing(n):
    for label, start in skip_starts():
        skipped, drawn = start(), start()
        assert philox_state(skipped) == philox_state(drawn), label
        place(skipped, n)
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
        place(raw, skip)
        place(bounded, skip)
        assert philox_state(raw) == philox_state(bounded)
    assert raw.gen.integers(0, 10, 3).tolist() == bounded.gen.integers(0, 10, 3).tolist()
