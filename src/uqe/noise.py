"""Noise primitives shared by every mechanism in the package.

All sampling is inverse-CDF from open-interval uniforms, one uniform per
sample, so the number of PRNG draws per run is deterministic and two runs
with the same (seed, stream) are bitwise identical. Each uniform is one
64-bit Philox word, so a generator can also be put any number of uniforms
past a state without drawing them (_place).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = ["NOISE_REACH", "NoiseKind", "NoiseSpec", "RandomSource", "sample"]

_U53 = 1 << 53
# the largest uniform: k = 2**53 - 1 maps here, not to (k + 0.5) / 2**53,
# which rounds to 1.0
_U_MAX = float(np.nextafter(1.0, 0.0))

# every value sample(NoiseSpec(kind, b), ...) returns lies in
# [-NOISE_REACH * b, NOISE_REACH * b]: uniforms lie in [2**-54, 1 - 2**-53],
# where exponential noise reaches 37.43 b and Laplace and Gumbel noise 36.74 b
NOISE_REACH = 38.0

# Philox turns one 256-bit counter into four 64-bit words
_WORDS_PER_BLOCK = 4
_WORD_MASK = (1 << 64) - 1


class NoiseKind(enum.Enum):
    LAPLACE = "laplace"
    GUMBEL = "gumbel"
    EXPONENTIAL = "expo"


@dataclass(frozen=True)
class NoiseSpec:
    """A noise distribution: kind plus scale b > 0."""

    kind: NoiseKind
    scale: float

    def __post_init__(self) -> None:
        if not isinstance(self.kind, NoiseKind):
            raise ValueError(f"unknown noise kind: {self.kind!r}")
        if not self.scale > 0:
            raise ValueError(f"noise scale must be positive, got {self.scale}")


class RandomSource:
    """Counter-based PRNG stream keyed by (seed, stream id).

    Philox is keyed directly by the two 64-bit words, so distinct stream ids
    give independent streams and equal ids reproduce the same draws exactly.
    Mechanism noise must come from :meth:`uniform_open`, or from raw
    words of the bit generator through the same map to (0, 1); data-level
    randomness (subsampling, synthetic data) may use :attr:`gen` directly.
    """

    def __init__(self, seed: int, stream: int = 0) -> None:
        self.seed = int(seed)
        self.stream = int(stream)
        self.gen = np.random.Generator(np.random.Philox(key=self._key()))
        # the state _rekey sets, of Python ints, which numpy reads faster
        # than arrays; only the stream's key word and the counter change
        self._restart = {
            "bit_generator": "Philox",
            "state": {"counter": [0] * 4, "key": [self.seed & _WORD_MASK, 0]},
            "buffer": [0] * _WORDS_PER_BLOCK,
            "buffer_pos": _WORDS_PER_BLOCK,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def _key(self) -> np.ndarray:
        return np.array([self.seed & _WORD_MASK, self.stream & _WORD_MASK], dtype=np.uint64)

    def _rekey(self, stream: int, skip: int = 0) -> None:
        """Restart as RandomSource(self.seed, stream) starts, then moved
        past skip uniforms as drawing them moves it (_place): Philox keyed
        by (seed, stream), its counter on the block that holds uniform
        skip, and no spare 32-bit half-word. The state is set once, in under a
        us; a new source costs about 20, as numpy seeds its Philox from OS
        entropy before the key replaces it.

        Use is sequential only: re-keying ends the old stream, so nothing
        that still draws from it may hold this source.
        """
        self.stream = int(stream)
        restart = self._restart
        restart["state"]["key"][1] = self.stream & _WORD_MASK
        if skip:
            _place(self.gen.bit_generator, restart, skip)
        else:
            self.gen.bit_generator.state = restart

    def spawn(self, stream: int) -> "RandomSource":
        """Fresh independent stream under the same seed."""
        return RandomSource(self.seed, stream)

    def uniform_open(self, size=None):
        """Uniform on the open interval (0, 1); never returns 0.0 or 1.0.

        Its 53-bit integer is the top 53 bits of one raw Philox word: the
        value and the generator state integers(0, 2**53, size) gives, since
        on a power-of-two range numpy's bounded draw takes those bits and
        never rejects a word, without that routine's per-call cost.
        """
        return _to_uniform(self.gen.bit_generator.random_raw(size) >> 11)

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, stream={self.stream})"


def _int_state(state: dict) -> dict:
    """A Philox state read, its counter and key made Python ints in place."""
    words = state["state"]
    words["counter"], words["key"] = words["counter"].tolist(), words["key"].tolist()
    return state


def _place(bit_generator, state: dict, a: int) -> None:
    """Put a Philox bit generator at word a >= 1 past state (one of Python
    ints, as _int_state or _rekey gives it), exactly as drawing a words
    from state leaves it, its spare 32-bit half-word included (which
    bit_generator.advance would clear). O(1) for any a: past state's
    buffer, the counter of the block that holds word a - 1 is written as
    Python ints, which numpy reads faster than arrays, and the one to four
    words that refill that block's buffer are drawn."""
    pos = state["buffer_pos"] + a
    if pos <= _WORDS_PER_BLOCK:
        bit_generator.state = {**state, "buffer_pos": pos}
        return
    counter, key = state["state"]["counter"], state["state"]["key"]
    # Philox steps its counter before it fills the buffer, so the block of
    # counter c holds words 4(c - 1) .. 4c - 1 of the key's stream
    c = counter[0] | counter[1] << 64 | counter[2] << 128 | counter[3] << 192
    blocks, last = divmod(_WORDS_PER_BLOCK * (c - 1) + pos - 1, _WORDS_PER_BLOCK)
    bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            # taken mod 2**256, as Philox wraps it
            "counter": [blocks & _WORD_MASK, blocks >> 64 & _WORD_MASK,
                        blocks >> 128 & _WORD_MASK, blocks >> 192 & _WORD_MASK],
            "key": key,
        },
        "buffer": [0] * _WORDS_PER_BLOCK,
        "buffer_pos": _WORDS_PER_BLOCK,
        "has_uint32": state["has_uint32"],
        "uinteger": state["uinteger"],
    }
    bit_generator.random_raw(last + 1)


def _to_uniform(k):
    """Map integers k in [0, 2**53) to the open interval (0, 1).

    k goes to (k + 0.5) / 2**53, rounded; the top integer, whose image
    rounds to 1.0, goes to the largest double below 1 instead.
    """
    u = (k + 0.5) / _U53
    if isinstance(u, np.ndarray):
        return np.minimum(u, _U_MAX, out=u)
    return min(u, _U_MAX)


def _noise_of_words(spec: NoiseSpec, words):
    """The noise of raw Philox words, one value per word: the inverse CDF
    at each word's uniform, as uniform_open maps it (its top 53 bits).
    sample() and the AboveThreshold runners compute every value here.

    Returns a scalar for an int word, else an ndarray of the words' shape,
    computed in place. As -b * x is exact in b's sign and rounds as b * x
    does, b times the noise at scale 1 is the noise at scale b, bit for bit.
    """
    b = spec.scale
    u = _to_uniform(words >> 11)
    if not isinstance(u, np.ndarray):  # one word, where out= costs more than it saves
        if spec.kind is NoiseKind.LAPLACE:
            v = 2.0 * u - 1.0
            return -b * np.sign(v) * np.log1p(-abs(v))
        return -b * np.log(-np.log(u) if spec.kind is NoiseKind.GUMBEL else u)
    if spec.kind is NoiseKind.LAPLACE:
        u *= 2.0
        u -= 1.0
        noise = np.sign(u)
        np.negative(np.abs(u, out=u), out=u)
        noise *= -b
        return np.multiply(noise, np.log1p(u, out=u), out=noise)
    if spec.kind is NoiseKind.GUMBEL:
        np.negative(np.log(u, out=u), out=u)
    return np.multiply(np.log(u, out=u), -b, out=u)


def sample(spec: NoiseSpec, rng: RandomSource, size=None):
    """Draw from the noise distribution by inverting its CDF.

    Returns a scalar when size is None, else an ndarray of that shape.
    """
    return _noise_of_words(spec, rng.gen.bit_generator.random_raw(size))

