"""Noise primitives shared by every mechanism in the package.

All sampling is inverse-CDF from open-interval uniforms, one uniform per
sample, so the number of PRNG draws per run is deterministic and two runs
with the same (seed, stream) are bitwise identical. Each uniform is one
64-bit Philox word, so a generator can also be moved past n uniforms
without drawing them (RandomSource.skip).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = ["NOISE_REACH", "NoiseKind", "NoiseSpec", "RandomSource", "sample", "pdf"]

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
_COUNTER_MASK = (1 << 256) - 1
# below this many words drawing them beats a state round trip (about 10 us)
_SKIP_BY_COUNTER = 1024


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
        if not self.scale > 0:
            raise ValueError(f"noise scale must be positive, got {self.scale}")


class RandomSource:
    """Counter-based PRNG stream keyed by (seed, stream id).

    Philox is keyed directly by the two 64-bit words, so distinct stream ids
    give independent streams and equal ids reproduce the same draws exactly.
    Mechanism noise must come from :meth:`uniform_open`; data-level
    randomness (subsampling, synthetic data) may use :attr:`gen` directly.
    """

    def __init__(self, seed: int, stream: int = 0) -> None:
        self.seed = int(seed)
        self.stream = int(stream)
        key = np.array(
            [self.seed & 0xFFFFFFFFFFFFFFFF, self.stream & 0xFFFFFFFFFFFFFFFF],
            dtype=np.uint64,
        )
        self.gen = np.random.Generator(np.random.Philox(key=key))

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

    def skip(self, n: int) -> None:
        """Move past n uniforms without computing them.

        The generator ends in exactly the state uniform_open(n) would leave:
        counter, buffer, buffer position, and the 32-bit half-word that
        integer draws keep (which bit_generator.advance would clear). A
        large n costs O(1): counter arithmetic on the state, then the one
        to four words that refill the last buffer.
        """
        bit_generator = self.gen.bit_generator
        if n < _SKIP_BY_COUNTER:
            bit_generator.random_raw(n)
            return
        state = bit_generator.state
        # the first word past the buffer opens a new counter block; the
        # last (1 to 4) words are drawn from the block the counter ends on
        fresh = n - (_WORDS_PER_BLOCK - state["buffer_pos"])
        blocks, last = divmod(fresh - 1, _WORDS_PER_BLOCK)
        words = state["state"]["counter"].tolist()
        counter = (sum(w << (64 * i) for i, w in enumerate(words)) + blocks) & _COUNTER_MASK
        state["state"]["counter"] = np.array(
            [(counter >> (64 * i)) & 0xFFFFFFFFFFFFFFFF for i in range(4)], dtype=np.uint64
        )
        state["buffer_pos"] = _WORDS_PER_BLOCK
        bit_generator.state = state
        bit_generator.random_raw(last + 1)

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, stream={self.stream})"


def _to_uniform(k):
    """Map integers k in [0, 2**53) to the open interval (0, 1).

    k goes to (k + 0.5) / 2**53, rounded; the top integer, whose image
    rounds to 1.0, goes to the largest double below 1 instead.
    """
    u = (k + 0.5) / _U53
    if isinstance(u, np.ndarray):
        return np.minimum(u, _U_MAX, out=u)
    return min(u, _U_MAX)


def sample(spec: NoiseSpec, rng: RandomSource, size=None):
    """Draw from the noise distribution by inverting its CDF.

    Returns a scalar when size is None, else an ndarray of that shape.
    """
    b = spec.scale
    u = rng.uniform_open(size)
    if spec.kind is NoiseKind.LAPLACE:
        v = 2.0 * u - 1.0
        return -b * np.sign(v) * np.log1p(-np.abs(v))
    if spec.kind is NoiseKind.GUMBEL:
        return -b * np.log(-np.log(u))
    if spec.kind is NoiseKind.EXPONENTIAL:
        return -b * np.log(u)
    raise ValueError(f"unknown noise kind: {spec.kind}")


def pdf(spec: NoiseSpec, z):
    """Density of the noise distribution at z (vectorized)."""
    b = spec.scale
    z = np.asarray(z, dtype=float)
    if spec.kind is NoiseKind.LAPLACE:
        out = np.exp(-np.abs(z) / b) / (2.0 * b)
    elif spec.kind is NoiseKind.GUMBEL:
        out = np.exp(-(z / b + np.exp(-z / b))) / b
    elif spec.kind is NoiseKind.EXPONENTIAL:
        out = np.where(z >= 0, np.exp(-np.where(z >= 0, z, 0.0) / b) / b, 0.0)
    else:
        raise ValueError(f"unknown noise kind: {spec.kind}")
    if out.ndim == 0:
        return float(out)
    return out
