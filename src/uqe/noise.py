"""Noise primitives shared by every mechanism in the package.

All sampling is inverse-CDF from open-interval uniforms, one uniform per
sample, so the number of PRNG draws per run is deterministic and two runs
with the same (seed, stream) are bitwise identical.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = ["NoiseKind", "NoiseSpec", "RandomSource", "sample", "pdf"]

_U53 = 1 << 53


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
        """Uniform on the open interval (0, 1); never returns 0.0 or 1.0."""
        return (self.gen.integers(0, _U53, size=size) + 0.5) / _U53

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, stream={self.stream})"


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
