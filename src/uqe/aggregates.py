"""Private sums and means of nonnegative data via a privately chosen clip.

Two stages, eps each: estimate a high quantile of the data to use as the
clipping bound, then release the clipped sum plus Laplace noise scaled to the
clip. Composition gives 2*eps total. The clip stage can use either the grid
estimator (no range needed) or the bounded-range baseline.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .emq import BoundedRange, emq_estimate
from .noise import NOISE_REACH, NoiseKind, NoiseSpec, RandomSource, _check_source, sample
from .quantile import (
    _BUILD_BLOCK,
    QuantileRequest,
    _finite_min,
    _map_parts,
    _part_cuts,
    _release,
    build_histogram,
    check_beta,
)
from .sparse_vector import check_eps, check_noise_eps

__all__ = [
    "THRESHOLD_MODES",
    "ClipMethod",
    "SumConfig",
    "SumResult",
    "clipped_sum",
    "dp_sum",
    "dp_mean",
]


class ClipMethod(enum.Enum):
    UQE = "uqe"
    EMQ = "emq"


# the values SumConfig.threshold_mode accepts besides None
THRESHOLD_MODES = ("n", "n-plus-inv-eps")


@dataclass(frozen=True)
class SumConfig:
    """Budget and clip-stage parameters for one private sum.

    threshold_mode moves the quantile stage's halting threshold off q*n to
    trade bias for variance: "n" demands a clip above (a noisy version of)
    the whole sample, "n-plus-inv-eps" adds 1/eps more headroom.
    """

    eps: float
    q: float = 0.99
    method: ClipMethod = ClipMethod.UQE
    beta: float = 1.01
    emq_range: BoundedRange | None = None
    threshold_mode: str | None = None

    def __post_init__(self) -> None:
        check_eps(self.eps)
        if self.method is ClipMethod.UQE:  # its run takes the even split
            check_noise_eps(self.eps / 2.0, "eps1")
        if not 0.0 < self.q <= 1.0:
            raise ValueError("q must lie in (0, 1]")
        if (self.emq_range is None) == (self.method is ClipMethod.EMQ):
            raise ValueError("the EMQ clip needs a declared range, and the UQE one reads none")
        if self.threshold_mode not in (None, *THRESHOLD_MODES):
            raise ValueError(f"threshold_mode must be None or one of {THRESHOLD_MODES}")
        if self.threshold_mode is not None and self.method is not ClipMethod.UQE:
            raise ValueError("threshold_mode moves the uqe clip's threshold; emq has none")
        check_beta(self.beta)


@dataclass(frozen=True)
class SumResult:
    estimate: float
    clip: float
    epsilon_total: float
    clip_clamped: bool
    clip_exhausted: bool


def clipped_sum(values, clip: float) -> float:
    """Sum of min(x_j, clip); nondecreasing in clip. A NaN clip, or a NaN
    sum (NaN data, or both infinities under an infinite clip), is a
    ValueError.

    Data of more than one block is clipped part by part (_map_parts) into
    one array, which is then summed whole: numpy's pairwise summation, and
    so the sum's bits, do not depend on the parts.
    """
    if math.isnan(clip):
        raise ValueError("the clip must not be NaN")
    x = np.asarray(values, dtype=float)
    if x.size > _BUILD_BLOCK:
        clipped = np.empty_like(x)
        _map_parts(
            lambda lo, hi: np.minimum(x[lo:hi], clip, out=clipped[lo:hi]), _part_cuts(x.size)
        )
    else:
        clipped = np.minimum(x, clip)
    with np.errstate(invalid="ignore"):
        total = float(clipped.sum())
    if math.isnan(total):
        raise ValueError("the clipped sum is NaN: the data hold NaN, or both infinities")
    return total


def _clip_floor(declared: BoundedRange) -> float:
    """The clip that replaces a nonpositive one, 1e-9 of the declared range's
    width. Only an EMQ clip can be one: a UQE clip is beta^k - 1, k >= 1."""
    return declared.width * 1e-9


def _laplace(clip: float, eps: float) -> NoiseSpec:
    """The sum release's noise, Laplace of scale clip / eps. A scale whose
    noise, within NOISE_REACH scales of 0, can overflow a float is a
    ValueError."""
    scale = float(clip) / eps
    if not NOISE_REACH * scale <= sys.float_info.max:
        raise ValueError(
            f"the Laplace scale clip / eps = {scale!r} lets the sum's noise overflow a float"
        )
    return NoiseSpec(NoiseKind.LAPLACE, scale)


def _choose_clip(values: np.ndarray, cfg: SumConfig, rng: RandomSource) -> tuple[float, bool]:
    """Returns (clip, exhausted flag) before the positivity clamp."""
    if cfg.method is ClipMethod.UQE:
        n = values.size
        threshold = None
        if cfg.threshold_mode == "n":
            threshold = float(n)
        elif cfg.threshold_mode == "n-plus-inv-eps":
            threshold = float(n) + 1.0 / cfg.eps
        req = QuantileRequest(
            q=cfg.q, eps1=cfg.eps / 2.0, eps2=cfg.eps / 2.0, beta=cfg.beta
        )
        # dp_sum has checked the data: estimate_quantile on them, with no
        # second pass to check them again
        hist = build_histogram(values, req.beta, 0.0, req.max_queries)
        est = _release(hist, req, rng, threshold=threshold)
        return est.value, est.exhausted
    return emq_estimate(values, cfg.emq_range, cfg.q, cfg.eps, rng), False


def dp_sum(data, cfg: SumConfig, rng: RandomSource) -> SumResult:
    """Private clip at quantile q (budget eps), then Laplace(clip/eps) + clipped sum.

    The data are read once before the clip stage: values that are not all
    finite, then negative ones, are a ValueError. A clip at or below 0 is
    clamped to a small positive floor and flagged. A clip so large against
    eps that the Laplace noise can overflow a float is a ValueError that
    names the scale.
    """
    _check_source(rng)
    values = np.asarray(data, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("data must be a non-empty 1-d sequence")
    if _finite_min(values) < 0:
        raise ValueError("the sum procedure assumes nonnegative data")

    clip, exhausted = _choose_clip(values, cfg, rng)
    clamped = False
    if clip <= 0.0:
        clip = _clip_floor(cfg.emq_range)
        clamped = True

    total = clipped_sum(values, clip) + sample(_laplace(clip, cfg.eps), rng)
    return SumResult(
        estimate=float(total),
        clip=float(clip),
        epsilon_total=2.0 * cfg.eps,
        clip_clamped=clamped,
        clip_exhausted=exhausted,
    )


def dp_mean(data, cfg: SumConfig, rng: RandomSource) -> SumResult:
    """dp_sum / n; n is public under swap neighbors."""
    values = np.asarray(data, dtype=float)
    result = dp_sum(values, cfg, rng)
    return replace(result, estimate=result.estimate / values.size)
