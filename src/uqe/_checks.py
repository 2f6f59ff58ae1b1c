"""The parameter rules of the package, each a ValueError for a parameter
that breaks it, which the entry points check before any pass over the
data. No other module defines a rule."""

from __future__ import annotations

import math
import operator
import sys

import numpy as np

from .noise import NOISE_REACH, NoiseKind, RandomSource

# the least budget whose noise scale 1 / eps keeps every noise value, which
# lies within NOISE_REACH scales of 0, a finite float: about 2.11e-307
MIN_NOISE_EPS = NOISE_REACH / sys.float_info.max


def check_int(value, name: str) -> None:
    """The rule of a count or a seed: an integer."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer") from None


def check_max_queries(max_queries) -> None:
    """The query cap rule: an integer >= 1."""
    check_int(max_queries, "max_queries")
    if max_queries < 1:
        raise ValueError("max_queries must be at least 1")


def check_eps(eps: float, name: str = "eps") -> None:
    """The budget rule: eps is a finite number > 0."""
    if not 0 < eps < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {eps!r}")


def check_noise_eps(eps: float, name: str = "eps") -> None:
    """The rule of a budget that scales drawn noise: check_eps, and >= MIN_NOISE_EPS."""
    if not MIN_NOISE_EPS <= eps < math.inf:
        check_eps(eps, name)
        raise ValueError(
            f"{name} must be at least {MIN_NOISE_EPS!r}, below which its noise "
            f"overflows a float, got {eps!r}"
        )


def check_split(eps1: float, eps2: float, noise: NoiseKind, check=check_noise_eps) -> None:
    """The budget split of one run: eps1 and eps2 obey check (check_noise_eps,
    or check_eps in the accounting); Gumbel noise needs eps1 == eps2."""
    check(eps1, "eps1")
    check(eps2, "eps2")
    if noise is NoiseKind.GUMBEL and eps1 != eps2:
        raise ValueError("Gumbel noise requires eps1 == eps2")


def check_even_split(eps: float, draws_noise: bool) -> None:
    """The budget of a stage whose runs take the even split eps / 2: check_eps,
    and check_noise_eps of the half where they draw noise."""
    check_eps(eps)
    if draws_noise:
        check_noise_eps(eps / 2.0, "eps1")


def check_threshold(threshold: float) -> None:
    """The threshold rule: any number but NaN, which no query clears, so a
    run would exhaust whatever the data. Every query clears -inf, none +inf."""
    if threshold != threshold:
        raise ValueError("the threshold must be a number, got nan")


def check_beta(beta: float, name: str = "beta") -> None:
    """The grid ratio rule: beta is finite and > 1."""
    if not (beta > 1.0 and math.isfinite(beta)):
        raise ValueError(f"{name} must be finite and > 1, got {beta!r}")


def check_q(q) -> None:
    """The quantile level rule: q lies in [0, 1], which NaN fails; each
    level of an array q, of one dimension at most, does."""
    if isinstance(q, np.ndarray):
        ok = q.ndim <= 1 and ((q >= 0.0) & (q <= 1.0)).all()
    else:
        ok = 0.0 <= q <= 1.0
    if not ok:
        raise ValueError("q must lie in [0, 1]")


def check_open_q(q) -> None:
    """The level rule of count-minus-qn accounting, and so of a run under
    add-subtract neighbors: q lies in (0, 1)."""
    if q is None or not 0 < q < 1:
        raise ValueError("count-minus-qn accounting needs a quantile q in (0, 1)")


def check_multi_quantile_neighbor(neighbor) -> None:
    """The neighbor rule of multi_quantile_guarantee: swap only, as its node
    thresholds (q - mass_lo) * n rest on a public n, which add-subtract lacks."""
    if neighbor.value != "swap":
        raise ValueError(
            f"the multi-quantile budget is derived for swap neighbors only, not {neighbor.value}"
        )


def check_finite(value: float, name: str) -> None:
    """The rule of a declared bound: a finite number."""
    if not -math.inf < value < math.inf:
        raise ValueError(f"{name} must be finite")


def check_perturb_scale(scale: float) -> None:
    """The jitter rule: the scale is finite and >= 0."""
    if not 0.0 <= scale < math.inf:
        raise ValueError(f"perturb_scale must be finite and >= 0, got {scale!r}")


def check_source(rng) -> None:
    """The rule of every mechanism that draws noise: rng is a RandomSource,
    so None is a ValueError, not an AttributeError once a draw is due."""
    if not isinstance(rng, RandomSource):
        raise ValueError(f"a RandomSource is required, got {type(rng).__name__}")


def check_data(values, name: str = "data") -> np.ndarray:
    """The rule of data, and of a list of levels: a non-empty 1-d sequence.
    Returns it as a float array, without a copy where it is one."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d sequence")
    return values


def check_levels(qs) -> np.ndarray:
    """The rule of a multi-quantile list: check_data, with levels strictly
    inside (0, 1), sorted and distinct. Returns it as a float array."""
    q_arr = check_data(qs, "qs")
    # NaN fails every comparison, so these reject it too
    if not (np.diff(q_arr) > 0).all():
        raise ValueError("qs must be sorted and distinct")
    if not (q_arr[0] > 0.0 and q_arr[-1] < 1.0):
        raise ValueError("quantiles must lie strictly inside (0, 1)")
    return q_arr
