"""Privacy accounting for AboveThreshold runs.

The central object is the one-sided loss: for query sequences evaluated on
two neighboring datasets, with prefix gap

    D_k = max_{i < k} max{0, f_i(x') - f_i(x)}    (empty max = 0)

the per-run loss is

    eps(x, x') = max_k [ eps1 * D_k + eps2 * max{0, D_k - (f_k(x') - f_k(x))} ]

for queries of sensitivity 1, the counting queries of every estimator in
the package. This clamped form upper-bounds ln(P_x(k)/P_x'(k)) for every
halting outcome k under all three noise families. Everything returned by
guarantee_for is derived from it. Each guarantee, zCDP conversion and
composition here is its formula's exact value on the input doubles,
rounded up (_round_up): a printed claim never falls below the true cost,
nor to 0 from above.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .noise import NoiseKind, RandomSource
from .sparse_vector import check_eps, check_split

__all__ = [
    "NeighborModel",
    "QueryClass",
    "PrivacyGuarantee",
    "MultiQuantileBudget",
    "one_sided_loss",
    "guarantee_for",
    "zcdp_of_dp",
    "compose_zcdp",
    "compose_dp",
    "multi_quantile_levels",
    "multi_quantile_guarantee",
    "EmpiricalDpReport",
    "empirical_dp_check",
]


class NeighborModel(enum.Enum):
    SWAP = "swap"
    ADD_SUBTRACT = "add-subtract"


class QueryClass(enum.Enum):
    """Structural assumptions on how neighbor datasets move the queries."""

    GENERAL = "general"
    MONOTONIC = "monotonic"
    COUNT_MINUS_QN = "count-minus-qn"
    FIXED_THRESHOLD_COUNT = "fixed-threshold-count"


@dataclass(frozen=True)
class PrivacyGuarantee:
    """Bundle of pure-DP, zCDP and range-bounded parameters (None = no claim)."""

    eps_dp: float | None = None
    rho_zcdp: float | None = None
    gamma_range_bounded: float | None = None


def _round_up(x: Fraction) -> float:
    """The least double >= x: inf past the float range."""
    f = float(min(x, Fraction(sys.float_info.max)))
    return f if f >= x else math.nextafter(f, math.inf)


def zcdp_of_dp(eps: float) -> float:
    """eps-DP implies (eps^2/2)-zCDP."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    return math.inf if eps == math.inf else _round_up(Fraction(eps) ** 2 / 2)


def _compose(costs, name: str) -> float:
    """The exact sum of nonnegative costs that compose additively, rounded up once."""
    costs = list(costs)
    if any(c < 0 for c in costs):
        raise ValueError(f"{name} values must be nonnegative")
    return math.inf if math.inf in costs else _round_up(sum(map(Fraction, costs)))


def compose_zcdp(rhos) -> float:
    """zCDP composes additively."""
    return _compose(rhos, "rho")


def compose_dp(epsilons) -> float:
    """Pure DP composes additively."""
    return _compose(epsilons, "eps")


def one_sided_loss(f_x, f_xprime, eps1: float, eps2: float) -> float:
    """Worst-case ln(P_x(k)/P_x'(k)) bound over halting outcomes k.

    Asymmetric in its dataset arguments; evaluate both orders for a
    range-bounded statement.
    """
    fx = np.asarray(f_x, dtype=float)
    fxp = np.asarray(f_xprime, dtype=float)
    if fx.shape != fxp.shape or fx.ndim != 1 or fx.size == 0:
        raise ValueError("query sequences must be equal-length non-empty 1-d arrays")
    check_eps(eps1, "eps1")
    check_eps(eps2, "eps2")
    diffs = fxp - fx
    # D_k of the module docstring: the largest positive gap before query k
    gaps = np.concatenate(([0.0], np.maximum.accumulate(np.maximum(diffs, 0.0))))[:-1]
    terms = eps1 * gaps + eps2 * np.maximum(0.0, gaps - diffs)
    return float(terms.max())


def guarantee_for(
    query_class: QueryClass,
    neighbor: NeighborModel,
    noise: NoiseKind,
    eps1: float,
    eps2: float,
    q: float | None = None,
) -> PrivacyGuarantee:
    """Closed-form guarantees for one AboveThreshold run.

    All parameters are derived from the clamped one-sided loss:

    - GENERAL: (eps1 + 2*eps2)-DP.
    - MONOTONIC: (eps1 + eps2)-DP and (eps1 + 2*eps2)-range-bounded, hence
      rho = (eps1/2 + eps2)^2 / 2.
    - COUNT_MINUS_QN (add-subtract, counting queries shifted by q*n):
      max{(1-q)*eps1, q*eps1 + eps2}-DP and
      (q*eps1 + eps2) + max{(1-q)*eps1, q*eps2} range-bounded.
    - FIXED_THRESHOLD_COUNT (add-subtract, counting queries, threshold not
      derived from the data size): max{eps1, eps2}-DP and
      (eps1 + eps2)-range-bounded.

    rho_zcdp is the better of gamma^2/8 and eps^2/2.
    """
    check_split(eps1, eps2, noise)
    return PrivacyGuarantee(*map(_round_up, _exact_costs(query_class, neighbor, eps1, eps2, q)))


def _exact_costs(
    query_class: QueryClass, neighbor: NeighborModel, eps1: float, eps2: float, q=None
) -> tuple[Fraction, Fraction, Fraction]:
    """guarantee_for's (eps, rho, gamma) in exact arithmetic."""
    e1, e2 = Fraction(float(eps1)), Fraction(float(eps2))
    if query_class is QueryClass.GENERAL:
        eps, gamma = e1 + 2 * e2, 2 * (e1 + 2 * e2)
    elif query_class is QueryClass.MONOTONIC:
        eps, gamma = e1 + e2, e1 + 2 * e2
    elif query_class is QueryClass.COUNT_MINUS_QN:
        if neighbor is not NeighborModel.ADD_SUBTRACT:
            raise ValueError("count-minus-qn accounting assumes add-subtract neighbors")
        if q is None or not 0 < q < 1:
            raise ValueError("count-minus-qn accounting needs a quantile q in (0, 1)")
        q = Fraction(float(q))
        eps = max((1 - q) * e1, q * e1 + e2)
        gamma = (q * e1 + e2) + max((1 - q) * e1, q * e2)
    elif query_class is QueryClass.FIXED_THRESHOLD_COUNT:
        if neighbor is not NeighborModel.ADD_SUBTRACT:
            raise ValueError("fixed-threshold-count accounting assumes add-subtract neighbors")
        eps, gamma = max(e1, e2), e1 + e2
    else:
        raise ValueError(f"unknown query class: {query_class}")
    return eps, min(gamma * gamma / 8, eps * eps / 2), gamma


def multi_quantile_levels(m: int) -> int:
    """Recursion depth for m quantiles: ceil(log2(m + 1)), in exact arithmetic."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return int(m).bit_length()


@dataclass(frozen=True)
class MultiQuantileBudget:
    """Composed budget for the recursive m-quantile scheme."""

    m: int
    levels: int
    log_base: int
    per_level: PrivacyGuarantee
    total: PrivacyGuarantee


def multi_quantile_guarantee(
    m: int, eps1: float, eps2: float, noise: NoiseKind
) -> MultiQuantileBudget:
    """Budget for m quantiles via recursive splitting under swap neighbors.

    Thresholds are fixed before splitting, so at each level a swapped point
    either stays inside one slice (one monotonic run differs) or crosses the
    split boundary (two slices differ by add/subtract of a point against
    fixed thresholds). The per-level cost is the worse of the two cases;
    levels compose.
    """
    levels = multi_quantile_levels(m)
    check_split(eps1, eps2, noise)
    mono = _exact_costs(QueryClass.MONOTONIC, NeighborModel.SWAP, eps1, eps2)
    fixed = _exact_costs(QueryClass.FIXED_THRESHOLD_COUNT, NeighborModel.ADD_SUBTRACT, eps1, eps2)
    per_eps, per_rho = max(mono[0], 2 * fixed[0]), max(mono[1], 2 * fixed[1])
    per_level = PrivacyGuarantee(eps_dp=_round_up(per_eps), rho_zcdp=_round_up(per_rho))
    total = PrivacyGuarantee(_round_up(levels * per_eps), _round_up(levels * per_rho))
    return MultiQuantileBudget(
        m=m, levels=levels, log_base=2, per_level=per_level, total=total
    )


def _check_multi_quantile_neighbor(neighbor: NeighborModel) -> None:
    """The neighbor rule of multi_quantile_guarantee: swap only. Its node
    thresholds (q - mass_lo) * n rest on a public n, which add-subtract
    neighbors do not have, so no budget is derived for them."""
    if neighbor is not NeighborModel.SWAP:
        raise ValueError(
            "the multi-quantile budget is derived for swap neighbors only, "
            f"not {neighbor.value}"
        )


# z-score of both Wilson bounds: a violation needs outcome frequencies
# about four standard errors apart, so a mechanism that keeps its claim
# fails the check only by a rare chance
_WILSON_Z = 4.0


def _wilson_bounds(counts: np.ndarray, n: int, z: float) -> tuple[np.ndarray, np.ndarray]:
    phat = counts / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = (z / denom) * np.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
    return np.maximum(center - half, 0.0), np.minimum(center + half, 1.0)


@dataclass(frozen=True)
class EmpiricalDpReport:
    """Outcome of a two-sample frequency comparison against a claimed eps."""

    claimed_eps: float
    trials: int
    max_log_ratio: float
    violation_lcb: float
    passed: bool


def empirical_dp_check(
    run_mechanism: Callable[[object, RandomSource, int], np.ndarray],
    x,
    xprime,
    claimed_eps: float,
    trials: int,
    rng: RandomSource,
) -> EmpiricalDpReport:
    """Sample outcome frequencies under both datasets and hunt for violations.

    run_mechanism(dataset, rng, trials) must return an integer outcome label
    per trial. The check fails only on confident evidence: some outcome whose
    Wilson lower bound under one dataset exceeds e^claimed_eps times the
    Wilson upper bound under the other, both at z = _WILSON_Z. max_log_ratio
    reports the largest point-estimate log ratio over outcomes seen on both
    sides (both directions), which should sit near 0 for identical inputs.
    """
    if trials < 100_000:
        raise ValueError("insufficient trials for the requested confidence (need >= 1e5)")
    out_x = np.asarray(run_mechanism(x, rng.spawn(2 * rng.stream + 1), trials))
    out_xp = np.asarray(run_mechanism(xprime, rng.spawn(2 * rng.stream + 2), trials))
    labels = np.union1d(np.unique(out_x), np.unique(out_xp))
    cx = np.array([(out_x == lab).sum() for lab in labels], dtype=float)
    cxp = np.array([(out_xp == lab).sum() for lab in labels], dtype=float)

    lo_x, hi_x = _wilson_bounds(cx, trials, _WILSON_Z)
    lo_xp, hi_xp = _wilson_bounds(cxp, trials, _WILSON_Z)

    both = (cx > 0) & (cxp > 0)
    if both.any():
        point = np.log(cx[both] / cxp[both])
        max_log_ratio = float(np.max(np.abs(point)))
    else:
        max_log_ratio = float("nan")

    # Wilson upper bounds are strictly positive even at zero counts, and a
    # zero lower bound gives log(0) = -inf, i.e. no evidence for that outcome.
    with np.errstate(divide="ignore"):
        lcb = np.maximum(
            np.log(lo_x) - np.log(hi_xp), np.log(lo_xp) - np.log(hi_x)
        )
    violation_lcb = float(np.max(lcb)) if lcb.size else float("-inf")
    return EmpiricalDpReport(
        claimed_eps=claimed_eps,
        trials=trials,
        max_log_ratio=max_log_ratio,
        violation_lcb=violation_lcb,
        passed=bool(violation_lcb <= claimed_eps),
    )
