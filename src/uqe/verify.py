"""Self-checking suites behind the `verify` CLI subcommand.

Each suite replays one of the core statistical arguments at command-line
scale with fixed seeds: Monte Carlo halt frequencies against the closed-form
Gumbel distribution, the step-wise exponential mechanism's halt frequencies
against the same closed form, and empirical privacy-loss ratios. The
heavyweight versions of the same checks, and the deterministic oracles for
histograms, noiseless scans and the telescoping identity, live in the test
suite; these are the quick, scriptable twins of its Monte Carlo checks.
"""

from __future__ import annotations

import numpy as np

from .accounting import empirical_dp_check
from .noise import NoiseKind, RandomSource
from .sparse_vector import (
    SvtConfig,
    gumbel_halt_log_pmf,
    gumbel_no_halt_prob,
    simulate_halt_indices,
    simulate_iterative_em,
)

__all__ = ["DP_RATIO_MIN_TRIALS", "SUITE_NAMES", "run_verification_suite"]

SUITE_NAMES = ("gumbel-closed-form", "em-equivalence", "dp-ratio")

# the dp-ratio suite runs at least this many trials per noise kind,
# whatever it is asked for
DP_RATIO_MIN_TRIALS = 100_000


def _check(check_id: str, passed: bool, detail: str) -> dict:
    return {"id": check_id, "passed": bool(passed), "detail": detail}


def _random_instance(gen, max_k: int = 6):
    k = int(gen.integers(2, max_k + 1))
    values = gen.uniform(-3.0, 3.0, size=k)
    threshold = float(gen.uniform(-2.0, 2.0))
    eps = float(gen.uniform(0.4, 2.0))
    return values, threshold, eps


def _outcome_pmf(values, threshold, eps) -> np.ndarray:
    """[P(no halt), P(halt at 1), ..., P(halt at K)] for eps1 = eps2 = eps."""
    pmf = np.exp(gumbel_halt_log_pmf(values, threshold, eps))
    return np.concatenate(([gumbel_no_halt_prob(values, threshold, eps)], pmf))


def _mc_max_z(pmf: np.ndarray, outcomes: np.ndarray, trials: int) -> float:
    freq = np.bincount(outcomes, minlength=pmf.size) / trials
    se = np.sqrt(np.maximum(pmf * (1.0 - pmf), 1e-12) / trials)
    return float(np.max(np.abs(freq - pmf) / se))


def _suite_gumbel_closed_form(seed: int, trials: int) -> list[dict]:
    base = RandomSource(seed)
    worst = 0.0
    for i in range(10):
        values, threshold, eps = _random_instance(base.spawn(2 * i).gen)
        pmf = _outcome_pmf(values, threshold, eps)
        cfg = SvtConfig(eps, eps, NoiseKind.GUMBEL, threshold)
        sim = simulate_halt_indices(values, cfg, base.spawn(2 * i + 1), trials)
        # np.maximum keeps a NaN z-score, which then fails the check
        worst = float(np.maximum(worst, _mc_max_z(pmf, sim, trials)))
    return [
        _check(
            "halt-distribution-mc",
            worst < 4.0,
            f"max |freq - pmf| z-score {worst:.2f} over 10 instances x {trials} trials",
        )
    ]


def _suite_em_equivalence(seed: int, trials: int) -> list[dict]:
    base = RandomSource(seed)
    worst_z = 0.0
    for i in range(3):
        values, threshold, eps = _random_instance(base.spawn(10 + 2 * i).gen)
        pmf = _outcome_pmf(values, threshold, eps / 2.0)
        sim = simulate_iterative_em(values, threshold, eps, base.spawn(11 + 2 * i), trials)
        worst_z = float(np.maximum(worst_z, _mc_max_z(pmf, sim, trials)))
    return [
        _check(
            "step-mechanism-mc",
            worst_z < 4.0,
            f"max z-score {worst_z:.2f} over 3 instances x {trials} trials",
        )
    ]


def _suite_dp_ratio(seed: int, trials: int) -> list[dict]:
    data = np.array([2.0, 5.0, 9.0, 14.0, 20.0])
    swapped = np.array([2.0, 5.0, 9.0, 14.0, 3.0])
    thresholds = 2.0 ** np.arange(1, 8)
    eps1 = eps2 = 0.5
    claimed = eps1 + eps2
    checks = []
    for j, noise in enumerate((NoiseKind.EXPONENTIAL, NoiseKind.LAPLACE)):
        def runner(dataset, rng, n):
            values = np.searchsorted(np.sort(dataset), thresholds, side="left")
            cfg = SvtConfig(eps1, eps2, noise, 2.5)
            return simulate_halt_indices(values.astype(float), cfg, rng, n)

        report = empirical_dp_check(
            runner, data, swapped, claimed, trials, RandomSource(seed + j)
        )
        checks.append(
            _check(
                f"counting-pair-{noise.value}",
                report.passed,
                "max log ratio "
                f"{report.max_log_ratio:.3f}, violation lcb {report.violation_lcb:.3f} "
                f"vs claimed {claimed:.3f} x {trials} trials",
            )
        )
    return checks


def run_verification_suite(name: str, seed: int = 0, trials: int = 200_000) -> dict:
    """Run one named suite; returns {"suite", "passed", "checks": [...]}."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials!r}")
    if name == "gumbel-closed-form":
        checks = _suite_gumbel_closed_form(seed, trials)
    elif name == "em-equivalence":
        checks = _suite_em_equivalence(seed, trials)
    elif name == "dp-ratio":
        checks = _suite_dp_ratio(seed, max(trials, DP_RATIO_MIN_TRIALS))
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return {"suite": name, "passed": all(c["passed"] for c in checks), "checks": checks}
