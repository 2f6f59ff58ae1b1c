"""Tests for loss accounting, closed-form guarantees and the empirical checker."""

import math
from dataclasses import asdict, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uqe._checks import MIN_NOISE_EPS
from uqe.accounting import (
    EmpiricalDpReport,
    MultiQuantileBudget,
    NeighborModel,
    PrivacyGuarantee,
    QueryClass,
    compose_dp,
    compose_zcdp,
    empirical_dp_check,
    guarantee_for,
    multi_quantile_guarantee,
    multi_quantile_levels,
    one_sided_loss,
    zcdp_of_dp,
)
from uqe.noise import NoiseKind, RandomSource
from uqe.quantile import QuantileRequest, request_guarantee
from uqe.sparse_vector import (
    SvtConfig,
    gumbel_outcome_log_pmf,
    simulate_halt_indices,
)


def one_sided_brute(fx, fxp, e1, e2, relaxed=False):
    """Literal double-loop re-implementation used as the oracle."""
    best = -np.inf
    for k in range(1, len(fx) + 1):
        gap = -np.inf if relaxed else 0.0
        for i in range(1, k):
            d = fxp[i - 1] - fx[i - 1]
            gap = max(gap, d if relaxed else max(0.0, d))
        if gap == -np.inf:
            gap = 0.0
        term = e1 * gap + e2 * max(0.0, gap - (fxp[k - 1] - fx[k - 1]))
        best = max(best, term)
    return best


def range_bounded_of_pair(f_x, f_xprime, eps1, eps2):
    """Sum of the two one-sided losses for a neighbor pair."""
    return one_sided_loss(f_x, f_xprime, eps1, eps2) + one_sided_loss(f_xprime, f_x, eps1, eps2)


def relaxed_one_sided_loss(f_x, f_xprime, eps1, eps2):
    """one_sided_loss with the inner max{0, .} dropped, so the prefix gap D_k
    may go negative. It is not a pointwise upper bound on exact outcome
    ratios; test_relaxed_gap_is_not_a_pointwise_bound pins a counterexample."""
    diffs = np.asarray(f_xprime, dtype=float) - np.asarray(f_x, dtype=float)
    gaps = np.concatenate(([0.0], np.maximum.accumulate(diffs)))[:-1]
    terms = eps1 * gaps + eps2 * np.maximum(0.0, gaps - diffs)
    return float(terms.max())


def test_identical_sequences_cost_nothing():
    f = [1.0, 4.0, 2.0]
    assert one_sided_loss(f, f, 1.0, 1.0) == 0.0
    assert range_bounded_of_pair(f, f, 1.0, 1.0) == 0.0


def test_frozen_oracle_instance():
    # brute-force value for f_x=(0,1,1), f_x'=(1,0,2), eps1=eps2=1
    assert one_sided_loss([0, 1, 1], [1, 0, 2], 1.0, 1.0) == pytest.approx(3.0)
    assert one_sided_loss([1, 0, 2], [0, 1, 1], 1.0, 1.0) == pytest.approx(3.0)


@pytest.mark.parametrize("relaxed", [False, True])
def test_matches_bruteforce_on_random_instances(relaxed):
    rng = np.random.default_rng(14)
    for _ in range(500):
        k = int(rng.integers(1, 9))
        fx = rng.uniform(-5, 5, k)
        fxp = fx + rng.uniform(-1, 1, k)
        e1, e2 = rng.uniform(0.1, 2, 2)
        loss = relaxed_one_sided_loss if relaxed else one_sided_loss
        got = loss(fx, fxp, e1, e2)
        want = one_sided_brute(list(fx), list(fxp), e1, e2, relaxed=relaxed)
        assert got == pytest.approx(want, abs=1e-12)


def test_monotonic_pairs_respect_class_bound():
    rng = np.random.default_rng(5)
    e1, e2 = 0.7, 1.3
    for _ in range(2000):
        k = int(rng.integers(1, 10))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        fx = np.sort(rng.uniform(-5, 5, k))
        fxp = fx + sign * rng.uniform(0, 1, k)
        assert one_sided_loss(fx, fxp, e1, e2) <= e1 + e2 + 1e-12
        assert range_bounded_of_pair(fx, fxp, e1, e2) <= e1 + 2 * e2 + 1e-12


def test_general_pairs_respect_class_bound():
    rng = np.random.default_rng(6)
    e1, e2 = 0.7, 1.3
    for _ in range(2000):
        k = int(rng.integers(1, 10))
        fx = rng.uniform(-5, 5, k)
        fxp = fx + rng.uniform(-1, 1, k)
        assert one_sided_loss(fx, fxp, e1, e2) <= e1 + 2 * e2 + 1e-12


def _counting_pair(rng, q):
    """Add-subtract counting pair with its own-size thresholds folded in."""
    n = int(rng.integers(2, 25))
    data = np.sort(rng.uniform(1, 60, n))
    powers = 1.4 ** np.arange(1, 40)
    gx = np.searchsorted(data, powers, side="left").astype(float)
    smaller = np.delete(data, rng.integers(0, n))
    gxp = np.searchsorted(smaller, powers, side="left").astype(float)
    return gx - q * n, gxp - q * (n - 1)


def test_count_minus_qn_pairs_respect_class_bound():
    rng = np.random.default_rng(7)
    for _ in range(500):
        q = float(rng.uniform(0.05, 0.99))
        e1, e2 = rng.uniform(0.1, 2, 2)
        fx, fxp = _counting_pair(rng, q)
        bound = max((1 - q) * e1, q * e1 + e2)
        assert one_sided_loss(fx, fxp, e1, e2) <= bound + 1e-12
        assert one_sided_loss(fxp, fx, e1, e2) <= bound + 1e-12
        gamma = (q * e1 + e2) + max((1 - q) * e1, q * e2)
        assert range_bounded_of_pair(fx, fxp, e1, e2) <= gamma + 1e-12


def test_fixed_threshold_pairs_respect_class_bound():
    rng = np.random.default_rng(8)
    for _ in range(500):
        e1, e2 = rng.uniform(0.1, 2, 2)
        fx, fxp = _counting_pair(rng, q=0.0)  # q=0 removes the size shift
        assert one_sided_loss(fx, fxp, e1, e2) <= max(e1, e2) + 1e-12
        assert one_sided_loss(fxp, fx, e1, e2) <= max(e1, e2) + 1e-12
        assert range_bounded_of_pair(fx, fxp, e1, e2) <= e1 + e2 + 1e-12


def test_guarantee_for_symbolic_values():
    g = guarantee_for(QueryClass.GENERAL, NeighborModel.SWAP, NoiseKind.LAPLACE, 1.0, 0.5)
    assert g.eps_dp == pytest.approx(2.0)
    g = guarantee_for(QueryClass.MONOTONIC, NeighborModel.SWAP, NoiseKind.EXPONENTIAL, 0.5, 0.5)
    assert g.eps_dp == pytest.approx(1.0)
    assert g.gamma_range_bounded == pytest.approx(1.5)
    assert g.rho_zcdp == pytest.approx(0.28125)
    g = guarantee_for(
        QueryClass.COUNT_MINUS_QN,
        NeighborModel.ADD_SUBTRACT,
        NoiseKind.GUMBEL,
        0.5,
        0.5,
        q=0.99,
    )
    assert g.eps_dp == pytest.approx(0.99 * 0.5 + 0.5)
    g = guarantee_for(
        QueryClass.FIXED_THRESHOLD_COUNT,
        NeighborModel.ADD_SUBTRACT,
        NoiseKind.LAPLACE,
        0.3,
        0.8,
    )
    assert g.eps_dp == pytest.approx(0.8)
    assert g.gamma_range_bounded == pytest.approx(1.1)


def test_monotonic_rho_identity():
    # (eps1/2 + eps2)^2 / 2 is the same number as (eps1 + 2*eps2)^2 / 8
    for e1, e2 in [(0.5, 0.5), (1.0, 0.25), (0.2, 1.7)]:
        g = guarantee_for(QueryClass.MONOTONIC, NeighborModel.SWAP, NoiseKind.LAPLACE, e1, e2)
        assert g.rho_zcdp == pytest.approx((e1 / 2 + e2) ** 2 / 2)
        assert g.rho_zcdp == pytest.approx((e1 + 2 * e2) ** 2 / 8)


def test_guarantee_for_validation():
    with pytest.raises(ValueError):
        guarantee_for(QueryClass.MONOTONIC, NeighborModel.SWAP, NoiseKind.GUMBEL, 1.0, 0.5)
    for eps in (np.inf, np.nan, 0.0):
        with pytest.raises(ValueError, match="eps1"):
            guarantee_for(QueryClass.MONOTONIC, NeighborModel.SWAP, NoiseKind.LAPLACE, eps, 0.5)
        with pytest.raises(ValueError, match="eps2"):
            multi_quantile_guarantee(3, 0.5, eps, NoiseKind.EXPONENTIAL)
    with pytest.raises(ValueError):
        guarantee_for(QueryClass.COUNT_MINUS_QN, NeighborModel.SWAP, NoiseKind.LAPLACE, 1.0, 1.0, q=0.5)
    with pytest.raises(ValueError):
        guarantee_for(
            QueryClass.COUNT_MINUS_QN, NeighborModel.ADD_SUBTRACT, NoiseKind.LAPLACE, 1.0, 1.0
        )
    with pytest.raises(ValueError):
        guarantee_for(
            QueryClass.FIXED_THRESHOLD_COUNT, NeighborModel.SWAP, NoiseKind.LAPLACE, 1.0, 1.0
        )


def test_zcdp_conversions_and_composition():
    assert zcdp_of_dp(1.0) == 0.5
    assert compose_zcdp([0.1, 0.2, 0.3]) == pytest.approx(0.6)
    with pytest.raises(ValueError):
        compose_zcdp([0.1, -0.2])


def test_multi_quantile_levels_exact():
    assert [multi_quantile_levels(m) for m in [1, 2, 3, 4, 7, 8, 15, 16]] == [
        1, 2, 2, 3, 3, 4, 4, 5,
    ]
    with pytest.raises(ValueError):
        multi_quantile_levels(0)


def test_multi_quantile_guarantee_composes():
    budget = multi_quantile_guarantee(3, 0.5, 0.5, NoiseKind.EXPONENTIAL)
    assert budget.levels == 2
    assert budget.log_base == 2
    assert budget.per_level.eps_dp == pytest.approx(1.0)
    assert budget.total.eps_dp == pytest.approx(2.0)
    assert budget.total.rho_zcdp == pytest.approx(2 * budget.per_level.rho_zcdp)
    d = asdict(budget)
    assert d["m"] == 3 and d["per_level"]["eps_dp"] == pytest.approx(1.0)


def is_rounded_up(value, exact):
    """value is the least double at or above the exact rational: inf only
    past the float range."""
    return value >= exact and not math.nextafter(value, -math.inf) >= exact


def exact_costs(query_class, e1, e2, q):
    """(eps, rho, gamma) of guarantee_for's docstring, in exact arithmetic."""
    if query_class is QueryClass.GENERAL:
        eps, gamma = e1 + 2 * e2, 2 * (e1 + 2 * e2)
    elif query_class is QueryClass.MONOTONIC:
        eps, gamma = e1 + e2, e1 + 2 * e2
    elif query_class is QueryClass.COUNT_MINUS_QN:
        eps = max((1 - q) * e1, q * e1 + e2)
        gamma = (q * e1 + e2) + max((1 - q) * e1, q * e2)
    else:
        eps, gamma = max(e1, e2), e1 + e2
    return eps, min(gamma**2 / 8, eps**2 / 2), gamma


BUDGETS = st.floats(min_value=5e-324, max_value=1e308)


@settings(max_examples=300, deadline=None)
@given(eps1=BUDGETS, eps2=BUDGETS, q=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
# 0.1 + 0.7 rounds below the exact sum, and 1e-300 squared to 0
@example(eps1=0.1, eps2=0.7, q=0.5)
@example(eps1=1e-300, eps2=1e-300, q=0.5)
@example(eps1=1e308, eps2=1e308, q=0.5)
def test_claims_are_their_exact_formulas_rounded_up(eps1, eps2, q):
    e1, e2, fq = Fraction(eps1), Fraction(eps2), Fraction(q)
    for query_class in QueryClass:
        neighbor = NeighborModel.SWAP if query_class in (
            QueryClass.GENERAL, QueryClass.MONOTONIC
        ) else NeighborModel.ADD_SUBTRACT
        g = guarantee_for(query_class, neighbor, NoiseKind.EXPONENTIAL, eps1, eps2, q=q)
        got = (g.eps_dp, g.rho_zcdp, g.gamma_range_bounded)
        for value, exact in zip(got, exact_costs(query_class, e1, e2, fq)):
            assert value > 0 and is_rounded_up(value, exact)
    budget = multi_quantile_guarantee(7, eps1, eps2, NoiseKind.EXPONENTIAL)
    mono_eps, mono_rho, _ = exact_costs(QueryClass.MONOTONIC, e1, e2, None)
    fixed_eps, fixed_rho, _ = exact_costs(QueryClass.FIXED_THRESHOLD_COUNT, e1, e2, None)
    per_eps, per_rho = max(mono_eps, 2 * fixed_eps), max(mono_rho, 2 * fixed_rho)
    for value, exact in [
        (budget.per_level.eps_dp, per_eps),
        (budget.per_level.rho_zcdp, per_rho),
        (budget.total.eps_dp, budget.levels * per_eps),
        (budget.total.rho_zcdp, budget.levels * per_rho),
    ]:
        assert value > 0 and is_rounded_up(value, exact)


def test_zcdp_conversions_round_up():
    assert zcdp_of_dp(1e-300) == 5e-324
    assert compose_zcdp([0.1, 0.7]) == 0.8 and 0.1 + 0.7 < 0.8
    assert zcdp_of_dp(math.inf) == math.inf and compose_zcdp([1.0, math.inf]) == math.inf
    assert compose_dp([0.1, 0.7]) == 0.8 and compose_dp([1.0, math.inf]) == math.inf
    with pytest.raises(ValueError, match="eps values"):
        compose_dp([0.1, -0.2])


@settings(max_examples=300, deadline=None)
@given(
    eps1=st.floats(min_value=MIN_NOISE_EPS, max_value=1e308),
    eps2=st.floats(min_value=MIN_NOISE_EPS, max_value=1e308),
    # q and 1 - q in (0, 1), as an add-subtract claim needs
    q=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).filter(lambda q: 1.0 - q < 1.0),
    neighbor=st.sampled_from(list(NeighborModel)),
)
# the float sum of these two claims, 7.062238730135482, is below their exact sum
@example(
    eps1=2.942697662940928,
    eps2=2.059770533597277,
    q=0.64745009074246,
    neighbor=NeighborModel.ADD_SUBTRACT,
)
def test_the_unbounded_total_is_at_least_the_exact_cost_of_both_runs(eps1, eps2, q, neighbor):
    # the total `uqe quantile` prints without bounds: the composed claims of
    # the run at q and the run at 1 - q
    req = QuantileRequest(q, eps1, eps2, neighbor=neighbor)
    runs = [req, replace(req, q=1.0 - req.q)]
    claims = [request_guarantee(r).eps_dp for r in runs]
    total = compose_dp(claims)
    if math.inf in claims:  # a claim past the float range, and so the total
        assert total == math.inf
    else:
        assert is_rounded_up(total, sum(map(Fraction, claims)))
    query_class = (
        QueryClass.MONOTONIC if neighbor is NeighborModel.SWAP else QueryClass.COUNT_MINUS_QN
    )
    e1, e2 = Fraction(eps1), Fraction(eps2)
    assert total >= sum(exact_costs(query_class, e1, e2, Fraction(r.q))[0] for r in runs)


def test_exact_gumbel_ratios_below_clamped_loss():
    rng = np.random.default_rng(15)
    for _ in range(800):
        k = int(rng.integers(1, 7))
        fx = rng.uniform(-3, 3, k)
        fxp = fx + rng.uniform(-1, 1, k)
        t = float(rng.uniform(-3, 3))
        eps = float(rng.uniform(0.2, 2.0))
        # the exact max over the halts of ln(P_x(k) / P_x'(k))
        log_ratios = gumbel_outcome_log_pmf(fx, t, eps) - gumbel_outcome_log_pmf(fxp, t, eps)
        exact = log_ratios[1:].max()
        assert exact <= one_sided_loss(fx, fxp, eps, eps) + 1e-9


def test_relaxed_gap_is_not_a_pointwise_bound():
    # regression: the relaxed variant can undershoot the exact ratio, the
    # clamped default cannot (see the decisions ledger for the derivation)
    fx, fxp, t = [0.1, 1.0], [0.0, 0.0], 10.0
    log_ratios = gumbel_outcome_log_pmf(fx, t, 1.0) - gumbel_outcome_log_pmf(fxp, t, 1.0)
    exact = log_ratios[1:].max()
    relaxed = relaxed_one_sided_loss(fx, fxp, 1.0, 1.0)
    clamped = one_sided_loss(fx, fxp, 1.0, 1.0)
    assert relaxed == pytest.approx(0.8)
    assert clamped == pytest.approx(1.0)
    assert relaxed < exact <= clamped
    assert exact == pytest.approx(0.99990, abs=1e-4)


def test_relaxed_equals_clamped_on_nonnegative_prefix_gaps():
    rng = np.random.default_rng(16)
    for _ in range(200):
        k = int(rng.integers(1, 8))
        fx = rng.uniform(-5, 5, k)
        fxp = fx + rng.uniform(0, 1, k)  # x' dominates: gaps never negative
        a = relaxed_one_sided_loss(fx, fxp, 0.5, 1.5)
        b = one_sided_loss(fx, fxp, 0.5, 1.5)
        assert a == pytest.approx(b, abs=1e-12)


def test_loss_input_validation():
    with pytest.raises(ValueError):
        one_sided_loss([1.0], [1.0, 2.0], 1.0, 1.0)
    with pytest.raises(ValueError):
        one_sided_loss([], [], 1.0, 1.0)
    with pytest.raises(ValueError):
        one_sided_loss([1.0], [1.0], 0.0, 1.0)


def _counting_runner(values_t):
    values, t = values_t

    def run(dataset, rng, trials):
        cfg = SvtConfig(0.5, 0.5, NoiseKind.EXPONENTIAL, t)
        return simulate_halt_indices(dataset, cfg, rng, trials)

    return run


def test_empirical_check_identical_inputs_pass():
    values = np.array([1.0, 3.0, 5.0, 7.0])
    run = _counting_runner((values, 4.0))
    report = empirical_dp_check(run, values, values, 0.1, 120_000, RandomSource(31))
    assert report.passed
    assert abs(report.max_log_ratio) < 0.1
    assert isinstance(report, EmpiricalDpReport)
    assert report.trials == 120_000


def test_empirical_check_monotonic_counting_pair():
    # swap one point in a small dataset; claimed eps = eps1 + eps2 = 1
    data = np.array([2.0, 5.0, 9.0, 14.0, 20.0])
    neighbor = np.array([2.0, 5.0, 9.0, 14.0, 3.0])
    powers = 2.0 ** np.arange(1, 8)

    def run(dataset, rng, trials):
        counts = (np.asarray(dataset)[None, :] < powers[:, None]).sum(axis=1)
        cfg = SvtConfig(0.5, 0.5, NoiseKind.EXPONENTIAL, 2.5)
        return simulate_halt_indices(counts.astype(float), cfg, rng, trials)

    report = empirical_dp_check(run, data, neighbor, 1.0, 150_000, RandomSource(33))
    assert report.passed


def test_empirical_check_flags_gross_violation():
    def run(dataset, rng, trials):
        return np.full(trials, int(dataset))

    report = empirical_dp_check(run, 0, 1, 1.0, 100_000, RandomSource(35))
    assert not report.passed
    assert report.violation_lcb > 5.0


def test_empirical_check_requires_enough_trials():
    with pytest.raises(ValueError):
        empirical_dp_check(lambda d, r, t: np.zeros(t), 0, 0, 1.0, 50_000, RandomSource(1))


def test_enum_parsing():
    # the CLI converts its option values with the enum constructors
    assert NeighborModel("add-subtract") is NeighborModel.ADD_SUBTRACT
    assert NeighborModel("swap") is NeighborModel.SWAP
    assert QueryClass("count-minus-qn") is QueryClass.COUNT_MINUS_QN
    with pytest.raises(ValueError):
        NeighborModel("zipper")
    g = PrivacyGuarantee(eps_dp=1.0)
    assert asdict(g) == {"eps_dp": 1.0, "rho_zcdp": None, "gamma_range_bounded": None}
