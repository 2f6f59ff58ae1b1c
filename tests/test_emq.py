"""Tests for the bounded-range exponential-mechanism quantile baseline.

Frozen oracle (direct enumeration, no log-space): data [1,2,3] in [0,10],
q = 0.5, eps = 1 gives interval probabilities
[0.088515608407427698, 0.14593756637028915, 0.14593756637028915,
 0.61960925885199392].
"""

import math

import numpy as np
import pytest

from uqe.emq import (
    BoundedRange,
    emq_estimate,
    emq_interval_pmf,
    emq_pdf_curve,
    simulate_emq_choices,
    uqe_pdf_curve,
)
from uqe.noise import RandomSource
from uqe.sparse_vector import DEFAULT_MAX_QUERIES


def enumeration_oracle(data, a, b, q, eps):
    xs = sorted(float(v) for v in data)
    edges = [a] + xs + [b]
    n = len(xs)
    ws = [
        math.exp(-eps * abs(j - q * n) / 2.0) * (edges[j + 1] - edges[j])
        for j in range(n + 1)
    ]
    tot = sum(ws)
    return [w / tot for w in ws]


def test_singleton_symmetric_case():
    pmf = emq_interval_pmf([5.0], BoundedRange(0, 10), 0.5, 1.0)
    assert pmf.tolist() == [0.5, 0.5]


def test_frozen_enumeration_instance():
    pmf = emq_interval_pmf([1.0, 2.0, 3.0], BoundedRange(0, 10), 0.5, 1.0)
    want = [
        0.088515608407427698,
        0.14593756637028915,
        0.14593756637028915,
        0.61960925885199392,
    ]
    assert pmf == pytest.approx(want, abs=1e-15)


def test_matches_enumeration_on_random_instances():
    rng = np.random.default_rng(50)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        data = np.sort(rng.uniform(0, 10, n))
        q = float(rng.uniform(0, 1))
        eps = float(rng.uniform(0.05, 4))
        pmf = emq_interval_pmf(data, BoundedRange(-1, 11), q, eps)
        want = enumeration_oracle(data, -1, 11, q, eps)
        assert pmf == pytest.approx(want, abs=1e-13)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)


def test_duplicates_give_zero_width_intervals_zero_mass():
    pmf = emq_interval_pmf([4.0, 4.0, 4.0], BoundedRange(0, 10), 0.5, 1.0)
    assert pmf[1] == 0.0 and pmf[2] == 0.0
    assert pmf.sum() == pytest.approx(1.0)


def test_large_n_underflow_safe():
    # raw weights exp(-eps*|j-qn|/2) underflow at n = 10^5; log-space must not
    data = np.linspace(0.001, 9.999, 100_000)
    pmf = emq_interval_pmf(data, BoundedRange(0, 10), 0.9, 1.0)
    assert np.isfinite(pmf).all()
    assert pmf.sum() == pytest.approx(1.0, abs=1e-9)
    assert pmf.max() > 0


def test_widening_range_inflates_top_interval():
    data = np.linspace(0.5, 9.5, 10)
    narrow = emq_interval_pmf(data, BoundedRange(0, 10), 0.9, 1.0)
    wide = emq_interval_pmf(data, BoundedRange(0, 20), 0.9, 1.0)
    assert wide[-1] > narrow[-1]


def test_rank_shift_invariance():
    rng = np.random.default_rng(51)
    data = rng.uniform(0, 10, 7)
    base = emq_interval_pmf(data, BoundedRange(0, 10), 0.3, 1.5)
    shifted = emq_interval_pmf(data + 100.0, BoundedRange(100, 110), 0.3, 1.5)
    assert shifted == pytest.approx(base, abs=1e-12)


def test_validation_errors():
    for a, b in ((1.0, 1.0), (-5.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0), (0.0, np.nan)):
        with pytest.raises(ValueError, match="range"):
            BoundedRange(a, b)
    with pytest.raises(ValueError):
        emq_interval_pmf([11.0], BoundedRange(0, 10), 0.5, 1.0)
    with pytest.raises(ValueError):
        emq_interval_pmf([5.0], BoundedRange(0, 10), 0.5, 0.0)
    with pytest.raises(ValueError):
        emq_interval_pmf([5.0], BoundedRange(0, 10), 1.5, 1.0)
    with pytest.raises(ValueError):
        emq_interval_pmf([], BoundedRange(0, 10), 0.5, 1.0)
    # NaN used to pass the range check and release NaN
    with pytest.raises(ValueError, match="outside the declared range"):
        emq_estimate([1.0, np.nan, 3.0], BoundedRange(0, 10), 0.5, 1.0, RandomSource(1))
    with pytest.raises(ValueError, match="outside the declared range"):
        emq_interval_pmf([np.nan], BoundedRange(0, 10), 0.5, 1.0)


@pytest.mark.parametrize(
    "q, eps",
    [(0.5, -1.0), (0.5, 0.0), (0.5, np.inf), (0.5, np.nan), (2.0, 1.0), (-0.5, 1.0), (np.nan, 1.0)],
)
def test_uqe_pdf_curve_rejects_invalid_eps_and_q(q, eps):
    # each used to return a curve: one whose mass sums to 1, or NaN mass with
    # only a RuntimeWarning
    with pytest.raises(ValueError, match="eps" if q == 0.5 else "q must"):
        uqe_pdf_curve(np.arange(1.0, 50.0), 0.0, q, eps)


def test_estimate_lands_in_selected_interval_distribution():
    data = [1.0, 2.0, 3.0]
    r = BoundedRange(0, 10)
    pmf = emq_interval_pmf(data, r, 0.5, 1.0)
    edges = np.array([0.0, 1.0, 2.0, 3.0, 10.0])
    rng = RandomSource(52)
    trials = 100_000
    draws = np.array([emq_estimate(data, r, 0.5, 1.0, rng) for _ in range(trials)])
    assert ((draws > 0) & (draws < 10)).all()
    hist = np.array([(edges[j] < draws).sum() - (edges[j + 1] < draws).sum() for j in range(4)])
    freq = hist / trials
    se = np.sqrt(pmf * (1 - pmf) / trials)
    assert (np.abs(freq - pmf) <= 5 * se + 1e-9).all()


def test_vectorized_simulator_matches_pmf():
    data = [1.0, 4.0, 4.5, 8.0]
    r = BoundedRange(0, 10)
    pmf = emq_interval_pmf(data, r, 0.7, 2.0)
    choices = simulate_emq_choices(data, r, 0.7, 2.0, RandomSource(53), 400_000)
    freq = np.bincount(choices, minlength=5) / 400_000
    se = np.sqrt(pmf * (1 - pmf) / 400_000)
    assert (np.abs(freq - pmf) <= 4 * se + 1e-9).all()


def test_pdf_curve_steps_integrate_to_one():
    data = [1.0, 2.0, 3.0]
    r = BoundedRange(0, 10)
    grid, density = emq_pdf_curve(data, r, 0.5, 1.0)
    assert grid.size == density.size == 1001
    pmf = emq_interval_pmf(data, r, 0.5, 1.0)
    # exact integral: density is constant per interval
    edges = np.array([0.0, 1.0, 2.0, 3.0, 10.0])
    gaps = np.diff(edges)
    dens = pmf / gaps
    assert float((dens * gaps).sum()) == pytest.approx(1.0, abs=1e-12)
    # the emitted grid samples the same step heights
    mid = np.searchsorted(edges, grid[1:-1], side="right") - 1
    assert density[1:-1] == pytest.approx(dens[mid])


def test_equal_gap_instance_decays_geometrically_in_rank():
    data = np.arange(1.0, 10.0)  # gaps all 1 inside [0, 10] bookends too
    pmf = emq_interval_pmf(data, BoundedRange(0, 10), 0.0, 2.0)
    ratios = pmf[1:] / pmf[:-1]
    assert ratios == pytest.approx(np.full(9, np.exp(-1.0)), rel=1e-9)


class TestUqeCurve:
    def test_range_free_and_mass_accounting(self):
        data = np.array([1.0, 3.0, 5.0, 7.0, 9.0])
        curve = uqe_pdf_curve(data, 0.0, 0.9, 1.0, beta=1.05)
        assert curve.mass.sum() + curve.residual == pytest.approx(1.0, abs=1e-9)
        assert curve.mass.sum() <= 1.0 + 1e-9
        assert (curve.density >= 0).all()
        # integral of the step function equals the emitted mass exactly
        widths = curve.rights - curve.lefts
        assert float((curve.density * widths).sum()) == pytest.approx(
            curve.mass.sum(), abs=1e-12
        )

    def test_curve_stops_at_the_query_cap(self):
        # uncapped, this curve has 6.9e6 intervals and a 600 MB peak
        curve = uqe_pdf_curve(np.array([1.0, 5.0, 1e300]), 0.0, 0.5, 1.0, beta=1.0001)
        assert curve.mass.size <= DEFAULT_MAX_QUERIES
        assert curve.mass.sum() + curve.residual == pytest.approx(1.0, abs=1e-9)

    def test_curve_identical_for_any_assumed_range(self):
        # the function does not take a range; equality of repeated calls is
        # the byte-level contract the figure harness relies on
        data = np.array([0.5, 2.0, 6.5])
        a = uqe_pdf_curve(data, 0.0, 0.9, 1.0)
        b = uqe_pdf_curve(data, 0.0, 0.9, 1.0)
        assert a.lefts.tolist() == b.lefts.tolist()
        assert a.mass.tolist() == b.mass.tolist()

    def test_mass_concentrates_near_target_quantile(self):
        data = np.linspace(0.5, 9.5, 200)
        curve = uqe_pdf_curve(data, 0.0, 0.9, 2.0, beta=1.01)
        peak = curve.lefts[int(np.argmax(curve.mass))]
        assert abs(peak - np.quantile(data, 0.9)) < 1.5
