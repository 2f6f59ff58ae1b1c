"""Release gate: nine numbered checks, one test each, with wall-clock budgets.

1. Monte Carlo halt frequencies match the closed-form Gumbel halt law.
2. The step-wise exponential mechanism is the Gumbel run in disguise, both
   as an algebraic identity and in simulation.
3. Privacy accounting: symbolic guarantees, numeric per-pair loss bounds,
   and empirical likelihood-ratio checks under two noise families.
4. The noiseless quantile run and the histogram's prefix counts agree with
   independent brute-force scans.
5. Histogram construction scales linearly in n and queries cost O(1).
6. The interval baseline's density changes with the assumed range while the
   grid estimator's density does not change at all.
7. Private-sum error bands on the census columns (skips without the CSV;
   test_uqe_sum_beats_emq_on_generated_data is its offline stand-in).
8. The interval baseline's PMF matches direct enumeration and simulation.
9. The benchmark command is byte-deterministic for a fixed seed.

Each test prints one ACCEPTANCE line on success and enforces its own time
budget. Statistical checks use fixed seeds, so reruns are reproducible.
"""

import json
import math
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from uqe.accounting import (
    NeighborModel,
    QueryClass,
    empirical_dp_check,
    guarantee_for,
    one_sided_loss,
)
from uqe.bench import ExperimentSpec, emit_pdf_figures, run_sum_experiment
from uqe.datasets import load_csv
from uqe.emq import BoundedRange, emq_interval_pmf, uqe_pdf_curve
from uqe.noise import NoiseKind, RandomSource
from uqe.quantile import (
    Dataset,
    QuantileRequest,
    build_histogram,
    counting_query_stream,
    estimate_quantile,
)
from uqe.sparse_vector import (
    SvtConfig,
    gumbel_halt_log_pmf,
    gumbel_no_halt_prob,
    simulate_halt_indices,
    simulate_iterative_em,
    stream_prefix,
)

from conftest import simulate_emq_choices

SMOKE = str(resources.files("uqe") / "data" / "smoke.csv")
CENSUS = Path(__file__).resolve().parent.parent / "data" / "census.csv"


def outcome_pmf(values, threshold, eps):
    """[P(no halt), P(halt at 1..K)] under Gumbel noise with eps1 = eps2 = eps."""
    return np.concatenate(
        (
            [gumbel_no_halt_prob(values, threshold, eps)],
            np.exp(gumbel_halt_log_pmf(values, threshold, eps)),
        )
    )


def max_z(pmf, outcomes, trials):
    freq = np.bincount(outcomes, minlength=pmf.size) / trials
    se = np.sqrt(np.maximum(pmf * (1.0 - pmf), 1e-12) / trials)
    return float(np.max(np.abs(freq - pmf) / se))


def test_acceptance_1_gumbel_closed_form():
    start = time.perf_counter()
    base = RandomSource(101)
    trials = 1_000_000
    worst = 0.0
    for i in range(20):
        gen = base.spawn(2 * i).gen
        k = int(gen.integers(2, 7))
        values = gen.uniform(-3.0, 3.0, size=k)
        threshold = float(gen.uniform(-3.0, 3.0))
        pmf = outcome_pmf(values, threshold, 1.0)
        cfg = SvtConfig(1.0, 1.0, NoiseKind.GUMBEL, threshold)
        sim = simulate_halt_indices(values, cfg, base.spawn(2 * i + 1), trials)
        worst = max(worst, max_z(pmf, sim, trials))
    elapsed = time.perf_counter() - start
    assert worst < 4.0
    assert elapsed < 120.0
    print(
        f"ACCEPTANCE 1 (Gumbel closed-form halt law, 20 x 1e6 trials): "
        f"PASS (max z = {worst:.2f}, {elapsed:.1f}s)"
    )


def test_acceptance_2_iterative_em_equivalence():
    start = time.perf_counter()
    base = RandomSource(202)
    gen = base.spawn(0).gen
    worst_abs = 0.0
    for _ in range(1000):
        k = int(gen.integers(2, 7))
        values = gen.uniform(-3.0, 3.0, size=k)
        threshold = float(gen.uniform(-3.0, 3.0))
        eps = float(gen.uniform(0.4, 2.0))
        s = eps / 2.0
        w = np.exp(s * values)
        denom = math.exp(s * threshold) + np.cumsum(w)
        p_new = w / denom
        survive = np.concatenate(([1.0], np.cumprod(1.0 - p_new[:-1])))
        product_form = p_new * survive
        closed = np.exp(gumbel_halt_log_pmf(values, threshold, eps / 2.0))
        worst_abs = max(worst_abs, float(np.max(np.abs(product_form - closed))))
    assert worst_abs < 1e-12

    trials = 1_000_000
    worst_z = 0.0
    for i in range(5):
        inst = base.spawn(100 + 3 * i).gen
        k = int(inst.integers(2, 7))
        values = inst.uniform(-3.0, 3.0, size=k)
        threshold = float(inst.uniform(-3.0, 3.0))
        eps = float(inst.uniform(0.4, 2.0))
        pmf = outcome_pmf(values, threshold, eps / 2.0)
        em = simulate_iterative_em(values, threshold, eps, base.spawn(101 + 3 * i), trials)
        worst_z = max(worst_z, max_z(pmf, em, trials))
        cfg = SvtConfig(eps / 2.0, eps / 2.0, NoiseKind.GUMBEL, threshold)
        gumbel = simulate_halt_indices(values, cfg, base.spawn(102 + 3 * i), trials)
        worst_z = max(worst_z, max_z(pmf, gumbel, trials))
    elapsed = time.perf_counter() - start
    assert worst_z < 4.0
    assert elapsed < 180.0
    print(
        f"ACCEPTANCE 2 (step-EM = Gumbel run: identity to {worst_abs:.1e}, "
        f"MC max z = {worst_z:.2f}): PASS ({elapsed:.1f}s)"
    )


def _removal_count_pair(gen, q):
    """Counting queries minus q*n on a dataset and on it minus one point."""
    n = int(gen.integers(5, 200))
    data = np.sort(gen.uniform(0.0, 100.0, size=n))
    thresholds = np.sort(gen.uniform(0.0, 100.0, size=int(gen.integers(2, 40))))
    drop = int(gen.integers(0, n))
    counts = np.searchsorted(data, thresholds, side="left").astype(float)
    counts_removed = counts - (data[drop] < thresholds)
    fx = counts - q * n
    fxp = counts_removed - q * (n - 1)
    return fx, fxp


def is_rounded_up(value, exact):
    """value is the least double at or above the exact rational."""
    return Fraction(value) >= exact > Fraction(math.nextafter(value, -math.inf))


def test_acceptance_3_privacy_bounds():
    start = time.perf_counter()
    gen = RandomSource(303).spawn(0).gen

    # each claim is its formula's exact value on the input doubles, rounded up
    for _ in range(200):
        e1 = float(gen.uniform(0.05, 3.0))
        e2 = float(gen.uniform(0.05, 3.0))
        q = float(gen.uniform(0.01, 0.99))
        f1, f2, fq = Fraction(e1), Fraction(e2), Fraction(q)
        g = guarantee_for(
            QueryClass.GENERAL, NeighborModel.SWAP, NoiseKind.EXPONENTIAL, e1, e2
        )
        assert is_rounded_up(g.eps_dp, f1 + 2 * f2)
        g = guarantee_for(
            QueryClass.MONOTONIC, NeighborModel.SWAP, NoiseKind.EXPONENTIAL, e1, e2
        )
        assert is_rounded_up(g.eps_dp, f1 + f2)
        assert is_rounded_up(g.gamma_range_bounded, f1 + 2 * f2)
        assert is_rounded_up(g.rho_zcdp, (f1 / 2 + f2) ** 2 / 2)
        g = guarantee_for(
            QueryClass.COUNT_MINUS_QN,
            NeighborModel.ADD_SUBTRACT,
            NoiseKind.EXPONENTIAL,
            e1,
            e2,
            q=q,
        )
        assert is_rounded_up(g.eps_dp, max((1 - fq) * f1, fq * f1 + f2))
        g = guarantee_for(
            QueryClass.FIXED_THRESHOLD_COUNT,
            NeighborModel.ADD_SUBTRACT,
            NoiseKind.EXPONENTIAL,
            e1,
            e2,
        )
        assert is_rounded_up(g.eps_dp, max(f1, f2))
    gumbel_count = guarantee_for(
        QueryClass.COUNT_MINUS_QN,
        NeighborModel.ADD_SUBTRACT,
        NoiseKind.GUMBEL,
        0.5,
        0.5,
        q=0.99,
    )
    assert gumbel_count.eps_dp == pytest.approx(0.995)

    pairs_per_class = 2500
    for _ in range(pairs_per_class):
        e1 = float(gen.uniform(0.1, 2.0))
        e2 = float(gen.uniform(0.1, 2.0))
        k = int(gen.integers(1, 40))
        base_stream = np.cumsum(gen.uniform(-1.0, 1.0, size=k))

        shifted = base_stream + gen.uniform(-1.0, 1.0, size=k)
        bound = e1 + 2 * e2
        assert one_sided_loss(base_stream, shifted, e1, e2) <= bound + 1e-9
        assert one_sided_loss(shifted, base_stream, e1, e2) <= bound + 1e-9

        sign = 1.0 if gen.uniform() < 0.5 else -1.0
        mono = base_stream + sign * gen.uniform(0.0, 1.0, size=k)
        bound = e1 + e2
        assert one_sided_loss(base_stream, mono, e1, e2) <= bound + 1e-9
        assert one_sided_loss(mono, base_stream, e1, e2) <= bound + 1e-9

        q = float(gen.uniform(0.01, 0.99))
        fx, fxp = _removal_count_pair(gen, q)
        bound = max((1.0 - q) * e1, q * e1 + e2)
        assert one_sided_loss(fx, fxp, e1, e2) <= bound + 1e-9
        assert one_sided_loss(fxp, fx, e1, e2) <= bound + 1e-9

        fx, fxp = _removal_count_pair(gen, 0.0)
        bound = max(e1, e2)
        assert one_sided_loss(fx, fxp, e1, e2) <= bound + 1e-9
        assert one_sided_loss(fxp, fx, e1, e2) <= bound + 1e-9

    trials = 1_000_000
    data = np.array([2.0, 5.0, 9.0, 14.0, 20.0])
    swapped = np.array([2.0, 5.0, 9.0, 14.0, 3.0])
    thresholds = 2.0 ** np.arange(1, 8)
    details = []
    for j, noise in enumerate((NoiseKind.EXPONENTIAL, NoiseKind.LAPLACE)):
        def runner(dataset, rng, n):
            values = np.searchsorted(np.sort(dataset), thresholds, side="left")
            return simulate_halt_indices(
                values.astype(float), SvtConfig(0.5, 0.5, noise, 2.5), rng, n
            )

        report = empirical_dp_check(runner, data, swapped, 1.0, trials, RandomSource(303 + j))
        assert report.passed, f"{noise.value}: lcb {report.violation_lcb} > 1.0"
        details.append(f"{noise.value} lcb {report.violation_lcb:.3f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(
        "ACCEPTANCE 3 (symbolic guarantees, 1e4 pair bounds, empirical ratios "
        f"{'; '.join(details)} <= 1.0): PASS ({elapsed:.1f}s)"
    )


def test_acceptance_4_uqe_noiseless_oracle():
    start = time.perf_counter()
    gen = RandomSource(404).spawn(0).gen
    for _ in range(1000):
        beta = float(gen.choice([1.001, 1.01, 1.1]))
        lower = float(gen.choice([0.0, -4.0, 2.5]))
        n = int(gen.integers(1, 10_001))
        x = lower + gen.uniform(0.0, 50.0, size=n)
        q = float(gen.uniform(0.02, 0.98))

        est = estimate_quantile(
            Dataset(x, lower_bound=lower),
            QuantileRequest(q=q, eps1=0.5, eps2=0.5, beta=beta),
            noiseless=True,
        )
        y = (x - lower) + 1.0
        rank = int(math.ceil(q * n))
        target = float(np.partition(y, rank - 1)[rank - 1])
        k, power = 1, beta
        while power <= target:
            power *= beta
            k += 1
        assert est.halt_index == k
        assert est.value == (power + lower) - 1.0

        hist = build_histogram(x, beta, lower)
        horizon = k + 5
        from_stream = stream_prefix(counting_query_stream(hist), horizon)
        sorted_y = np.sort(y)
        idx = gen.integers(1, horizon + 1, size=100)
        powers = np.array([hist.grid.power(int(i)) for i in idx])
        direct = np.searchsorted(sorted_y, powers, side="left")
        assert np.array_equal(from_stream[idx - 1], direct.astype(float))
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(
        "ACCEPTANCE 4 (noiseless halt = brute-force scan, prefix counts = "
        f"direct scans, 1000 instances x 100 thresholds): PASS ({elapsed:.1f}s)"
    )


def _best_of(fn, repeats, clock=time.perf_counter):
    best = math.inf
    for _ in range(repeats):
        t0 = clock()
        fn()
        best = min(best, clock() - t0)
    return best


def test_acceptance_5_histogram_performance():
    import gc

    start = time.perf_counter()
    gen = RandomSource(505).gen
    data_large = gen.uniform(0.0, 100.0, size=1_000_000)
    data_small = data_large[:100_000]
    beta, lower = 1.01, 0.0

    build_histogram(data_small, beta, lower)
    build_histogram(data_large, beta, lower)
    # each pair times the two builds back to back in CPU time, which the
    # other processes of a shared host do not add to as they add to wall
    # time; the median drops outlier pairs, and a pause between pairs
    # spreads them over a few seconds, so that one slow spell of the host
    # cannot cover them all
    cpu = time.process_time
    ratios = []
    gc.disable()
    try:
        for i in range(9):
            if i:
                time.sleep(0.3)
            large = _best_of(lambda: build_histogram(data_large, beta, lower), 1, cpu)
            small = _best_of(lambda: build_histogram(data_small, beta, lower), 1, cpu)
            ratios.append(large / small)
    finally:
        gc.enable()
    ratio = statistics.median(ratios)
    assert 8.0 <= ratio <= 12.0, f"median build ratio {ratio:.2f} outside [8, 12]"

    hist_small = build_histogram(data_large[:1000], beta, lower)
    hist_large = build_histogram(data_large, beta, lower)
    horizon = 50_000
    stream_prefix(counting_query_stream(hist_small), horizon)
    stream_prefix(counting_query_stream(hist_large), horizon)
    gc.disable()
    try:
        per_small = _best_of(
            lambda: stream_prefix(counting_query_stream(hist_small), horizon), 3
        )
        per_large = _best_of(
            lambda: stream_prefix(counting_query_stream(hist_large), horizon), 3
        )
    finally:
        gc.enable()
    query_ratio = max(per_small, per_large) / min(per_small, per_large)
    assert query_ratio < 2.0, f"per-query ratio {query_ratio:.2f} >= 2"
    elapsed = time.perf_counter() - start
    assert elapsed < 180.0
    print(
        f"ACCEPTANCE 5 (build scales linearly: ratio {ratio:.1f} in [8,12]; "
        f"per-query within {query_ratio:.2f}x across n = 1e3 vs 1e6): PASS ({elapsed:.1f}s)"
    )


def test_acceptance_6_range_contrast_figure(tmp_path):
    start = time.perf_counter()
    data = RandomSource(606).gen.uniform(0.0, 10.0, size=100)
    q, eps = 0.9, 1.0

    narrow = emq_interval_pmf(data, BoundedRange(0.0, 10.0), q, eps)
    wide = emq_interval_pmf(data, BoundedRange(0.0, 20.0), q, eps)
    assert wide[-1] > narrow[-1]

    c1 = uqe_pdf_curve(data, 0.0, q, eps, beta=1.001)
    c2 = uqe_pdf_curve(data, 0.0, q, eps, beta=1.001)
    for a, b in ((c1.lefts, c2.lefts), (c1.rights, c2.rights), (c1.mass, c2.mass), (c1.density, c2.density)):
        assert a.tobytes() == b.tobytes()

    first = emit_pdf_figures(data, BoundedRange(0.0, 10.0), q, eps, 1.001, tmp_path, "narrow")
    second = emit_pdf_figures(data, BoundedRange(0.0, 20.0), q, eps, 1.001, tmp_path, "wide")
    assert first["uqe"].read_bytes() == second["uqe"].read_bytes()
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 6 (top-interval mass {narrow[-1]:.3g} -> {wide[-1]:.3g} as the "
        f"assumed range widens; grid curve byte-identical): PASS ({elapsed:.1f}s)"
    )


@pytest.mark.skipif(
    not CENSUS.exists(),
    reason="data/census.csv not present; see README for preparation. "
    "test_uqe_sum_beats_emq_on_generated_data checks the sum claim offline",
)
def test_acceptance_7_census_sum_bands():
    start = time.perf_counter()
    bands = {}
    for column, lo, hi in (("age", 52.0, 155.0), ("hours", 90.0, 271.0)):
        values = load_csv(CENSUS, column)
        spec = ExperimentSpec(
            data=values,
            name=column,
            declared_range=BoundedRange(0.0, 10_000.0),
            sample_size=1000,
            outer_trials=100,
            inner_trials=100,
            eps_grid=(1.0,),
            methods=("uqe",),
            perturb_scale=0.1,
            sum_beta=1.001,
            seed=707,
        )
        (record,) = run_sum_experiment(spec)
        assert lo < record.mae < hi, f"{column} MAE {record.mae:.2f} outside [{lo}, {hi}]"
        bands[column] = record.mae
    elapsed = time.perf_counter() - start
    assert elapsed < 900.0
    print(
        f"ACCEPTANCE 7 (census sums: age MAE {bands['age']:.1f} in [52,155], "
        f"hours MAE {bands['hours']:.1f} in [90,271]): PASS ({elapsed:.1f}s)"
    )


def test_uqe_sum_beats_emq_on_generated_data():
    """The paper's headline claim for private sums, offline: with the clip
    at a high quantile, UQE's sum error is below EMQ's. Two 20,000-point
    datasets are drawn here, so nothing is downloaded: lognormal with median
    40 and sigma 0.5, and normal "ages" (mean 40, sd 13) rounded and clipped
    to [17, 90]. Both methods run under the protocol of acceptance 7, with
    the declared range [0, 1e4], and UQE's MAE must be below EMQ's in every
    (dataset, eps) cell.

    run_sum_experiment reports only each cell's MAE, so this compares MAEs;
    a paired bootstrap over the outer resamples needs per-resample errors,
    which wait on the protocol's exact expected errors. The paper's claim
    for inner quantiles, that UQE often does better on real data, cannot be
    checked on generated data and is not tested here.
    """
    start = time.perf_counter()
    gen = np.random.default_rng(20231)
    datasets = {
        "lognormal": gen.lognormal(math.log(40.0), 0.5, 20_000),
        "ages": np.clip(np.rint(gen.normal(40.0, 13.0, 20_000)), 17.0, 90.0),
    }
    cells = []
    for name, values in datasets.items():
        spec = ExperimentSpec(
            data=values,
            name=name,
            declared_range=BoundedRange(0.0, 10_000.0),
            sample_size=1000,
            outer_trials=100,
            inner_trials=50,
            eps_grid=(0.5, 1.0, 2.0),
            seed=11,
        )
        mae = {(r.eps, r.method): r.mae for r in run_sum_experiment(spec)}
        for eps in spec.eps_grid:
            uqe, emq = mae[eps, "uqe"], mae[eps, "emq"]
            cells.append(f"{name} eps {eps:g} {uqe:.0f}/{emq:.0f}")
            assert uqe < emq, f"{name} at eps {eps}: UQE MAE {uqe} >= EMQ MAE {emq}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"SUM CLAIM (UQE/EMQ sum MAE, {'; '.join(cells)}): PASS ({elapsed:.2f}s)")


def test_acceptance_8_emq_enumeration_oracle():
    start = time.perf_counter()
    base = RandomSource(808)
    gen = base.spawn(0).gen
    for _ in range(400):
        n = int(gen.integers(1, 9))
        a = float(gen.uniform(-5.0, 0.0))
        b = float(gen.uniform(1.0, 10.0))
        data = np.sort(gen.uniform(a, b, size=n))
        q = float(gen.uniform(0.0, 1.0))
        eps = float(gen.uniform(0.2, 3.0))
        edges = np.concatenate(([a], data, [b]))
        weights = [
            math.exp(-eps * abs(j - q * n) / 2.0) * (edges[j + 1] - edges[j])
            for j in range(n + 1)
        ]
        expected = np.array(weights) / sum(weights)
        got = emq_interval_pmf(data, BoundedRange(a, b), q, eps)
        assert np.max(np.abs(got - expected)) < 1e-13

    trials = 1_000_000
    worst_z = 0.0
    for i in range(5):
        inst = base.spawn(50 + 2 * i).gen
        n = int(inst.integers(2, 9))
        data = np.sort(inst.uniform(0.0, 10.0, size=n))
        q = float(inst.uniform(0.1, 0.9))
        eps = float(inst.uniform(0.5, 2.0))
        pmf = emq_interval_pmf(data, BoundedRange(0.0, 10.0), q, eps)
        sim = simulate_emq_choices(
            data, BoundedRange(0.0, 10.0), q, eps, base.spawn(51 + 2 * i), trials
        )
        worst_z = max(worst_z, max_z(pmf, sim, trials))
    elapsed = time.perf_counter() - start
    assert worst_z < 4.0
    assert elapsed < 120.0
    print(
        f"ACCEPTANCE 8 (interval PMF = enumeration on 400 small instances; "
        f"MC max z = {worst_z:.2f}): PASS ({elapsed:.1f}s)"
    )


def test_acceptance_9_bench_determinism(tmp_path):
    start = time.perf_counter()
    outputs = []
    for name in ("one.json", "two.json"):
        out = tmp_path / name
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "uqe.cli",
                "bench",
                "--input",
                SMOKE,
                "--column",
                "value",
                "--range",
                "0",
                "10",
                "--sample-size",
                "100",
                "--outer",
                "5",
                "--qs",
                "0.25,0.5,0.75,0.9",
                "--seed",
                "909",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    rows = json.loads(outputs[0])
    assert len(rows) == 8
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(
        f"ACCEPTANCE 9 (bench rerun with fixed seed is byte-identical, "
        f"{len(outputs[0])} bytes): PASS ({elapsed:.1f}s)"
    )
