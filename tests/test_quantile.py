"""Tests for the grid, histogram, query stream and the quantile estimators.

Frozen oracle values (computed from literal definitions, independent of the
module under test):
  - bucket of y=11 at beta=2 by repeated multiplication: 3 (2^3 <= 11 < 2^4)
  - noiseless run on {1..100}, q=0.5, beta=1.1, ell=1: halts at k=42 with
    output 54.763699237493057 (brute minimal-k scan)
  - grid value at k=10, beta=1.001: 1.0100451202102509 for ell=1 and
    0.010045120210250946 for ell=0 (ten repeated multiplications)
  - unbounded run on all-negative {-1..-10}, q=0.9, noiseless: first call
    halts at 0, second call halts at k=8, output -(1.1^8 - 1)
Bucket indices and powers are checked against the model in reference.py.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqe import quantile
from uqe.accounting import NeighborModel
from uqe.noise import NoiseKind, RandomSource
from uqe.quantile import (
    Dataset,
    GeometricGrid,
    LogBucketHistogram,
    QuantileRequest,
    build_histogram,
    counting_query_stream,
    estimate_multiple_quantiles,
    estimate_quantile,
    estimate_quantile_unbounded,
    estimate_small_quantile_inverted,
    request_guarantee,
)
from uqe.aggregates import SumConfig, dp_sum
from uqe.bench import ExperimentSpec, run_quantile_experiment
from uqe.emq import BoundedRange
from uqe.sparse_vector import (
    DEFAULT_MAX_QUERIES,
    MIN_NOISE_EPS,
    QueryStream,
    SvtConfig,
    run_above_threshold,
    stream_prefix,
)

import reference


def test_bucket_frozen_values():
    grid = GeometricGrid(2.0, 0.0)
    assert grid.max_index_at_most(grid.shift(np.array([10.0]))[0]) == 3
    assert grid.max_index_at_most(1.0) == 0  # x == ell


def test_bucket_indices_match_oracle():
    rng = np.random.default_rng(21)
    for beta in [1.001, 1.01, 1.1, 2.0]:
        grid = GeometricGrid(beta, 0.0)
        y = np.exp(rng.uniform(0, np.log(5e4), 400))
        got = grid.bucket_indices(y)
        assert got.tolist() == reference.bucket(beta, y).tolist()


def test_bucket_boundary_points_exact():
    # y exactly beta^j must land in bucket j (strict upper inequality)
    for beta in [1.001, 1.1, 2.0]:
        grid = GeometricGrid(beta, 0.0)
        for j in [0, 1, 7, 100, 953]:
            assert grid.max_index_at_most(grid.power(j)) == j


def edge_neighbourhood(edges):
    """Each finite edge >= 1 and the doubles just below and just above it."""
    edges = edges[np.isfinite(edges)]
    pts = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    return pts[pts >= 1.0]


# beta from 1 + 2^-40 to 1e10, data magnitude, and limit. A limit of a
# million, which no point here reaches, only where the cache stays under a
# million powers. At 1 + 2^-40, and at 1 + 1e-9 with the 200,000 limit or
# near 1e300, the bound is too wide to trust any guess (delta >= 1/8) in
# some blocks or all, and their points are bucketed by binary search alone.
EDGE_CASES = [
    (beta, magnitude, limit)
    for beta in [1 + 2.0**-40, 1 + 1e-9, 1.0001, 1.001, 1.01, 2.0, 1e10]
    for magnitude in [10.0, 1e6, 1e300]
    for limit in [1_000_000, 50, 200_000]
    if limit != 1_000_000 or math.log(magnitude) / math.log(beta) < 1e6
]


@pytest.mark.parametrize("beta, magnitude, limit", EDGE_CASES)
def test_bucketing_is_exact_at_every_cached_edge(beta, magnitude, limit):
    grid = GeometricGrid(beta, 0.0)
    top = math.log(magnitude) / math.log(beta)
    last = min(int(top) + 2, limit + 1)
    rng = np.random.default_rng(24)
    y = np.concatenate(
        [
            edge_neighbourhood(reference.powers(beta, last)),
            edge_neighbourhood(np.array([magnitude])),
            np.exp(rng.uniform(0.0, math.log(magnitude), 5000)),
        ]
    )
    # sorted, so each block of the build below has its own largest guess
    y.sort()
    assert np.array_equal(grid.bucket_indices(y, limit), reference.bucket(beta, y, limit))
    x = y - 1.0
    hist = build_histogram(x, beta, 0.0, limit)
    buckets, counts = np.unique(reference.bucket(beta, x + 1.0, limit), return_counts=True)
    assert np.array_equal(hist.buckets, buckets)
    assert np.array_equal(hist.running, np.cumsum(counts))


@pytest.mark.parametrize("beta", [1 + 2.0**-40, 1 + 1e-9])
@pytest.mark.parametrize("past", ["every point", "some points"])
def test_points_past_the_limit_take_it_without_a_search(monkeypatch, beta, past):
    # with the 200,000 cap these betas leave no guess trusted (delta >= 1/8),
    # so every point below P_limit is searched and only those
    limit = 200_000
    grid = GeometricGrid(beta, 0.0)
    pows = reference.powers(beta, limit)
    rng = np.random.default_rng(25)
    y = np.exp(rng.uniform(math.log(pows[limit]), math.log(1e6), 5000))
    y = np.append(y, [pows[limit], np.nextafter(pows[limit], np.inf)])
    if past == "some points":
        y = np.concatenate(
            [y, edge_neighbourhood(pows[limit - 50 :]), rng.uniform(1.0, pows[limit], 1000)]
        )
    want = reference.bucket(beta, y, limit)
    searched = []
    search = np.searchsorted

    def counted(a, v, side="left", sorter=None):
        searched.append(np.size(v))
        return search(a, v, side, sorter)

    monkeypatch.setattr(np, "searchsorted", counted)
    got = grid.bucket_indices(y, limit)
    hist = build_histogram(y - 1.0, beta, 0.0, limit)
    monkeypatch.undo()
    assert np.array_equal(got, want)
    below = np.count_nonzero(y < pows[limit])
    assert (below == 0) == (past == "every point")
    # once by bucket_indices, once by the build, which has one block here
    assert sum(searched) == 2 * below
    buckets, counts = np.unique(reference.bucket(beta, (y - 1.0) + 1.0, limit), return_counts=True)
    assert np.array_equal(hist.buckets, buckets)
    assert np.array_equal(hist.running, np.cumsum(counts))


POINTS = st.lists(
    st.one_of(st.floats(1.0, 1e300), st.tuples(st.integers(0, 3000), st.integers(-2, 2))),
    min_size=1,
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(
    beta=st.one_of(
        st.sampled_from([1 + 2.0**-40, 1 + 1e-9, 1.001, 1.01, 2.0, 1e10]),
        st.floats(1 + 2.0**-40, 1e10),
    ),
    points=POINTS,
    limit=st.one_of(st.just(1_000_000), st.integers(1, 200_000)),
)
def test_bucketing_matches_the_model(beta, points, limit):
    # a point is a double >= 1, or cached edge k moved by j ulps
    grid = GeometricGrid(beta, 0.0)
    pows = reference.powers(beta, 3000)
    y = []
    for p in points:
        if isinstance(p, tuple):
            k, j = p
            p = pows[k]
            for _ in range(abs(j)):
                p = np.nextafter(p, np.inf if j > 0 else 0.0)
        if 1.0 <= p < np.inf:
            y.append(p)
    if not y:
        y = [1.0]
    y = np.array(y)
    if limit == 1_000_000 and math.log(y.max()) / math.log(beta) > 1e6:
        limit = 200_000
    assert np.array_equal(grid.bucket_indices(y, limit), reference.bucket(beta, y, limit))


def test_shift_at_a_zero_lower_bound_is_subtract_then_add():
    x = np.array([-0.0, 0.0, 5e-324, 2.0**-60, 0.3, 1.0, 7.5, 2.0**53 + 2.0, 1e300, 1.7e308])
    for zero in (0.0, -0.0):
        want = np.subtract(x, zero) + 1.0
        assert GeometricGrid(1.01, zero).shift(x).tobytes() == want.tobytes()


def test_grid_values_and_validation():
    grid = GeometricGrid(1.001, 1.0)
    assert grid.value(10) == pytest.approx(1.0100451202102509, abs=0)
    assert GeometricGrid(1.001, 0.0).value(10) == pytest.approx(
        0.010045120210250946, abs=0
    )
    assert grid.power(10) == reference.power(1.001, 10)
    with pytest.raises(ValueError):
        GeometricGrid(1.0, 0.0)
    with pytest.raises(ValueError):
        grid.shift(np.array([0.5]))  # below ell
    assert grid.max_index_at_most(0.7) == -1
    assert grid.max_index_at_most(grid.power(5)) == 5


def test_grids_of_one_beta_share_their_powers_and_no_other_grid_sees_them():
    beta = 1.0 + 2.0**-31
    a, b = GeometricGrid(beta, 0.0), GeometricGrid(beta, -7.0)
    a.powers(300)
    assert np.shares_memory(a.powers(300), b.powers(300))
    other = GeometricGrid(np.nextafter(beta, 2.0), 0.0)
    assert not np.shares_memory(other.powers(300), a.powers(300))
    assert other.power(299) > a.power(299)
    for pows in (a.powers(300), b.powers(10), quantile._POWERS[beta]):
        assert not pows.flags.writeable
        with pytest.raises(ValueError):
            pows[0] = 2.0
    # the cache holds a fixed number of betas, dropping the one used longest ago
    for j in range(quantile._CACHED_BETAS + 3):
        GeometricGrid(1.5 + j / 64, 0.0).powers(50)
    assert len(quantile._POWERS) == quantile._CACHED_BETAS
    assert beta not in quantile._POWERS
    assert a.powers(300).tobytes() == GeometricGrid(beta, 0.0).powers(300).tobytes()


def test_lookups_in_increasing_order_copy_the_power_cache_log_times():
    # each lookup needs a power or two past the ones cached so far; a cache
    # grown to exactly the size asked for would be copied on every one
    beta = 1.0 + 2.0**-24
    quantile._POWERS.pop(beta, None)
    grid, copies, cache = GeometricGrid(beta, 0.0), 0, None
    try:
        for i in range(1, 20_000):
            grid.max_index_at_most(beta**i)
            if quantile._POWERS[beta] is not cache:
                copies, cache = copies + 1, quantile._POWERS[beta]
        assert 20_000 <= cache.size <= 2 * 20_002
        assert copies <= math.log2(cache.size) + 2
        # the same floats as one multiplication after another
        assert cache.tobytes() == reference.powers(beta, cache.size - 1).tobytes()
    finally:
        quantile._POWERS.pop(beta, None)


def test_histogram_holds_increasing_non_empty_buckets():
    grid = GeometricGrid(1.1, 0.0)
    hist = LogBucketHistogram(grid, [2, 5], [3, 4])
    assert dict(hist.counts) == {2: 3, 5: 1} and hist.n == 4
    # f_i, the points in buckets < i, for i = 1 .. 8
    assert stream_prefix(counting_query_stream(hist), 8).tolist() == [0, 0, 3, 3, 3, 4, 4, 4]
    bad = (([], []), ([-1], [1]), ([2, 2], [1, 2]), ([2, 5], [3, 3]), ([2], [0]))
    for buckets, running in bad:
        with pytest.raises(ValueError):
            LogBucketHistogram(grid, buckets, running)


def test_histogram_prefix_counts_match_direct_scan():
    rng = np.random.default_rng(22)
    for _ in range(20):
        ell = float(rng.uniform(-5, 5))
        data = ell + np.exp(rng.uniform(-3, 8, 500))
        beta = float(rng.choice([1.001, 1.01, 1.1]))
        hist = build_histogram(data, beta, ell)
        assert hist.n == 500
        assert sum(hist.counts.values()) == 500
        y = data - ell + 1
        # f_i, i = 1 .. 2500, of the stream the runner scans
        counts = stream_prefix(counting_query_stream(hist), 2500)
        for i in rng.integers(1, 2501, 25):
            i = int(i)
            assert counts[i - 1] == int((y < hist.grid.power(i)).sum())


def test_counting_stream_first_query_and_saturation():
    data = np.array([1.0, 1.5, 3.0, 80.0])
    hist = build_histogram(data, 2.0, 1.0)
    vals = stream_prefix(counting_query_stream(hist), 9)
    # f_1 counts bucket 0, i.e. y = x - ell + 1 in [1, 2): x in [1, 2)
    assert vals[0] == 2.0
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert vals[-1] == 4.0  # reaches n once beta^i clears max(y)


def test_swap_neighbors_move_counts_by_at_most_one_with_constant_sign():
    rng = np.random.default_rng(23)
    for _ in range(50):
        data = rng.uniform(0, 50, 40)
        other = data.copy()
        other[rng.integers(0, 40)] = rng.uniform(0, 50)
        fa = np.asarray(stream_prefix(counting_query_stream(build_histogram(data, 1.1, 0.0)), 60))
        fb = np.asarray(stream_prefix(counting_query_stream(build_histogram(other, 1.1, 0.0)), 60))
        diff = fa - fb
        assert set(np.unique(diff)).issubset({-1.0, 0.0, 1.0})
        assert not ((diff > 0).any() and (diff < 0).any())


def test_noiseless_estimate_frozen_instance():
    data = Dataset(np.arange(1, 101.0), lower_bound=1.0)
    req = QuantileRequest(q=0.5, eps1=0.5, eps2=0.5, beta=1.1)
    est = estimate_quantile(data, req, noiseless=True)
    assert est.halt_index == 42
    assert est.value == pytest.approx(54.763699237493057, abs=0)
    assert not est.exhausted


def test_noiseless_matches_order_statistic_oracle():
    # minimal halting k is the first power strictly above the ceil(T)-th
    # smallest shifted value; derived from the counting definition
    rng = np.random.default_rng(24)
    for _ in range(60):
        n = int(rng.integers(5, 400))
        data = rng.uniform(0, 300, n)
        q = float(rng.uniform(0.05, 0.95))
        beta = float(rng.choice([1.01, 1.1]))
        est = estimate_quantile(
            Dataset(data, 0.0), QuantileRequest(q=q, eps1=1, eps2=1, beta=beta), noiseless=True
        )
        t = q * n
        y_t = np.sort(data + 1.0)[int(np.ceil(t)) - 1]
        k, p = 1, beta
        while not p > y_t:
            k += 1
            p *= beta
        assert est.halt_index == k
        assert est.value == p - 1.0


def test_exhaustion_reports_cap_candidate():
    data = Dataset(np.arange(1, 101.0), lower_bound=1.0)
    req = QuantileRequest(q=0.9, eps1=1, eps2=1, beta=1.1, max_queries=3)
    est = estimate_quantile(data, req, noiseless=True)
    assert est.exhausted and est.halt_index is None
    assert est.value == pytest.approx(reference.power(1.1, 3), abs=0)


def test_private_estimate_mae_sanity():
    rng = RandomSource(40)
    data = rng.gen.uniform(0, 10, 1000)
    true = float(np.quantile(data, 0.9))
    req = QuantileRequest(q=0.9, eps1=0.5, eps2=0.5)
    errs = []
    for trial in range(100):
        est = estimate_quantile(Dataset(data, 0.0), req, rng.spawn(trial + 1))
        errs.append(abs(est.value - true))
    assert float(np.mean(errs)) < 1.0


def test_estimate_requires_lower_bound_and_rng():
    data = Dataset(np.array([1.0, 2.0]))
    req = QuantileRequest(q=0.5, eps1=1, eps2=1)
    with pytest.raises(ValueError):
        estimate_quantile(data, req, RandomSource(1))
    with pytest.raises(ValueError):
        estimate_quantile(Dataset(np.array([1.0, 2.0]), 0.0), req)


def test_estimate_with_a_nan_threshold_is_a_value_error():
    # it used to release the cap candidate as exhausted, on either path
    req = QuantileRequest.even_split(0.5, 1.0)
    hist = build_histogram(np.arange(1, 11.0), req.beta, 0.0, req.max_queries)
    with pytest.raises(ValueError, match="threshold"):
        quantile._release(hist, req, RandomSource(9), threshold=np.nan)
    with pytest.raises(ValueError, match="threshold"):
        quantile._release(hist, req, None, noiseless=True, threshold=np.nan)


def test_every_estimator_run_builds_its_config_through_the_trusted_constructor(monkeypatch):
    # SvtConfig._built checks nothing; conftest runs each config it builds
    # through SvtConfig(...) too, so every run here passes the public checks
    runs = []
    built = SvtConfig._built

    def counted(cls, eps1, eps2, noise, threshold):
        runs.append((eps1, eps2, noise, threshold))
        return built(eps1, eps2, noise, threshold)

    monkeypatch.setattr(SvtConfig, "_built", classmethod(counted))
    data = Dataset(np.arange(1, 11.0), lower_bound=0.0)
    req = QuantileRequest(q=0.3, eps1=0.4, eps2=0.6, noise=NoiseKind.LAPLACE)
    split = (0.4, 0.6, NoiseKind.LAPLACE)
    estimate_quantile(data, req, RandomSource(1))
    hist = build_histogram(data.values, req.beta, 0.0, req.max_queries)
    quantile._release(hist, req, RandomSource(1), threshold=7.5)
    estimate_small_quantile_inverted(data, 20.0, req, RandomSource(1))
    assert runs == [(*split, 3.0), (*split, 7.5), (*split, 7.0)]
    runs.clear()
    # mostly negative data: the first run halts at 0 and the second runs
    est = estimate_quantile_unbounded(Dataset(-np.arange(1, 11.0)), req, RandomSource(1))
    assert est.second_ran and runs == [(*split, 3.0), (*split, 7.0)]
    runs.clear()
    # a budget large enough that no slice comes out empty
    sharp = QuantileRequest(q=0.5, eps1=50.0, eps2=50.0, beta=1.01)
    many = Dataset(np.arange(1, 101.0), lower_bound=0.0)
    result = estimate_multiple_quantiles(many, [0.25, 0.5, 0.75], sharp, RandomSource(1))
    assert not any(result.empty_slice)
    assert runs == [(50.0, 50.0, NoiseKind.EXPONENTIAL, t) for t in (50.0, 25.0, 25.0)]
    runs.clear()
    dp_sum(np.arange(1, 11.0), SumConfig(eps=1.0, threshold_mode="n"), RandomSource(1))
    assert runs == [(0.5, 0.5, NoiseKind.EXPONENTIAL, 10.0)]


# one call of each entry that takes a run's budget, at eps per run (the
# even split of a UQE sum's or bench's eps gives each run eps / 2)
BUDGET_ENTRIES = {
    "QuantileRequest": lambda eps: estimate_quantile(
        Dataset(np.arange(1, 11.0), 0.0), QuantileRequest(0.5, eps, eps), RandomSource(1)
    ),
    "SvtConfig": lambda eps: run_above_threshold(
        QueryStream([0], [0.0], 100), SvtConfig(eps, eps, NoiseKind.LAPLACE, 5.0), RandomSource(1)
    ),
    "SumConfig": lambda eps: dp_sum(
        np.arange(1, 11.0) / 100, SumConfig(eps=2 * eps), RandomSource(1)
    ),
    "ExperimentSpec": lambda eps: run_quantile_experiment(
        ExperimentSpec(
            np.arange(1, 101.0) / 1000, "tiny", BoundedRange(0.0, 1.0),
            sample_size=10, outer_trials=2, inner_trials=2, eps_grid=(2 * eps,),
        )  # fmt: skip
    ),
}


@pytest.mark.parametrize("entry", list(BUDGET_ENTRIES))
def test_a_budget_whose_noise_overflows_a_float_is_a_value_error(entry):
    # below NOISE_REACH / DBL_MAX a noise value can pass the float range:
    # the quantile warned of an overflow and released from infinite noise
    assert 2.1e-307 < MIN_NOISE_EPS < 2.2e-307
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="below which its noise overflows a float"):
            BUDGET_ENTRIES[entry](1e-308)
        BUDGET_ENTRIES[entry](2.2e-307)


def test_request_validation_and_split():
    with pytest.raises(ValueError):
        QuantileRequest(q=1.5, eps1=1, eps2=1)
    with pytest.raises(ValueError):
        QuantileRequest(q=0.5, eps1=0, eps2=1)
    for eps in (np.inf, np.nan):
        with pytest.raises(ValueError, match="eps"):
            QuantileRequest(q=0.5, eps1=1, eps2=eps)
        with pytest.raises(ValueError, match="eps"):
            QuantileRequest.even_split(0.5, eps)
    with pytest.raises(ValueError):
        QuantileRequest(q=0.5, eps1=1, eps2=1, beta=0.999)
    with pytest.raises(ValueError):
        QuantileRequest(q=0.5, eps1=1, eps2=2, noise=NoiseKind.GUMBEL)
    req = QuantileRequest.even_split(0.9, 1.0)
    assert req.eps1 == req.eps2 == 0.5


def test_request_guarantee_by_neighbor_model():
    swap = QuantileRequest(q=0.9, eps1=0.5, eps2=0.5)
    assert request_guarantee(swap).eps_dp == pytest.approx(1.0)
    addsub = QuantileRequest(
        q=0.99, eps1=0.5, eps2=0.5, neighbor=NeighborModel.ADD_SUBTRACT
    )
    assert request_guarantee(addsub).eps_dp == pytest.approx(0.995)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.array([]))
    # non-finite values are named before any lower-bound check
    for bad in (np.nan, np.inf, -np.inf):
        for lower in (None, 0.0, np.nan):
            with pytest.raises(ValueError, match="values must be finite"):
                Dataset(np.array([1.0, bad]), lower_bound=lower)
    with pytest.raises(ValueError):
        Dataset(np.array([1.0, -2.0]), lower_bound=0.0)
    assert Dataset(np.array([3.0, 4.0]), 3.0).n == 2


def test_nan_lower_bound_is_rejected():
    # it used to be accepted, and the estimate released was nan
    with pytest.raises(ValueError, match="lower bound"):
        Dataset(np.array([1.0, 2.0, 3.0]), lower_bound=np.nan)
    with pytest.raises(ValueError, match="finite"):
        build_histogram(np.array([1.0, 2.0]), 1.01, np.nan)


def test_infinite_lower_bound_is_rejected():
    # it used to end in "AssertionError: bucket correction did not converge"
    with pytest.raises(ValueError, match="lower bound"):
        Dataset(np.array([1.0, 2.0]), lower_bound=-np.inf)
    with pytest.raises(ValueError, match="finite"):
        build_histogram(np.array([1.0, 2.0]), 1.01, -np.inf)


def test_overflowing_shift_is_rejected_without_a_warning():
    # 1e308 - (-1e308) + 1 overflows to inf, which has no bucket
    data = Dataset(np.array([1e308, 1.0]), lower_bound=-1e308)
    req = QuantileRequest.even_split(0.5, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            estimate_quantile(data, req, RandomSource(1))
        with pytest.raises(ValueError, match="finite"):
            GeometricGrid(1.01, -1e308).shift(np.array([1.0, 1e308]))


def test_nan_data_is_rejected_by_the_build_without_a_warning():
    # build_histogram takes raw arrays; NaN used to land in bucket 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lower in (0.0, -3.0):
            with pytest.raises(ValueError):
                GeometricGrid(1.01, lower).shift(np.array([2.0, np.nan]))
            for cap in (DEFAULT_MAX_QUERIES, 50):
                with pytest.raises(ValueError):
                    build_histogram(np.array([np.nan, 2.0, 7.0]), 1.01, lower, cap)


@pytest.mark.parametrize("bad", [0.5, -1.0, np.nan, np.inf, -np.inf])
def test_every_bucketing_path_rejects_values_without_a_bucket(bad):
    # one check per block: shift rejects NaN and y < 1 on the build path,
    # and the bucketing rejects NaN and inf after the log, which catches
    # the +inf that shift lets through for a lower bound >= 0
    grid = GeometricGrid(1.01, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            grid.bucket_indices(np.array([2.0, bad]))
        with pytest.raises(ValueError):
            build_histogram(np.array([2.0, bad - 1.0]), 1.01, 0.0)
        if bad != np.inf:
            with pytest.raises(ValueError):
                grid.shift(np.array([2.0, bad - 1.0]))
        if not np.isfinite(bad):
            # the sign split buckets |x| + 1, which is >= 1 for finite x
            with pytest.raises(ValueError):
                quantile._sign_split_totals(np.array([2.0, bad]), grid, 100)


def test_infinite_beta_is_rejected():
    # it used to be accepted, and the estimate released was inf
    with pytest.raises(ValueError, match="beta"):
        QuantileRequest.even_split(0.5, 1.0, beta=np.inf)
    with pytest.raises(ValueError, match="beta"):
        GeometricGrid(np.inf, 0.0)
    with pytest.raises(ValueError, match="beta"):
        build_histogram(np.array([1.0]), np.inf, 0.0)


class TestUnbounded:
    def test_all_zeros_outputs_first_candidate(self, noiseless):
        est = estimate_quantile_unbounded(
            Dataset(np.zeros(8)), QuantileRequest(q=0.5, eps1=1, eps2=1), noiseless
        )
        assert est.value == 1.001 - 1.0
        assert est.first_halt == 1 and not est.second_ran and not est.exhausted

    def test_nonnegative_data_matches_bounded_run_at_zero(self, noiseless):
        rng = np.random.default_rng(25)
        req = QuantileRequest(q=0.5, eps1=1, eps2=1, beta=1.01)
        for _ in range(100):
            data = rng.uniform(0, 50, int(rng.integers(3, 60)))
            unb = estimate_quantile_unbounded(Dataset(data), req, noiseless)
            bnd = estimate_quantile(Dataset(data, 0.0), req, noiseless)
            assert unb.value == bnd.value
            assert unb.first_halt == bnd.halt_index

    def test_negative_data_uses_second_call(self, noiseless):
        data = Dataset(-np.arange(1, 11.0))
        req = QuantileRequest(q=0.9, eps1=1, eps2=1, beta=1.1)
        est = estimate_quantile_unbounded(data, req, noiseless)
        assert est.first_halt == 0 and est.second_ran
        assert est.second_halt == 8
        assert est.value == -(reference.power(1.1, 8) - 1.0)

    def test_second_stream_is_written_only_for_the_second_run(self, noiseless, monkeypatch):
        # the sign split counts both signs in one pass, but writes the x <= 0
        # stream only once the first run halts at 0
        written = []
        split = quantile._sign_split_totals

        def counted(*args):
            first, second = split(*args)
            return first, lambda: written.append(second()) or written[-1]

        monkeypatch.setattr(quantile, "_sign_split_totals", counted)
        req = QuantileRequest(q=0.9, eps1=1, eps2=1, beta=1.1)
        est = estimate_quantile_unbounded(Dataset(np.arange(1, 11.0)), req, noiseless)
        assert est.first_halt > 0 and not est.second_ran and written == []
        est = estimate_quantile_unbounded(Dataset(-np.arange(1, 11.0)), req, noiseless)
        assert est.first_halt == 0 and est.second_ran and len(written) == 1

    def test_output_sign_cases(self, noiseless):
        # positive side, zero, negative side all reachable
        req = QuantileRequest(q=0.5, eps1=1, eps2=1)
        pos = estimate_quantile_unbounded(Dataset(np.full(9, 7.0)), req, noiseless)
        assert pos.value > 0
        neg = estimate_quantile_unbounded(Dataset(np.full(9, -7.0)), req, noiseless)
        assert neg.value < 0
        # half negative, half zero: first call halts at 0, second call lands
        # on a slightly negative candidate
        mixed = estimate_quantile_unbounded(
            Dataset(np.array([-1.0, -1.0, 0.0, 0.0])), req, noiseless
        )
        assert mixed.value <= 0

    def test_private_runs_compose_two_calls(self):
        data = Dataset(np.concatenate([np.full(50, -3.0), np.full(50, 4.0)]))
        req = QuantileRequest(q=0.2, eps1=2.0, eps2=2.0, beta=1.1)
        values = [
            estimate_quantile_unbounded(data, req, RandomSource(41, i)).value
            for i in range(50)
        ]
        assert any(v < 0 for v in values)  # mostly hits the negative branch


def test_inverted_small_quantile_mirrors_negated_run(noiseless):
    data = Dataset(np.arange(1, 101.0))
    req = QuantileRequest(q=0.05, eps1=1, eps2=1, beta=1.1)
    est = estimate_small_quantile_inverted(data, 100.0, req, noiseless)
    direct = estimate_quantile(
        Dataset(-data.values, -100.0),
        QuantileRequest(q=0.95, eps1=1, eps2=1, beta=1.1),
        noiseless=True,
    )
    assert est.value == -direct.value
    assert est.halt_index == direct.halt_index
    assert est.value == pytest.approx(3.9827662151275121)


class TestMultiQuantile:
    def test_single_quantile_reduces_to_plain_run(self, noiseless):
        data = Dataset(np.arange(1, 101.0), 1.0)
        req = QuantileRequest(q=0.5, eps1=1, eps2=1, beta=1.1)
        multi = estimate_multiple_quantiles(data, [0.5], req, noiseless)
        single = estimate_quantile(data, req, noiseless=True)
        assert multi.estimates == (single.value,)
        assert multi.budget.levels == 1

    def test_quartiles_land_near_truth_and_in_order(self, noiseless):
        data = Dataset(np.arange(1, 1001.0), 1.0)
        req = QuantileRequest(q=0.5, eps1=0.5, eps2=0.5, beta=1.001)
        result = estimate_multiple_quantiles(data, [0.25, 0.5, 0.75], req, noiseless)
        ests = np.asarray(result.estimates)
        assert (np.diff(ests) >= 0).all()
        for est, true in zip(ests, [250.75, 500.5, 750.25]):
            # within one grid step plus one data spacing of the true quartile
            assert abs(est - true) <= 1.0 + 0.001 * true
        assert result.budget.levels == 2
        assert not any(result.empty_slice)

    def test_private_outputs_monotone(self):
        data = Dataset(np.random.default_rng(26).uniform(0, 100, 400), 0.0)
        req = QuantileRequest(q=0.5, eps1=0.5, eps2=0.5, beta=1.01)
        for seed in range(20):
            result = estimate_multiple_quantiles(
                data, [0.1, 0.3, 0.5, 0.7, 0.9], req, RandomSource(42, seed)
            )
            assert (np.diff(result.estimates) >= 0).all()
            assert result.budget.levels == 3

    def test_empty_slice_reports_boundary(self, noiseless):
        # two far-apart clusters: the 0.45/0.55 pair straddles the gap, and
        # slices between successive estimates can be empty
        data = Dataset(np.concatenate([np.zeros(50), np.full(50, 1000.0)]), 0.0)
        req = QuantileRequest(q=0.5, eps1=1, eps2=1, beta=2.0)
        result = estimate_multiple_quantiles(data, [0.2, 0.4, 0.45, 0.48], req, noiseless)
        assert (np.diff(result.estimates) >= 0).all()

    def test_validation(self, noiseless):
        data = Dataset(np.arange(1, 11.0), 1.0)
        req = QuantileRequest(q=0.5, eps1=1, eps2=1)
        with pytest.raises(ValueError):
            estimate_multiple_quantiles(data, [0.5, 0.5], req, noiseless)
        with pytest.raises(ValueError):
            estimate_multiple_quantiles(data, [0.9, 0.1], req, noiseless)
        with pytest.raises(ValueError):
            estimate_multiple_quantiles(data, [0.0, 0.5], req, noiseless)
        with pytest.raises(ValueError):
            estimate_multiple_quantiles(data, [], req, noiseless)
        # NaN fails every order comparison; it used to pass as a level
        for qs in ([0.2, np.nan], [np.nan], [0.2, np.nan, 0.8], [np.nan, 0.5]):
            with pytest.raises(ValueError):
                estimate_multiple_quantiles(data, qs, req, noiseless)

    def test_add_subtract_neighbors_have_no_budget(self, noiseless):
        # the budget rests on a public n, which add-subtract neighbors lack
        data = Dataset(np.arange(1, 11.0), 1.0)
        req = QuantileRequest(q=0.5, eps1=1, eps2=1, neighbor=NeighborModel.ADD_SUBTRACT)
        with pytest.raises(ValueError, match="add-subtract"):
            estimate_multiple_quantiles(data, [0.25, 0.5, 0.75], req, noiseless)

    def test_left_children_shift_no_slice(self, noiseless, monkeypatch):
        # nine deciles make nine nodes: the root, three right children and
        # five left children, which read a prefix of their parent's shifted
        # slice; so only the root and the right children shift, each at its
        # own lower bound: the data's, then the estimates at 0.3, 0.5, 0.8
        lowers = []
        shift = GeometricGrid.shift

        def counting_shift(grid, values, out=None):
            lowers.append(grid.lower_bound)
            return shift(grid, values, out)

        monkeypatch.setattr(GeometricGrid, "shift", counting_shift)
        data = Dataset(RandomSource(38).gen.lognormal(2.0, 0.8, 2000), lower_bound=0.0)
        req = QuantileRequest.even_split(0.5, 1.0, beta=1.01)
        deciles = [j / 10 for j in range(1, 10)]
        result = estimate_multiple_quantiles(data, deciles, req, noiseless)
        assert not any(result.empty_slice)
        est = result.estimates
        assert lowers == [0.0, est[2], est[4], est[7]]
