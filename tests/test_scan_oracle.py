"""The block scan against the query-by-query reference it replaced.

The reference runners and streams below are the scalar loop and the dict
histogram the package used before its scan read queries a block at a time.
They stay here as oracles: for every noise kind, cap, threshold and seed the
block runner, which also skips the uniforms of queries that cannot reach
the noisy threshold, must halt at the same index and leave the Philox
generator in the same state, and the estimators must release the same
values through either runner. The unbounded estimator's two-build path (split off the
nonnegative points, negate the data for the second run, build a histogram
per run) stays here too, as the oracle of the one bucketing pass that now
serves both runs. The multi-quantile recursion that masked each node's
slice out of its parent's and built a histogram per node stays here as the
oracle of the one that sorts once and counts by binary search, and the
vectorized bucket lookup as the oracle of the scalar one. The block runner
as it read a dense array of query values stays here as the oracle of the
one that reads runs, on the streams every estimator builds. Also here: the
power cache against repeated multiplication, the capped histogram against
the uncapped one, sorted and bincounted bucket keys against each other, and
the resource bounds the cap and the sparse histogram give.
"""

import copy
import gc
import math
import time
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from uqe import quantile, sparse_vector
from uqe.accounting import multi_quantile_guarantee
from uqe.emq import uqe_pdf_curve
from uqe.noise import NOISE_REACH, NoiseKind, NoiseSpec, RandomSource, sample
from uqe.quantile import (
    Dataset,
    GeometricGrid,
    QuantileRequest,
    build_histogram,
    counting_query_stream,
    estimate_multiple_quantiles,
    estimate_quantile,
    estimate_quantile_unbounded,
    MultiQuantileResult,
    UnboundedEstimate,
    _sign_split_totals,
    _signed_stream,
    _sorted_stream,
)
from uqe.sparse_vector import (
    DEFAULT_MAX_QUERIES,
    QueryStream,
    SvtConfig,
    SvtOutcome,
    _first_within,
    gumbel_halt_log_pmf,
    run_above_threshold,
    run_above_threshold_noiseless,
    stream_prefix,
)

PROPERTY = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def iterate(stream):
    """Reference reader: the stream's values one at a time, run by run; the
    last run goes on forever unless the stream has a length."""
    starts, values = stream.starts.tolist(), stream.values.tolist()
    for start, end, value in zip(starts, starts[1:] + [stream.length], values):
        if end is None:
            while True:
                yield value
        yield from [value] * (end - start)


def scalar_above_threshold(stream, cfg, rng):
    """Reference: one noise draw and one comparison per query."""
    noisy_t = cfg.threshold + sample(NoiseSpec(cfg.noise, 1.0 / cfg.eps1), rng)
    query_spec = NoiseSpec(cfg.noise, 1.0 / cfg.eps2)
    for i, value in enumerate(iterate(stream), start=1):
        if value + sample(query_spec, rng) >= noisy_t:
            return SvtOutcome(i)
        if i >= stream.max_queries:
            break
    return SvtOutcome(None, stream.max_queries)


def scalar_noiseless(stream, threshold):
    for i, value in enumerate(iterate(stream), start=1):
        if value >= threshold:
            return SvtOutcome(i)
        if i >= stream.max_queries:
            break
    return SvtOutcome(None, stream.max_queries)


def dict_counting_values(counts, k, lead=None):
    """Reference stream: running sum of a {bucket: count} dict, one bucket
    per query, behind an optional leading count."""
    out = [] if lead is None else [float(lead)]
    running = 0 if lead is None else lead
    i = 1
    while len(out) < k:
        running += counts.get(i - 1, 0)
        out.append(float(running))
        i += 1
    return np.array(out)


def generator_state(rng):
    return repr(rng.gen.bit_generator.state)


def assert_same_run(make_stream, cfg, seed):
    a, b = RandomSource(seed, 1), RandomSource(seed, 1)
    assert run_above_threshold(make_stream(), cfg, a) == scalar_above_threshold(
        make_stream(), cfg, b
    )
    assert generator_state(a) == generator_state(b)


# caps at 1 and around the first two block edges (256, 256 + 512)
CAPS = st.one_of(
    st.sampled_from([1, 2, 255, 256, 257, 767, 768, 769]),
    st.integers(1, 3000),
)
KINDS = st.sampled_from(list(NoiseKind))


def config(kind, eps1, eps2, threshold):
    if kind is NoiseKind.GUMBEL:
        eps2 = eps1
    return SvtConfig(eps1, eps2, kind, threshold)


@PROPERTY
@given(
    kind=KINDS,
    eps1=st.floats(0.05, 5.0),
    eps2=st.floats(0.05, 5.0),
    length=st.integers(1, 2000),
    slope=st.floats(0.0, 3.0),
    threshold=st.floats(-50.0, 3000.0),
    cap=CAPS,
    seed=st.integers(0, 2**32 - 1),
)
def test_block_runner_matches_scalar_on_finite_streams(
    kind, eps1, eps2, length, slope, threshold, cap, seed
):
    values = slope * np.arange(length) + np.sin(np.arange(length))
    cfg = config(kind, eps1, eps2, threshold)
    assert_same_run(lambda: QueryStream.from_head(values, max_queries=cap), cfg, seed)


@PROPERTY
@given(
    kind=KINDS,
    eps=st.floats(0.05, 5.0),
    head=st.lists(st.integers(0, 40), max_size=600),
    tail=st.integers(0, 1000),
    threshold=st.floats(-20.0, 2000.0),
    cap=CAPS,
    seed=st.integers(0, 2**32 - 1),
)
def test_block_runner_matches_scalar_on_endless_streams(
    kind, eps, head, tail, threshold, cap, seed
):
    head = np.cumsum(head, dtype=float)
    cfg = config(kind, eps, eps / 2, threshold)
    assert_same_run(lambda: QueryStream.from_head(head, tail, max_queries=cap), cfg, seed)


@PROPERTY
@given(
    head=st.lists(st.floats(-100, 100), max_size=900),
    tail=st.one_of(st.none(), st.floats(-100, 100)),
    threshold=st.floats(-150, 150),
    cap=CAPS,
)
def test_noiseless_block_runner_matches_scalar(head, tail, threshold, cap):
    if not head and tail is None:
        head = [0.0]
    stream = QueryStream.from_head(head, tail, max_queries=cap)
    assert run_above_threshold_noiseless(stream, threshold) == scalar_noiseless(
        stream, threshold
    )


def test_cap_one_and_block_edges_exhaust_with_one_draw_per_query():
    for cap in (1, 255, 256, 257):
        stream = QueryStream.from_head([], -1e9, max_queries=cap)
        rng = RandomSource(5)
        out = run_above_threshold(stream, SvtConfig(1.0, 1.0, NoiseKind.LAPLACE, 0.0), rng)
        assert out == SvtOutcome(None, cap)
        ref = RandomSource(5)
        ref.uniform_open(cap + 1)
        assert generator_state(rng) == generator_state(ref)


# Streams with long stretches of queries that cannot reach the noisy
# threshold, so the runner skips their uniforms instead of drawing them.
# FAR is below any threshold these tests use by more than the noise can
# ever make up (38 b with b <= 20 for the query and the threshold noise).
FAR = -1e5
SKIP_CAPS = st.one_of(
    st.sampled_from([1, 1023, 1024, 1025, 4099, 20_000]), st.integers(1, 12_000)
)
SKIP_EPS = st.floats(0.05, 5.0)


@PROPERTY
@given(
    kind=KINDS,
    eps1=SKIP_EPS,
    eps2=SKIP_EPS,
    lead=st.integers(0, 6000),
    ramp=st.integers(1, 600),
    slope=st.floats(0.01, 3.0),
    threshold=st.floats(-50.0, 3000.0),
    cap=SKIP_CAPS,
    seed=st.integers(0, 2**32 - 1),
)
def test_runner_skips_a_long_head_below_the_threshold(
    kind, eps1, eps2, lead, ramp, slope, threshold, cap, seed
):
    ramp = threshold - 100.0 + slope * np.arange(ramp)
    head = np.concatenate((np.full(lead, threshold + FAR), ramp))
    cfg = config(kind, eps1, eps2, threshold)
    assert_same_run(lambda: QueryStream.from_head(head, max_queries=cap), cfg, seed)
    assert_same_run(lambda: QueryStream.from_head(head, ramp[-1], max_queries=cap), cfg, seed)


@PROPERTY
@given(
    kind=KINDS,
    eps1=SKIP_EPS,
    eps2=SKIP_EPS,
    length=st.integers(1, 8000),
    spikes=st.lists(st.tuples(st.integers(0, 7999), st.floats(-150.0, 60.0)), max_size=12),
    tail=st.one_of(st.none(), st.sampled_from([FAR, -80.0, -5.0, 0.0])),
    cap=SKIP_CAPS,
    seed=st.integers(0, 2**32 - 1),
)
def test_runner_finds_sparse_queries_within_reach_of_a_non_monotone_head(
    kind, eps1, eps2, length, spikes, tail, cap, seed
):
    # the threshold is 0; the head is far below it except at a few spikes
    head = np.full(length, FAR)
    head[::7] = 2.0 * FAR
    for at, value in spikes:
        if at < length:
            head[at] = value
    cfg = config(kind, eps1, eps2, 0.0)
    assert_same_run(lambda: QueryStream.from_head(head, tail, max_queries=cap), cfg, seed)


@PROPERTY
@given(
    kind=KINDS,
    eps=SKIP_EPS,
    length=st.integers(0, 9000),
    tail=st.floats(-100.0, 20.0),
    cap=SKIP_CAPS,
    seed=st.integers(0, 2**32 - 1),
)
def test_runner_skips_a_head_never_in_reach_to_a_tail_in_reach(kind, eps, length, tail, cap, seed):
    head = np.full(length, FAR)
    cfg = config(kind, eps, eps / 2, 0.0)
    assert_same_run(lambda: QueryStream.from_head(head, tail, max_queries=cap), cfg, seed)


@PROPERTY
@given(
    kind=KINDS,
    eps1=SKIP_EPS,
    eps2=SKIP_EPS,
    scale=st.sampled_from([2**53, 2**54, 2**60, 2**70]),
    offsets=st.lists(st.integers(-120, 40), min_size=1, max_size=3000),
    lead=st.integers(0, 3000),
    cap=SKIP_CAPS,
    seed=st.integers(0, 2**32 - 1),
)
def test_runner_matches_scalar_where_the_threshold_dwarfs_the_noise(
    kind, eps1, eps2, scale, offsets, lead, cap, seed
):
    # at thresholds of 2**53 and more, noisy threshold - reach rounds, and a
    # query a few float steps below the threshold can still hit by rounding
    threshold = float(scale)
    step = math.ulp(threshold)
    head = threshold + step * np.array([-10**6] * lead + offsets, dtype=float)
    cfg = config(kind, eps1, eps2, threshold)
    assert_same_run(lambda: QueryStream.from_head(head, max_queries=cap), cfg, seed)


def test_reach_test_rounds_as_the_hit_test_does():
    # 2**53 + 2 + 1 rounds to 2**53 + 4, so with a reach of 1 the query can
    # clear 2**53 + 4; testing f >= 2**53 + 4 - 1 would round up and skip it
    level = 2.0**53 + 4.0
    stream = QueryStream.from_head([2.0**53 - 8.0, 2.0**53 + 2.0])
    assert _first_within(stream, 0, 1.0, level) == 1
    assert _first_within(QueryStream.from_head([2.0**53]), 0, 1.0, level) == 1  # the cap: none


@pytest.mark.parametrize("cap", [1, 1023, 1024, 1025, 4099, 200_000])
@pytest.mark.parametrize("kind", list(NoiseKind))
def test_a_run_with_no_query_in_reach_exhausts_at_exactly_cap_draws(cap, kind):
    cfg = SvtConfig(1.0, 1.0, kind, 0.0)
    streams = [
        QueryStream.from_head([], FAR, max_queries=cap),
        QueryStream.from_head(np.full(cap, FAR), max_queries=cap),
        QueryStream.from_head(np.linspace(2 * FAR, FAR, 5000), FAR, max_queries=cap),
    ]
    for stream in streams:
        rng = RandomSource(6, 2)
        rng.gen.integers(0, 10)  # leaves a spare 32-bit half the run must keep
        ref = RandomSource(6, 2)
        ref.gen.integers(0, 10)
        assert run_above_threshold(stream, cfg, rng) == SvtOutcome(None, cap)
        ref.uniform_open(cap + 1)
        assert generator_state(rng) == generator_state(ref)


@pytest.mark.parametrize("kind", list(NoiseKind))
def test_a_scan_computes_noise_only_near_its_halt(kind, monkeypatch):
    # 1,000 points near 1e6 at beta = 1.001: the median halts near query
    # 13,800, and only the queries past the first one within reach get noise
    computed = []

    def counting_sample(spec, rng, size=None):
        out = sample(spec, rng, size)
        computed.append(np.size(out))
        return out

    monkeypatch.setattr(sparse_vector, "sample", counting_sample)
    x = RandomSource(40).gen.lognormal(math.log(1e6), 0.8, 1000)
    req = QuantileRequest.even_split(0.5, 1.0, beta=1.001, noise=kind)
    for seed in range(5):
        computed.clear()
        est = estimate_quantile(Dataset(x, lower_bound=0.0), req, RandomSource(41, seed))
        assert est.halt_index > 13_000
        assert sum(computed) <= 1024


def test_array_stream_is_freed_without_garbage_collection():
    # a reference cycle would keep every run's query arrays until a full collection
    gc.disable()
    try:
        stream = QueryStream.from_head(np.arange(10.0), 10.0)
        ref = weakref.ref(stream)
        del stream
        assert ref() is None
    finally:
        gc.enable()


def test_stream_prefix_rejects_a_short_stream():
    with pytest.raises(ValueError):
        stream_prefix(QueryStream.from_head([1.0, 2.0]), 3)


def test_max_queries_must_be_an_integer():
    with pytest.raises(ValueError):
        QueryStream.from_head([1.0], max_queries=2.5)
    with pytest.raises(ValueError):
        QuantileRequest(q=0.5, eps1=1.0, eps2=1.0, max_queries=2.5)


DATA = st.lists(
    st.floats(0.0, 1e7, allow_nan=False, allow_infinity=False), min_size=1, max_size=60
)
BETAS = st.sampled_from([1.001, 1.01, 1.1, 2.0])


@PROPERTY
@given(data=DATA, beta=BETAS, lower=st.floats(-5.0, 0.0), k=st.integers(1, 2500))
def test_dense_counting_stream_matches_dict_stream(data, beta, lower, k):
    hist = build_histogram(np.array(data), beta, lower)
    want = dict_counting_values(hist.counts, k)
    assert stream_prefix(counting_query_stream(hist), k).tobytes() == want.tobytes()
    assert [hist.prefix_count(i) for i in range(-1, k, 97)] == [
        0 if i <= 0 else int(want[i - 1]) for i in range(-1, k, 97)
    ]


def two_build_signed_stream(values, beta, max_queries):
    """Reference: the leading count of negatives, then the counting stream
    of the nonnegative points split off with a mask, built on their own."""
    negatives = int((values < 0).sum())
    nonneg = values[values >= 0]
    grid = GeometricGrid(beta, 0.0)
    above = np.zeros(0)
    if nonneg.size:
        hist = build_histogram(nonneg, beta, 0.0, max_queries)
        # through the last bucket, where the count reaches the points kept
        above = stream_prefix(counting_query_stream(hist), int(hist.buckets[-1]) + 1)
        grid = hist.grid
    lead = np.concatenate(([negatives], negatives + above))
    return QueryStream.from_head(lead, values.size, max_queries=max_queries), grid


def two_build_unbounded(data, req, rng, noiseless):
    """Reference: each run builds its own stream; the second negates the data."""

    def run(values, t):
        stream, grid = two_build_signed_stream(values, req.beta, req.max_queries)
        if noiseless:
            out = scalar_noiseless(stream, t)
        else:
            out = scalar_above_threshold(stream, SvtConfig(req.eps1, req.eps2, req.noise, t), rng)
        return (None if out.exhausted else out.index - 1), grid

    k1, grid1 = run(data.values, req.q * data.n)
    if k1 is None:
        return UnboundedEstimate(grid1.value(req.max_queries - 1), True, None, None, False)
    if k1 > 0:
        return UnboundedEstimate(grid1.power(k1) - 1.0, False, k1, None, False)
    k2, grid2 = run(-data.values, (1.0 - req.q) * data.n)
    if k2 is None:
        return UnboundedEstimate(-(grid2.value(req.max_queries - 1)), True, 0, None, True)
    if k2 > 0:
        return UnboundedEstimate(-(grid2.power(k2) - 1.0), False, 0, k2, True)
    return UnboundedEstimate(0.0, False, 0, 0, True)


# signed data with +0.0 and -0.0, one-signed and all-zero sets, and negatives
# far larger in magnitude than the positives
SIGNED = st.one_of(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=60),
    st.lists(st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0]), min_size=1, max_size=20),
    st.lists(st.floats(0.0, 1e6), min_size=1, max_size=30),
    st.lists(st.floats(-1e6, -0.0), min_size=1, max_size=30),
    st.lists(st.sampled_from([0.0, -0.0]), min_size=1, max_size=10),
    st.tuples(
        st.lists(st.floats(0.0, 10.0), min_size=1, max_size=30),
        st.lists(st.floats(-1e12, -1e6), min_size=1, max_size=30),
    ).map(lambda parts: parts[0] + parts[1]),
)


@st.composite
def signed_cases(draw):
    """(beta, data): SIGNED data plus points of either sign at bucket edges
    beta^k - 1 and one float step to each side of them."""
    beta = draw(BETAS)
    data = draw(SIGNED)
    pows = GeometricGrid(beta, 0.0).powers(1501)
    top = int(np.isfinite(pows).sum()) - 1
    edges = draw(st.lists(st.tuples(st.integers(0, top), st.integers(-1, 1)), max_size=20))
    for k, step in edges:
        x = pows[k] - 1.0
        x = np.nextafter(x, step * np.inf) if step else x
        data.append(float(x) * draw(st.sampled_from([1.0, -1.0])))
    return beta, data


SIGNED_CAPS = st.one_of(st.sampled_from([1, 255, 256, 257, 200_000]), st.integers(1, 5000))


@PROPERTY
@given(case=signed_cases(), cap=SIGNED_CAPS, k=st.integers(1, 2500))
def test_dense_signed_stream_matches_dict_stream(case, cap, k):
    beta, data = case
    values = np.array(data)
    nonneg, nonpos = _sign_split_totals(values, GeometricGrid(beta, 0.0), cap)
    # first run: the data as given; second run: the negated data
    for sparse, side in ((nonneg, values), (nonpos, -values)):
        stream = _signed_stream(*sparse, values.size, cap)
        kept = side[side >= 0]
        counts = build_histogram(kept, beta, 0.0, cap).counts if kept.size else {}
        want = dict_counting_values(counts, k, lead=int((side < 0).sum()))
        assert stream_prefix(stream, k).tobytes() == want.tobytes()
        ref, _ = two_build_signed_stream(side, beta, cap)
        assert stream_prefix(stream, k).tobytes() == stream_prefix(ref, k).tobytes()


@PROPERTY
@given(
    case=signed_cases(),
    kind=KINDS,
    q=st.floats(0.0, 1.0),
    cap=SIGNED_CAPS,
    seed=st.integers(0, 2**32 - 1),
)
def test_unbounded_estimator_matches_the_two_build_path(case, kind, q, cap, seed):
    beta, data = case
    req = QuantileRequest.even_split(q, 1.0, beta=beta, noise=kind, max_queries=cap)
    x = Dataset(np.array(data))

    def released(est):
        # the value's bytes too, so -0.0 and 0.0 count as different releases
        return est, np.float64(est.value).tobytes()

    assert released(estimate_quantile_unbounded(x, req, noiseless=True)) == released(
        two_build_unbounded(x, req, None, True)
    )
    a, b = RandomSource(seed, 3), RandomSource(seed, 3)
    assert released(estimate_quantile_unbounded(x, req, a)) == released(
        two_build_unbounded(x, req, b, False)
    )
    assert generator_state(a) == generator_state(b)


def mask_and_rebuild_multi(data, qs, req, rng=None, noiseless=False):
    """Reference: each node masks its slice out of its parent's and runs
    estimate_quantile on it, with a fresh Dataset, grid and histogram."""
    q_arr = np.asarray(qs, dtype=float)
    n_total, m = data.n, q_arr.size
    estimates = np.empty(m)
    exhausted = [False] * m
    empty = [False] * m

    def recurse(values, lo, hi, grid_lower, upper, mass_lo, fallback):
        if lo >= hi:
            return
        mid = lo + (hi - lo) // 2
        grid = GeometricGrid(req.beta, grid_lower)
        cap = req.max_queries
        if math.isfinite(upper):
            cap = min(cap, grid.max_index_at_most(upper - grid_lower + 1.0))
        if values.size == 0 or cap < 1:
            for j in range(lo, hi):
                estimates[j] = fallback
                empty[j] = True
            return
        t = (q_arr[mid] - mass_lo) * n_total
        est = estimate_quantile(
            Dataset(values, lower_bound=grid_lower),
            replace(req, max_queries=cap),
            rng,
            noiseless=noiseless,
            threshold=t,
        )
        estimates[mid] = est.value
        exhausted[mid] = est.exhausted
        recurse(values[values <= est.value], lo, mid, grid_lower, est.value, mass_lo, est.value)
        recurse(values[values > est.value], mid + 1, hi, est.value, upper, q_arr[mid], est.value)

    recurse(data.values, 0, m, data.lower_bound, math.inf, 0.0, data.lower_bound)
    return MultiQuantileResult(
        quantiles=tuple(float(q) for q in q_arr),
        estimates=tuple(float(v) for v in estimates),
        exhausted=tuple(exhausted),
        empty_slice=tuple(empty),
        budget=multi_quantile_guarantee(m, req.eps1, req.eps2, req.noise),
    )


@st.composite
def bounded_cases(draw):
    """(beta, lower, data): points >= lower drawn from a few values, so ties
    abound, plus the grid's candidates beta^k + lower - 1 and one float
    step to each side of them; +0.0 and -0.0 when lower <= 0."""
    beta = draw(BETAS)
    lower = draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e4, 1e4)))
    pool = draw(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=6))
    data = [lower + v for v in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))]
    if lower <= 0.0:
        data += draw(st.lists(st.sampled_from([0.0, -0.0]), max_size=5))
    grid = GeometricGrid(beta, lower)
    edges = draw(st.lists(st.tuples(st.integers(0, 1500), st.integers(-1, 1)), max_size=20))
    for k, step in edges:
        x = grid.value(k)
        x = float(np.nextafter(x, step * np.inf)) if step else x
        if lower <= x < np.inf:
            data.append(x)
    return beta, lower, data


BOUNDED_CAPS = st.one_of(
    st.sampled_from([1, 2, 255, 256, 257, DEFAULT_MAX_QUERIES]), st.integers(1, 3000)
)
QUANTILE_LISTS = st.one_of(
    st.lists(st.floats(0.001, 0.999), min_size=1, max_size=1),
    st.lists(st.floats(0.001, 0.999), min_size=2, max_size=9, unique=True).map(sorted),
)


@PROPERTY
@given(
    case=bounded_cases(),
    qs=QUANTILE_LISTS,
    kind=KINDS,
    eps=st.sampled_from([0.1, 1.0, 10.0]),
    cap=BOUNDED_CAPS,
    seed=st.integers(0, 2**32 - 1),
)
def test_multi_quantiles_match_the_mask_and_rebuild_path(case, qs, kind, eps, cap, seed):
    beta, lower, data = case
    x = Dataset(np.array(data), lower_bound=lower)
    req = QuantileRequest.even_split(0.5, eps, beta=beta, noise=kind, max_queries=cap)

    def released(result):
        # the estimates' bytes too, so -0.0 and 0.0 count as different releases
        return result, np.array(result.estimates).tobytes()

    assert released(estimate_multiple_quantiles(x, qs, req, noiseless=True)) == released(
        mask_and_rebuild_multi(x, qs, req, noiseless=True)
    )
    a, b = RandomSource(seed, 4), RandomSource(seed, 4)
    assert released(estimate_multiple_quantiles(x, qs, req, a)) == released(
        mask_and_rebuild_multi(x, qs, req, b)
    )
    assert generator_state(a) == generator_state(b)


@PROPERTY
@given(case=bounded_cases(), cap=BOUNDED_CAPS)
# fewer buckets than points (one binary search per bucket), and more
@example(case=(2.0, 0.0, [float(v) for v in range(60)]), cap=DEFAULT_MAX_QUERIES)
@example(case=(1.001, 0.0, [1e6, 2e6, 3e6]), cap=DEFAULT_MAX_QUERIES)
def test_sorted_counts_are_the_capped_build(case, cap):
    beta, lower, data = case
    x = np.array(data)
    grid = GeometricGrid(beta, lower)
    y = grid.shift(np.sort(x))
    for limit, hist in (
        (cap, build_histogram(x, beta, lower, cap)),
        (DEFAULT_MAX_QUERIES, build_histogram(x, beta, lower)),
    ):
        # one query past the last bucket reads n, as every later one does
        k = int(hist.buckets[-1]) + 2
        sorted_stream = _sorted_stream(grid, y, limit)
        want = stream_prefix(counting_query_stream(hist, limit), k)
        assert stream_prefix(sorted_stream, k).tobytes() == want.tobytes()


def dense_above_threshold(head, tail, cap, cfg, rng):
    """Reference: the block runner as it read a dense array of query values
    followed by a constant tail, before streams were stored as runs."""
    end = min(head.size, cap)

    def first_within(start, reach, level):
        size = sparse_vector._FIRST_QUERY_BLOCK
        while start < end:
            near = head[start : min(start + size, end)] + reach >= level
            i = int(near.argmax())
            if near[i]:
                return start + i
            start, size = start + near.size, min(2 * size, sparse_vector._MAX_QUERY_BLOCK)
        if start < cap and tail is not None and tail + reach >= level:
            return start
        return cap

    def window(start, stop):
        block = head[start:stop]
        return np.concatenate((block, np.full(stop - start - block.size, tail)))

    noisy_t = cfg.threshold + sample(NoiseSpec(cfg.noise, 1.0 / cfg.eps1), rng)
    query_spec = NoiseSpec(cfg.noise, 1.0 / cfg.eps2)
    reach = NOISE_REACH * query_spec.scale
    bit_generator = rng.gen.bit_generator
    drawn, size = 0, sparse_vector._FIRST_QUERY_BLOCK
    while (start := first_within(drawn, reach, noisy_t)) < cap:
        if start > drawn:
            rng.skip(start - drawn)
            size = sparse_vector._FIRST_QUERY_BLOCK
        stop = min(start + size, cap)
        vals = window(start, stop)
        saved = bit_generator.state
        hits = vals + sample(query_spec, rng, vals.size) >= noisy_t
        h = int(hits.argmax())
        if hits[h]:
            bit_generator.state = saved
            rng.skip(h + 1)
            return SvtOutcome(start + h + 1)
        drawn, size = stop, min(2 * size, sparse_vector._MAX_QUERY_BLOCK)
    rng.skip(cap - drawn)
    return SvtOutcome(None, cap)


def dense_view(stream):
    """(head, tail, cap) of a stream: its values through the start of its
    last run, then that run's value as the tail; a stream with a length
    has no tail."""
    if stream.length is not None:
        return stream_prefix(stream, stream.length), None, stream.max_queries
    head = stream_prefix(stream, int(stream.starts[-1]) + 1)
    return head, float(stream.values[-1]), stream.max_queries


def run_against_dense(stream, cfg, rng, seen):
    """run_above_threshold, after asserting that the dense-head runner from
    the same generator state halts alike and leaves the same state."""
    ref = copy.deepcopy(rng)
    out = run_above_threshold(stream, cfg, rng)
    assert dense_above_threshold(*dense_view(stream), cfg, ref) == out
    assert generator_state(ref) == generator_state(rng)
    seen.append(out)
    return out


def scan_every_estimator(data, beta, lower, q, kind, cap, seed):
    """Run the three estimators with every scan checked against the dense
    runner; returns the outcomes of all their scans."""
    seen = []
    req = QuantileRequest.even_split(q, 1.0, beta=beta, noise=kind, max_queries=cap)
    x = np.array(data)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            quantile, "run_above_threshold", lambda *args: run_against_dense(*args, seen)
        )
        rng = RandomSource(seed, 5)
        estimate_quantile(Dataset(x, lower_bound=lower), req, rng)
        estimate_quantile_unbounded(Dataset(x), req, rng)
        estimate_multiple_quantiles(Dataset(x, lower_bound=lower), [0.2, 0.5, 0.9], req, rng)
    return seen


@PROPERTY
@given(
    case=bounded_cases(),
    kind=KINDS,
    q=st.floats(0.0, 1.0),
    cap=BOUNDED_CAPS,
    seed=st.integers(0, 2**32 - 1),
)
def test_run_streams_scan_like_the_dense_head(case, kind, q, cap, seed):
    # the counting stream, both signed runs (lower <= 0 puts data on both
    # sides of zero) and the multi-quantile node streams
    beta, lower, data = case
    assert scan_every_estimator(data, beta, lower, q, kind, cap, seed)


@pytest.mark.parametrize("kind", list(NoiseKind))
def test_exhausted_and_capped_runs_scan_like_the_dense_head(kind):
    x = RandomSource(42).gen.lognormal(3.0, 1.0, 300) - 20.0
    lower = float(x.min())
    outcomes = []
    for cap, seed in ((1, 1), (3, 2), (40, 3), (300, 4), (700, 5), (DEFAULT_MAX_QUERIES, 6)):
        for q in (0.0, 0.5, 1.0):
            outcomes += scan_every_estimator(x, 1.01, lower, q, kind, cap, seed)
    assert any(o.exhausted for o in outcomes)
    assert any(o.index == 1 for o in outcomes)
    assert any(not o.exhausted and o.index > 1 for o in outcomes)


@PROPERTY
@given(
    kind=KINDS,
    runs=st.lists(
        st.tuples(st.integers(1, 400), st.floats(-150.0, 60.0)), min_size=1, max_size=40
    ),
    length=st.one_of(st.none(), st.integers(1, 9000)),
    cap=SKIP_CAPS,
    seed=st.integers(0, 2**32 - 1),
)
def test_non_monotone_runs_scan_like_the_dense_head(kind, runs, length, cap, seed):
    starts = np.cumsum([0] + [n for n, _ in runs[:-1]])
    if length is not None:
        length = max(length, int(starts[-1]) + 1)
    stream = QueryStream(starts, [v for _, v in runs], cap, length)
    run_against_dense(stream, config(kind, 1.0, 0.7, 0.0), RandomSource(seed, 6), [])


def test_multi_quantile_call_leaves_no_reference_cycles():
    # a cycle would keep the call's sorted copy of the data alive until a
    # full collection
    data = Dataset(RandomSource(38).gen.lognormal(2.0, 0.8, 2000), lower_bound=0.0)
    req = QuantileRequest.even_split(0.5, 1.0, beta=1.01)
    deciles = [j / 10 for j in range(1, 10)]
    gc.collect()
    gc.disable()
    try:
        estimate_multiple_quantiles(data, deciles, req, RandomSource(39))
        assert gc.collect() == 0
    finally:
        gc.enable()


def vector_max_index_at_most(grid, y):
    """Reference: the lookup through the vectorized bucket_indices."""
    out = np.full(y.size, -1, dtype=np.int64)
    out[y >= 1.0] = grid.bucket_indices(y[y >= 1.0])
    return out


@pytest.mark.parametrize("beta", [1.001, 1.01, 2.0, 1.0 + 1e-6])
def test_scalar_lookup_matches_the_vectorized_one(beta):
    grid = GeometricGrid(beta, 0.0)
    pows = grid.powers(100_001)
    pows = pows[np.isfinite(pows)]
    y = [pows, np.nextafter(pows, 0.0), np.nextafter(pows, np.inf)]
    if beta >= 1.001:
        # at 1 + 1e-6, y near 1e300 sits past bucket 6.9e8: a 5.5 GB cache
        k = grid.max_index_at_most(1e300)
        near = np.array([1e300, grid.power(k), grid.power(k + 1)])
        y += [near, np.nextafter(near, 0.0), np.nextafter(near, np.inf), [np.finfo(float).max]]
    y = np.concatenate(y)
    y = y[np.isfinite(y)]
    want = vector_max_index_at_most(grid, y)
    assert [grid.max_index_at_most(v) for v in y.tolist()] == want.tolist()


@pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
def test_scalar_lookups_reject_non_finite_values(y):
    grid = GeometricGrid(1.01, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            grid.max_index_at_most(y)


@pytest.mark.parametrize(
    "y",
    [
        [0.5],
        [3.0, 1.0 - 2**-53, 7.0],
        [0.0],
        [-0.0],
        [-2.0, 5.0],
        [math.nan, 5.0],
        [5.0, math.inf],
        [-math.inf],
        [math.nan],
        [1e300, math.inf],
    ],
)
def test_bucket_indices_rejects_values_below_one(y):
    grid = GeometricGrid(1.01, 0.0)
    # NaN and inf have no bucket either; all are rejected without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for limit in (None, 5):
            with pytest.raises(ValueError):
                grid.bucket_indices(np.array(y), limit)


@PROPERTY
@given(data=DATA, beta=BETAS, cap=st.integers(1, 3000))
def test_capped_histogram_reads_like_the_uncapped_one(data, beta, cap):
    full = build_histogram(np.array(data), beta, 0.0)
    capped = build_histogram(np.array(data), beta, 0.0, cap)
    assert capped.n == full.n
    assert capped.buckets[-1] <= cap
    assert stream_prefix(counting_query_stream(capped), cap).tobytes() == stream_prefix(
        counting_query_stream(full), cap
    ).tobytes()


@PROPERTY
@given(case=signed_cases(), cap=SIGNED_CAPS, block=st.integers(1, 70))
def test_sorted_and_bincounted_keys_build_the_same_histograms(case, cap, block):
    # _SORT_SPREAD -1 sorts every one-block build and inf sorts none; a
    # small _BUILD_BLOCK bincounts over many blocks that reuse one set of
    # buffers, the last block shorter than the others
    beta, data = case
    x = np.array(data)
    lower = float(x.min())

    def build(spread, block_size):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quantile, "_SORT_SPREAD", spread)
            mp.setattr(quantile, "_BUILD_BLOCK", block_size)
            hist = build_histogram(x, beta, lower, cap)
            split = _sign_split_totals(x, GeometricGrid(beta, 0.0), cap)
        arrays = [hist.buckets, hist.running] + [a for side in split for a in side]
        return [(a.dtype.str, a.tobytes()) for a in arrays]

    sorted_once = build(-1, 1 << 16)
    assert build(math.inf, 1 << 16) == sorted_once
    assert build(math.inf, block) == sorted_once


@pytest.mark.parametrize("beta", [1.0 + 1e-6, 1.001, 1.01, 1.5, 2.0])
def test_power_cache_is_repeated_multiplication(beta):
    grid = GeometricGrid(beta, 0.0)
    want, p = [], 1.0
    for _ in range(3000):
        want.append(p)
        p *= beta
    # grown piecewise, as the build and power() grow it
    grid.power(5)
    grid.powers(700)
    grid.power(1500)
    assert grid.powers(3000).tobytes() == np.array(want).tobytes()
    for i in (0, 17, 2999):
        assert grid.value(i) == want[i] + 0.0 - 1.0


def test_power_cache_overflows_to_inf_silently():
    grid = GeometricGrid(2.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pows = grid.powers(1100)
    assert np.isinf(pows[1024:]).all() and pows[1023] == 2.0**1023


def test_estimators_on_data_near_1e300_raise_no_warning():
    x = 1e300 * RandomSource(31).gen.uniform(1.0, 1.5, 300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q in (0.5, 1.0):
            req = QuantileRequest.even_split(q, 1.0, beta=1.01)
            estimate_quantile(Dataset(x, lower_bound=0.0), req, RandomSource(32))
            estimate_quantile_unbounded(Dataset(-x), req, RandomSource(33))
            estimate_multiple_quantiles(
                Dataset(x, lower_bound=0.0), [0.25, 0.75], req, RandomSource(34)
            )
        uqe_pdf_curve(x, 0.0, 0.5, 1.0, beta=1.01)


def test_grid_work_is_bounded_by_max_queries():
    # 1,000 points near 1e6 span 1.4e7 buckets at beta = 1 + 1e-6; a run
    # capped at 100 queries must not fill a power cache that long
    x = 1e6 + RandomSource(35).gen.uniform(0.0, 1e5, 1000)
    req = QuantileRequest.even_split(0.5, 1.0, beta=1.0 + 1e-6, max_queries=100)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        est = estimate_quantile(Dataset(x, lower_bound=0.0), req, RandomSource(36))
        unb = estimate_quantile_unbounded(Dataset(x), req, RandomSource(36))
        multi = estimate_multiple_quantiles(
            Dataset(x, lower_bound=0.0), [0.25, 0.5, 0.75], req, RandomSource(36)
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 2.0
    assert peak < 5e6
    grid = GeometricGrid(1.0 + 1e-6, 0.0)
    assert est.exhausted and est.value == grid.value(100)
    assert unb.exhausted and unb.value == grid.value(99)
    assert multi.estimates[1] == grid.value(100)


def test_a_warm_call_on_data_near_1e300_allocates_under_a_megabyte():
    # 1,000 points span buckets up to 691,000 at beta = 1.001; the call's
    # memory is bounded by n and the non-empty buckets, not by the grid
    x = 1e300 * RandomSource(44).gen.uniform(1.0, 1.5, 1000)
    data = Dataset(x, lower_bound=0.0)
    req = QuantileRequest.even_split(0.5, 1.0, beta=1.001, max_queries=710_000)
    estimate_quantile(data, req, RandomSource(45))  # fills the shared power cache
    tracemalloc.start()
    try:
        est = estimate_quantile(data, req, RandomSource(46))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not est.exhausted and est.halt_index > 690_000
    assert peak < 1e6


def uqe_pdf_reference(data, lower_bound, q, eps, beta, pad_steps=25):
    """The curve's query values and edges, computed from the counts dict and
    grid.value(i) one candidate at a time."""
    hist = build_histogram(data, beta, lower_bound)
    k_max = max(hist.counts) + 1 + pad_steps
    values = np.cumsum([hist.counts.get(i - 1, 0) for i in range(1, k_max + 1)])
    values = values.astype(float)
    edges = np.array([hist.grid.value(i) for i in range(k_max + 1)])
    return values, edges


@pytest.mark.parametrize("beta", [1.001, 1.01, 1.1])
def test_uqe_pdf_curve_matches_reference(beta):
    data = RandomSource(37).gen.lognormal(3.0, 1.0, 400)
    lower = float(data.min()) - 2.0
    curve = uqe_pdf_curve(data, lower, 0.6, 1.0, beta=beta)
    values, edges = uqe_pdf_reference(data, lower, 0.6, 1.0, beta)
    assert curve.lefts.tobytes() == edges[:-1].tobytes()
    assert curve.rights.tobytes() == edges[1:].tobytes()
    mass = np.exp(gumbel_halt_log_pmf(values, 0.6 * 400, 0.5))
    assert curve.mass.tobytes() == mass.tobytes()


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    data=st.lists(st.floats(-1e4, 1e7, allow_nan=False), min_size=2, max_size=80),
    beta=st.sampled_from([1.001, 1.01, 1.1]),
    kind=KINDS,
    q=st.floats(0.05, 0.95),
    cap=st.one_of(st.sampled_from([1, 255, 256, 257]), st.integers(1, 20000)),
    seed=st.integers(0, 2**32 - 1),
)
def test_estimators_release_the_same_values_as_the_scalar_path(data, beta, kind, q, cap, seed):
    x = np.array(data)
    lower = float(x.min())
    req = QuantileRequest.even_split(q, 1.0, beta=beta, noise=kind, max_queries=cap)

    def release(noiseless):
        rng = None if noiseless else RandomSource(seed, 2)
        out = (
            estimate_quantile(Dataset(x, lower_bound=lower), req, rng, noiseless=noiseless),
            estimate_quantile_unbounded(Dataset(x), req, rng, noiseless=noiseless),
            estimate_multiple_quantiles(
                Dataset(x, lower_bound=lower), [0.2, 0.5, 0.8], req, rng, noiseless=noiseless
            ),
        )
        return out, None if rng is None else generator_state(rng)

    block = release(False), release(True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quantile, "run_above_threshold", scalar_above_threshold)
        mp.setattr(quantile, "run_above_threshold_noiseless", scalar_noiseless)
        assert (release(False), release(True)) == block
