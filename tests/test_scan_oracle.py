"""The estimators and the scan against the literal model in reference.py.

For every noise kind and without noise, each estimator must release the
model's bytes, halt indices and flags and leave the Philox generator in the
model's state. The runner, which skips the uniforms of queries that cannot
reach the noisy threshold and draws the rest a block at a time, must halt
where the model's query-by-query loop halts and leave its state, on streams
built to stress the skips, the block edges and rounding, and so must runs
made one after another on one cursor, after every run. Also here: the two
live paths the code picks between, checked against each other (a multi-
quantile node's sorted counts, and a prefix's taken from them, against the
capped build; sorted against bincounted bucket keys), the power cache
against repeated multiplication, and the resource bounds the cap and the
sparse histogram give.
"""

import contextlib
import gc
import itertools
import math
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from uqe import quantile, sparse_vector
from uqe.accounting import multi_quantile_guarantee
from uqe.emq import uqe_pdf_curve
from uqe.noise import NoiseKind, RandomSource, _noise_of_words
from uqe.quantile import (
    Dataset,
    GeometricGrid,
    MultiQuantileResult,
    QuantileRequest,
    build_histogram,
    counting_query_stream,
    estimate_multiple_quantiles,
    estimate_quantile,
    estimate_quantile_unbounded,
    _sign_split_totals,
    _sorted_stream,
)
from uqe.sparse_vector import (
    DEFAULT_MAX_QUERIES,
    QueryStream,
    SvtConfig,
    SvtOutcome,
    _first_window_halts,
    _first_within,
    _past,
    _window,
    gumbel_outcome_log_pmf,
    run_above_threshold,
    run_above_threshold_noiseless,
    stream_prefix,
)

import reference
from conftest import head_stream, release_without_noise
from test_noise import skip_starts

PROPERTY = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
KINDS = st.sampled_from(list(NoiseKind))
SEEDS = st.integers(0, 2**32 - 1)


def generator_state(rng):
    return repr(rng.gen.bit_generator.state)


def model_queries(stream):
    return reference.run_values(stream.starts.tolist(), stream.values.tolist())


def assert_runs_as_the_model(stream, cfg, seed):
    a, b = RandomSource(seed, 1), RandomSource(seed, 1)
    want = reference.above_threshold(model_queries(stream), stream.max_queries, cfg, b)
    assert run_above_threshold(stream, cfg, a) == want
    assert generator_state(a) == generator_state(b)


def config(kind, eps1, eps2, threshold):
    if kind is NoiseKind.GUMBEL:
        eps2 = eps1
    return SvtConfig(eps1, eps2, kind, threshold)


# caps at 1 and around the first two block edges (256, 256 + 512)
CAPS = st.one_of(
    st.sampled_from([1, 2, 255, 256, 257, 767, 768, 769]),
    st.integers(1, 3000),
)


@PROPERTY
@given(
    kind=KINDS,
    eps1=st.floats(0.05, 5.0),
    eps2=st.floats(0.05, 5.0),
    length=st.integers(1, 2000),
    slope=st.floats(0.0, 3.0),
    threshold=st.floats(-50.0, 3000.0),
    cap=CAPS,
    seed=SEEDS,
)
def test_block_runner_matches_scalar_on_finite_streams(
    kind, eps1, eps2, length, slope, threshold, cap, seed
):
    # a rising line with plateaus where the sine falls
    values = np.maximum.accumulate(slope * np.arange(length) + np.sin(np.arange(length)))
    cfg = config(kind, eps1, eps2, threshold)
    assert_runs_as_the_model(head_stream(values, max_queries=cap), cfg, seed)


@PROPERTY
@given(
    kind=KINDS,
    eps=st.floats(0.05, 5.0),
    head=st.lists(st.integers(0, 40), max_size=600),
    tail=st.integers(0, 1000),
    threshold=st.floats(-20.0, 2000.0),
    cap=CAPS,
    seed=SEEDS,
)
def test_block_runner_matches_scalar_on_endless_streams(
    kind, eps, head, tail, threshold, cap, seed
):
    head = np.cumsum(head, dtype=float)
    cfg = config(kind, eps, eps / 2, threshold)
    tail += head[-1] if head.size else 0.0
    assert_runs_as_the_model(head_stream(head, tail, max_queries=cap), cfg, seed)


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
    head = sorted(head)
    if tail is not None and head:
        tail = max(tail, head[-1])
    stream = head_stream(head, tail, max_queries=cap)
    want = reference.first_crossing(model_queries(stream), stream.max_queries, threshold)
    assert run_above_threshold_noiseless(stream, threshold) == want


def test_cap_one_and_block_edges_exhaust_with_one_draw_per_query():
    for cap in (1, 255, 256, 257):
        stream = head_stream([], -1e9, max_queries=cap)
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
    seed=SEEDS,
)
def test_runner_skips_a_long_head_below_the_threshold(
    kind, eps1, eps2, lead, ramp, slope, threshold, cap, seed
):
    ramp = threshold - 100.0 + slope * np.arange(ramp)
    head = np.concatenate((np.full(lead, threshold + FAR), ramp))
    cfg = config(kind, eps1, eps2, threshold)
    assert_runs_as_the_model(head_stream(head, max_queries=cap), cfg, seed)
    assert_runs_as_the_model(head_stream(head, ramp[-1], max_queries=cap), cfg, seed)


@PROPERTY
@given(
    kind=KINDS,
    eps=SKIP_EPS,
    length=st.integers(0, 9000),
    tail=st.floats(-100.0, 20.0),
    cap=SKIP_CAPS,
    seed=SEEDS,
)
def test_runner_skips_a_head_never_in_reach_to_a_tail_in_reach(kind, eps, length, tail, cap, seed):
    head = np.full(length, FAR)
    cfg = config(kind, eps, eps / 2, 0.0)
    assert_runs_as_the_model(head_stream(head, tail, max_queries=cap), cfg, seed)


@PROPERTY
@given(
    kind=KINDS,
    eps1=SKIP_EPS,
    eps2=SKIP_EPS,
    scale=st.sampled_from([2**53, 2**54, 2**60, 2**70]),
    offsets=st.lists(st.integers(-120, 40), min_size=1, max_size=3000),
    lead=st.integers(0, 3000),
    cap=SKIP_CAPS,
    seed=SEEDS,
)
def test_runner_matches_scalar_where_the_threshold_dwarfs_the_noise(
    kind, eps1, eps2, scale, offsets, lead, cap, seed
):
    # at thresholds of 2**53 and more, noisy threshold - reach rounds, and a
    # query a few float steps below the threshold can still hit by rounding
    threshold = float(scale)
    step = math.ulp(threshold)
    head = threshold + step * np.array([-10**6] * lead + sorted(offsets), dtype=float)
    cfg = config(kind, eps1, eps2, threshold)
    assert_runs_as_the_model(head_stream(head, max_queries=cap), cfg, seed)


@PROPERTY
@given(
    kind=KINDS,
    runs=st.lists(
        st.tuples(st.integers(1, 400), st.floats(-150.0, 60.0)), min_size=1, max_size=40
    ),
    length=st.one_of(st.none(), st.integers(1, 9000)),
    cap=SKIP_CAPS,
    seed=SEEDS,
)
# the first block, from the run in reach at query 4, ends on the first
# query of a run that hits, which is not the last run
@example(
    kind=NoiseKind.LAPLACE,
    runs=[(3, -150.0), (255, -40.0), (10, 60.0), (5, 100.0)],
    length=None,
    cap=20_000,
    seed=0,
)
# a head block whose last query, 256, is the first of a run that hits: the
# block reads that run's value only if the run lookup at offset 255 finds
# the run that starts there
@example(
    kind=NoiseKind.LAPLACE,
    runs=[(3, -150.0), (252, -40.0), (10, 60.0), (5, 100.0)],
    length=None,
    cap=20_000,
    seed=0,
)
def test_runner_on_runs_is_the_model_loop(kind, runs, length, cap, seed):
    # runs of the lengths drawn, their values in increasing order; a stream
    # that ends after length queries is the stream capped there
    starts = np.cumsum([0] + [n for n, _ in runs[:-1]])
    if length is not None:
        cap = min(cap, max(length, int(starts[-1]) + 1))
    stream = reference.query_stream(starts, sorted(v for _, v in runs), cap)
    assert_runs_as_the_model(stream, config(kind, 1.0, 0.7, 0.0), seed)


# A run whose query min(256, cap) is within reach of the lowest noisy
# threshold, T - 38 b1, starts its first block at query 1, with the
# threshold's word ahead of the queries'. With eps1 = eps2 = 1, T - 75 is
# within that reach, but no two noise values differ by 75, so it never hits;
# no noise lifts T + FAR to T, nor lowers T + 1e5 below it.
T = 100.0
HEAD_CASES = {
    # name: (head, tail, cap, threshold, halt, whether the run takes the head block)
    "a hit at query 1": ([T + 1e5], T + 1e5, DEFAULT_MAX_QUERIES, T, 1, True),
    "a hit at query 256": ([T + FAR] * 255, T + 1e5, DEFAULT_MAX_QUERIES, T, 256, True),
    "a hit at query cap": ([T + FAR] * 99, T + 1e5, 100, T, 100, True),
    "a first hit past the head": ([T - 75.0] * 299, T + 1e5, DEFAULT_MAX_QUERIES, T, 300, True),
    "a cap of 1 that exhausts": ([], T - 75.0, 1, T, None, True),
    "a cap below 256 that exhausts": ([], T - 75.0, 100, T, None, True),
    "a threshold of -inf": ([T + FAR] * 300, T + FAR, 1000, -math.inf, 1, True),
    "a threshold of +inf, reached": ([0.0] * 9, math.inf, 1000, math.inf, 10, True),
    "a threshold of +inf": ([0.0] * 300, 0.0, 1000, math.inf, None, False),
}


@pytest.fixture
def searched_from(monkeypatch):
    """The offsets the runner searches from for a query within reach. The
    search that sizes a block after a skip, for a query that clears the
    noisy threshold by its value alone, has no reach and is not listed."""
    offsets = []

    def first_within(stream, start, reach, level):
        if reach > 0.0:
            offsets.append(start)
        return _first_within(stream, start, reach, level)

    monkeypatch.setattr(sparse_vector, "_first_within", first_within)
    return offsets


@pytest.mark.parametrize("case", HEAD_CASES.values(), ids=HEAD_CASES.keys())
@pytest.mark.parametrize("kind", list(NoiseKind))
def test_a_head_block_run_is_the_model(case, kind, searched_from):
    head, tail, cap, threshold, halt, takes_head = case
    stream = head_stream(head, tail, max_queries=cap)
    cfg = SvtConfig(1.0, 1.0, kind, threshold)
    for seed in range(4):
        a, b = RandomSource(seed, 1), RandomSource(seed, 1)
        for rng in (a, b):
            rng.gen.integers(0, 10)  # leaves a spare 32-bit half the run must keep
        want = reference.above_threshold(model_queries(stream), cap, cfg, b)
        assert want == (SvtOutcome(None, cap) if halt is None else SvtOutcome(halt))
        searched_from.clear()
        assert run_above_threshold(stream, cfg, a) == want
        assert generator_state(a) == generator_state(b)
        # a head block never searches from query 1
        assert (0 not in searched_from) == takes_head
        if halt is None:
            ref = RandomSource(seed, 1)
            ref.gen.integers(0, 10)
            ref.uniform_open(cap + 1)
            assert generator_state(a) == generator_state(ref)


# Runs on both paths, each to a hit and to exhaustion, from the generator
# states test_noise.skip_starts() gives: every buffer position, a spare
# 32-bit half-word, and counters at each 64-bit carry and at the 2**256
# wrap. The runner writes every move from the state it read once.
EVEN = (1.0, 1.0)
EDGE_CASES = {
    # name: (head, tail, cap, halt, whether the run takes the head block,
    #        (eps1, eps2), with eps2 = eps1 under Gumbel noise)
    "a head block hit": ([T + FAR] * 255, T + 1e5, DEFAULT_MAX_QUERIES, 256, True, EVEN),
    "a head block that exhausts": ([], T - 75.0, 100, None, True, EVEN),
    "a head block miss, then a hit": (
        [T - 75.0] * 299, T + 1e5, DEFAULT_MAX_QUERIES, 300, True, EVEN
    ),
    "a hit after a skip": ([T + FAR] * 2000, T + 1e5, DEFAULT_MAX_QUERIES, 2001, False, EVEN),
    # a tail within reach of every noisy threshold that clears none: blocks
    # after the skip read to the cap. That needs threshold noise narrow
    # against the queries' reach, as eps1 > eps2 gives it; with eps1 = eps2,
    # which Gumbel noise needs, no tail does both, and the run skips to the cap
    "blocks after a skip that exhaust": (
        [T + FAR] * 1000, T - 75.4, 1500, None, False, (100.0, 0.5)
    ),
    "no query in reach": ([], T + FAR, 1500, None, False, EVEN),
}


@pytest.mark.parametrize("case", EDGE_CASES.values(), ids=EDGE_CASES.keys())
@pytest.mark.parametrize("kind", list(NoiseKind))
def test_runner_from_edge_generator_states_is_the_model(case, kind, searched_from, monkeypatch):
    head, tail, cap, halt, takes_head, split = case
    stream = head_stream(head, tail, max_queries=cap)
    cfg = config(kind, *split, T)
    windows = []

    def window(stream, start, stop):
        windows.append(start)
        return _window(stream, start, stop)

    monkeypatch.setattr(sparse_vector, "_window", window)
    for label, start in skip_starts():
        a, b = start(), start()
        want = reference.above_threshold(model_queries(stream), cap, cfg, b)
        assert want == (SvtOutcome(None, cap) if halt is None else SvtOutcome(halt)), label
        searched_from.clear()
        windows.clear()
        assert run_above_threshold(stream, cfg, a) == want, label
        assert (0 not in searched_from) == takes_head, label
        # an uneven split is there to make the run read blocks
        assert windows or cfg.eps1 == cfg.eps2, label
        assert generator_state(a) == generator_state(b), label
        # the next draws agree too, the spare 32-bit half included
        assert a.gen.integers(0, 10, 3).tolist() == b.gen.integers(0, 10, 3).tolist(), label
        assert a.uniform_open(9).tobytes() == b.uniform_open(9).tobytes(), label


# Consecutive runs on one cursor, as an estimator makes them: each run
# takes its words from where the last one halted, and their noise from the
# words the last runs drew. near(cfg) is within reach of the lowest noisy
# threshold the noise allows, so a run on it takes the head block, but out
# of reach of every noisy threshold the noise gives: it never hits. Each
# run is (head, tail, cap), at threshold T; the comments give the words it
# takes, counted from the state the cursor read.
def near(cfg):
    return T - 37.7 * (1.0 / cfg.eps1 + 1.0 / cfg.eps2)


def consecutive_runs(near):
    hit = T + 1e5
    return [
        # a head block on a fresh cursor, 0 .. 256, drawn exactly; halts at 10
        ([FAR] * 9, hit, DEFAULT_MAX_QUERIES),
        # a head block inside those words, 11 .. 267: it draws 1,024 words
        # past its end, 257 .. 1291
        ([FAR] * 9, hit, DEFAULT_MAX_QUERIES),
        # a threshold's word held, and a skip inside the held words to a
        # block that straddles their end, 1223 .. 1478: drawn exactly
        ([FAR] * 1200, hit, DEFAULT_MAX_QUERIES),
        # a head block that straddles, 1224 .. 1480, and draws ahead; it
        # misses, and a skip finds the block of query 300 held
        ([near] * 299, hit, DEFAULT_MAX_QUERIES),
        # a cap under 256 that exhausts in a held head block
        ([], near, 100),
        # no query in reach: exhaustion past the held words, at 3127
        ([], FAR, 1500),
        # a head block past them, 3127 .. 3383, drawn exactly; halts on its last word
        ([FAR] * 255, hit, DEFAULT_MAX_QUERIES),
        # a head block that begins where the held words end, drawn exactly
        ([hit], hit, DEFAULT_MAX_QUERIES),
        # a skip past the held words
        ([FAR] * 2000, hit, DEFAULT_MAX_QUERIES),
        # a head block that straddles, and draws ahead
        ([FAR] * 9, hit, DEFAULT_MAX_QUERIES),
        # a ramp across the threshold, in a held head block: where it halts
        # turns on the threshold's noise
        ([T - 40.0 + i for i in range(80)], hit, DEFAULT_MAX_QUERIES),
    ]


# the words the runs above noise: each once, and only the head blocks that
# begin inside the held words draw ahead (runs 2, 4 and 10)
CONSECUTIVE_NOISED = 257 + 1035 + 187 + 1026 + 257 + 257 + 256 + 1026


@pytest.mark.parametrize("split", [(1.0, 1.0), (2.0, 0.5)], ids=["eps1=eps2", "eps1!=eps2"])
@pytest.mark.parametrize("kind", list(NoiseKind))
def test_consecutive_runs_on_one_generator_are_the_model(kind, split, monkeypatch):
    cfg = config(kind, *split, T)
    runs = [head_stream(h, tail, max_queries=cap) for h, tail, cap in consecutive_runs(near(cfg))]
    noised = []
    noise_of_words = sparse_vector._noise_of_words

    def counted_noise(spec, words):
        noised.append(np.size(words))
        return noise_of_words(spec, words)

    monkeypatch.setattr(sparse_vector, "_noise_of_words", counted_noise)
    for label, start in skip_starts():
        a, b = start(), start()
        words = sparse_vector._Words(a, cfg)
        noised.clear()
        for i, stream in enumerate(runs):
            want = reference.above_threshold(model_queries(stream), stream.max_queries, cfg, b)
            assert run_above_threshold(stream, cfg, words) == want, (label, i)
            assert generator_state(a) == generator_state(b), (label, i)
        assert sum(noised) == CONSECUTIVE_NOISED, (label, noised)
        assert a.uniform_open(9).tobytes() == b.uniform_open(9).tobytes(), label


STARTS = list(skip_starts())


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=KINDS,
    eps1=st.floats(0.05, 5.0),
    eps2=st.floats(0.05, 5.0),
    runs=st.lists(
        st.tuples(
            st.lists(st.integers(0, 40), max_size=400),
            st.integers(0, 1000),
            st.floats(-20.0, 2000.0),
            CAPS,
        ),
        min_size=1,
        max_size=12,
    ),
    start=st.sampled_from(range(len(STARTS))),
)
def test_random_consecutive_runs_on_one_generator_are_the_model(kind, eps1, eps2, runs, start):
    a, b = STARTS[start][1](), STARTS[start][1]()
    words = None
    for head, tail, threshold, cap in runs:
        cfg = config(kind, eps1, eps2, threshold)
        words = words or sparse_vector._Words(a, cfg)
        head = np.cumsum(head, dtype=float)
        tail += head[-1] if head.size else 0.0
        stream = head_stream(head, tail, max_queries=cap)
        want = reference.above_threshold(model_queries(stream), cap, cfg, b)
        assert run_above_threshold(stream, cfg, words) == want
        assert generator_state(a) == generator_state(b)


# The first block after a skip runs from the first query within reach
# through the first whose value alone clears the noisy threshold, in 256 to
# 16,384 queries; with none, blocks double from 256. With eps1 = 10 the
# noisy threshold of T = 100 lies within 3.8 of it, and with eps2 = 1 the
# reach is 38: 80 is within reach of it but never clears it by value, and
# 0 is out of reach. (Gumbel noise, which needs eps1 = eps2, leaves no
# such value.) The runs: (queries, value), the last open.
WITHIN = 80.0
SIZED_CASES = {
    # name: (runs, cap, the blocks the runner reads)
    "a block that ends on a run start": (
        [(1000, 0.0), (400, WITHIN), (1, T + 1e5)], DEFAULT_MAX_QUERIES, [(1000, 1401)]
    ),
    "no query that clears by value": (
        [(1000, 0.0), (1, WITHIN)], 3000, [(1000, 1256), (1256, 1768), (1768, 2792), (2792, 3000)]
    ),
    "a query that clears past 16,384 queries": (
        [(1000, 0.0), (20_000, WITHIN), (1, T + 1e5)],
        DEFAULT_MAX_QUERIES,
        [(1000, 17_384), (17_384, 33_768)],
    ),
    "a cap inside the block": ([(1000, 0.0), (100, WITHIN), (1, T + 1e5)], 1200, [(1000, 1200)]),
}


@pytest.mark.parametrize("case", SIZED_CASES.values(), ids=SIZED_CASES.keys())
@pytest.mark.parametrize("kind", [NoiseKind.LAPLACE, NoiseKind.EXPONENTIAL])
def test_a_block_after_a_skip_is_sized_to_the_threshold_as_the_model(case, kind, monkeypatch):
    runs, cap, want_blocks = case
    blocks = []

    def window(stream, start, stop):
        blocks.append((start, stop))
        return sparse_vector_window(stream, start, stop)

    sparse_vector_window = sparse_vector._window
    monkeypatch.setattr(sparse_vector, "_window", window)
    starts = np.cumsum([0] + [n for n, _ in runs[:-1]])
    stream = reference.query_stream(starts, [v for _, v in runs], cap)
    cfg = SvtConfig(10.0, 1.0, kind, T)
    for seed in range(3):
        blocks.clear()
        assert_runs_as_the_model(stream, cfg, seed)
        assert blocks == want_blocks


@PROPERTY
@given(
    kind=KINDS,
    eps1=st.floats(0.01, 5.0),
    eps2=st.floats(0.01, 5.0),
    lead=st.sampled_from([0, 1, 200, 300, 2000]),
    head=st.lists(st.integers(0, 40), max_size=400),
    thresholds=st.lists(st.floats(-20.0, 3000.0), min_size=1, max_size=12),
    cap=CAPS,
    seed=SEEDS,
)
# a run of zeros ahead of the data, as in a counting stream
@example(
    kind=NoiseKind.EXPONENTIAL,
    eps1=0.5,
    eps2=0.5,
    lead=300,
    head=[5] * 40,
    thresholds=[10.0, 100.0],
    cap=200_000,
    seed=1,
)
# a threshold of 60 is within reach from the first query, but no noise
# lifts a zero to it: the run halts in the data, past its first 256 queries
@example(
    kind=NoiseKind.LAPLACE,
    eps1=0.5,
    eps2=0.5,
    lead=2000,
    head=[100] * 5,
    thresholds=[60.0],
    cap=200_000,
    seed=2,
)
# a cap inside the first window: the batch tests the queries up to it
@example(
    kind=NoiseKind.GUMBEL,
    eps1=1.0,
    eps2=1.0,
    lead=0,
    head=[1] * 50,
    thresholds=[20.0, 45.0],
    cap=100,
    seed=3,
)
# runs that exhaust: 100 is within reach of the last value, 41, but out
# of the noise's range of it; nothing reaches 3000
@example(
    kind=NoiseKind.EXPONENTIAL,
    eps1=0.5,
    eps2=0.5,
    lead=0,
    head=[1] * 40,
    thresholds=[100.0, 3000.0],
    cap=2000,
    seed=4,
)
def test_first_window_batch_halts_where_the_model_halts(
    kind, eps1, eps2, lead, head, thresholds, cap, seed
):
    # run i is the model's run on a fresh RandomSource(seed, keys[i]); the
    # batch gives its halt, or the cap where it exhausts
    if kind is NoiseKind.GUMBEL:
        eps2 = eps1
    values = np.concatenate((np.zeros(lead), np.cumsum(head, dtype=float)))
    stream = head_stream(values, values[-1] + 1.0 if values.size else 0.0, cap)
    keys = [7 * i + 3 for i in range(len(thresholds))]
    halts = _first_window_halts(
        stream, np.array(thresholds), eps1, eps2, kind, RandomSource(seed), keys
    )
    queries = list(itertools.islice(model_queries(stream), cap))
    for t, key, halt in zip(thresholds, keys, halts.tolist()):
        cfg = config(kind, eps1, eps2, t)
        want = reference.above_threshold(queries, cap, cfg, RandomSource(seed, key))
        assert halt == (want.cap if want.exhausted else want.index)


@pytest.mark.parametrize("offset", [1, 3, 4, 5, 9, 12])
def test_past_makes_only_the_first_offset_queries_minus_inf(offset):
    # offsets inside a run, at a run's start, on a run of one query, on the
    # open last run and at the cap
    stream = reference.query_stream([0, 4, 5, 9], [1.0, 2.0, 3.0, 4.0], 12)
    want = stream_prefix(stream, 14).copy()
    want[:offset] = -np.inf
    past = _past(stream, offset)
    assert past.max_queries == 12
    assert stream_prefix(past, 14).tolist() == want.tolist()


@pytest.mark.parametrize(
    "values, halt",
    [
        # runs below the threshold ahead of the first crossing
        ([0.0, 40.0, 40.0, 40.0, 60.0, 60.0], 21),
        # a value that equals the threshold crosses it
        ([0.0, 40.0, 40.0, 50.0, 50.0], 16),
        ([0.0, 40.0, 40.0, 40.0], None),
    ],
)
def test_noiseless_runner_halts_at_the_first_crossing_of_runs(values, halt):
    # runs of 5 queries each, the last open
    stream = reference.query_stream(np.arange(0, 5 * len(values), 5), values, 1000)
    want = reference.first_crossing(model_queries(stream), 1000, 50.0)
    assert want == (SvtOutcome(None, 1000) if halt is None else SvtOutcome(halt))
    assert run_above_threshold_noiseless(stream, 50.0) == want


def test_reach_test_rounds_as_the_hit_test_does():
    # 2**53 + 2 + 1 rounds to 2**53 + 4, so with a reach of 1 the query can
    # clear 2**53 + 4; testing f >= 2**53 + 4 - 1 would round up and skip it
    level = 2.0**53 + 4.0
    stream = head_stream([2.0**53 - 8.0, 2.0**53 + 2.0])
    assert _first_within(stream, 0, 1.0, level) == 1
    assert _first_within(head_stream([2.0**53]), 0, 1.0, level) == 1  # the cap: none


@pytest.mark.parametrize("cap", [1, 1023, 1024, 1025, 4099, 200_000])
@pytest.mark.parametrize("kind", list(NoiseKind))
def test_a_run_with_no_query_in_reach_exhausts_at_exactly_cap_draws(cap, kind):
    cfg = SvtConfig(1.0, 1.0, kind, 0.0)
    streams = [
        head_stream([], FAR, max_queries=cap),
        head_stream(np.full(cap, FAR), max_queries=cap),
        head_stream(np.linspace(2 * FAR, FAR, 5000), FAR, max_queries=cap),
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

    def counting_noise(spec, words):
        out = _noise_of_words(spec, words)
        computed.append(np.size(out))
        return out

    monkeypatch.setattr(sparse_vector, "_noise_of_words", counting_noise)
    x = RandomSource(40).gen.lognormal(math.log(1e6), 0.8, 1000)
    req = QuantileRequest.even_split(0.5, 1.0, beta=1.001, noise=kind)
    for seed in range(5):
        computed.clear()
        est = estimate_quantile(Dataset(x, lower_bound=0.0), req, RandomSource(41, seed))
        assert est.halt_index > 13_000
        assert sum(computed) <= 1024


@pytest.mark.parametrize(
    "median, beta, qs, takes_head",
    [
        # perfbench's multi-split call: every node's stream comes within
        # reach of its threshold by query 256
        (10.0, 1.01, [0.1 * j for j in range(1, 10)], True),
        # data near 1e6 at beta 1.001, as in scan-heavy: thousands of
        # queries of zeros ahead of the data
        (1e6, 1.001, [0.5], False),
    ],
)
def test_a_run_takes_the_head_block_where_its_data_come_near_the_threshold_early(
    median, beta, qs, takes_head, searched_from
):
    x = RandomSource(50).gen.lognormal(math.log(median), 0.8, 5000)
    req = QuantileRequest.even_split(0.5, 1.0, beta=beta)
    for seed in range(5):
        searched_from.clear()
        result = estimate_multiple_quantiles(Dataset(x, 0.0), qs, req, RandomSource(51, seed))
        assert not any(result.exhausted + result.empty_slice)
        if takes_head:
            assert searched_from == []
        else:
            assert searched_from[0] == 0 and len(searched_from) == len(qs)


def test_a_multi_quantile_call_reads_the_state_once_and_noises_three_arrays(monkeypatch):
    # inputs like perfbench's multi-split: nine runs on head blocks, which
    # share one cursor; the first run noises its block, and two later ones
    # draw ahead the words of the runs after them
    opened, noised = [], []
    noise_of_words = sparse_vector._noise_of_words

    class Counted(sparse_vector._Words):
        __slots__ = ()

        def __init__(self, *args):
            opened.append(args)
            super().__init__(*args)

    def counted_noise(spec, words):
        noised.append(np.size(words))
        return noise_of_words(spec, words)

    monkeypatch.setattr(sparse_vector, "_Words", Counted)
    monkeypatch.setattr(quantile, "_Words", Counted)
    monkeypatch.setattr(sparse_vector, "_noise_of_words", counted_noise)
    x = RandomSource(50).gen.lognormal(math.log(10.0), 0.8, 5000)
    req = QuantileRequest.even_split(0.5, 1.0, beta=1.01)
    qs = [0.1 * j for j in range(1, 10)]
    for seed in range(10):
        opened.clear()
        noised.clear()
        estimate_multiple_quantiles(Dataset(x, 0.0), qs, req, RandomSource(51, seed))
        assert len(opened) == 1
        assert len(noised) <= 3


def test_array_stream_is_freed_without_garbage_collection():
    # a reference cycle would keep every run's query arrays until a full collection
    gc.disable()
    try:
        stream = head_stream(np.arange(10.0), 10.0)
        ref = weakref.ref(stream)
        del stream
        assert ref() is None
    finally:
        gc.enable()


def test_max_queries_must_be_an_integer():
    with pytest.raises(ValueError):
        QueryStream(np.zeros(1, dtype=np.int64), np.ones(1), 2.5)
    with pytest.raises(ValueError):
        QuantileRequest(q=0.5, eps1=1.0, eps2=1.0, max_queries=2.5)


BETAS = st.sampled_from([1.001, 1.01, 1.1, 2.0])


@st.composite
def bounded_cases(draw):
    """(beta, lower, data): points >= lower drawn from a few values, so ties
    abound, or spread, or spread with the lower bound at the smallest
    point; plus the grid's candidates beta^k + lower - 1 and one float step
    to each side of them; +0.0 and -0.0 when lower <= 0."""
    beta = draw(BETAS)
    shape = draw(st.sampled_from(["ties", "spread", "lower bound at the smallest"]))
    if shape == "lower bound at the smallest":
        data = draw(st.lists(st.floats(-1e4, 1e7), min_size=2, max_size=80))
        lower = min(data)
    else:
        lower = draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e4, 1e4)))
        if shape == "ties":
            pool = draw(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=6))
            offsets = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))
        else:
            offsets = draw(st.lists(st.floats(0.0, 1e7), min_size=1, max_size=60))
        data = [lower + v for v in offsets]
    if lower <= 0.0:
        data += draw(st.lists(st.sampled_from([0.0, -0.0]), max_size=5))
    edges = draw(st.lists(st.tuples(st.integers(0, 1500), st.integers(-1, 1)), max_size=20))
    for k, step in edges:
        x = reference.power(beta, k) + lower - 1.0
        x = float(np.nextafter(x, step * np.inf)) if step else x
        if lower <= x < np.inf:
            data.append(x)
    return beta, lower, data


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
    pows = reference.powers(beta, 1500)
    top = int(np.isfinite(pows).sum()) - 1
    edges = draw(st.lists(st.tuples(st.integers(0, top), st.integers(-1, 1)), max_size=20))
    for k, step in edges:
        x = pows[k] - 1.0
        x = np.nextafter(x, step * np.inf) if step else x
        data.append(float(x) * draw(st.sampled_from([1.0, -1.0])))
    return beta, data


# caps at 1, around the first two block edges, at the default, and between
BOUNDED_CAPS = st.one_of(
    st.sampled_from([1, 2, 255, 256, 257, 767, 768, 769, DEFAULT_MAX_QUERIES]),
    st.integers(1, 20_000),
)
QUANTILE_LISTS = st.one_of(
    st.lists(st.floats(0.001, 0.999), min_size=1, max_size=1),
    st.lists(st.floats(0.001, 0.999), min_size=2, max_size=9, unique=True).map(sorted),
)
EPS = st.sampled_from([0.1, 1.0, 10.0])


def released(result):
    """A release as the tests compare it: its fields but the budget, with
    the values as bytes, so -0.0 and 0.0 count as different releases."""
    if isinstance(result, MultiQuantileResult):
        estimates = np.array(result.estimates).tobytes()
        return result.quantiles, estimates, result.exhausted, result.empty_slice
    return result, np.float64(result.value).tobytes()


def assert_is_the_model(name, args, model_args, seed, model_name=None, **kwargs):
    """uqe.quantile.<name>(*args, rng) and reference.<model_name>(*model_args,
    rng), model_name name unless given, release alike and leave the
    generator alike; and so they do without noise: the package's noise
    patched away, which must then draw nothing, against the model's
    noiseless twin. Returns the package's noisy release."""

    def release(rng):
        return getattr(quantile, name)(*args, rng, **kwargs)

    def model(rng):
        return getattr(reference, model_name or name)(*model_args, rng, **kwargs)

    a, b = RandomSource(seed, 3), RandomSource(seed, 3)
    result = release(a)
    assert released(result) == released(model(b))
    assert generator_state(a) == generator_state(b)
    with pytest.MonkeyPatch.context() as mp:
        release_without_noise(mp)
        rng = RandomSource(seed, 3)
        assert released(release(rng)) == released(model(None))
    assert generator_state(rng) == generator_state(RandomSource(seed, 3))
    return result


@PROPERTY
@given(
    case=bounded_cases(),
    kind=KINDS,
    q=st.floats(0.0, 1.0),
    eps=EPS,
    cap=BOUNDED_CAPS,
    threshold=st.one_of(st.none(), st.floats(-50.0, 50.0)),
    seed=SEEDS,
)
def test_estimate_quantile_is_the_model(case, kind, q, eps, cap, threshold, seed):
    beta, lower, data = case
    req = QuantileRequest.even_split(q, eps, beta=beta, noise=kind, max_queries=cap)
    x = Dataset(np.array(data), lower_bound=lower)
    if threshold is None:
        assert_is_the_model("estimate_quantile", (x, req), (data, lower, req), seed)
        # the switch that the benchmark's oracle check uses
        noiseless = estimate_quantile(x, req, noiseless=True)
    else:
        # a threshold off q * n, as the sum's threshold modes set one
        hist = build_histogram(x.values, beta, lower, cap)
        assert_is_the_model(
            "_release", (hist, req), (data, lower, req), seed, "estimate_quantile",
            threshold=threshold,
        )
        noiseless = quantile._release(hist, req, None, noiseless=True, threshold=threshold)
    assert released(noiseless) == released(
        reference.estimate_quantile(data, lower, req, None, threshold)
    )


@PROPERTY
@given(
    case=signed_cases(), kind=KINDS, q=st.floats(0.0, 1.0), eps=EPS, cap=BOUNDED_CAPS, seed=SEEDS
)
# the first run halts at 0, and the second run's bucket 0 holds negatives
# as well as the zeros, which its first query must not count
@example(
    case=(2.0, [-1e-300] * 5 + [0.0, -0.0, 0.0, -0.0, 0.0]),
    kind=NoiseKind.LAPLACE,
    q=0.5,
    eps=1.0,
    cap=DEFAULT_MAX_QUERIES,
    seed=0,
)
# the largest x with x + 1 < 2 = beta^1
@example(
    case=(2.0, [1.0 - 2.0**-52] * 3),
    kind=NoiseKind.LAPLACE,
    q=1.0,
    eps=1.0,
    cap=DEFAULT_MAX_QUERIES,
    seed=0,
)
def test_estimate_quantile_unbounded_is_the_model(case, kind, q, eps, cap, seed):
    beta, data = case
    req = QuantileRequest.even_split(q, eps, beta=beta, noise=kind, max_queries=cap)
    x = Dataset(np.array(data))
    assert_is_the_model("estimate_quantile_unbounded", (x, req), (data, req), seed)


@PROPERTY
@given(
    case=bounded_cases(), kind=KINDS, q=st.floats(0.0, 1.0), eps=EPS, cap=BOUNDED_CAPS, seed=SEEDS
)
def test_estimate_small_quantile_inverted_is_the_model(case, kind, q, eps, cap, seed):
    # the bounded cases mirrored: points <= -lower, candidates near it
    beta, lower, data = case
    upper, mirrored = -lower, [-v for v in data]
    req = QuantileRequest.even_split(q, eps, beta=beta, noise=kind, max_queries=cap)
    x = Dataset(np.array(mirrored))
    assert_is_the_model(
        "estimate_small_quantile_inverted", (x, upper, req), (mirrored, upper, req), seed
    )


@PROPERTY
@given(
    case=bounded_cases(),
    qs=QUANTILE_LISTS,
    kind=KINDS,
    eps=EPS,
    share=st.sampled_from([0.5, 0.25]),
    cap=BOUNDED_CAPS,
    seed=SEEDS,
)
# A left child reads a prefix of its parent's shifted slice, and when both
# count one query per bucket, its parent's counts clipped at its size.
# Without noise: every point is at or below the root's estimate 7, so the
# left child gets the whole slice
@example(
    case=(2.0, 0.0, [5.0] * 40),
    qs=[0.25, 0.5, 0.75, 0.9],
    kind=NoiseKind.EXPONENTIAL,
    eps=10.0,
    share=0.5,
    cap=DEFAULT_MAX_QUERIES,
    seed=0,
)
# the root halts at 1, and 1.01 + 3 - 1 - 3 + 1 rounds below 1.01: the
# left child's cap is 0, and it releases its boundary
@example(
    case=(1.01, 3.0, [3.0] * 20),
    qs=[0.5, 0.9],
    kind=NoiseKind.EXPONENTIAL,
    eps=10.0,
    share=0.5,
    cap=DEFAULT_MAX_QUERIES,
    seed=0,
)
# five points tie at the root's estimate 7, and go left
@example(
    case=(2.0, 0.0, [1.0] * 5 + [3.0] * 10 + [7.0] * 5 + [20.0] * 5),
    qs=[0.25, 0.5, 0.75],
    kind=NoiseKind.EXPONENTIAL,
    eps=10.0,
    share=0.5,
    cap=DEFAULT_MAX_QUERIES,
    seed=0,
)
# the root's top bucket, 19, is past its 12 points, so it buckets them one
# by one and has no counts to pass on; its left child counts per bucket
@example(
    case=(2.0, 0.0, [0.0] * 10 + [1e6] * 2),
    qs=[0.25, 0.5],
    kind=NoiseKind.EXPONENTIAL,
    eps=10.0,
    share=0.5,
    cap=DEFAULT_MAX_QUERIES,
    seed=0,
)
def test_estimate_multiple_quantiles_is_the_model(case, qs, kind, eps, share, cap, seed):
    # eps1 = share * eps; an uneven split tells eps1 from eps2, in the noise
    # and in the budget, but Gumbel noise needs the even one
    beta, lower, data = case
    share = 0.5 if kind is NoiseKind.GUMBEL else share
    req = QuantileRequest(
        0.5, share * eps, (1.0 - share) * eps, beta=beta, noise=kind, max_queries=cap
    )
    x = Dataset(np.array(data), lower_bound=lower)
    result = assert_is_the_model(
        "estimate_multiple_quantiles", (x, qs, req), (data, lower, qs, req), seed
    )
    # the model has no budget: the release's is the accounting's
    assert result.budget == multi_quantile_guarantee(len(qs), req.eps1, req.eps2, req.noise)


@pytest.mark.parametrize("kind", list(NoiseKind))
def test_exhausted_and_capped_releases_are_the_model(kind):
    x = RandomSource(42).gen.lognormal(3.0, 1.0, 300) - 20.0
    lower = float(x.min())
    bounded, qs = Dataset(x, lower_bound=lower), [0.2, 0.5, 0.9]
    halts = []
    for cap, seed in ((1, 1), (3, 2), (40, 3), (300, 4), (700, 5), (DEFAULT_MAX_QUERIES, 6)):
        for q in (0.0, 0.5, 1.0):
            req = QuantileRequest.even_split(q, 1.0, beta=1.01, noise=kind, max_queries=cap)
            assert_is_the_model("estimate_quantile", (bounded, req), (x, lower, req), seed)
            assert_is_the_model("estimate_quantile_unbounded", (Dataset(x), req), (x, req), seed)
            assert_is_the_model(
                "estimate_multiple_quantiles", (bounded, qs, req), (x, lower, qs, req), seed
            )
            halts.append(estimate_quantile(bounded, req, RandomSource(seed, 3)).halt_index)
    assert None in halts and 1 in halts and any(h is not None and h > 1 for h in halts)


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


@PROPERTY
@given(case=bounded_cases(), cap=BOUNDED_CAPS, cut=st.floats(0.0, 1.0))
# fewer buckets than points (one binary search per bucket), and more
@example(case=(2.0, 0.0, [float(v) for v in range(60)]), cap=DEFAULT_MAX_QUERIES, cut=0.5)
@example(case=(1.001, 0.0, [1e6, 2e6, 3e6]), cap=DEFAULT_MAX_QUERIES, cut=0.5)
def test_sorted_counts_are_the_capped_build(case, cap, cut):
    beta, lower, data = case
    x = np.sort(np.array(data))
    grid = GeometricGrid(beta, lower)
    y = grid.shift(x)
    # a prefix of the sorted data counts from the whole's counts, as a
    # multi-quantile left child does from its parent's
    size = 1 + int(cut * (x.size - 1))
    for limit in (cap, DEFAULT_MAX_QUERIES):
        whole, above = _sorted_stream(grid, y, limit)
        prefix, _ = _sorted_stream(grid, y[:size], limit, above)
        for stream, part in ((whole, x), (prefix, x[:size])):
            hist = build_histogram(part, beta, lower, limit)
            # one query past the last bucket reads n, as every later one does
            k = int(hist.buckets[-1]) + 2
            want = stream_prefix(counting_query_stream(hist), k)
            assert stream_prefix(stream, k).tobytes() == want.tobytes()


@PROPERTY
@given(case=signed_cases(), cap=BOUNDED_CAPS, block=st.integers(1, 70))
@example(case=(2.0, [0.0, 0.0, 0.0, 2.0**1023, -(2.0**1023)]), cap=1, block=1)
def test_sorted_and_bincounted_keys_build_the_same_histograms(case, cap, block):
    # _SORT_SPREAD -1 sorts every one-block build and inf sorts none; a
    # small _BUILD_BLOCK bincounts over many blocks that reuse one set of
    # buffers, the last block shorter than the others
    beta, data = case
    x = np.array(data)
    lower = float(x.min())
    # points near both ends of the float range: x - min(x) + 1 overflows,
    # and every build must reject it alike
    overflows = not math.isfinite(float(x.max()) - lower + 1.0)

    def build(spread, block_size):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quantile, "_SORT_SPREAD", spread)
            mp.setattr(quantile, "_BUILD_BLOCK", block_size)
            first, second = _sign_split_totals(x, GeometricGrid(beta, 0.0), cap)
            split = [first, second()]
            if overflows:
                with pytest.raises(ValueError) as exc:
                    build_histogram(x, beta, lower, cap)
                arrays = [np.array(str(exc.value))]
            else:
                hist = build_histogram(x, beta, lower, cap)
                arrays = [hist.buckets, hist.running]
        arrays += [a for side in split for a in side]
        return [(a.dtype.str, a.tobytes()) for a in arrays]

    sorted_once = build(-1, 1 << 16)
    assert build(math.inf, 1 << 16) == sorted_once
    assert build(math.inf, block) == sorted_once


@contextlib.contextmanager
def build_path(spread, block):
    """Builds that sort every one-block input (spread -1) or bincount it
    (inf), in blocks of block points."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quantile, "_SORT_SPREAD", spread)
        mp.setattr(quantile, "_BUILD_BLOCK", block)
        yield


BUILD_PATHS = {"spread": st.sampled_from([-1, math.inf]), "block": st.sampled_from([1 << 16, 7])}


def same_arrays(got, want):
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


@PROPERTY
@given(case=bounded_cases(), cap=BOUNDED_CAPS, **BUILD_PATHS)
def test_built_histograms_pass_the_reference_checks(case, cap, spread, block):
    beta, lower, data = case
    with build_path(spread, block):
        hist = build_histogram(np.array(data), beta, lower, cap)
    public = reference.histogram(hist.grid, hist.buckets, hist.running, cap)
    stream, want = counting_query_stream(hist), counting_query_stream(public)
    assert stream.max_queries == want.max_queries == cap
    for got, want in ((stream.starts, want.starts), (stream.values, want.values)):
        assert same_arrays(got, want)
    for name in ("buckets", "running"):
        assert same_arrays(getattr(hist, name), getattr(public, name))
    assert hist.n == public.n == len(data)
    assert dict(hist.counts) == dict(public.counts)


def appended_runs(buckets, running, lead=0):
    """The runs of the non-empty buckets, as the package made them with
    np.append before the build wrote them: behind a run of lead from offset
    0 when the first bucket starts later, with float values."""
    if not (buckets.size and buckets[0] == 0):
        buckets, running = np.append(0, buckets), np.append(lead, running)
    return buckets, np.asarray(running, dtype=float)


def model_histogram(beta, ys, cap):
    """The non-empty buckets of ys, capped at cap, and their running counts,
    by the model's binary search."""
    if not ys.size:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    buckets, counts = np.unique(reference.bucket(beta, ys, cap), return_counts=True)
    return buckets, np.cumsum(counts)


@PROPERTY
@given(case=signed_cases(), cap=BOUNDED_CAPS, **BUILD_PATHS)
# bucket 0 empty, and holding points: the zeros, with and without negatives
# there, and points below beta - 1 of either sign
@example(case=(2.0, [5.0, -3.0, 7.0]), cap=DEFAULT_MAX_QUERIES, spread=-1, block=1 << 16)
@example(case=(2.0, [0.0, 5.0, -3.0]), cap=DEFAULT_MAX_QUERIES, spread=-1, block=1 << 16)
@example(case=(2.0, [-0.0, -0.5, 5.0]), cap=DEFAULT_MAX_QUERIES, spread=math.inf, block=7)
@example(case=(2.0, [0.5, 3.0, -9.0]), cap=DEFAULT_MAX_QUERIES, spread=math.inf, block=1 << 16)
def test_built_runs_are_the_appended_runs(case, cap, spread, block):
    # the bounded, the sorted and both signed streams, against the runs of
    # the model's buckets put together by np.append
    beta, data = case
    x = np.array(data)
    pos = np.abs(x)
    grid = GeometricGrid(beta, 0.0)
    with build_path(spread, block):
        hist = build_histogram(pos, beta, 0.0, cap)
        first, second = _sign_split_totals(x, grid, cap)
        signed = [first, second()]
    want = model_histogram(beta, pos + 1.0, cap)
    assert same_arrays(hist.buckets, want[0]) and same_arrays(hist.running, want[1])
    stream = counting_query_stream(hist)
    assert stream.max_queries == cap
    want_runs = appended_runs(*want)
    assert same_arrays(stream.starts, want_runs[0]) and same_arrays(stream.values, want_runs[1])
    stream, counts = _sorted_stream(grid, np.sort(pos + 1.0), cap)
    if counts is None:  # a run per non-empty bucket, not per query
        assert same_arrays(stream.starts, want_runs[0])
        assert same_arrays(stream.values, want_runs[1])
    # the first run counts x >= 0, the second x <= 0; g_0 the other sign
    for (starts, values), ys in zip(signed, (x[x >= 0.0] + 1.0, -x[x <= 0.0] + 1.0)):
        buckets, running = model_histogram(beta, ys, cap)
        lead = x.size - ys.size
        want_starts, want_values = appended_runs(buckets + 1, lead + running, lead)
        assert same_arrays(starts, want_starts) and same_arrays(values, want_values)


@pytest.mark.parametrize("beta", [1.001, 1.01, 2.0, 1.0 + 1e-6])
def test_scalar_lookup_matches_the_model(beta):
    grid = GeometricGrid(beta, 0.0)
    # filled at once: lookups in increasing order grow it a power at a time
    grid.powers(100_001)
    pows = reference.powers(beta, 100_000)
    pows = pows[np.isfinite(pows)]
    y = [pows, np.nextafter(pows, 0.0), np.nextafter(pows, np.inf)]
    if beta >= 1.001:
        # at 1 + 1e-6, y near 1e300 sits past bucket 6.9e8: a 5.5 GB cache
        k = int(reference.bucket(beta, [1e300])[0])
        near = np.append(1e300, reference.powers(beta, k + 1)[-2:])
        y += [near, np.nextafter(near, 0.0), np.nextafter(near, np.inf), [np.finfo(float).max]]
    y = np.concatenate(y)
    y = y[np.isfinite(y)]
    want = reference.bucket(beta, y)
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


# the first five betas are no other test's, so each of their caches starts
# at beta^0 alone
@pytest.mark.parametrize(
    "beta", [*(1.0 + j * 2.0**-30 for j in range(1, 6)), 1.0 + 1e-6, 1.001, 1.01, 1.5, 2.0]
)
def test_power_cache_is_repeated_multiplication(beta):
    # grown by sizes in a random order, through grids of other lower bounds,
    # then piecewise, as the build and power() grow it
    for size in np.random.default_rng(23).permutation(np.arange(1, 5001, 97)).tolist():
        other = GeometricGrid(beta, float(size))
        if size % 2:
            other.power(size - 1)
        else:
            other.powers(size)
    grid = GeometricGrid(beta, 0.0)
    grid.power(5)
    grid.powers(700)
    grid.power(1500)
    want = reference.powers(beta, 4999)
    assert grid.powers(5000).tobytes() == want.tobytes()
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
    assert est.exhausted and est.value == reference.power(1.0 + 1e-6, 100) - 1.0
    assert unb.exhausted and unb.value == reference.power(1.0 + 1e-6, 99) - 1.0
    assert multi.estimates[1] == reference.power(1.0 + 1e-6, 100) - 1.0


def test_a_build_given_no_cap_takes_the_default():
    # 2 and 5 lie in buckets near 6.9e6 and 1.6e7 at beta = 1 + 1e-7; a build
    # given no cap stops at the runner's default; None is rejected, not
    # read as uncapped
    tracemalloc.start()
    try:
        hist = build_histogram(np.array([1.0, 4.0]), 1.0 + 1e-7, 0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e5
    assert hist.buckets.tolist() == [DEFAULT_MAX_QUERIES] and hist.n == 2
    with pytest.raises(ValueError, match="max_queries must be an integer"):
        build_histogram(np.array([1.0, 4.0]), 1.0 + 1e-7, 0.0, None)
    with pytest.raises(ValueError, match="max_queries must be an integer"):
        GeometricGrid(1.0 + 1e-7, 0.0).bucket_indices(np.array([5.0]), None)


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


@pytest.mark.parametrize("beta", [1.001, 1.01, 1.1])
def test_uqe_pdf_curve_matches_the_model(beta):
    # the model's counts up to the first that reaches n, then the pad
    data = RandomSource(37).gen.lognormal(3.0, 1.0, 400)
    lower = float(data.min()) - 2.0
    curve = uqe_pdf_curve(data, lower, 0.6, 1.0, beta=beta)
    ys = sorted((data - lower + 1.0).tolist())
    values = []
    for f in reference.counts(ys, beta):
        values.append(float(f))
        if f == data.size:
            break
    values += [float(data.size)] * 25
    edges = reference.powers(beta, len(values)) + lower - 1.0
    assert curve.lefts.tobytes() == edges[:-1].tobytes()
    assert curve.rights.tobytes() == edges[1:].tobytes()
    mass = np.exp(gumbel_outcome_log_pmf(values, 0.6 * 400, 0.5))[1:]
    assert curve.mass.tobytes() == mass.tobytes()
