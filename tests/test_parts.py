"""The O(n) passes split into parts across CPUs against the serial pass.

The CPU count is patched to 1, 2, 3 and 4, and the block size to BLOCK, so
inputs of one to eight blocks, up to four parts of two blocks, stay small.
For every part count, the build, the sign split and the clipped sum must
give the serial pass's bytes and the model's counting queries, and bad
points must give the serial pass's error. A one-block input must never
reach the pool.
"""

import contextlib
import itertools
import math
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uqe import aggregates, quantile
from uqe.aggregates import SumConfig, clipped_sum, dp_sum
from uqe.noise import RandomSource
from uqe.quantile import Dataset, GeometricGrid, _sign_split_totals, build_histogram

import reference

BLOCK = 16
CAP = 1_000_000  # past every bucket these cases reach
PROPERTY = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
BAD = st.sampled_from([math.nan, math.inf, -math.inf, -1.0])


@contextlib.contextmanager
def split_into(cpus):
    """Blocks of BLOCK points and cpus CPUs; yields the worker counts of the
    pools the passes ask for."""
    pools = []
    make_pool = quantile._pool
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quantile, "_BUILD_BLOCK", BLOCK)
        mp.setattr(aggregates, "_BUILD_BLOCK", BLOCK)
        mp.setattr(quantile, "_cpu_count", lambda: cpus)
        mp.setattr(quantile, "_pool", lambda workers: pools.append(workers) or make_pool(workers))
        yield pools


@st.composite
def split_cases(draw):
    """(beta, data) of one to eight blocks: spread points, and signed zeros
    and bucket edges +-(beta^k - 1), a float step either side of them,
    among them and on both sides of every block edge, where parts meet."""
    beta = draw(st.sampled_from([1.01, 1.1, 2.0]))
    pows = reference.powers(beta, 200)
    edges = [
        sign * float(np.nextafter(p - 1.0, step * np.inf) if step else p - 1.0)
        for p, step, sign in itertools.product(pows, (-1, 0, 1), (1.0, -1.0))
    ]
    special = st.sampled_from([0.0, -0.0, *edges])
    n = draw(st.integers(1, 8 * BLOCK))
    point = st.one_of(st.floats(-1e6, 1e6, allow_nan=False), special)
    x = draw(st.lists(point, min_size=n, max_size=n))
    for i in range(BLOCK - 1, n - 1, BLOCK):
        x[i], x[i + 1] = draw(special), draw(special)
    return beta, np.array(x)


def split_outputs(beta, x):
    """The build over |x| (keeping -0.0) and the sign split over x, each
    from a cold power cache that the parts extend."""
    quantile._POWERS.pop(beta, None)
    hist = build_histogram(np.where(x < 0.0, -x, x), beta, 0.0)
    quantile._POWERS.pop(beta, None)
    (b1, r1), (b2, r2) = _sign_split_totals(x, GeometricGrid(beta, 0.0), CAP)
    return [hist.buckets, hist.running, b1, r1, b2, r2]


def queries(buckets, running, k):
    """f_1 .. f_k of a histogram: the points in buckets < i."""
    below = np.searchsorted(buckets, np.arange(1, k + 1))
    return [int(running[j - 1]) if j else 0 for j in below]


def model_queries(ys, beta, k):
    return list(itertools.islice(reference.counts(sorted(ys), beta), k))


@PROPERTY
@given(case=split_cases(), clip=st.floats(-1e6, 1e6))
def test_every_part_count_gives_the_serial_counts_and_sum(case, clip):
    beta, x = case
    blocks = -(-x.size // BLOCK)
    runs = {}
    for cpus in (1, 2, 3, 4):
        with split_into(cpus) as pools:
            out = split_outputs(beta, x)
            total = clipped_sum(x, clip)
        # a pass of w > 1 parts asks the pool for its other parts
        assert bool(pools) == (min(cpus, blocks // 2) > 1)
        runs[cpus] = [(a.dtype.str, a.tobytes()) for a in out] + [np.float64(total).tobytes()]
    assert runs[2] == runs[1] and runs[3] == runs[1] and runs[4] == runs[1]
    assert runs[1][-1] == np.float64(np.minimum(x, clip).sum()).tobytes()

    pos = np.where(x < 0.0, -x, x)
    hist_b, hist_r, b1, r1, b2, r2 = out
    sides = [
        (hist_b, hist_r, pos + 1.0),
        (b1, r1, x[x >= 0.0] + 1.0),
        (b2, r2, -x[x <= 0.0] + 1.0),
    ]
    for buckets, running, ys in sides:
        k = int(buckets[-1]) + 2 if buckets.size else 0
        assert queries(buckets, running, k) == model_queries(ys, beta, k)


def error_of(fn, *args):
    with pytest.raises(ValueError) as exc:
        fn(*args)
    return str(exc.value)


@PROPERTY
@given(case=split_cases(), last=BAD, other=st.one_of(st.none(), BAD), data=st.data())
def test_every_part_count_raises_the_serial_error(case, last, other, data):
    # a bad point in the last block, so in the last part for every count,
    # and perhaps another anywhere: the error is the lowest part's
    beta, x = case
    blocks = -(-x.size // BLOCK)
    i = data.draw(st.integers((blocks - 1) * BLOCK, x.size - 1))
    j = None if other is None else data.draw(st.integers(0, x.size - 1))
    pos = np.where(x < 0.0, -x, x)
    x = x.copy()
    for arr in (x, pos):
        arr[i] = last
        if j is not None:
            arr[j] = other
    finite = bool(np.isfinite(x).all())
    errors = {}
    for cpus in (1, 2, 3, 4):
        with split_into(cpus):
            errors[cpus] = [
                error_of(Dataset, pos, 0.0),
                error_of(build_histogram, pos, beta, 0.0),
                error_of(dp_sum, pos, SumConfig(eps=1.0), RandomSource(0)),
            ]
            if not finite:
                errors[cpus].append(error_of(_sign_split_totals, x, GeometricGrid(beta, 0.0), CAP))
    assert errors[2] == errors[1] and errors[3] == errors[1] and errors[4] == errors[1]


def test_parts_are_runs_of_whole_blocks():
    # so a part meets the errors of the blocks a serial pass reads; and a
    # part has two blocks at least, or the pass is one part
    for cpus, size in itertools.product(range(1, 6), range(1, 12 * BLOCK + 1)):
        with split_into(cpus):
            cuts = quantile._part_cuts(size)
        blocks = -(-size // BLOCK)
        lengths = -(-np.diff(cuts) // BLOCK)
        assert len(cuts) == max(1, min(cpus, blocks // 2)) + 1
        assert cuts[0] == 0 and cuts[-1] == size and all(c % BLOCK == 0 for c in cuts[:-1])
        assert len(lengths) == 1 or (lengths.min() >= 2 and lengths.max() - lengths.min() <= 1)


@pytest.mark.parametrize("first_fails", [True, False])
def test_every_part_finishes_and_the_lowest_error_is_raised(first_fails):
    finished = []

    def part(lo, hi):
        if lo == 0:
            if first_fails:
                raise ValueError("part at 0")
            return hi
        # the later parts finish first
        time.sleep(0.01 * (8 * BLOCK - lo) / BLOCK)
        finished.append(lo)
        raise ValueError(f"part at {lo}")

    with split_into(4):
        cuts = quantile._part_cuts(8 * BLOCK)
        assert len(cuts) == 5
        with pytest.raises(ValueError, match=f"part at {0 if first_fails else cuts[1]}$"):
            quantile._map_parts(part, cuts)
    assert sorted(finished) == cuts[1:-1]


def test_one_block_never_reaches_the_pool(monkeypatch):
    def refuse(*args):
        raise AssertionError("a one-block pass split into parts")

    monkeypatch.setattr(quantile, "_cpu_count", lambda: 4)
    for module in (quantile, aggregates):
        monkeypatch.setattr(module, "_map_parts", refuse)
        monkeypatch.setattr(module, "_part_cuts", refuse)
    monkeypatch.setattr(quantile, "_pool", refuse)
    pools = dict(quantile._POOLS)
    x = np.linspace(0.0, 100.0, quantile._BUILD_BLOCK)
    Dataset(x, lower_bound=0.0)
    build_histogram(x, 1.01, 0.0)
    _sign_split_totals(x - 50.0, GeometricGrid(1.01, 0.0), CAP)
    clipped_sum(x, 50.0)
    dp_sum(x, SumConfig(eps=1.0), RandomSource(0))
    assert quantile._POOLS == pools


def test_concurrent_extensions_of_the_power_cache_lose_no_update():
    # the parts of a build extend their grid's cache, and so the cache of its
    # beta, from several threads: every caller must get the powers it asked
    # for, and each beta's cache must end as long as the longest asked for
    betas = [1.0 + 1e-4 * i for i in range(1, 5)]
    sizes = [[int(s) for s in np.random.default_rng(i).integers(1, 50_000, 40)] for i in range(8)]
    wrong, switch = [], sys.getswitchinterval()

    def extend(i):
        for j, size in enumerate(sizes[i]):
            beta = betas[(i + j) % len(betas)]
            grid = grids[beta] if j % 2 else GeometricGrid(beta, 0.0)
            pows = grid.powers(size)
            if pows.size != size or pows[-1] != reference.power(beta, size - 1):
                wrong.append((beta, size))

    for beta in betas:
        quantile._POWERS.pop(beta, None)
    # every other call on one grid per beta, as the parts of a build share
    # theirs, and the rest on fresh grids, which read the shared cache
    grids = {beta: GeometricGrid(beta, 0.0) for beta in betas}
    threads = [threading.Thread(target=extend, args=(i,)) for i in range(len(sizes))]
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads) and not wrong
    longest = {b: 0 for b in betas}
    for i, row in enumerate(sizes):
        for j, size in enumerate(row):
            b = betas[(i + j) % len(betas)]
            longest[b] = max(longest[b], size)
    assert all(quantile._POWERS[b].size >= longest[b] for b in betas)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_makes_its_own_pool():
    # the parent's pool threads do not exist in the child: a child that
    # reused the pool would wait for its parts forever
    x = np.arange(4.0 * quantile._BUILD_BLOCK)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quantile, "_cpu_count", lambda: 2)
        want = build_histogram(x, 1.01, 0.0).running
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if np.array_equal(build_histogram(x, 1.01, 0.0).running, want) else 1
            finally:
                os._exit(code)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            assert os.waitstatus_to_exitcode(status) == 0
            return
        time.sleep(0.05)
    os.kill(pid, 9)
    os.waitpid(pid, 0)
    pytest.fail("the forked child's build did not finish")
