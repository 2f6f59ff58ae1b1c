"""Differentially private quantile estimation on a geometric candidate grid.

The estimator runs AboveThreshold over counting queries
f_i(x) = |{x_j : x_j - ell + 1 < beta^i}| with threshold T = q*n and returns
the candidate beta^k + ell - 1 at the halting index k. The counting queries
are monotonic with sensitivity 1 under swap neighbors, which is what the
privacy accounting of this pipeline rests on.

Preprocessing is a single O(n) pass into a sparse log-spaced bucket
histogram: the non-empty buckets and their running counts, written once as
the counting stream's runs. The counting queries are constant between
non-empty buckets, so a call's work and memory grow with n and the number
of non-empty buckets, not with the largest bucket index. Grid powers live
in one cache per beta, shared by every grid in the process, behind a lock.

Data of four or more 65,536-point blocks is read in contiguous parts of
whole blocks, at most one per CPU (_part_cuts, _map_parts): the build and
the sign split, Dataset's min and max, and the sum's checks and clip (see
uqe.aggregates). The parts' integer counts add up exactly in any order, so
every release is the serial pass's, and the error raised is the one the
serial pass meets first.
Variants here: a fully unbounded estimator (no declared bounds, two runs), an
inverted transform for small quantiles of upper-bounded data, and recursive
splitting for several quantiles at once.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from .accounting import (
    MultiQuantileBudget,
    NeighborModel,
    PrivacyGuarantee,
    QueryClass,
    _check_multi_quantile_neighbor,
    guarantee_for,
    multi_quantile_guarantee,
)
from .noise import NoiseKind, RandomSource, _check_source
from .sparse_vector import (
    DEFAULT_MAX_QUERIES,
    QueryStream,
    SvtConfig,
    SvtOutcome,
    _Words,
    check_max_queries,
    check_noise_eps,
    check_split,
    check_threshold,
    run_above_threshold,
    run_above_threshold_noiseless,
)

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

__all__ = [
    "Dataset",
    "check_beta",
    "GeometricGrid",
    "LogBucketHistogram",
    "build_histogram",
    "counting_query_stream",
    "QuantileRequest",
    "QuantileEstimate",
    "UnboundedEstimate",
    "MultiQuantileResult",
    "estimate_quantile",
    "estimate_quantile_unbounded",
    "estimate_small_quantile_inverted",
    "estimate_multiple_quantiles",
    "request_guarantee",
]


@dataclass(frozen=True, eq=False)
class Dataset:
    """Finite real-valued data with an optional public lower bound."""

    values: np.ndarray
    lower_bound: float | None = None

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("values must be a non-empty 1-d sequence")
        lo = _finite_min(vals)
        if self.lower_bound is not None:
            if not math.isfinite(self.lower_bound):
                raise ValueError("the lower bound must be finite")
            if lo < self.lower_bound:
                raise ValueError("all values must be >= the declared lower bound")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return int(self.values.size)


def _finite_min(vals: np.ndarray) -> float:
    """The least of non-empty 1-d float data, from one min and max pass;
    data that are not all finite are a ValueError."""
    # NaN propagates through both, and no n-byte isfinite mask is made
    if vals.size > _BUILD_BLOCK:
        ends = np.array(
            _map_parts(lambda a, b: (vals[a:b].min(), vals[a:b].max()), _part_cuts(vals.size))
        )
        lo, hi = ends[:, 0].min(), ends[:, 1].max()
    else:
        lo, hi = vals.min(), vals.max()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("values must be finite")
    return float(lo)


def check_beta(beta: float, name: str = "beta") -> None:
    """The grid ratio rule: beta is finite and > 1."""
    if not (beta > 1.0 and math.isfinite(beta)):
        raise ValueError(f"{name} must be finite and > 1, got {beta!r}")


def _check_q(q: float) -> None:
    """The quantile level rule: q lies in [0, 1]; NaN fails it."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")


# Powers of each beta, shared by every grid of that beta in the process,
# for the _CACHED_BETAS betas used last.
_POWERS: dict[float, np.ndarray] = {}
_CACHED_BETAS = 8
# the parts of one build extend the cache from several threads
_POWERS_LOCK = threading.Lock()


def _shared_powers(beta: float, size: int) -> np.ndarray:
    """The cached powers of beta, read-only, extended to at least size.

    An extension at least doubles the cache, so lookups in increasing order
    copy it O(log size) times, not once per lookup. It never holds more
    than twice the most powers asked for, so the cache of runs capped at k
    queries, which read powers up to beta^(k+1), stays O(k). np.cumprod
    multiplies in sequence, so each new power is the previous one times
    beta, as a scalar loop computes it: the cache holds the same floats
    however it was grown. Powers past the float range are inf.
    """
    with _POWERS_LOCK:
        pows = _POWERS.pop(beta, None)
        if pows is None:
            pows = np.ones(1)
        if pows.size < size:
            size = max(size, 2 * pows.size)
            steps = np.full(size - pows.size + 1, beta)
            steps[0] = pows[-1]
            with np.errstate(over="ignore"):
                np.cumprod(steps, out=steps)
            pows = np.concatenate((pows, steps[1:]))
        pows.flags.writeable = False
        # re-inserted last, so the beta dropped is the one used longest ago
        _POWERS[beta] = pows
        while len(_POWERS) > _CACHED_BETAS:
            del _POWERS[next(iter(_POWERS))]
        return pows


class GeometricGrid:
    """Candidate values beta^i + ell - 1 with powers cached by multiplication.

    The cache is the grid definition: every bucket boundary and every output
    value comes from the same iteratively multiplied floats, so membership
    tests are exact against the values the query stream actually uses.

    All grids of one beta share one cache for the process. Cached values
    depend on beta alone, never on data, but the cache's length follows
    the largest power index asked for so far, so how long a later call
    takes depends on earlier calls' data: like the build time, it is
    debug-only.
    """

    def __init__(self, beta: float, lower_bound: float) -> None:
        check_beta(beta)
        self.beta = float(beta)
        self.lower_bound = float(lower_bound)
        self._log_beta = math.log(self.beta)
        self._powers = _shared_powers(self.beta, 1)

    def powers(self, size: int) -> np.ndarray:
        """beta^0 .. beta^(size-1), read-only; extends the cache as needed."""
        # read once: a build's other parts may swap in a shorter cache
        pows = self._powers
        if pows.size < size:
            pows = self._powers = _shared_powers(self.beta, size)
        return pows[:size]

    def power(self, i: int) -> float:
        """beta^i from the multiplication cache (extends it as needed)."""
        if i < 0:
            raise ValueError("power index must be >= 0")
        pows = self._powers
        if i >= pows.size:
            pows = self.powers(i + 1)
        return float(pows[i])

    def value(self, i: int) -> float:
        """Grid candidate number i: beta^i + ell - 1."""
        return self.power(i) + self.lower_bound - 1.0

    def shift(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Map data to y = x - ell + 1 >= 1, the domain the buckets live on.

        A y that is not finite has no bucket, so it is rejected. With finite
        data only a negative ell (whose shift can overflow) or a NaN ell
        gives one, so only then is y checked, with overflow warnings off.
        out, if given, is a float array of the data's size that receives y.
        """
        x = np.asarray(values, dtype=float)
        if self.lower_bound == 0.0:
            # x - 0.0 is x for every x, -0.0 included: the same floats
            y = np.add(x, 1.0, out=out)
        elif self.lower_bound > 0.0:
            y = np.subtract(x, self.lower_bound, out=out)
            y += 1.0
        else:
            with np.errstate(over="ignore"):
                y = np.subtract(x, self.lower_bound, out=out)
                y += 1.0
            if y.size and not y.max() < np.inf:
                raise ValueError("value - lower bound + 1 is not a finite number")
        # NaN fails the comparison, so this rejects it along with y < 1
        if y.size and not y.min() >= 1.0:
            raise ValueError("value below the grid lower bound, or NaN")
        return y

    def bucket_indices(self, y: np.ndarray, limit: int = DEFAULT_MAX_QUERIES) -> np.ndarray:
        """Bucket b with beta^b <= y < beta^(b+1), vectorized over y >= 1.

        A log guess is checked against the cached powers wherever it could
        be wrong, so boundary points land exactly where the strict
        inequality of the counting queries expects them. Every
        y >= beta^limit goes to the one bucket `limit`, and the cache stops
        at beta^(limit+1); the limit follows the query cap's rule. NaN, inf
        and y < 1 have no bucket and raise ValueError before any of them
        reaches the integer cast.
        """
        check_max_queries(limit)
        y = np.asarray(y, dtype=float)
        if y.size == 0:
            return np.zeros(0, dtype=np.int64)
        # NaN fails the comparison; checking the floats, not the cast
        # indices, keeps this independent of how a platform casts NaN and inf
        if not y.min() >= 1.0:
            raise ValueError("the bucket domain is the finite numbers >= 1")
        m = y.size
        return self._bucket_into(
            y, limit, np.empty(m, dtype=np.int64), np.empty(m), np.empty(m, dtype=bool)
        )

    def _bucket_into(
        self,
        y: np.ndarray,
        limit: int,
        idx: np.ndarray,
        work: np.ndarray,
        mask: np.ndarray,
    ) -> np.ndarray:
        """bucket_indices(y, limit) of a non-empty y, computed in the
        caller's int64, float and bool buffers of y's size; returns idx.

        The caller has rejected y < 1, which would give negative indices.
        NaN and +inf are rejected here: the largest guess is then NaN or inf.

        The guess r = log(y) / ln beta is within B index units of y's place
        among the cached powers P_k, top being the largest r, where
            B = K 2^-52 / ln beta + 2^-40 top,  K = min(limit, floor(top) + 2).
        P_k is P_(k-1) * beta rounded, so ln P_k is within k 2^-53 / (1 - 2^-53)
        of k ln beta: the first term. np.log and math.log are taken to be
        within 1024 ulps (2^-42 relative; both are within a few), and
        1 / ln beta and the product round once each, so r is within a
        relative 2^-40 of ln y / ln beta: the second. So P_k <= y for
        k <= min(r - B, K) and P_k > y for K >= k > r + B, and a point whose
        r is more than delta = max(2^-20, 4B) from every integer is in bucket
        floor(r), or past the limit. The rest, a share of about 2 delta, are
        searched among P_1 .. P_K, which counts min(bucket, K) as the powers
        increase strictly; B < 1/32 keeps the bucket below K unless K is the
        limit. With delta >= 1/8 (beta within about 1e-9 of 1 at large caps)
        no guess is trusted: with k the capped bucket of the largest y, which
        _bucket finds exactly, the points at or past P_k take k and the rest
        are searched among P_1 .. P_(k-1). Elsewhere r is shifted
        by delta: floor(r + delta) is floor(r) unless r is within delta below
        an integer, and frac(r + delta) < 2 delta marks r within delta of one.
        """
        np.log(y, out=work)
        work *= 1.0 / self._log_beta
        top = float(work.max())
        if not top < math.inf:
            raise ValueError("the bucket domain is the finite numbers >= 1")
        k = min(limit, int(top) + 2)
        delta = max(2.0**-20, 4.0 * (k * 2.0**-52 / self._log_beta + 2.0**-40 * top))
        if delta >= 0.125:
            k = self._bucket(float(y.max()), limit)
            pows = self.powers(k + 1)
            idx.fill(k)
            if np.less(y, pows[k], out=mask).any():
                idx[mask] = np.searchsorted(pows[1:k], y[mask], "right")
            return idx
        work += delta
        np.copyto(idx, work, casting="unsafe")
        work -= idx
        if top > limit:
            np.minimum(idx, limit, out=idx)
        if np.less(work, 2.0 * delta, out=mask).any():
            idx[mask] = np.searchsorted(self.powers(k + 1)[1:], y[mask], "right")
        return idx

    def _bucket(self, y: float, limit: int | None) -> int:
        """bucket_indices of one y >= 1, without building arrays: a log guess
        corrected against power(i), and the cache filled only as far."""
        b = int(math.log(y) / self._log_beta)
        if limit is not None:
            b = min(b, limit)
        pows = self.powers(b + 2)
        while y < pows[b]:
            b -= 1
        while b != limit and y >= pows[b + 1]:
            b += 1
            pows = self.powers(b + 2)
        return b

    def max_index_at_most(self, y: float) -> int:
        """Largest i >= 0 with beta^i <= y, or -1 when y < 1; a y that is
        not finite is a ValueError. For y >= 1 this is y's bucket."""
        y = float(y)
        if not -math.inf < y < math.inf:
            raise ValueError("max_index_at_most needs a finite number")
        return -1 if y < 1.0 else self._bucket(y, None)


class LogBucketHistogram:
    """Shifted data as its non-empty buckets and their running counts.

    buckets holds the non-empty bucket indices in increasing order, and
    running[j] the number of points in buckets <= buckets[j], so running[-1]
    is n. The counting query f_i, the number of points in buckets < i, is
    constant from one non-empty bucket to the next, so the histogram takes
    memory in the number of non-empty buckets, at most min(n, cap + 1),
    never in the largest bucket index.

    It holds them as its counting stream's runs (see _key_counts). The
    public constructor checks buckets and running and writes the runs;
    LogBucketHistogram._built keeps the runs a build wrote, unchecked.
    """

    def __init__(self, grid: GeometricGrid, buckets, running) -> None:
        buckets = np.asarray(buckets, dtype=np.int64)
        running = np.asarray(running, dtype=np.int64)
        if buckets.ndim != 1 or running.shape != buckets.shape or not buckets.size:
            raise ValueError("buckets and running counts must be 1-d, of one length >= 1")
        if not (buckets[0] >= 0 and running[0] > 0):
            raise ValueError("buckets must be >= 0 and each must hold a point")
        if not ((buckets[1:] > buckets[:-1]).all() and (running[1:] > running[:-1]).all()):
            raise ValueError("buckets and running counts must increase strictly")
        lead = int(buckets[0] != 0)
        starts, values = np.zeros(lead + buckets.size, np.int64), np.zeros(lead + buckets.size)
        starts[lead:], values[lead:] = buckets, running
        self._hold(grid, starts, values)

    @classmethod
    def _built(cls, grid: GeometricGrid, starts: np.ndarray, values: np.ndarray):
        """The histogram of runs a build wrote, valid by construction."""
        hist = object.__new__(cls)
        hist._hold(grid, starts, values)
        return hist

    def _hold(self, grid: GeometricGrid, starts: np.ndarray, values: np.ndarray) -> None:
        starts.flags.writeable = False
        values.flags.writeable = False
        self.grid, self._starts, self._values = grid, starts, values
        self.n = int(values[-1])
        # a first value of 0 is the zeros' run, ahead of bucket 1 or later
        self.buckets = starts[int(values[0] == 0) :]

    @functools.cached_property
    def running(self) -> np.ndarray:
        running = self._values[-self.buckets.size :].astype(np.int64)
        running.flags.writeable = False
        return running

    @functools.cached_property
    def counts(self) -> Mapping[int, int]:
        """Read-only {bucket: count} view of the nonzero buckets."""
        counts = np.diff(self.running, prepend=0)
        return MappingProxyType(dict(zip(self.buckets.tolist(), counts.tolist())))


# sized so a block's shift/log/index buffers stay cache-resident, keeping
# the per-element build cost flat from small n to millions
_BUILD_BLOCK = 1 << 16

# The O(n) passes over data of more than one block cut it into contiguous
# parts of whole blocks (_part_cuts) and run them through _map_parts. A pass
# of one part runs in the calling thread alone. Of several, part 0 runs in
# the calling thread and the rest on the process's pool, keyed by pid so
# that a forked child makes its own. The pool starts its threads as parts
# need them, so a pass of w parts runs w - 1 of them. A part never submits
# to the pool, so nested or concurrent passes cannot deadlock.
_POOLS: dict[tuple[int, int], ThreadPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _pool(workers: int) -> ThreadPoolExecutor:
    # imported here: concurrent.futures imports logging, about 5 ms that a
    # process which never splits a pass does not pay
    from concurrent.futures import ThreadPoolExecutor

    key = (os.getpid(), workers)
    with _POOLS_LOCK:
        pool = _POOLS.get(key)
        if pool is None:
            pool = _POOLS[key] = ThreadPoolExecutor(workers, "uqe-part")
        return pool


def _part_cuts(size: int) -> list[int]:
    """The offsets [0, ..., size] of the contiguous parts of whole
    _BUILD_BLOCK blocks that a pass over size points makes: one per CPU, at
    most, and at least two blocks each, as a part of one block costs more
    CPU time in hand-off and in two cores' contention than it saves."""
    blocks = -(-size // _BUILD_BLOCK)
    w = max(1, min(_cpu_count(), blocks // 2))
    return [_BUILD_BLOCK * (blocks * i // w) for i in range(w)] + [size]


def _map_parts(fn: Callable[[int, int], object], cuts: list[int]) -> list:
    """[fn(lo, hi) for each part [lo, hi) between the cuts], part 0 in the
    calling thread and the rest on the pool.

    A part is a run of the blocks a serial pass reads, so it meets the same
    errors. Every part is waited for before this returns or raises, and the
    error raised is the lowest part's: the one a serial pass meets first.
    """
    if len(cuts) == 2:
        return [fn(0, cuts[1])]
    pool = _pool(_cpu_count() - 1)
    rest = [pool.submit(fn, lo, hi) for lo, hi in zip(cuts[1:-1], cuts[2:])]
    try:
        first = fn(0, cuts[1])
    finally:
        for part in rest:
            part.exception()  # waits for the part, raising nothing
    return [first, *(part.result() for part in rest)]


# a bincount costs O(largest key) and a sort O(n log n): data of one block
# whose largest key is more than _SORT_SPREAD times its size is sorted
_SORT_SPREAD = 4


def _sorted_runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The runs of sorted int64 keys >= 0 (see _key_counts). Behind a 0
    and ahead of a -1, the last of each stretch of equal keys sits at the
    position that counts the keys up to it, a 0 that no key equals too."""
    padded = np.concatenate(([0], keys, [-1]))
    ends = np.flatnonzero(padded[1:] != padded[:-1])
    return padded[ends], ends.astype(float)


def _block_buffers(*shape: int) -> tuple[np.ndarray, ...]:
    """A block's float, int64, float and bool buffers: of shape (m,) for one
    block of m points, or (w, m) with row i for part i."""
    # one allocation for the three 8-byte buffers of every part: malloc can
    # then keep it resident between builds, where separate ones are unmapped
    # or trimmed and fault their pages in again on every build. So the
    # calling thread allocates them, and no pool thread keeps a heap of its
    # own resident between passes.
    wide = np.empty((3, *shape))
    return wide[0], wide[1].view(np.int64), wide[2], np.empty(shape, dtype=bool)


def _add_totals(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b of two count arrays indexed by key, into the longer one."""
    if b.size > a.size:
        a, b = b, a
    a[: b.size] += b
    return a


def _bincount_blocks(
    x: np.ndarray, keys: Callable, buffers: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, int]:
    """The count of each key over x, bincounted block by block in buffers
    that every block reuses, and the sum of the blocks' tallies."""
    totals = np.zeros(0, dtype=np.int64)
    tally = 0
    for start in range(0, x.size, _BUILD_BLOCK):
        block = x[start : start + _BUILD_BLOCK]
        k, block_tally = keys(block, *(buf[: block.size] for buf in buffers))
        totals = _add_totals(totals, np.bincount(k))
        tally += block_tally
    return totals, tally


def _key_counts(x: np.ndarray, keys: Callable) -> tuple[np.ndarray, np.ndarray, int]:
    """The runs of x's keys, and the sum of the integer that keys tallies
    per block: int64 starts, the distinct keys in increasing order and a 0,
    and float values, how many points have a key at most each start. With
    bucket indices for keys, that is the counting stream.

    keys(block, y, idx, work, mask) returns the int64 keys of one
    _BUILD_BLOCK block, computed in float, int64, float and bool buffers of
    the block's size that every block of a part reuses, and its tally (the
    sign split counts zeros). Data of more than one block is bincounted
    block by block, part by part (_map_parts). One block is sorted instead
    when its keys spread wide (_SORT_SPREAD): O(n log n), not O(largest
    bucket index).
    """
    if x.size > _BUILD_BLOCK:
        cuts = _part_cuts(x.size)
        rows = _block_buffers(len(cuts) - 1, _BUILD_BLOCK)
        buffers = {lo: tuple(row[i] for row in rows) for i, lo in enumerate(cuts[:-1])}
        parts = _map_parts(lambda lo, hi: _bincount_blocks(x[lo:hi], keys, buffers[lo]), cuts)
        totals = functools.reduce(_add_totals, (part[0] for part in parts))
        tally = sum(part[1] for part in parts)
    else:
        k, tally = keys(x, *_block_buffers(x.size))
        if k.max() > _SORT_SPREAD * x.size:
            k.sort()
            return (*_sorted_runs(k), tally)
        totals = np.bincount(k)
    # key 0 starts the first run, whether or not a point has it
    totals[0] += 1
    starts = np.flatnonzero(totals)
    totals[0] -= 1
    return starts, np.cumsum(totals[starts], dtype=float), tally


def build_histogram(
    values, beta: float, lower_bound: float, max_queries: int = DEFAULT_MAX_QUERIES
) -> LogBucketHistogram:
    """Shift, bucket and count the data in blocks. O(n) arithmetic.

    The counts are written once, as the counting stream's runs with its
    zeros ahead of the first point in place, and the histogram keeps them
    unchecked (LogBucketHistogram._built). A run capped at max_queries
    reads no bucket past max_queries - 1, so every larger index goes to the
    one bucket max_queries and the grid's powers stop at
    beta^(max_queries+1): time and memory are bounded by the cap, not by
    how many buckets the data span. The cap follows the runner's rule, an
    integer >= 1, and defaults to the runner's.
    """
    check_max_queries(max_queries)
    grid = GeometricGrid(beta, lower_bound)
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        raise ValueError("cannot build a histogram from empty data")

    def keys(block, y, idx, work, mask):
        return grid._bucket_into(grid.shift(block, out=y), max_queries, idx, work, mask), 0

    starts, values, _ = _key_counts(x, keys)
    return LogBucketHistogram._built(grid, starts, values)


def counting_query_stream(
    hist: LogBucketHistogram, max_queries: int = DEFAULT_MAX_QUERIES
) -> QueryStream:
    """f_i = prefix count through bucket i-1: one run per non-empty bucket,
    behind a run of zeros up to the first: the runs the build wrote, read
    without a copy, capped at max_queries.

    Monotonic with sensitivity 1 under swap neighbors: swapping one point
    moves every prefix count by at most 1, in the same direction.
    """
    return QueryStream._built(hist._starts, hist._values, max_queries)


@dataclass(frozen=True)
class QuantileRequest:
    """Everything an estimation run needs besides the data and randomness."""

    q: float
    eps1: float
    eps2: float
    beta: float = 1.001
    noise: NoiseKind = NoiseKind.EXPONENTIAL
    neighbor: NeighborModel = NeighborModel.SWAP
    max_queries: int = DEFAULT_MAX_QUERIES

    def __post_init__(self) -> None:
        _check_q(self.q)
        check_split(self.eps1, self.eps2, self.noise, check_noise_eps)
        check_beta(self.beta)
        check_max_queries(self.max_queries)

    @classmethod
    def even_split(cls, q: float, eps: float, **kwargs) -> "QuantileRequest":
        """The default budget split eps1 = eps2 = eps/2."""
        return cls(q=q, eps1=eps / 2.0, eps2=eps / 2.0, **kwargs)


def request_guarantee(req: QuantileRequest) -> PrivacyGuarantee:
    """Privacy of one estimation run under the request's neighbor model."""
    if req.neighbor is NeighborModel.SWAP:
        return guarantee_for(
            QueryClass.MONOTONIC, req.neighbor, req.noise, req.eps1, req.eps2
        )
    return guarantee_for(
        QueryClass.COUNT_MINUS_QN, req.neighbor, req.noise, req.eps1, req.eps2, q=req.q
    )


@dataclass(frozen=True)
class QuantileEstimate:
    """A grid candidate; halt_index is None when the run hit its query cap."""

    value: float
    halt_index: int | None
    exhausted: bool


def _finish(grid: GeometricGrid, outcome: SvtOutcome) -> QuantileEstimate:
    if outcome.exhausted:
        return QuantileEstimate(grid.value(outcome.cap), None, True)
    return QuantileEstimate(grid.value(outcome.index), outcome.index, False)


def _scan(stream: QueryStream, t: float, req: QuantileRequest, rng: RandomSource | _Words) -> SvtOutcome:
    """AboveThreshold with threshold t under the request's budget and noise,
    its config built unchecked (SvtConfig._built): the request checked its
    split, and t is q * n or a threshold _release checked."""
    return run_above_threshold(stream, SvtConfig._built(req.eps1, req.eps2, req.noise, t), rng)


def estimate_quantile(
    data: Dataset,
    req: QuantileRequest,
    rng: RandomSource | None = None,
    *,
    noiseless: bool = False,
) -> QuantileEstimate:
    """AboveThreshold with T = q*n over the counting stream; output the halt candidate.

    noiseless releases the deterministic first crossing instead of running
    the private mechanism: the package's one deterministic entry point,
    with no privacy guarantee. The tests and the benchmark's oracle check
    use it; no part of the package does.
    """
    if data.lower_bound is None:
        raise ValueError("estimate_quantile needs a declared lower bound")
    if not noiseless:
        _check_source(rng)
    hist = build_histogram(data.values, req.beta, data.lower_bound, req.max_queries)
    return _release(hist, req, rng, noiseless=noiseless)


def _release(
    hist: LogBucketHistogram,
    req: QuantileRequest,
    rng: RandomSource | None,
    *,
    noiseless: bool = False,
    threshold: float | None = None,
) -> QuantileEstimate:
    """estimate_quantile on an already built histogram.

    The histogram must come from build_histogram with the request's beta
    and max_queries. It draws no randomness, so one build can serve every
    (q, eps) release on the same data, each drawing only its own scan noise.
    threshold, if given, replaces q*n: the sum's threshold modes set it
    (uqe.aggregates).
    """
    if threshold is None:
        t = req.q * hist.n
    else:
        t = float(threshold)
        check_threshold(t)
    stream = counting_query_stream(hist, max_queries=req.max_queries)
    if noiseless:
        return _finish(hist.grid, run_above_threshold_noiseless(stream, t))
    return _finish(hist.grid, _scan(stream, t, req, rng))


@dataclass(frozen=True)
class UnboundedEstimate:
    """Result of the two-run estimator for data with no declared bounds.

    first_halt / second_halt are candidate indices k >= 0 (k = 0 means the
    run halted on its sign-counting query), None when that run exhausted its
    cap or, for second_halt, never ran.
    """

    value: float
    exhausted: bool
    first_halt: int | None
    second_halt: int | None
    second_ran: bool


def _sign_split_totals(
    values: np.ndarray, grid: GeometricGrid, max_queries: int
) -> tuple[tuple[np.ndarray, np.ndarray], Callable[[], tuple[np.ndarray, np.ndarray]]]:
    """The runs of both unbounded runs' streams, from one pass over the data.

    Each point is bucketed once, at y = |x| + 1 on the grid with lower bound
    0. For x >= 0 that is the float x - 0 + 1 the first run's shift
    computes, and for x <= 0 the float (-x) - 0 + 1 of the second run's, so
    both runs read the buckets they would build on their own. Returns the
    (starts, values) over x >= 0 (first run), and a function that writes
    those over x <= 0 (second run), which only a first halt at 0 reads. The
    zeros, +0.0 and -0.0 alike, are in bucket 0 of both. g_0 counts the
    points of the other sign, and g_i, i >= 1, adds those in buckets < i:
    monotonic with sensitivity 1 under swap neighbors. The stream's
    position p is candidate index p - 1.
    """

    def keys(block, y, idx, work, mask):
        zeros = int(np.count_nonzero(np.equal(block, 0.0, out=mask)))
        np.abs(block, out=y)
        # |x| + 1 >= 1, and _bucket_into rejects NaN and inf
        y += 1.0
        grid._bucket_into(y, max_queries, idx, work, mask)
        idx *= 2
        idx += np.less(block, 0.0, out=mask)
        return idx, zeros

    signed, running, zeros = _key_counts(values, keys)
    counts = running - np.concatenate(([0.0], running[:-1]))
    negative = (signed & 1).astype(bool)
    nonneg = ~negative
    nonneg[0] = counts[0] > 0  # key 0 may be only the runs' first start
    signed >>= 1
    signed += 1  # bucket b's run starts at b + 1

    def runs(side: np.ndarray, shared: int) -> tuple[np.ndarray, np.ndarray]:
        starts, running = signed[side], counts[side].cumsum()
        head = 2 if shared and not (starts.size and starts[0] == 1) else 1
        running += shared
        other = values.size - (running[-1] if running.size else shared)
        running += other
        starts = np.concatenate(((0, 1)[:head], starts))
        return starts, np.concatenate(((other, other + shared)[:head], running))

    # the zeros sit in the second run's bucket 0 as well
    return runs(nonneg, 0), functools.partial(runs, negative, zeros)


def estimate_quantile_unbounded(
    data: Dataset, req: QuantileRequest, rng: RandomSource
) -> UnboundedEstimate:
    """Quantile estimation with no declared bounds at all.

    First run: T = q*n over g_i = |{x_j + 1 < beta^i}|, i from 0; g_0 counts
    the x_j < 0, of which x_j + 1 rounds to 1 for those closest to zero. A
    halt at k > 0 yields beta^k - 1. A halt at k = 0 says at least ~q*n
    points are negative, so a second run on the negated data with
    T = (1-q)*n searches below zero and a halt at k > 0 yields
    -(beta^k - 1). If that run also halts at 0, the estimate is 0. Each run
    pays the request's (eps1, eps2); the two compose.
    """
    words = _Words(rng, req)  # checks rng before the pass over the data
    grid = GeometricGrid(req.beta, 0.0)
    cap = req.max_queries
    nonneg, nonpos = _sign_split_totals(data.values, grid, cap)
    first = _scan(QueryStream._built(*nonneg, cap), req.q * data.n, req, words)
    if first.exhausted:
        return UnboundedEstimate(grid.value(cap - 1), True, None, None, False)
    k1 = first.index - 1
    if k1 > 0:
        return UnboundedEstimate(grid.power(k1) - 1.0, False, k1, None, False)
    t2 = (1.0 - req.q) * data.n
    second = _scan(QueryStream._built(*nonpos(), cap), t2, req, words)
    if second.exhausted:
        return UnboundedEstimate(-(grid.value(cap - 1)), True, 0, None, True)
    k2 = second.index - 1
    if k2 > 0:
        return UnboundedEstimate(-(grid.power(k2) - 1.0), False, 0, k2, True)
    return UnboundedEstimate(0.0, False, 0, 0, True)


def estimate_small_quantile_inverted(
    data: Dataset, upper_bound: float, req: QuantileRequest, rng: RandomSource
) -> QuantileEstimate:
    """Small quantiles of upper-bounded data: negate, estimate 1-q, negate back."""
    _check_source(rng)
    if not math.isfinite(upper_bound):
        raise ValueError("the upper bound must be finite")
    if data.values.max() > upper_bound:
        raise ValueError("all values must be <= the declared upper bound")
    negated = Dataset(-data.values, lower_bound=-float(upper_bound))
    est = estimate_quantile(negated, replace(req, q=1.0 - req.q), rng)
    return QuantileEstimate(-est.value, est.halt_index, est.exhausted)


# the budget depends on the public (m, eps1, eps2, noise) alone; typed, so
# an int eps gets the int arithmetic an uncached call gives
_budget = functools.lru_cache(maxsize=64, typed=True)(multi_quantile_guarantee)


@dataclass(frozen=True)
class MultiQuantileResult:
    """Jointly estimated quantiles, nondecreasing by construction."""

    quantiles: tuple[float, ...]
    estimates: tuple[float, ...]
    exhausted: tuple[bool, ...]
    empty_slice: tuple[bool, ...]
    budget: MultiQuantileBudget


def _sorted_stream(
    grid: GeometricGrid, y: np.ndarray, cap: int, above: np.ndarray | None = None
) -> tuple[QueryStream, np.ndarray | None]:
    """counting_query_stream(build_histogram(..., max_queries=cap), cap) for
    sorted shifted data y, and the counts below beta^1 .. beta^top when
    they are the stream's values.

    The last bucket, top = min(cap, bucket of y[-1]), holds all y.size
    points. When there are fewer buckets than points, each bucket is a run
    of one query: bucket i < top holds the y below beta^(i+1), each count
    one binary search. Otherwise y is bucketed point by point, and its
    buckets, which increase with it, start the runs, and no counts are
    returned (_sorted_runs). Either way the work is O(min(top, n) log n),
    not O(top).

    above, if given, holds such counts of a sorted array z that y is a
    prefix of, with z's top at least y's, as a multi-quantile left child's
    parent does. y's first top counts are above's: for i <= top, beta^i <=
    beta^top <= y[-1], so the z below beta^i are below y[-1], all in y.
    """
    top = grid._bucket(float(y[-1]), cap)
    if top < y.size:
        cumulative = np.empty(top + 1)
        if above is None:
            cumulative[:top] = y.searchsorted(grid.powers(top + 1)[1:], "left")
        else:
            cumulative[:top] = above[:top]
        cumulative[top] = y.size
        return QueryStream._built(np.arange(top + 1), cumulative, cap), cumulative[:top]
    return QueryStream._built(*_sorted_runs(grid.bucket_indices(y, cap)), cap), None


def estimate_multiple_quantiles(
    data: Dataset,
    qs: Sequence[float],
    req: QuantileRequest,
    rng: RandomSource,
) -> MultiQuantileResult:
    """Recursive splitting: estimate the middle quantile, partition, recurse.

    Each node's threshold is (q_mid - mass_lo) * n_total, fixed in advance by
    the quantile list and the public data size, never by realized slice sizes.
    Ties go left (the left slice takes values <= the estimate). A left child
    keeps its parent's grid but is capped at the parent's halt index; a right
    child restarts the grid at the parent's estimate. Together these force the
    returned estimates to be nondecreasing. An empty slice (or a slice whose
    boundaries leave no room for a candidate) reports its split boundary and
    is flagged.

    The data are sorted once per call. A node is an index range of the
    sorted values, split by binary search at its estimate, and its counting
    stream is the one a capped build of its shifted slice gives
    (_sorted_stream). A left child's shifted slice is a prefix of its
    parent's, read as it is; only a right child shifts its slice anew.
    Nodes run depth first, left before right, the order their noise is
    drawn in.

    The budget is multi_quantile_guarantee's, which holds for swap
    neighbors: the thresholds rest on the public n. Under add-subtract
    neighbors n is private, so that request is a ValueError.
    """
    words = _Words(rng, req)  # one cursor for every node's run
    _check_multi_quantile_neighbor(req.neighbor)
    if data.lower_bound is None:
        raise ValueError("multi-quantile estimation needs a declared lower bound")
    q_arr = np.asarray(qs, dtype=float)
    if q_arr.ndim != 1 or q_arr.size == 0:
        raise ValueError("qs must be a non-empty 1-d sequence")
    # NaN fails every comparison, so these reject it too
    if not (np.diff(q_arr) > 0).all():
        raise ValueError("qs must be sorted and distinct")
    if not (q_arr[0] > 0.0 and q_arr[-1] < 1.0):
        raise ValueError("quantiles must lie strictly inside (0, 1)")

    n_total = data.n
    m = q_arr.size
    estimates = np.empty(m)
    exhausted = [False] * m
    empty = [False] * m
    xs = np.sort(data.values)
    # one grid serves every node: its powers do not depend on the lower
    # bound, so a node only moves the bound
    grid = GeometricGrid(req.beta, data.lower_bound)
    # (xs[a:b], quantiles lo..hi-1, grid lower bound, upper, mass_lo,
    # fallback, and for a left child its shifted slice and parent's counts)
    todo = [(0, n_total, 0, m, data.lower_bound, math.inf, 0.0, data.lower_bound, None, None)]
    while todo:
        a, b, lo, hi, lower, upper, mass_lo, fallback, y, above = todo.pop()
        if lo >= hi:
            continue
        mid = lo + (hi - lo) // 2
        grid.lower_bound = lower
        cap = req.max_queries
        if math.isfinite(upper):
            cap = min(cap, grid.max_index_at_most(upper - lower + 1.0))
        if a == b or cap < 1:
            estimates[lo:hi] = fallback
            empty[lo:hi] = [True] * (hi - lo)
            continue
        if y is None:
            y = grid.shift(xs[a:b])
        stream, counts = _sorted_stream(grid, y, cap, above)
        t = float((q_arr[mid] - mass_lo) * n_total)
        est = _finish(grid, _scan(stream, t, req, words))
        estimates[mid] = est.value
        exhausted[mid] = est.exhausted
        split = a + int(xs[a:b].searchsorted(est.value, "right"))
        # the left child is pushed last, so it runs next
        todo.append((split, b, mid + 1, hi, est.value, upper, q_arr[mid], est.value, None, None))
        left = y[: split - a]
        todo.append((a, split, lo, mid, lower, est.value, mass_lo, est.value, left, counts))
    return MultiQuantileResult(
        quantiles=tuple(float(q) for q in q_arr),
        estimates=tuple(float(v) for v in estimates),
        exhausted=tuple(exhausted),
        empty_slice=tuple(empty),
        budget=_budget(m, req.eps1, req.eps2, req.noise),
    )
