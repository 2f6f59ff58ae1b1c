"""AboveThreshold over counting query streams.

The runner consumes counting queries f_1 <= f_2 <= ..., stored as constant
runs (run starts and run values, one run per non-empty histogram bucket,
the last run open up to the cap), and halts at the first index whose noisy
value clears the noisy threshold. Such queries are monotonic, the class
whose run costs eps1 + eps2 (uqe.accounting). Halting early (or capping
the stream) never hurts privacy, so running out of queries is reported as
an outcome, not an error.

Every query noise value lies within NOISE_REACH * b of zero (b the query
noise scale), so a query with f_i + NOISE_REACH * b < noisy threshold
misses whatever its uniform. Where the data stay out of reach for a long
head, the runner puts the generator past those queries in O(1) and
computes noise from the first query within reach, a block at a time,
rewinding on a hit to just past the halting query; each move is written
from one state read, which an estimator's runs share (_Words). The
first block ends at the first query whose value alone clears the noisy
threshold, so a run nearly always decides in it. Each search is one
binary search over the run values, which never fall. Where the last
query of the first block is within reach of the lowest noisy threshold
there is no such head, and the first block starts at query 1 with the
threshold's word drawn with its queries'. Halt indices, and the
generator's state after every run, are bit for bit those of a
query-by-query loop. The scan's wall time depends on where the data first
come within reach of the threshold: like the build time, it is debug-only.

Many runs on one counting stream, each on a generator of its own, run as
one batch over their first blocks (_first_window_halts); a run that does
not halt there goes on in the runner, past the queries it tested (_past).

For Gumbel noise with eps1 == eps2 the outcome of a run over a finite
query list has a closed-form law (gumbel_outcome_log_pmf), exact at every
budget, which the verification suites use as ground truth and uqe_pdf_curve
as the grid estimator's density; the same module provides the step-wise
exponential-mechanism formulation that is distributionally identical to the
Gumbel run.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._checks import check_eps, check_max_queries, check_source, check_split, check_threshold
from .noise import NOISE_REACH, NoiseKind, NoiseSpec, RandomSource, sample
from .noise import _int_state, _noise_of_words, _place

__all__ = [
    "DEFAULT_MAX_QUERIES",
    "SvtConfig",
    "run_above_threshold",
    "run_above_threshold_noiseless",
    "gumbel_outcome_log_pmf",
    "simulate_halt_indices",
    "simulate_iterative_em",
    "stream_prefix",
]

DEFAULT_MAX_QUERIES = 200_000

# far past where exp under- or overflows, and small enough that no sum of
# three scores overflows
_SCORE_BOUND = np.finfo(float).max / 4

# trials per block in the vectorized simulators; keeps peak memory bounded
_BLOCK = 1 << 18

# query blocks of the runners: the first is small, so a run that halts early
# computes little noise it then discards; sizes double up to a fixed
# ceiling, which bounds a run's temporaries whatever its cap
_FIRST_QUERY_BLOCK = 256
_MAX_QUERY_BLOCK = 1 << 14

# a runner's two noise specs depend on the public (kind, scale) alone
_noise_spec = functools.lru_cache(maxsize=64)(NoiseSpec)


@dataclass(frozen=True, init=False)
class QueryStream:
    """Counting queries in constant runs: f_i = values[j] for starts[j] < i
    <= starts[j+1], capped at max_queries queries.

    starts holds int64 offsets that begin at 0 and increase strictly, and
    values nondecreasing floats of the same length: the package builds its
    streams so (a build, the sign split, a multi-quantile node, _past), and
    the constructor checks only the cap. The last run is open: it goes on
    at values[-1] up to the cap. Every stream has sensitivity 1: swapping
    one point moves a count by at most 1. The arrays are kept without a
    copy and made read-only. The first query is index 1; callers that think
    of their candidate grid as starting elsewhere remap the halt index
    themselves.
    """

    starts: np.ndarray
    values: np.ndarray
    max_queries: int

    def __init__(self, starts: np.ndarray, values: np.ndarray, max_queries: int) -> None:
        check_max_queries(max_queries)
        starts.flags.writeable = False
        values.flags.writeable = False
        # the fields go in __dict__: a frozen __init__'s object.__setattr__ costs more
        d = self.__dict__
        d["starts"], d["values"], d["max_queries"] = starts, values, max_queries


@dataclass(frozen=True, init=False)
class SvtConfig:
    """Budget split, noise family and threshold for one AboveThreshold run."""

    eps1: float
    eps2: float
    noise: NoiseKind
    threshold: float

    def __init__(self, eps1: float, eps2: float, noise: NoiseKind, threshold: float) -> None:
        check_split(eps1, eps2, noise)
        check_threshold(threshold)
        # the fields go in __dict__: a frozen __init__'s object.__setattr__ costs more
        d = self.__dict__
        d["eps1"], d["eps2"], d["noise"], d["threshold"] = eps1, eps2, noise, threshold


@dataclass(frozen=True)
class SvtOutcome:
    """Halt index (1-based) or the exhaustion marker with the cap value."""

    index: int | None
    cap: int | None = None

    @property
    def exhausted(self) -> bool:
        return self.index is None


def _run_at(starts: np.ndarray, offset: int) -> int:
    """Index of the run that holds query offset >= 0."""
    # runs of one query each up to the offset, the open last run, and a
    # first run that reaches past the offset (a counting stream's zeros
    # ahead of the data) need no search
    if offset < starts.size and starts[offset] == offset:
        return offset
    if offset >= starts[-1]:
        return starts.size - 1
    if offset < starts[1]:
        return 0
    return int(starts.searchsorted(offset, "right")) - 1


def _window(stream: QueryStream, start: int, stop: int) -> np.ndarray:
    """Query values f_{start+1} .. f_stop: each run's value repeated over
    its part of the window."""
    starts = stream.starts
    j, k = starts.searchsorted((start, stop - 1), "right").tolist()
    j -= 1
    if k - j == stop - start:  # one query per run
        return stream.values[j:k]
    edges = np.empty(k - j + 1, dtype=np.int64)
    edges[0], edges[1:-1], edges[-1] = start, starts[j + 1 : k], stop
    return stream.values[j:k].repeat(edges[1:] - edges[:-1])


def _first_within(stream: QueryStream, start: int, reach: float, level: float) -> int:
    """Offset of the first query at or after offset start with f + reach
    >= level, or the cap if none: one binary search of values + reach
    (which rounded addition keeps nondecreasing) from the run holding start."""
    j = _run_at(stream.starts, start)
    run = j + int((stream.values[j:] + reach if reach else stream.values[j:]).searchsorted(level))
    if run == stream.starts.size:
        return stream.max_queries
    return min(max(start, int(stream.starts[run])), stream.max_queries)


# the words drawn past a block that begins inside words drawn before it (not after a skip)
_DRAW_AHEAD = 1024
_NONE_HELD = np.empty(0)


class _Words:
    """A cursor over one generator's words for the consecutive runs of one
    split (an SvtConfig's or QuantileRequest's eps1, eps2 and noise): word
    a is the a-th past its one state read. It holds the noise of the words
    drawn from base on, at the scale of both noise specs when eps1 == eps2,
    else at scale 1, which b times gives scale b bit for bit."""

    __slots__ = ("gen", "start", "_state", "_spec", "_noise", "_base", "_at")

    def __init__(self, rng: RandomSource, split) -> None:
        check_source(rng)
        self.gen = rng.gen
        self._state = _int_state(rng.gen.bit_generator.state)
        self._spec = _noise_spec(split.noise, 1.0 / split.eps2 if split.eps1 == split.eps2 else 1.0)
        self._noise = _NONE_HELD
        self.start = self._base = self._at = 0

    def threshold(self, scale: float):
        """The noise at scale of the run's threshold, word start: held, or
        drawn alone where finish (or the state read) left the generator."""
        if self.start < self._base + self._noise.size:
            noise = self._noise[self.start - self._base]
        else:
            self._at += 1
            noise = _noise_of_words(self._spec, self.gen.bit_generator.random_raw())
        return noise if scale == self._spec.scale else scale * noise

    def noise(self, lo: int, hi: int, ahead: bool, scale: float) -> np.ndarray:
        """The noise at scale of words lo .. hi - 1, drawing those not held:
        _DRAW_AHEAD more if the block begins inside them and asks to."""
        base, held = self._base, self._noise
        end = base + held.size
        if hi > end:
            first = end if lo < end else lo
            if self._at != first:
                _place(self.gen.bit_generator, self._state, first)
            count = hi - first + (_DRAW_AHEAD if ahead and lo < end else 0)
            noise = _noise_of_words(self._spec, self.gen.bit_generator.random_raw(count))
            if lo < end:
                noise = np.concatenate((held[lo - base :], noise))
            self._noise, self._base, self._at = noise, lo, first + count
        noise = self._noise[lo - self._base : hi - self._base]
        return noise if scale == self._spec.scale else scale * noise

    def finish(self, a: int) -> None:
        """End a run: the generator at word a, the next run's start."""
        _place(self.gen.bit_generator, self._state, a)
        self.start = self._at = a


def run_above_threshold(stream: QueryStream, cfg: SvtConfig, rng: RandomSource | _Words) -> SvtOutcome:
    """Noisy threshold, then one noisy comparison per query until a hit.

    The threshold takes the run's first uniform, and the query at offset o
    (f_(o+1)) uniform 1 + o. Queries with f + NOISE_REACH * b < noisy
    threshold cannot hit, so their uniforms are skipped without computing
    them. From the next query within reach, each block of queries gets its
    noise from one array of raw words, and argmax finds the first hit. The
    block after a skip runs through the first query whose value alone
    clears the noisy threshold, in 256 to 16,384 queries (256 if none
    does); later blocks double. rng is a RandomSource, or the cursor
    (_Words) an estimator passes each of its runs. Every move of the
    generator is written from the cursor's one state read (noise._place),
    and the run ends with one, just past a hit or past the cap. So the
    halt index and the generator's state are those of a query-by-query loop.

    When query min(256, cap) is within reach of the lowest noisy threshold
    the noise allows, there is no head to skip: the first block starts at
    query 1 and carries the threshold's word. Its queries out of reach get
    noise too, but cannot hit.

    The reach test is written as the hit test is, f + reach >= noisy
    threshold: rounded addition is monotone, so noise <= reach gives
    f + noise <= f + reach in floating point too, where f >= noisy
    threshold - reach would round the subtraction and skip hits.
    """
    rng = rng if isinstance(rng, _Words) else _Words(rng, cfg)
    threshold_scale, query_scale = 1.0 / cfg.eps1, 1.0 / cfg.eps2
    reach = NOISE_REACH * query_scale
    cap = stream.max_queries
    # the threshold's word; the query at offset o is word first + 1 + o
    first = rng.start
    drawn = start = 0
    size = min(_FIRST_QUERY_BLOCK, cap)
    # words ahead of the block's queries: the threshold's, in a head block
    head = stream.values[_run_at(stream.starts, size - 1)] + reach
    lead = 1 if head >= cfg.threshold - NOISE_REACH * threshold_scale else 0
    if not lead:
        noisy_t = cfg.threshold + rng.threshold(threshold_scale)
    while lead or (start := _first_within(stream, drawn, reach, noisy_t)) < cap:
        if start > drawn:
            clears = _first_within(stream, start, 0.0, noisy_t)
            size = min(max(clears + 1 - start, _FIRST_QUERY_BLOCK), _MAX_QUERY_BLOCK)
            size = _FIRST_QUERY_BLOCK if clears == cap else size
        stop = min(start + size, cap)
        vals = _window(stream, start, stop)
        noise = rng.noise(first + 1 - lead + start, first + 1 + stop, start == drawn, query_scale)
        if lead:
            noisy_t = cfg.threshold + rng.threshold(threshold_scale)
            noise = noise[1:]
        hits = vals + noise >= noisy_t
        h = int(hits.argmax())
        if hits[h]:
            rng.finish(first + 2 + start + h)
            return SvtOutcome(start + h + 1)
        drawn, size, lead = stop, min(2 * size, _MAX_QUERY_BLOCK), 0
    rng.finish(first + 1 + cap)
    return SvtOutcome(None, cap)


def _first_window_halts(
    stream: QueryStream,
    thresholds: np.ndarray,
    eps1: float,
    eps2: float,
    noise: NoiseKind,
    source: RandomSource,
    keys,
) -> np.ndarray:
    """The runs of many thresholds on one counting stream, as one batch:
    run i is run_above_threshold(stream, SvtConfig(eps1, eps2, noise,
    thresholds[i]), rng) with rng a fresh RandomSource(source.seed, keys[i]).

    Returns each run's halt index, or the cap where it exhausts. The
    threshold words are noised as one array, and so is each run's window
    of _FIRST_QUERY_BLOCK queries from its first query within reach. A run
    that misses there, short of the cap, at offset o, goes on in
    run_above_threshold on _past(stream, o). source ends re-keyed.
    """
    raw = source.gen.bit_generator.random_raw
    words = np.empty(len(keys), dtype=np.uint64)
    for i, key in enumerate(keys):
        source._rekey(key)
        words[i] = raw()
    noisy_t = thresholds + _noise_of_words(_noise_spec(noise, 1.0 / eps1), words)
    query_spec = _noise_spec(noise, 1.0 / eps2)
    reach = NOISE_REACH * query_spec.scale
    # the window starts, _first_within(stream, 0, reach, t) of every t at once
    cap, size = stream.max_queries, _FIRST_QUERY_BLOCK
    run = np.searchsorted(stream.values + reach, noisy_t)
    at = np.minimum(np.append(stream.starts, cap)[run], cap)
    words = np.empty((len(keys), size), dtype=np.uint64)
    for row, key, start in zip(words, keys, at.tolist()):
        source._rekey(key, 1 + start)
        row[...] = raw(size)
    offsets = at[:, None] + np.arange(size)
    vals = stream.values[stream.starts.searchsorted(offsets, "right") - 1]
    hits = (vals + _noise_of_words(query_spec, words) >= noisy_t[:, None]) & (offsets < cap)
    h = hits.argmax(axis=1)
    hit = hits[np.arange(len(keys)), h]
    # a halt where the window hit, else the offset the run goes on from
    halts = np.where(hit, at + h + 1, np.minimum(at + size, cap))
    for i in np.flatnonzero(~hit & (halts < cap)).tolist():
        source._rekey(keys[i])
        cfg = SvtConfig(eps1, eps2, noise, float(thresholds[i]))
        outcome = run_above_threshold(_past(stream, int(halts[i])), cfg, source)
        halts[i] = outcome.cap if outcome.exhausted else outcome.index
    return halts


def _past(stream: QueryStream, offset: int) -> QueryStream:
    """stream with its first offset >= 1 queries -inf, which no noise lifts."""
    j = _run_at(stream.starts, offset)
    starts = np.append((0, offset), stream.starts[j + 1 :])
    return QueryStream(starts, np.append(-np.inf, stream.values[j:]), stream.max_queries)


def run_above_threshold_noiseless(
    stream: QueryStream, threshold: float
) -> SvtOutcome:
    """Deterministic halt at the first f_i >= threshold. Test hook only:
    the private runner never branches on this path."""
    check_threshold(threshold)
    i = _first_within(stream, 0, 0.0, threshold)
    if i < stream.max_queries:
        return SvtOutcome(i + 1)
    return SvtOutcome(None, stream.max_queries)


def gumbel_outcome_log_pmf(values: Sequence[float], threshold: float, eps: float) -> np.ndarray:
    """log P of each outcome of AboveThreshold on the query list values
    under Gumbel noise with eps1 = eps2 = eps: entry 0 is no halt, entry k
    a halt at query k, the labels of simulate_halt_indices.

    With scores s_0 = 0, s_k = eps * (f_k - threshold) clipped to
    +-_SCORE_BOUND (which moves no entry's exp), and L_k = log sum_{i<=k}
    exp(s_i), a halt at k has log-probability (s_k - L_k) + (s_0 - L_{k-1})
    and no halt s_0 - L_K: sums of non-positive terms, which neither
    overflow nor cancel, so the exps sum to 1 within rounding at any eps.
    """
    check_eps(eps)
    check_threshold(threshold)
    with np.errstate(over="ignore"):
        scores = eps * (np.asarray(values, dtype=float) - threshold)
    scores = np.concatenate(([0.0], np.clip(scores, -_SCORE_BOUND, _SCORE_BOUND)))
    lse = np.logaddexp.accumulate(scores)
    return np.concatenate(([-lse[-1]], (scores[1:] - lse[1:]) - lse[:-1]))


def simulate_halt_indices(
    values: Sequence[float], cfg: SvtConfig, rng: RandomSource, trials: int
) -> np.ndarray:
    """Vectorized AboveThreshold over a finite query list.

    Returns an int array of halt indices in 1..K, with 0 meaning no halt
    within the K queries. Distributionally identical to run_above_threshold
    on the same finite stream.
    """
    values = np.asarray(values, dtype=float)
    k = len(values)
    t_spec = NoiseSpec(cfg.noise, 1.0 / cfg.eps1)
    q_spec = NoiseSpec(cfg.noise, 1.0 / cfg.eps2)
    out = np.empty(trials, dtype=np.int64)
    done = 0
    while done < trials:
        m = min(_BLOCK, trials - done)
        noisy_t = cfg.threshold + sample(t_spec, rng, m)
        hits = values[None, :] + sample(q_spec, rng, (m, k)) >= noisy_t[:, None]
        any_hit = hits.any(axis=1)
        out[done : done + m] = np.where(any_hit, hits.argmax(axis=1) + 1, 0)
        done += m
    return out


def simulate_iterative_em(
    values: Sequence[float], threshold: float, eps: float, rng: RandomSource, trials: int
) -> np.ndarray:
    """Step-wise exponential mechanism over a finite query list, trials at
    a time; 0 = no halt.

    At step i each trial selects from {threshold, f_1, ..., f_i} with
    exponent eps/2 and halts iff it picks f_i. Distributionally identical
    to the Gumbel run with eps1 = eps2 = eps/2.
    """
    values = np.asarray(values, dtype=float)
    k = len(values)
    s = eps / 2.0
    scores = np.concatenate(([s * threshold], s * values))
    out = np.empty(trials, dtype=np.int64)
    done = 0
    while done < trials:
        m = min(_BLOCK, trials - done)
        halted_at = np.zeros(m, dtype=np.int64)
        for i in range(1, k + 1):
            gums = -np.log(-np.log(rng.uniform_open((m, i + 1))))
            picked_newest = (scores[None, : i + 1] + gums).argmax(axis=1) == i
            halted_at = np.where((halted_at == 0) & picked_newest, i, halted_at)
        out[done : done + m] = halted_at
        done += m
    return out


def stream_prefix(stream: QueryStream, k: int) -> np.ndarray:
    """Materialize the first k query values of a stream, whatever its cap."""
    check_max_queries(k)
    return _window(stream, 0, k)
