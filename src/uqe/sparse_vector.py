"""AboveThreshold over adaptive query streams.

The runner consumes a stream of query values f_1, f_2, ..., stored as
constant runs (run starts and run values, the last run open up to the cap),
and halts at the first index whose noisy value clears the noisy threshold.
A counting stream has one run per non-empty histogram bucket; a generic
array of values is runs of length 1.
Halting early (or capping the stream) never hurts privacy, so running out of
queries is reported as an outcome, not an error.

Every query noise value lies within NOISE_REACH * b of zero (b the query
noise scale), so a query with f_i + NOISE_REACH * b < noisy threshold
misses whatever its uniform. The runner computes noise only from the first
query within that reach: it moves the generator past the others in O(1)
(RandomSource.skip), then compares blocks of queries, and on a hit rewinds
to just past the halting query. The search for that first query reads
runs, not queries, so it costs O(runs) however far the stream reaches.
Halt indices, and the generator's state after every run, are bit for bit
those of a query-by-query loop that draws one uniform per query. The scan's
wall time therefore depends on how many runs come before the data first
comes within reach of the threshold: like the build time, it is a
debug-only quantity, never one to release.

For Gumbel noise with eps1 == eps2 the halt index has a closed-form PMF,
which the verification suites use as ground truth; the same module provides
the step-wise exponential-mechanism formulation that is distributionally
identical to the Gumbel run.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .noise import NOISE_REACH, NoiseKind, NoiseSpec, RandomSource, sample

__all__ = [
    "DEFAULT_MAX_QUERIES",
    "QueryStream",
    "check_max_queries",
    "check_eps",
    "check_split",
    "SvtConfig",
    "SvtOutcome",
    "run_above_threshold",
    "run_above_threshold_noiseless",
    "run_iterative_em",
    "gumbel_halt_log_pmf",
    "gumbel_no_halt_prob",
    "simulate_halt_indices",
    "simulate_iterative_em",
    "stream_prefix",
]

DEFAULT_MAX_QUERIES = 200_000

# trials per block in the vectorized simulators; keeps peak memory bounded
_BLOCK = 1 << 18

# query blocks of the runners: the first is small, so a run that halts early
# computes little noise it then discards; sizes double up to a fixed
# ceiling, which bounds a run's temporaries whatever its cap
_FIRST_QUERY_BLOCK = 256
_MAX_QUERY_BLOCK = 1 << 14


def check_max_queries(max_queries) -> None:
    """The query cap rule: an integer >= 1."""
    try:
        operator.index(max_queries)
    except TypeError:
        raise ValueError("max_queries must be an integer") from None
    if max_queries < 1:
        raise ValueError("max_queries must be at least 1")


def check_eps(eps: float, name: str = "eps") -> None:
    """The budget rule: eps is a finite number > 0."""
    if not 0 < eps < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {eps!r}")


def check_split(eps1: float, eps2: float, noise: NoiseKind) -> None:
    """The budget split of one run: eps1 and eps2 obey check_eps, and
    Gumbel noise needs eps1 == eps2."""
    check_eps(eps1, "eps1")
    check_eps(eps2, "eps2")
    if noise is NoiseKind.GUMBEL and eps1 != eps2:
        raise ValueError("Gumbel noise requires eps1 == eps2")


@dataclass(frozen=True)
class QueryStream:
    """Query values in constant runs: f_i = values[j] for starts[j] < i <=
    starts[j+1], capped at max_queries queries.

    starts begins at 0 and increases strictly. The last run is open: it
    goes on at values[-1] up to the cap. Every stream has sensitivity 1:
    the package builds only counting streams, and swapping one point moves
    a count by at most 1. The first query is index 1; callers that think of
    their candidate grid as starting elsewhere remap the halt index
    themselves.

    starts already int64 and values already float are kept without a copy,
    and made read-only.
    """

    starts: np.ndarray
    values: np.ndarray
    max_queries: int = DEFAULT_MAX_QUERIES

    def __post_init__(self) -> None:
        starts = np.asarray(self.starts, dtype=np.int64)
        values = np.asarray(self.values, dtype=float)
        if starts.ndim != 1 or values.shape != starts.shape or not starts.size:
            raise ValueError("starts and values must be 1-d, of one length >= 1")
        if starts[0] != 0 or np.count_nonzero(starts[1:] <= starts[:-1]):
            raise ValueError("run starts must begin at 0 and increase strictly")
        check_max_queries(self.max_queries)
        starts.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class SvtConfig:
    """Budget split, noise family and threshold for one AboveThreshold run."""

    eps1: float
    eps2: float
    noise: NoiseKind
    threshold: float

    def __post_init__(self) -> None:
        check_split(self.eps1, self.eps2, self.noise)


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
    # runs of one query each up to the offset, and the open last run, need
    # no search
    if offset < starts.size and starts[offset] == offset:
        return offset
    if offset >= starts[-1]:
        return starts.size - 1
    return int(starts.searchsorted(offset, "right")) - 1


def _window(stream: QueryStream, start: int, stop: int) -> np.ndarray:
    """Query values f_{start+1} .. f_stop: each run's value repeated over
    its part of the window."""
    starts = stream.starts
    j, k = _run_at(starts, start), _run_at(starts, stop - 1) + 1
    if k - j == stop - start:  # one query per run
        return stream.values[j:k]
    edges = np.empty(k - j + 1, dtype=np.int64)
    edges[0], edges[1:-1], edges[-1] = start, starts[j + 1 : k], stop
    return stream.values[j:k].repeat(edges[1:] - edges[:-1])


def _first_within(stream: QueryStream, start: int, reach: float, level: float) -> int:
    """Offset of the first query at or after offset start with
    f + reach >= level, or the cap if there is none.

    The runs from the one holding start are searched in windows that double
    from _FIRST_QUERY_BLOCK runs, so a query found d runs on costs O(d),
    however many queries those runs span; no order of the values is assumed.
    """
    starts, values, cap = stream.starts, stream.values, stream.max_queries
    j, size = _run_at(starts, start), _FIRST_QUERY_BLOCK
    # the last window read may reach past the cap; a hit there reads as the cap
    while j < starts.size and starts[j] < cap:
        near = values[j : j + size] + reach >= level
        i = int(near.argmax())
        if near[i]:
            return min(max(start, int(starts[j + i])), cap)
        j, size = j + near.size, min(2 * size, _MAX_QUERY_BLOCK)
    return cap


def run_above_threshold(
    stream: QueryStream, cfg: SvtConfig, rng: RandomSource
) -> SvtOutcome:
    """Noisy threshold, then one noisy comparison per query until a hit.

    Queries with f + NOISE_REACH * b < noisy threshold cannot hit, so the
    generator skips their uniforms without computing them. From the next
    query within reach, each block of queries gets its noise from one
    sample() call, and argmax finds the first hit; blocks restart small
    after every skip. A hit rewinds the generator to the block's start and
    moves it past the uniforms up to and including the hit. So the halt
    index and the generator's state afterwards are those of a
    query-by-query loop.

    The reach test is written as the hit test is, f + reach >= noisy
    threshold: rounded addition is monotone, so noise <= reach gives
    f + noise <= f + reach in floating point too. The form
    f >= noisy threshold - reach rounds the subtraction, and with a bound
    that noise can attain it skips hits.
    """
    noisy_t = cfg.threshold + sample(NoiseSpec(cfg.noise, 1.0 / cfg.eps1), rng)
    query_spec = NoiseSpec(cfg.noise, 1.0 / cfg.eps2)
    reach = NOISE_REACH * query_spec.scale
    cap = stream.max_queries
    bit_generator = rng.gen.bit_generator
    drawn, size = 0, _FIRST_QUERY_BLOCK
    while (start := _first_within(stream, drawn, reach, noisy_t)) < cap:
        if start > drawn:
            rng.skip(start - drawn)
            size = _FIRST_QUERY_BLOCK
        stop = min(start + size, cap)
        vals = _window(stream, start, stop)
        saved = bit_generator.state
        hits = vals + sample(query_spec, rng, vals.size) >= noisy_t
        h = int(hits.argmax())
        if hits[h]:
            bit_generator.state = saved
            rng.skip(h + 1)
            return SvtOutcome(start + h + 1)
        drawn, size = stop, min(2 * size, _MAX_QUERY_BLOCK)
    rng.skip(cap - drawn)
    return SvtOutcome(None, cap)


def run_above_threshold_noiseless(
    stream: QueryStream, threshold: float
) -> SvtOutcome:
    """Deterministic halt at the first f_i >= threshold. Test hook only:
    the private runner never branches on this path."""
    i = _first_within(stream, 0, 0.0, threshold)
    if i < stream.max_queries:
        return SvtOutcome(i + 1)
    return SvtOutcome(None, stream.max_queries)


def run_iterative_em(
    stream: QueryStream, threshold: float, eps: float, rng: RandomSource
) -> SvtOutcome:
    """Step-wise exponential mechanism that halts when it picks the newest query.

    At step i the mechanism selects from {threshold, f_1, ..., f_i} with
    exponent eps/2 and halts iff it picks f_i. Distributionally identical
    to the Gumbel run with eps1 = eps2 = eps/2.
    """
    check_eps(eps)
    s = eps / 2.0
    scores = [s * threshold]
    values = _window(stream, 0, stream.max_queries).tolist()
    for i, value in enumerate(values, start=1):
        scores.append(s * value)
        gums = -np.log(-np.log(rng.uniform_open(len(scores))))
        if int(np.argmax(np.asarray(scores) + gums)) == i:
            return SvtOutcome(i)
    return SvtOutcome(None, stream.max_queries)


def _scaled_prefix_lse(values, threshold: float, eps: float):
    """L[k] = log(exp(eps*T) + sum_{i<=k} exp(eps*f_i)) for k = 0..K."""
    scaled = np.concatenate(([eps * threshold], eps * np.asarray(values, dtype=float)))
    return scaled, np.logaddexp.accumulate(scaled)


def gumbel_halt_log_pmf(values: Sequence[float], threshold: float, eps: float) -> np.ndarray:
    """log P[halt at k] for k = 1..K under Gumbel noise with eps1 = eps2 = eps.

    Everything stays in log space; query values that push exponents past the
    float range are handled by logaddexp, not by exponentiating directly.
    """
    scaled, lse = _scaled_prefix_lse(values, threshold, eps)
    return scaled[1:] + scaled[0] - lse[1:] - lse[:-1]


def gumbel_no_halt_prob(values: Sequence[float], threshold: float, eps: float) -> float:
    """P[no halt within the K supplied queries]; 1.0 for an empty list."""
    scaled, lse = _scaled_prefix_lse(values, threshold, eps)
    return float(np.exp(scaled[0] - lse[-1]))


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
    """Vectorized run_iterative_em over a finite query list; 0 = no halt."""
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
