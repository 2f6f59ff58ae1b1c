"""AboveThreshold over adaptive query streams.

The runner consumes a lazily evaluated stream of query values f_1, f_2, ...
and halts at the first index whose noisy value clears the noisy threshold.
Halting early (or capping the stream) never hurts privacy, so running out of
queries is reported as an outcome, not an error.

Queries are read and compared a block at a time; on a hit the generator is
rewound so that it has drawn exactly one uniform per query up to the halt,
as a query-by-query loop would.

For Gumbel noise with eps1 == eps2 the halt index has a closed-form PMF,
which the verification suites use as ground truth; the same module provides
the step-wise exponential-mechanism formulation that is distributionally
identical to the Gumbel run.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Callable, Iterator, Sequence

import numpy as np

from .noise import NoiseKind, NoiseSpec, RandomSource, sample

__all__ = [
    "DEFAULT_MAX_QUERIES",
    "QueryStream",
    "ArrayStream",
    "SvtConfig",
    "SvtOutcome",
    "run_above_threshold",
    "run_above_threshold_noiseless",
    "run_iterative_em",
    "gumbel_halt_log_pmf",
    "gumbel_outcome_pmf",
    "gumbel_no_halt_prob",
    "simulate_halt_indices",
    "simulate_iterative_em",
    "stream_prefix",
]

DEFAULT_MAX_QUERIES = 200_000

# trials per block in the vectorized simulators; keeps peak memory bounded
_BLOCK = 1 << 18

# query blocks of the runners: the first is small, so a run that halts early
# draws little noise it then discards; sizes double up to a fixed ceiling,
# which bounds a run's temporaries whatever its cap
_FIRST_QUERY_BLOCK = 256
_MAX_QUERY_BLOCK = 1 << 14


@dataclass(frozen=True)
class QueryStream:
    """An adaptive query sequence with its stability metadata.

    values() must return a fresh iterator over f_1, f_2, ... each time it is
    called. sensitivity is the worst-case |f_i(x) - f_i(x')| over declared
    neighbors; monotonic means f_i(x) - f_i(x') keeps one sign along i.
    The first query is index 1; callers that think of their candidate grid
    as starting elsewhere remap the halt index themselves.
    """

    values: Callable[[], Iterator[float]]
    sensitivity: float = 1.0
    monotonic: bool = False
    max_queries: int = DEFAULT_MAX_QUERIES

    def __post_init__(self) -> None:
        if not self.sensitivity > 0:
            raise ValueError("sensitivity must be positive")
        try:
            operator.index(self.max_queries)
        except TypeError:
            raise ValueError("max_queries must be an integer") from None
        if self.max_queries < 1:
            raise ValueError("max_queries must be at least 1")

    def reader(self) -> Callable[[int], np.ndarray]:
        """A fresh reader: each call read(m) returns the next m query values,
        fewer once the stream has ended."""
        it = self.values()
        return lambda m: np.fromiter(islice(it, m), dtype=float)

    @classmethod
    def from_values(
        cls,
        seq: Sequence[float],
        sensitivity: float = 1.0,
        monotonic: bool = False,
        max_queries: int | None = None,
    ) -> "QueryStream":
        vals = np.fromiter(seq, dtype=float)
        cap = vals.size if max_queries is None else max_queries
        return ArrayStream(vals, None, sensitivity, monotonic, cap)


class ArrayStream(QueryStream):
    """f_i = head[i-1] for i <= len(head), then tail forever; the stream ends
    after head when tail is None. Blocks are slices, not iterator steps."""

    def __init__(
        self,
        head,
        tail: float | None = None,
        sensitivity: float = 1.0,
        monotonic: bool = False,
        max_queries: int = DEFAULT_MAX_QUERIES,
    ) -> None:
        head = np.array(head, dtype=float)
        if head.ndim != 1:
            raise ValueError("head must be 1-d")
        head.flags.writeable = False
        tail = None if tail is None else float(tail)
        # values must not refer back to self: a reference cycle would keep
        # every run's arrays alive until the next full garbage collection
        super().__init__(partial(_iterate, head, tail), sensitivity, monotonic, max_queries)
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "tail", tail)

    def reader(self) -> Callable[[int], np.ndarray]:
        head, tail = self.head, self.tail
        pos = 0

        def read(m: int) -> np.ndarray:
            nonlocal pos
            start, pos = pos, pos + m
            block = head[start:pos]
            if block.size < m and tail is not None:
                block = np.concatenate((block, np.full(m - block.size, tail)))
            return block

        return read


def _iterate(head: np.ndarray, tail: float | None) -> Iterator[float]:
    yield from head.tolist()
    while tail is not None:
        yield tail


@dataclass(frozen=True)
class SvtConfig:
    """Budget split, noise family and threshold for one AboveThreshold run."""

    eps1: float
    eps2: float
    noise: NoiseKind
    threshold: float

    def __post_init__(self) -> None:
        if not (self.eps1 > 0 and self.eps2 > 0):
            raise ValueError("eps1 and eps2 must be positive")
        if self.noise is NoiseKind.GUMBEL and self.eps1 != self.eps2:
            raise ValueError("Gumbel noise requires eps1 == eps2")


@dataclass(frozen=True)
class SvtOutcome:
    """Halt index (1-based) or the exhaustion marker with the cap value."""

    index: int | None
    cap: int | None = None

    @property
    def exhausted(self) -> bool:
        return self.index is None

    @classmethod
    def halt(cls, index: int) -> "SvtOutcome":
        return cls(index=int(index))

    @classmethod
    def out_of_queries(cls, cap: int) -> "SvtOutcome":
        return cls(index=None, cap=int(cap))


def _blocks(stream: QueryStream) -> Iterator[tuple[int, np.ndarray]]:
    """(offset, values) for consecutive blocks of the stream, up to its cap."""
    read = stream.reader()
    start, size = 0, _FIRST_QUERY_BLOCK
    while start < stream.max_queries:
        vals = read(min(size, stream.max_queries - start))
        if vals.size == 0:
            return
        yield start, vals
        start += vals.size
        size = min(2 * size, _MAX_QUERY_BLOCK)


def run_above_threshold(
    stream: QueryStream, cfg: SvtConfig, rng: RandomSource
) -> SvtOutcome:
    """Noisy threshold, then one noisy comparison per query until a hit.

    Each block of queries gets its noise from one sample() call, and argmax
    finds the first hit. A hit rewinds the generator to the block's start
    and redraws the uniforms up to and including the hit, so the halt index
    and the generator's position afterwards are those of a query-by-query
    loop.
    """
    delta = stream.sensitivity
    noisy_t = cfg.threshold + sample(NoiseSpec(cfg.noise, delta / cfg.eps1), rng)
    query_spec = NoiseSpec(cfg.noise, delta / cfg.eps2)
    bit_generator = rng.gen.bit_generator
    for start, vals in _blocks(stream):
        saved = bit_generator.state
        hits = vals + sample(query_spec, rng, vals.size) >= noisy_t
        h = int(hits.argmax())
        if hits[h]:
            bit_generator.state = saved
            rng.uniform_open(h + 1)
            return SvtOutcome.halt(start + h + 1)
    return SvtOutcome.out_of_queries(stream.max_queries)


def run_above_threshold_noiseless(
    stream: QueryStream, threshold: float
) -> SvtOutcome:
    """Deterministic halt at the first f_i >= threshold. Test hook only:
    the private runner never branches on this path."""
    for start, vals in _blocks(stream):
        hits = vals >= threshold
        h = int(hits.argmax())
        if hits[h]:
            return SvtOutcome.halt(start + h + 1)
    return SvtOutcome.out_of_queries(stream.max_queries)


def run_iterative_em(
    stream: QueryStream, threshold: float, eps: float, rng: RandomSource
) -> SvtOutcome:
    """Step-wise exponential mechanism that halts when it picks the newest query.

    At step i the mechanism selects from {threshold, f_1, ..., f_i} with
    exponent eps/(2*sensitivity) and halts iff it picks f_i. Distributionally
    identical to the Gumbel run with eps1 = eps2 = eps/2.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    s = eps / (2.0 * stream.sensitivity)
    scores = [s * threshold]
    for i, value in enumerate(stream.values(), start=1):
        scores.append(s * value)
        gums = -np.log(-np.log(rng.uniform_open(len(scores))))
        if int(np.argmax(np.asarray(scores) + gums)) == i:
            return SvtOutcome.halt(i)
        if i >= stream.max_queries:
            break
    return SvtOutcome.out_of_queries(stream.max_queries)


def _scaled_prefix_lse(values, threshold: float, eps: float, sensitivity: float):
    """L[k] = log(exp(s*T) + sum_{i<=k} exp(s*f_i)) for k = 0..K, s = eps/delta."""
    s = eps / sensitivity
    scaled = np.concatenate(([s * threshold], s * np.asarray(values, dtype=float)))
    return scaled, np.logaddexp.accumulate(scaled)


def gumbel_halt_log_pmf(
    values: Sequence[float], threshold: float, eps: float, sensitivity: float = 1.0
) -> np.ndarray:
    """log P[halt at k] for k = 1..K under Gumbel noise with eps1 = eps2 = eps.

    Everything stays in log space; query values that push exponents past the
    float range are handled by logaddexp, not by exponentiating directly.
    """
    scaled, lse = _scaled_prefix_lse(values, threshold, eps, sensitivity)
    return scaled[1:] + scaled[0] - lse[1:] - lse[:-1]


def gumbel_outcome_pmf(
    values: Sequence[float],
    threshold: float,
    eps: float,
    sensitivity: float,
    k: int,
) -> float:
    """P[halt at k] under Gumbel noise with eps1 = eps2 = eps."""
    values = np.asarray(values, dtype=float)
    if not 1 <= k <= len(values):
        raise ValueError(f"k must be in 1..{len(values)}, got {k}")
    return float(np.exp(gumbel_halt_log_pmf(values, threshold, eps, sensitivity)[k - 1]))


def gumbel_no_halt_prob(
    values: Sequence[float], threshold: float, eps: float, sensitivity: float = 1.0
) -> float:
    """P[no halt within the K supplied queries]; 1.0 for an empty list."""
    values = np.asarray(values, dtype=float)
    if len(values) == 0:
        return 1.0
    scaled, lse = _scaled_prefix_lse(values, threshold, eps, sensitivity)
    return float(np.exp(scaled[0] - lse[-1]))


def simulate_halt_indices(
    values: Sequence[float],
    cfg: SvtConfig,
    rng: RandomSource,
    trials: int,
    sensitivity: float = 1.0,
) -> np.ndarray:
    """Vectorized AboveThreshold over a finite query list.

    Returns an int array of halt indices in 1..K, with 0 meaning no halt
    within the K queries. Distributionally identical to run_above_threshold
    on the same finite stream.
    """
    values = np.asarray(values, dtype=float)
    k = len(values)
    t_spec = NoiseSpec(cfg.noise, sensitivity / cfg.eps1)
    q_spec = NoiseSpec(cfg.noise, sensitivity / cfg.eps2)
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
    values: Sequence[float],
    threshold: float,
    eps: float,
    rng: RandomSource,
    trials: int,
    sensitivity: float = 1.0,
) -> np.ndarray:
    """Vectorized run_iterative_em over a finite query list; 0 = no halt."""
    values = np.asarray(values, dtype=float)
    k = len(values)
    s = eps / (2.0 * sensitivity)
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
    """Materialize the first k query values of a stream."""
    vals = stream.reader()(k)
    if vals.size < k:
        raise ValueError(f"the stream ends after {vals.size} of {k} queries")
    return vals
