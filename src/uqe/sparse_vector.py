"""AboveThreshold over adaptive query streams.

The runner consumes a stream of query values f_1, f_2, ..., an array
followed by an optional constant, and halts at the first index whose noisy
value clears the noisy threshold.
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

import math
import operator
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .noise import NoiseKind, NoiseSpec, RandomSource, sample

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
# draws little noise it then discards; sizes double up to a fixed ceiling,
# which bounds a run's temporaries whatever its cap
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
    """f_i = head[i-1] for i <= len(head), then tail forever, capped at
    max_queries queries.

    A stream without a tail ends after its head, so its cap is at most
    len(head). sensitivity is the worst-case |f_i(x) - f_i(x')| over
    declared neighbors. The first query is index 1; callers that think of
    their candidate grid as starting elsewhere remap the halt index
    themselves.
    """

    head: np.ndarray
    tail: float | None = None
    sensitivity: float = 1.0
    max_queries: int = DEFAULT_MAX_QUERIES

    def __post_init__(self) -> None:
        head = np.array(self.head, dtype=float)
        if head.ndim != 1:
            raise ValueError("head must be 1-d")
        head.flags.writeable = False
        if not self.sensitivity > 0:
            raise ValueError("sensitivity must be positive")
        check_max_queries(self.max_queries)
        object.__setattr__(self, "head", head)
        if self.tail is None:
            object.__setattr__(self, "max_queries", min(self.max_queries, head.size))
        else:
            object.__setattr__(self, "tail", float(self.tail))


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

    @classmethod
    def halt(cls, index: int) -> "SvtOutcome":
        return cls(index=int(index))

    @classmethod
    def out_of_queries(cls, cap: int) -> "SvtOutcome":
        return cls(index=None, cap=int(cap))


def _blocks(stream: QueryStream) -> Iterator[tuple[int, np.ndarray]]:
    """(offset, values) for consecutive blocks of the stream, up to its cap.
    Blocks are slices of the head, padded with the tail past its end."""
    head, tail, cap = stream.head, stream.tail, stream.max_queries
    start, size = 0, _FIRST_QUERY_BLOCK
    while start < cap:
        stop = min(start + size, cap)
        block = head[start:stop]
        if block.size < stop - start:
            block = np.concatenate((block, np.full(stop - start - block.size, tail)))
        yield start, block
        start, size = stop, min(2 * size, _MAX_QUERY_BLOCK)


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
    check_eps(eps)
    s = eps / (2.0 * stream.sensitivity)
    scores = [s * threshold]
    for start, vals in _blocks(stream):
        for i, value in enumerate(vals.tolist(), start=start + 1):
            scores.append(s * value)
            gums = -np.log(-np.log(rng.uniform_open(len(scores))))
            if int(np.argmax(np.asarray(scores) + gums)) == i:
                return SvtOutcome.halt(i)
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
    """Materialize the first k query values of a stream, whatever its cap."""
    blocks = _blocks(replace(stream, max_queries=k))
    vals = np.concatenate([np.zeros(0), *(block for _, block in blocks)])
    if vals.size < k:
        raise ValueError(f"the stream ends after {vals.size} of {k} queries")
    return vals
