"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public functions of each `uqe` layer and rebinds every
module attribute that refers to one of them. Rebinding only the defining
module would miss calls from modules that imported the name directly
(`aggregates`, `bench` and `cli` do), so every module of the package is
patched. Spans record name, start, end, parent and the workload call they
belong to; they stay in memory until the run ends, and self times are
computed from them afterwards.

Counts are recorded by hooks at the same boundaries. Each workload call gets
its own counter, so a caller can total counts over a fixed window of calls
(which repeats exactly for a seed) and times over the whole run.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter_ns

ROOT_SPAN = "call"


class Tracer:
    """Records nested spans around wrapped callables; the clock is injectable
    so tests can check the self-time arithmetic on a scripted timeline."""

    def __init__(self, clock=perf_counter_ns) -> None:
        self.clock = clock
        # [name, start_ns, end_ns, parent_index, call_index]; parent -1 = none
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.call = -1
        self.counts: list[Counter] = []
        self.peaks: list[dict] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin_call(self, index: int) -> None:
        """Start attributing spans and counts to workload call `index`."""
        self.call = index
        while len(self.counts) <= index:
            self.counts.append(Counter())
            self.peaks.append({})

    def add(self, key: str, amount) -> None:
        self.counts[self.call][key] += amount

    def peak(self, key: str, value) -> None:
        peaks = self.peaks[self.call]
        peaks[key] = max(peaks.get(key, value), value)

    @property
    def parent_name(self) -> str | None:
        """Name of the innermost open span (the caller, inside a hook)."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, name: str, fn, before=None, after=None):
        """Return fn wrapped in a span. before(args, kwargs) runs outside the
        span and returns a token; after(tracer, token, args, kwargs, result)
        runs once the span is closed, with the caller's span still open."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            span = [name, 0, 0, stack[-1] if stack else -1, self.call]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(self, token, args, kwargs, result)
            return result

        return traced

    def install(self, modules, name: str, attr: str, before=None, after=None) -> None:
        """Wrap `attr` of modules[0] and rebind it wherever modules refer to it."""
        original = getattr(modules[0], attr)
        wrapped = self.wrap(name, original, before, after)
        for module in modules:
            if getattr(module, attr, None) is original:
                self._patched.append((module, attr, original))
                setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def span_totals(self, window: int) -> dict[str, dict]:
        """Per span name: spans in calls 0..window-1, spans in the whole run,
        and their total and self nanoseconds (self = duration minus children)."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for idx, (name, start, end, _, call) in enumerate(self.spans):
            entry = out.setdefault(name, {"window": 0, "n": 0, "total_ns": 0, "self_ns": 0})
            entry["window"] += 0 <= call < window
            entry["n"] += 1
            entry["total_ns"] += end - start
            entry["self_ns"] += end - start - child_ns[idx]
        return out

    def window_counts(self, window: int) -> tuple[Counter, dict]:
        """Counts summed, and peaks maximized, over calls 0..window-1."""
        total: Counter = Counter()
        peaks: dict = {}
        for counts, call_peaks in zip(self.counts[:window], self.peaks[:window]):
            total.update(counts)
            for key, value in call_peaks.items():
                peaks[key] = max(peaks.get(key, value), value)
        return total, peaks

