"""Release benchmark for uqe: one workload per process, closed loop.

    python3 perfbench/run.py --workload scan-heavy --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One caller makes call i only after call i-1 returns; no threads, no child
processes (except that `--workload all` runs each workload in its own
process, so peak memory is per workload). With --trace 0 the last line of
stdout is a JSON object with the end-to-end metrics; with --trace 1 it holds
the per-layer metrics of a traced run, which must reproduce the untraced
output digest. The gated times are wall times scaled to a fixed host speed
by the yardstick (yardstick.py), because the shared host's own speed drifts.
Read README.md in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

import layers
from tracer import ROOT_SPAN, Tracer
from workloads import WORKLOADS, load_uqe, oracle_problems
from yardstick import Yardstick, to_reference

ROOT = Path(__file__).resolve().parents[1]
DIGEST_CALLS = 27  # one full rotation of scan-heavy; the digest and counts cover these
SETUP_REPEATS = 5
SETUP_YARDS = 5  # yardstick timings after each set-up; their median scales it

END_TO_END = (
    ("calls_per_s", "1/s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# reported next to END_TO_END but not gated: the wall times carry the host's
# drift (yardstick.py), failed_frac reads 0 on a healthy run, and the accuracy
# figures exist on some workloads only
REPORTED = (
    ("wall.calls_per_s", "1/s"),
    ("wall.latency_ms.p50", "ms"),
    ("wall.latency_ms.p90", "ms"),
    ("wall.setup_s", "s"),
    ("yardstick_ms", "ms"),
    ("latency_ms.samples", "count"),
    ("failed_frac", "frac"),
    ("rank_err", "frac"),
    ("protocol_mae.uqe", "data"),
    ("protocol_mae.emq", "data"),
)


class Loop:
    """Outcome of running calls 0, 1, 2, ... of one workload in sequence."""

    def __init__(self) -> None:
        self.durations_ns: list[int] = []
        self.yard_ns: list[int] = []  # the yardstick timed right after each call
        self.failed = 0
        self.digest = hashlib.sha256()
        self.rank_errors: list[float] = []
        self.mae: dict[str, list[float]] = {}
        self.problems: list[str] = []


def run_loop(wl, seconds: float, min_calls: int, tracer: Tracer | None = None) -> Loop:
    """Call until `seconds` have passed and at least `min_calls` were made.

    Each call is timed alone, then the yardstick; the checks run after both.
    The digest covers the first min_calls calls, so it does not depend on speed.
    """
    loop = Loop()
    yard = Yardstick()
    call = wl.call if tracer is None else tracer.wrap(ROOT_SPAN, wl.call)
    deadline = perf_counter() + seconds
    i = 0
    while i < min_calls or perf_counter() < deadline:
        rng = wl.rng(i)
        if tracer is not None:
            tracer.begin_call(i)
        start_pos = layers.philox_position(rng.gen)
        t0 = perf_counter_ns()
        try:
            result = call(i, rng)
            loop.durations_ns.append(perf_counter_ns() - t0)
            loop.yard_ns.append(yard.time_ns())
            checked = wl.check(i, result, layers.philox_position(rng.gen) - start_pos)
        except Exception:  # a failing call is counted, and the loop goes on
            if len(loop.durations_ns) == i:
                loop.durations_ns.append(perf_counter_ns() - t0)
                loop.yard_ns.append(yard.time_ns())
            loop.failed += 1
            loop.problems.append(f"call {i} raised:\n{traceback.format_exc()}")
            if i < min_calls:
                loop.digest.update(f"{i} raised\n".encode())
            i += 1
            continue
        if checked.problems:
            loop.failed += 1
            loop.problems += [f"call {i}: {p}" for p in checked.problems]
        if i < min_calls:
            loop.digest.update(checked.digest_line(i))
        loop.rank_errors += checked.rank_errors
        for method, values in checked.mae.items():
            loop.mae.setdefault(method, []).extend(values)
        i += 1
    return loop


def set_up(workload_cls, seed: int, workdir: Path):
    """Import uqe, generate inputs, write files, make one warm-up call."""
    api = load_uqe(ROOT)
    wl = workload_cls(api, seed, workdir)
    wl.call(0, wl.rng(0))
    return wl


def run_workload(workload_cls, seed: int, seconds: float, trace: bool, min_calls: int = DIGEST_CALLS):
    """Set up several times, run the loop, check; return the report dict."""
    workdir = ROOT / ".perfbench_work" / f"{workload_cls.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    yard = Yardstick()
    try:
        setup_ns, setup_yard_ns = [], []
        wl = None
        for _ in range(SETUP_REPEATS):
            del wl  # so peak_rss_mb sees one copy of the inputs, not two
            t0 = perf_counter_ns()
            wl = set_up(workload_cls, seed, workdir)
            setup_ns.append(perf_counter_ns() - t0)
            setup_yard_ns.append(statistics.median(yard.time_ns() for _ in range(SETUP_YARDS)))
        tracer = None
        if trace:
            tracer = Tracer()
            layers.install(tracer, wl.api)
            try:
                loop = run_loop(wl, seconds, min_calls, tracer)
            finally:
                tracer.uninstall()
        else:
            loop = run_loop(wl, seconds, min_calls)
        problems = list(loop.problems) + oracle_problems(wl)
        report = {
            "loop": loop,
            "setup_s": statistics.median(to_reference(setup_ns, setup_yard_ns)) / 1e9,
            "wall.setup_s": statistics.median(setup_ns) / 1e9,
            "api": wl.api,
        }
        if trace:
            reference = run_loop(wl, 0, min_calls)
            if reference.digest.hexdigest() != loop.digest.hexdigest():
                problems.append("traced digest differs from the untraced replay")
            traced_ns = to_reference(loop.durations_ns, loop.yard_ns)[:min_calls].sum()
            plain_ns = to_reference(reference.durations_ns, reference.yard_ns).sum()
            overhead = float(traced_ns / plain_ns - 1.0)
            report["layers"] = layers.layer_metrics(tracer, min_calls, overhead)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    report["problems"] = problems
    return report


def _timings(lat_ms: np.ndarray, failed: int) -> dict[str, float]:
    return {
        "calls_per_s": (lat_ms.size - failed) / (lat_ms.sum() / 1e3),
        "latency_ms.p50": float(np.percentile(lat_ms, 50)),
        "latency_ms.p90": float(np.percentile(lat_ms, 90)),
    }


def end_to_end(report) -> dict[str, float]:
    """The gated metrics; times are scaled to the reference host's speed."""
    loop = report["loop"]
    return {
        **_timings(to_reference(loop.durations_ns, loop.yard_ns) / 1e6, loop.failed),
        "setup_s": report["setup_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def reported(report) -> dict[str, float | None]:
    loop = report["loop"]
    mean = lambda xs: float(np.mean(xs)) if xs else None  # noqa: E731
    wall = _timings(np.asarray(loop.durations_ns) / 1e6, loop.failed)
    return {
        **{f"wall.{name}": value for name, value in wall.items()},
        "wall.setup_s": report["wall.setup_s"],
        "yardstick_ms": statistics.median(loop.yard_ns) / 1e6,
        "latency_ms.samples": len(loop.durations_ns),
        "failed_frac": loop.failed / len(loop.durations_ns),
        "rank_err": mean(loop.rank_errors),
        "protocol_mae.uqe": mean(loop.mae.get("uqe")),
        "protocol_mae.emq": mean(loop.mae.get("emq")),
    }


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(api, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "seed": seed,
        "git_commit": _git_commit(),
        "uqe_path": str(Path(api.package.__file__).resolve().relative_to(ROOT)),
    }


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    report = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    loop = report["loop"]
    problems = report["problems"]
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"provenance {json.dumps(provenance(report['api'], args.seed), sort_keys=True)}")
    print(f"digest {loop.digest.hexdigest()} (first {DIGEST_CALLS} calls)")
    if args.trace:
        names = layers.PER_LAYER
        values = report["layers"]
    else:
        names = END_TO_END
        values = end_to_end(report)
        extra = reported(report)
        for name, unit in REPORTED:
            print(f"  {name:<24} {extra[name]!s:>24} {unit}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
    for name, m in metrics.items():
        print(f"  {name:<24} {m['value']!s:>24} {m['unit']}")
    for p in problems[:10]:
        print(f"problem: {p}", file=sys.stderr)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(loop.durations_ns),
        "failed": loop.failed,
        "metrics": metrics,
    }))  # fmt: skip
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]  # fmt: skip
        child = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(child.stderr)
        result = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        summary["correct"] &= result["correct"] and child.returncode == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
