"""The benchmark's workloads: inputs from the seed, one call, and its checks.

Inputs come from numpy's generator keyed by (seed, workload name), never
from uqe, so the program only ever receives generated data. Call i draws its
noise from RandomSource(seed, i). Every check goes through uqe's public API:
a released estimate must be a candidate of GeometricGrid(beta, lower) at its
halt index or cap, and the Philox position must advance by exactly one draw
per query plus one threshold draw per AboveThreshold run.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import sys
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from layers import LAYER_MODULES

EPS = 1.0


def load_uqe(root: Path) -> SimpleNamespace:
    """Import uqe afresh from root/src and return handles to its modules.

    Earlier imports are dropped first, so each call pays the package's full
    import cost (numpy stays loaded).
    """
    src = (root / "src").resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "uqe" or m.startswith("uqe.")]:
        del sys.modules[name]
    package = importlib.import_module("uqe")
    where = Path(package.__file__).resolve()
    if not where.is_relative_to(src):
        raise ImportError(f"uqe was imported from {where}, not from {src}")
    modules = {name: importlib.import_module(f"uqe.{name}") for name in LAYER_MODULES}
    accounting = importlib.import_module("uqe.accounting")
    return SimpleNamespace(
        package=package, accounting=accounting, Dataset=modules["quantile"].Dataset, **modules
    )


def data_rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def lognormal(g: np.random.Generator, median: float, sigma: float, n: int) -> np.ndarray:
    return g.lognormal(math.log(median), sigma, n)


class Checked:
    """What one call released (for the digest) and what its checks found."""

    def __init__(self) -> None:
        self.releases: list = []
        self.rank_errors: list[float] = []
        self.mae: dict[str, list[float]] = {}
        self.problems: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def digest_line(self, index: int) -> bytes:
        parts = [x.hex() if isinstance(x, float) else str(x) for x in self.releases]
        return f"{index} {' '.join(parts)}\n".encode()


class Workload:
    """One workload: subclasses define name, why, make_inputs, call and check."""

    name = ""
    why = ""

    def __init__(self, api: SimpleNamespace, seed: int, workdir: Path) -> None:
        self.api = api
        self.seed = seed
        self.workdir = workdir
        self.inputs = self.make_inputs(seed)
        self._sorted: dict[str, np.ndarray] = {}
        self._grids: dict = {}

    @classmethod
    def make_inputs(cls, seed: int) -> dict[str, np.ndarray]:
        raise NotImplementedError

    def rng(self, index: int):
        return self.api.noise.RandomSource(self.seed, index)

    def call(self, index: int, rng):
        raise NotImplementedError

    def check(self, index: int, result, draws: int) -> Checked:
        raise NotImplementedError

    def oracle_case(self) -> tuple[np.ndarray, float, float, float]:
        """(values, lower bound, beta, q) for the noiseless oracle check."""
        raise NotImplementedError

    # -- helpers shared by the checks -------------------------------------

    def request(self, q: float, beta: float, noise=None):
        noise = noise or self.api.noise.NoiseKind.EXPONENTIAL
        return self.api.quantile.QuantileRequest.even_split(q, EPS, beta=beta, noise=noise)

    def grid(self, beta: float, lower: float):
        key = (beta, lower)
        if key not in self._grids:
            self._grids[key] = self.api.quantile.GeometricGrid(beta, lower)
        return self._grids[key]

    def rank_error(self, key: str, value: float, q: float) -> float:
        if key not in self._sorted:
            self._sorted[key] = np.sort(self.inputs[key])
        data = self._sorted[key]
        return abs(np.searchsorted(data, value, side="right") / data.size - q)

    @staticmethod
    def grid_index(grid, value: float) -> int | None:
        """k with grid.value(k) == value exactly, or None."""
        k0 = grid.max_index_at_most(value - grid.lower_bound + 1.0)
        for k in (k0, k0 - 1, k0 + 1):
            if k >= 0 and grid.value(k) == value:
                return k
        return None

    def check_bounded(self, out: Checked, est, beta: float, lower: float, sign: float = 1.0) -> int:
        """Check a QuantileEstimate against its grid; return queries used."""
        cap = self.api.sparse_vector.DEFAULT_MAX_QUERIES
        k = cap if est.exhausted else est.halt_index
        out.expect(k is not None and k >= 1, f"bad halt index {est.halt_index}")
        if k is not None:
            out.expect(
                sign * est.value == self.grid(beta, lower).value(k),
                f"estimate {est.value!r} is not grid candidate {k}",
            )
        out.releases += [est.value, est.halt_index]
        return k or 0

    def check_unbounded(self, out: Checked, est, beta: float) -> int:
        """Check an UnboundedEstimate; return draws its one or two runs used."""
        cap = self.api.sparse_vector.DEFAULT_MAX_QUERIES
        grid = self.grid(beta, 0.0)
        out.releases += [est.value, est.first_halt, est.second_halt]
        if est.first_halt is None:
            out.expect(est.exhausted and est.value == grid.value(cap - 1), "bad first-run cap")
            return cap + 1
        draws = est.first_halt + 2
        if est.first_halt > 0:
            out.expect(not est.second_ran, "second run after a positive first halt")
            out.expect(est.value == grid.value(est.first_halt), "estimate off the grid")
            return draws
        out.expect(est.second_ran, "no second run after a halt at 0")
        if est.second_halt is None:
            out.expect(est.exhausted and -est.value == grid.value(cap - 1), "bad second-run cap")
            return draws + cap + 1
        expected = -grid.value(est.second_halt) if est.second_halt > 0 else 0.0
        out.expect(est.value == expected, "negative-side estimate off the grid")
        return draws + est.second_halt + 2


class ScanHeavy(Workload):
    name = "scan-heavy"
    why = "n=1e3 at magnitude 1e6 with beta 1.001: ~15k candidates per run, the scan dominates"
    BETA = 1.001
    UPPER = 1e8
    QS = (0.5, 0.9, 0.99)

    @classmethod
    def make_inputs(cls, seed):
        g = data_rng(seed, cls.name)
        cap = cls.UPPER / 2
        pos = np.minimum(lognormal(g, 1e6, 0.8, 1000), cap)
        sign = np.where(g.random(1000) < 0.25, -1.0, 1.0)
        return {"pos": pos, "signed": sign * np.minimum(lognormal(g, 1e6, 0.8, 1000), cap)}

    def plan(self, index: int):
        """Mechanism, noise kind and q rotate so 27 calls cover every combination."""
        noise = list(self.api.noise.NoiseKind)[(index // 3) % 3]
        return index % 3, noise, self.QS[(index // 9) % 3]

    def call(self, index, rng):
        mech, noise, q = self.plan(index)
        quantile, dataset = self.api.quantile, self.api.Dataset
        if mech == 0:
            req = self.request(q, self.BETA, noise)
            return quantile.estimate_quantile(dataset(self.inputs["pos"], lower_bound=0.0), req, rng)
        if mech == 1:
            req = self.request(q, self.BETA, noise)
            return quantile.estimate_quantile_unbounded(dataset(self.inputs["signed"]), req, rng)
        # the inverted estimator targets small quantiles: ask for 1 - q
        req = self.request(1.0 - q, self.BETA, noise)
        return quantile.estimate_small_quantile_inverted(
            dataset(self.inputs["pos"]), self.UPPER, req, rng
        )

    def check(self, index, result, draws):
        mech, _, q = self.plan(index)
        out = Checked()
        if mech == 0:
            expected = self.check_bounded(out, result, self.BETA, 0.0) + 1
            out.rank_errors.append(self.rank_error("pos", result.value, q))
        elif mech == 1:
            expected = self.check_unbounded(out, result, self.BETA)
            out.rank_errors.append(self.rank_error("signed", result.value, q))
        else:
            expected = self.check_bounded(out, result, self.BETA, -self.UPPER, sign=-1.0) + 1
            out.rank_errors.append(self.rank_error("pos", result.value, 1.0 - q))
        out.expect(draws == expected, f"{draws} noise draws, expected {expected}")
        return out

    def oracle_case(self):
        return self.inputs["pos"], 0.0, self.BETA, 0.9


class BuildHeavy(Workload):
    name = "build-heavy"
    why = "n=1e6 at magnitude 10 with beta 1.01: ~340 candidates, the O(n) passes dominate"
    BETA = 1.01

    @classmethod
    def make_inputs(cls, seed):
        g = data_rng(seed, cls.name)
        return {"pos": lognormal(g, 10.0, 0.8, 1_000_000), "signed": g.normal(0.0, 10.0, 1_000_000)}

    def call(self, index, rng):
        api = self.api
        mech = index % 3
        if mech == 0:
            data = api.Dataset(self.inputs["pos"], lower_bound=0.0)
            return api.quantile.estimate_quantile(data, self.request(0.9, self.BETA), rng)
        if mech == 1:
            cfg = api.aggregates.SumConfig(eps=EPS, q=0.99, beta=self.BETA)
            return api.aggregates.dp_sum(self.inputs["pos"], cfg, rng)
        # q = 0.3 on centred data halts the first run at 0, so both runs execute
        data = api.Dataset(self.inputs["signed"])
        return api.quantile.estimate_quantile_unbounded(data, self.request(0.3, self.BETA), rng)

    def check(self, index, result, draws):
        out = Checked()
        mech = index % 3
        if mech == 0:
            expected = self.check_bounded(out, result, self.BETA, 0.0) + 1
            out.rank_errors.append(self.rank_error("pos", result.value, 0.9))
        elif mech == 1:
            out.releases += [result.estimate, result.clip]
            out.expect(result.epsilon_total == 2 * EPS, f"epsilon_total {result.epsilon_total}")
            out.expect(not result.clip_clamped, "clip clamped")
            k = self.grid_index(self.grid(self.BETA, 0.0), result.clip)
            out.expect(k is not None, f"clip {result.clip!r} is not a grid candidate")
            expected = (k or 0) + 2  # clip-stage queries + threshold draw + Laplace draw
            out.rank_errors.append(self.rank_error("pos", result.clip, 0.99))
        else:
            expected = self.check_unbounded(out, result, self.BETA)
            out.rank_errors.append(self.rank_error("signed", result.value, 0.3))
        out.expect(draws == expected, f"{draws} noise draws, expected {expected}")
        return out

    def oracle_case(self):
        return self.inputs["pos"], 0.0, self.BETA, 0.9


class MultiSplit(Workload):
    name = "multi-split"
    why = "nine deciles of n=5e3 by recursive splitting: nine fresh grids and shrinking rebuilds per call"
    BETA = 1.01
    QS = tuple(round(0.1 * j, 1) for j in range(1, 10))

    @classmethod
    def make_inputs(cls, seed):
        return {"x": lognormal(data_rng(seed, cls.name), 10.0, 0.8, 5000)}

    def call(self, index, rng):
        data = self.api.Dataset(self.inputs["x"], lower_bound=0.0)
        req = self.request(0.5, self.BETA)
        return self.api.quantile.estimate_multiple_quantiles(data, self.QS, req, rng)

    def check(self, index, result, draws):
        out = Checked()
        est = result.estimates
        out.releases += [*est, *result.exhausted, *result.empty_slice]
        out.expect(all(a <= b for a, b in zip(est, est[1:])), "estimates decrease")
        budget = self.api.accounting.multi_quantile_guarantee(
            len(self.QS), EPS / 2, EPS / 2, self.api.noise.NoiseKind.EXPONENTIAL
        )
        out.expect(result.budget == budget, "budget differs from multi_quantile_guarantee")
        expected = sum(k + 1 for k in self._node_queries(out, result))
        out.expect(draws == expected, f"{draws} noise draws, expected {expected}")
        out.rank_errors += [self.rank_error("x", v, q) for v, q in zip(est, self.QS)]
        return out

    def _node_queries(self, out: Checked, result):
        """Walk the recursion the result came from; yield each run's queries.

        A node ran iff its middle quantile is not flagged empty. Its grid
        starts at the parent's estimate (right child) or the parent's lower
        bound (left child), and a left child is capped at the parent's
        estimate, as estimate_multiple_quantiles documents.
        """
        max_queries = self.api.sparse_vector.DEFAULT_MAX_QUERIES
        est = result.estimates
        todo = [(0, len(est), 0.0, math.inf)]
        while todo:
            lo, hi, lower, upper = todo.pop()
            if lo >= hi:
                continue
            mid = lo + (hi - lo) // 2
            if result.empty_slice[mid]:
                continue
            grid = self.api.quantile.GeometricGrid(self.BETA, lower)
            cap = max_queries
            if math.isfinite(upper):
                cap = min(cap, grid.max_index_at_most(upper - lower + 1.0))
            k = self.grid_index(grid, est[mid])
            out.expect(k is not None and 1 <= k <= cap, f"estimate {mid} is off its node's grid")
            out.expect(not result.exhausted[mid] or k == cap, f"estimate {mid} exhausted below cap")
            yield k or 0
            todo += [(lo, mid, lower, est[mid]), (mid + 1, hi, est[mid], upper)]

    def oracle_case(self):
        return self.inputs["x"], 0.0, self.BETA, 0.5


class PaperProtocol(Workload):
    name = "paper-protocol"
    why = "the researchers' path: uqe bench in-process, one resample of 19 quantiles through UQE and EMQ"
    BETA = 1.01
    RECORDS = 38  # 19 default quantiles x (uqe, emq)

    @classmethod
    def make_inputs(cls, seed):
        return {"x": data_rng(seed, cls.name).normal(0.0, 5.0, 5000)}

    def __init__(self, api, seed, workdir):
        super().__init__(api, seed, workdir)
        self.csv = workdir / f"{self.name}.csv"
        rows = "\n".join(repr(float(v)) for v in self.inputs["x"])
        self.csv.write_text(f"x\n{rows}\n")

    def argv(self, index: int) -> list[str]:
        call_seed = int(np.random.SeedSequence([self.seed, index]).generate_state(1)[0])
        return [
            "bench", "--input", str(self.csv), "--column", "x",
            "--range", "-50", "50", "--outer", "1", "--beta", str(self.BETA),
            "--seed", str(call_seed),
        ]  # fmt: skip

    def call(self, index, rng):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.api.cli.main(self.argv(index))
        return code, buf.getvalue()

    def check(self, index, result, draws):
        code, text = result
        out = Checked()
        out.releases.append(text)
        out.expect(code == 0, f"exit code {code}")
        records = json.loads(text) if code == 0 else []
        out.expect(len(records) == self.RECORDS, f"{len(records)} records")
        for r in records:
            ok = math.isfinite(r["mae"]) and math.isfinite(r["std"])
            out.expect(ok, f"non-finite record {r}")
            out.mae.setdefault(r["method"], []).append(r["mae"])
        out.expect(draws == 0, "the bench drew from the benchmark's generator")
        return out

    def oracle_case(self):
        return self.inputs["x"], -50.0, self.BETA, 0.5


WORKLOADS = {w.name: w for w in (ScanHeavy, BuildHeavy, MultiSplit, PaperProtocol)}


def prefix_count_oracle(values, lower: float, beta: float, q: float, cap: int) -> tuple[int, float]:
    """Noiseless halt index and value from sorted data and cumulative powers.

    Powers come from np.cumprod, which multiplies in sequence like the grid's
    cache; f_i = |{x - lower + 1 < beta^i}| and the run halts at the first
    i >= 1 with f_i >= q * n, or at the cap.
    """
    y = np.sort(np.asarray(values, dtype=float) - lower + 1.0)
    top = min(cap, int(math.log(y[-1]) / math.log(beta)) + 3)
    powers = np.cumprod(np.concatenate(([1.0], np.full(top, beta))))
    counts = np.searchsorted(y, powers[1:], side="left")
    hits = np.flatnonzero(counts >= q * y.size)
    k = int(hits[0]) + 1 if hits.size else cap
    return k, float(powers[k] + lower - 1.0)


def oracle_problems(wl: Workload) -> list[str]:
    """Compare one noiseless estimate_quantile with prefix_count_oracle."""
    values, lower, beta, q = wl.oracle_case()
    api = wl.api
    req = api.quantile.QuantileRequest(q=q, eps1=EPS / 2, eps2=EPS / 2, beta=beta)
    est = api.quantile.estimate_quantile(api.Dataset(values, lower_bound=lower), req, noiseless=True)
    k, value = prefix_count_oracle(values, lower, beta, q, req.max_queries)
    if (est.halt_index, est.value) != (k, value):
        return [f"noiseless estimate {est.halt_index}/{est.value!r} != oracle {k}/{value!r}"]
    return []
