"""Dataset helpers and the resampling benchmark harness.

Reference-quantile oracle used below: for sorted values v_1..v_n the linear
interpolation at level q sits at position q*(n-1); with j = floor(pos) and
frac = pos - j the value is v_{j+1} + frac * (v_{j+2} - v_{j+1}) (0-indexed
j, j+1). Frozen cases: {1..101} at q = 0.5 gives 51; {1,2,3,4} gives 2.5.
"""

import csv
import itertools
import json
import math
import warnings

import numpy as np
import pytest
from conftest import emq_draw_oracle
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from uqe import bench
from uqe.aggregates import clipped_sum
from uqe.bench import (
    EMQ_SUM_QS,
    ExperimentSpec,
    ResultRecord,
    emit_pdf_figures,
    normalized_error_rows,
    records_to_json,
    run_quantile_experiment,
    run_sum_experiment,
)
from uqe.datasets import generate_synthetic, load_csv, perturb, true_quantile
from uqe.emq import BoundedRange, _interval_edges
from uqe.noise import NoiseKind, NoiseSpec, RandomSource, sample
from uqe.quantile import Dataset, QuantileRequest, estimate_quantile


def quantile_oracle(values, q):
    v = np.sort(np.asarray(values, dtype=float))
    pos = q * (v.size - 1)
    lo = int(math.floor(pos))
    frac = pos - lo
    if lo + 1 < v.size:
        return v[lo] + frac * (v[lo + 1] - v[lo])
    return float(v[-1])


class TestSynthetic:
    def test_uniform_moments(self):
        vals = generate_synthetic("uniform", 10_000, RandomSource(3))
        assert vals.shape == (10_000,)
        assert -0.2 < vals.mean() < 0.2
        assert vals.min() >= -5.0 and vals.max() <= 5.0

    def test_gaussian_moments(self):
        vals = generate_synthetic("gaussian", 10_000, RandomSource(4))
        assert 4.8 < vals.std() < 5.2
        assert -0.2 < vals.mean() < 0.2

    def test_single_point_and_bad_kind(self):
        assert np.isfinite(generate_synthetic("uniform", 1, RandomSource(0))).all()
        with pytest.raises(ValueError):
            generate_synthetic("lognormal", 10, RandomSource(0))
        with pytest.raises(ValueError):
            generate_synthetic("uniform", 0, RandomSource(0))


def csv_loop_oracle(path, column):
    """load_csv as the csv module and float read the file row by row."""
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        try:
            header = next(rows, None)
            if header is None or column not in header:
                raise ValueError(f"column {column!r} not found in {path} (available: {header})")
            col = len(header) - 1 - header[::-1].index(column)
            cells = [row[col] if col < len(row) else None for row in rows if row]
        except csv.Error as exc:
            raise ValueError(f"{path}, line {rows.line_num}: {exc}") from None
    if not cells:
        raise ValueError(f"{path} has no data rows")
    out = []
    for row_number, raw in enumerate(cells, start=2):
        try:
            out.append(float(raw))
        except (TypeError, ValueError):
            raise ValueError(f"{path}, row {row_number}: cannot parse {raw!r} as a number") from None
    return np.array(out, dtype=float)


def assert_same_outcome(got_fn, want_fn):
    """Both give the same float64 bytes, or a ValueError with the same text."""
    try:
        want = want_fn()
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            got_fn()
        assert str(got.value) == str(exc)
        return
    got = got_fn()
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


NUMBERS = st.one_of(
    st.floats().map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(
        [
            "nan", "-nan", "+inf", "-Infinity", "iNf", " 2.5 ", "\t7", "1e5", ".5", "5.",
            "\x853", "3\u2028", "\u30004", "\x0c5", "+0", "-0.0", "1" * 400, "1e-400",
        ]
    ),
)
# what float reads and numpy's parser may not, or the other way round
ODD = st.sampled_from(
    [
        "1_000", "1__0", "_1", "\u0661\u0662", "\u0663.\u0665", "1e", "0x10", "", " ", "x",
        "1 2", "1\x00", "6\x1c", "\x1f6",
    ]
)


def quoted(cell):
    return '"' + cell.replace('"', '""') + '"'


FIELDS = st.one_of(
    NUMBERS,
    NUMBERS.map(quoted),
    ODD,
    ODD.map(quoted),
    st.sampled_from(['"1"2', ' "1"', '"1" ', '1"', '"1,2"', '"1\n2"', '"1\r\n2"', '""', '"3']),
)
# rows of numbers come first, so that numpy's parser reads many files
ROWS = st.one_of(
    st.lists(NUMBERS, min_size=1, max_size=4).map(",".join),
    st.lists(NUMBERS.map(quoted), min_size=1, max_size=4).map(",".join),
    st.just(""),
    st.lists(FIELDS, min_size=1, max_size=4).map(",".join),
    st.sampled_from([" ", "\t", ","]),
)
NAMES = ["value", "x", "a", "val\nue"]
ENDINGS = st.one_of(
    st.just(["\n"]),
    st.just(["\r\n"]),
    st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=1, max_size=3),
)


@st.composite
def csv_files(draw):
    """A CSV file's text and a column to read: mixed line endings, duplicate
    and quoted header names, ragged and blank rows, quoting, and number
    spellings that float and numpy's parser may read differently."""
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4))
    column = draw(st.sampled_from([*names, "missing"]))
    endings = draw(ENDINGS)
    lines = [",".join(map(quoted, names)), *draw(st.lists(ROWS, max_size=6))]
    text = "".join(line + draw(st.sampled_from(endings)) for line in lines)
    return (text if draw(st.booleans()) else text[:-1]), column


class TestLoadCsv:
    def test_happy_path(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("name,value\na,1.5\nb,-2\nc,3e2\n")
        vals = load_csv(f, "value")
        assert vals.tolist() == [1.5, -2.0, 300.0]

    def test_parse_error_reports_row(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("value\n10\n20\noops\n40\n")
        with pytest.raises(ValueError, match="row 4"):
            load_csv(f, "value")
        with pytest.raises(ValueError, match="oops"):
            load_csv(f, "value")

    def test_missing_column_lists_available(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="'a', 'b'"):
            load_csv(f, "value")

    def test_short_row_reports_row(self, tmp_path):
        # a row without the column reads as None, not an IndexError
        f = tmp_path / "d.csv"
        f.write_text("name,value\na,1\nb\nc,3\n")
        with pytest.raises(ValueError, match="row 3: cannot parse None"):
            load_csv(f, "value")

    def test_blank_lines_skipped(self, tmp_path):
        # as csv.DictReader skips them; they do not count as rows either
        f = tmp_path / "d.csv"
        f.write_text("name,value\n\na,1\n\nb,2\n\n")
        assert load_csv(f, "value").tolist() == [1.0, 2.0]
        f.write_text("name,value\n\na,1\n\nb,x\n")
        with pytest.raises(ValueError, match="row 3: cannot parse 'x'"):
            load_csv(f, "value")

    @pytest.mark.filterwarnings("error")
    def test_header_only_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("value\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(f, "value")

    # numpy's parser would warn "input contained no data" on each of these
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["value", "value\n\n\r\n", "\"val\nue\",value\n"])
    def test_no_data_row_rejected_without_a_warning(self, tmp_path, text):
        f = tmp_path / "d.csv"
        f.write_text(text, newline="")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(f, "value")

    @pytest.mark.parametrize(
        "text, line",
        [
            # a field past csv.field_size_limit() (131072 by default)
            ("name,value\na,1\n" + "b" * 200_000 + ",2\n", 3),
            ("name,value\na,1\nb," + "2" * 200_000 + "\n", 3),
            # one quoted field over many short lines
            ("name,value\n\"" + "b\n" * 70_000 + "\",1\n", 65_538),
        ],
    )
    def test_field_over_the_csv_limit_names_file_and_line(self, tmp_path, text, line):
        f = tmp_path / "d.csv"
        f.write_text(text)
        with pytest.raises(ValueError, match=f"d.csv, line {line}: field larger than field limit"):
            load_csv(f, "value")

    @pytest.mark.parametrize("text", ["value\n1\n2\x00\n3\n", "name,value\na\x00,1\n"])
    def test_nul_byte_reads_as_the_csv_module_reads_it(self, tmp_path, text):
        # the csv module of Python 3.10 rejects any NUL, later ones keep it
        f = tmp_path / "d.csv"
        f.write_text(text)
        assert_same_outcome(lambda: load_csv(f, "value"), lambda: csv_loop_oracle(f, "value"))

    def test_long_file_of_short_unquoted_lines(self, tmp_path):
        x = RandomSource(8).gen.normal(0.0, 5.0, 20_000)
        f = tmp_path / "d.csv"
        f.write_text("a,value\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(x.tolist())))
        assert load_csv(f, "value").tobytes() == x.tobytes()

    @settings(
        max_examples=400,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(file=csv_files())
    @example(file=("value\n1_000\n\u0661\u0662\n", "value"))
    @example(file=("value\r1\r2\r", "value"))
    @example(file=("x,value\n1,2,3\n4,5\n", "value"))
    @example(file=('"val\nue",x\r\n1,2\r\n', "val\nue"))
    @example(file=('value\n"1"2\n "3"\n"4" \n', "value"))
    @example(file=("value\n1\n \n2\n", "value"))
    @example(file=("value\n\n\n", "value"))
    @example(file=("value,value\n0.0,6\x1c", "value"))
    def test_matches_the_csv_module_loop(self, tmp_path, file):
        text, column = file
        f = tmp_path / "d.csv"
        try:
            f.write_text(text, newline="")
        except UnicodeEncodeError:
            assume(False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_same_outcome(lambda: load_csv(f, column), lambda: csv_loop_oracle(f, column))


class TestPerturb:
    def test_scale_zero_is_copy(self):
        x = np.array([1.0, 2.0])
        y = perturb(x, 0.0, RandomSource(0))
        assert np.array_equal(x, y) and y is not x

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            perturb(np.ones(3), -0.1, RandomSource(0))

    @pytest.mark.parametrize("scale", [math.nan, math.inf])
    def test_non_finite_scale_rejected(self, scale):
        # used to return NaN or infinite values, or skip the jitter
        with pytest.raises(ValueError, match="perturb_scale"):
            perturb(np.ones(3), scale, RandomSource(0))

    def test_tie_breaking_scale_stays_tiny(self):
        # the rating-style jitter must not move any point by a visible amount
        x = np.zeros(200_000)
        y = perturb(x, 0.001, RandomSource(5))
        assert np.abs(y).max() < 0.01
        assert 0.00095 < y.std() < 0.00105


class TestTrueQuantile:
    def test_frozen_cases(self):
        assert true_quantile(np.arange(1, 102), 0.5) == 51.0
        assert true_quantile([1, 2, 3, 4], 0.5) == 2.5
        assert true_quantile([7.0, -1.0, 3.0], 0.0) == -1.0
        assert true_quantile([7.0, -1.0, 3.0], 1.0) == 7.0

    def test_matches_interpolation_oracle(self):
        gen = RandomSource(12).gen
        for _ in range(1000):
            n = int(gen.integers(1, 50))
            vals = gen.uniform(-100, 100, size=n)
            q = float(gen.uniform(0, 1))
            got = true_quantile(vals, q)
            want = quantile_oracle(vals, q)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_q_out_of_range(self):
        with pytest.raises(ValueError):
            true_quantile([1.0, 2.0], 1.5)

    def test_array_of_levels_matches_one_call_per_level(self):
        gen = RandomSource(13).gen
        levels = np.array([0.0, 0.05, 0.25, 0.5, 0.61, 0.99, 1.0])
        for n in (1, 2, 7, 500):
            vals = gen.normal(0.0, 5.0, n)
            got = true_quantile(vals, levels)
            assert got.shape == levels.shape
            assert got.tobytes() == np.array([true_quantile(vals, q) for q in levels]).tobytes()
        for bad in ([0.5, 1.5], [np.nan], [[0.5]]):
            with pytest.raises(ValueError):
                true_quantile([1.0, 2.0], np.array(bad))


def small_spec(**overrides):
    data = generate_synthetic("uniform", 2000, RandomSource(77))
    defaults = dict(
        data=data,
        name="unit",
        declared_range=BoundedRange(-5.0, 5.0),
        sample_size=200,
        outer_trials=4,
        inner_trials=5,
        eps_grid=(1.0,),
        quantile_grid=(0.3, 0.5, 0.7),
        methods=("uqe", "emq"),
        perturb_scale=0.1,
        seed=11,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestExperimentSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_spec(sample_size=5000)
        with pytest.raises(ValueError):
            small_spec(outer_trials=0)
        with pytest.raises(ValueError):
            small_spec(methods=("uqe", "midpoint"))

    @pytest.mark.parametrize("grid", [(), (0.5, 1.5), (-0.1,), (0.5, math.nan)])
    def test_bad_quantile_grid_is_rejected(self, grid):
        with pytest.raises(ValueError, match="quantile grid"):
            small_spec(quantile_grid=grid)

    @pytest.mark.parametrize("eps", [(0.0,), (1.0, -1.0), (math.inf,), (math.nan,)])
    def test_bad_eps_is_rejected(self, eps):
        with pytest.raises(ValueError, match="eps"):
            small_spec(eps_grid=eps)


class TestQuantileExperiment:
    def test_record_layout_and_determinism(self):
        spec = small_spec()
        records = run_quantile_experiment(spec)
        assert len(records) == 1 * 2 * 3
        for r in records:
            assert r.experiment == "quantile"
            assert r.n_outer == 4 and r.n_inner == 1
            assert np.isfinite(r.mae) and r.mae >= 0.0
            assert r.method in ("uqe", "emq")
        again = run_quantile_experiment(small_spec())
        assert records_to_json(records) == records_to_json(again)

    def test_runtime_excluded_by_default(self):
        records = run_quantile_experiment(small_spec(quantile_grid=(0.5,)))
        plain = json.loads(records_to_json(records))
        assert all("runtime" not in row for row in plain)
        timed = json.loads(records_to_json(records, include_runtime=True))
        assert all(isinstance(row["runtime"], float) for row in timed)

    def test_normalized_rows(self):
        records = run_quantile_experiment(small_spec())
        rows = normalized_error_rows(records)
        assert len(rows) == len(records)
        for row in rows:
            if row["method"] == "uqe":
                assert row["normalized"] == 1.0

    def test_rounding_recovers_integer_data(self):
        # constant integer data, tiny tie-break jitter, nearly no privacy
        # noise: the rounded estimate must hit the true value exactly
        spec = small_spec(
            data=np.full(400, 5.0),
            declared_range=BoundedRange(0.0, 10.0),
            sample_size=100,
            outer_trials=3,
            quantile_grid=(0.5,),
            methods=("uqe",),
            eps_grid=(50.0,),
            perturb_scale=0.01,
            round_outputs=True,
        )
        (rounded,) = run_quantile_experiment(spec)
        assert rounded.mae == 0.0
        spec_raw = small_spec(
            data=np.full(400, 5.0),
            declared_range=BoundedRange(0.0, 10.0),
            sample_size=100,
            outer_trials=3,
            quantile_grid=(0.5,),
            methods=("uqe",),
            eps_grid=(50.0,),
            perturb_scale=0.01,
            round_outputs=False,
        )
        (raw,) = run_quantile_experiment(spec_raw)
        assert raw.mae > 0.0


class TestSumExperiment:
    def test_records_and_determinism(self):
        data = RandomSource(31).gen.uniform(0.0, 100.0, size=1200)
        spec = ExperimentSpec(
            data=data,
            name="sums",
            declared_range=BoundedRange(0.0, 10_000.0),
            sample_size=150,
            outer_trials=3,
            inner_trials=5,
            eps_grid=(1.0,),
            methods=("uqe", "emq"),
            perturb_scale=0.1,
            sum_beta=1.01,
            seed=21,
        )
        records = run_sum_experiment(spec)
        assert [r.method for r in records] == ["uqe", "emq"]
        uqe_rec, emq_rec = records
        assert uqe_rec.q == 0.99
        assert emq_rec.q in EMQ_SUM_QS
        assert uqe_rec.n_inner == 5
        # typical sample sum is ~7500; a private clip at the 0.99 level plus
        # Laplace at eps = 1 should sit well inside this band
        assert 0.0 < uqe_rec.mae < 2000.0
        again = run_sum_experiment(spec)
        assert records_to_json(records) == records_to_json(again)


def oracle_sample(spec, trial):
    base = RandomSource(spec.seed)
    picker = base.spawn(1_000_000 + trial)
    idx = picker.gen.choice(spec.data.size, size=spec.sample_size, replace=False)
    clean = spec.data[idx]
    return clean, perturb(clean, spec.perturb_scale, base.spawn(2_000_000 + trial))


def oracle_mech_rng(spec, index):
    return RandomSource(spec.seed).spawn(10_000_000 + index)


def oracle_quantile_experiment(spec):
    """Reference: the per-quantile protocol, which rebuilt the histogram,
    re-sorted the perturbed copy, recomputed the reference quantile and drew
    one level at a time from a new generator for every (eps, method, q) cell
    of every resample, and summarized each cell's errors on their own."""
    rr = spec.declared_range
    samples = [oracle_sample(spec, t) for t in range(spec.outer_trials)]
    clipped = [(clean, np.clip(noisy, rr.a, rr.b)) for clean, noisy in samples]
    records = []
    mech_index = 0
    for eps in spec.eps_grid:
        for method in spec.methods:
            for q in spec.quantile_grid:
                errs = np.empty(spec.outer_trials)
                for t, (clean, noisy) in enumerate(clipped):
                    rng = oracle_mech_rng(spec, mech_index)
                    mech_index += 1
                    if method == "uqe":
                        req = QuantileRequest(q=q, eps1=eps / 2.0, eps2=eps / 2.0, beta=spec.beta)
                        est = estimate_quantile(Dataset(noisy, lower_bound=rr.a), req, rng).value
                    else:
                        est = emq_draw_oracle(_interval_edges(noisy, rr), q, eps, rng)
                    if spec.round_outputs:
                        est = float(np.rint(est))
                    errs[t] = abs(est - true_quantile(clean, q))
                records.append(
                    ResultRecord(spec.name, "quantile", method, float(eps), float(q),
                                 float(errs.mean()), float(errs.std()), spec.outer_trials, 1)
                )  # fmt: skip
    return records


def oracle_sum_experiment(spec):
    """Reference: the per-block sum protocol, which rebuilt the histogram or
    re-sorted the perturbed copy, and drew from a new generator, for every
    clip."""
    rr = spec.declared_range
    raw = [oracle_sample(spec, t) for t in range(spec.outer_trials)]
    samples = [(clean, np.clip(noisy, 0.0, rr.b)) for clean, noisy in raw]
    stride = 2 * spec.outer_trials

    def mae_for_q(method, eps, q, offset):
        per_outer = np.empty(spec.outer_trials)
        for t, (clean, noisy) in enumerate(samples):
            rng = oracle_mech_rng(spec, offset + 2 * t)
            if method == "uqe":
                req = QuantileRequest(q=q, eps1=eps / 2.0, eps2=eps / 2.0, beta=spec.sum_beta)
                clip = estimate_quantile(Dataset(noisy, lower_bound=0.0), req, rng).value
            else:
                clip = emq_draw_oracle(_interval_edges(noisy, rr), q, eps, rng)
            if clip <= 0.0:
                clip = rr.width * 1e-9
            lap = sample(
                NoiseSpec(NoiseKind.LAPLACE, clip / eps),
                oracle_mech_rng(spec, offset + 2 * t + 1),
                size=spec.inner_trials,
            )
            per_outer[t] = np.abs(clipped_sum(noisy, clip) + lap - clean.sum()).mean()
        return float(per_outer.mean()), float(per_outer.std())

    records = []
    block = 0
    for eps in spec.eps_grid:
        for method in spec.methods:
            trio = []
            for q in (0.99,) if method == "uqe" else EMQ_SUM_QS:
                trio.append((*mae_for_q(method, eps, q, block * stride), q))
                block += 1
            mae, std, best_q = min(trio)
            records.append(
                ResultRecord(spec.name, "sum", method, float(eps), float(best_q), mae, std,
                             spec.outer_trials, spec.inner_trials)
            )  # fmt: skip
    return records


def tie_heavy_data():
    # integers with many ties, and zeros of both signs: reference quantiles
    # may differ in the sign of zero between one call per level and one call
    # for all levels, but |estimate - reference| may not
    vals = np.repeat(np.arange(-4.0, 5.0), 40)
    vals[::7] = -0.0
    return RandomSource(5).gen.permutation(vals)


@pytest.mark.parametrize("outer", [1, 3])
@pytest.mark.parametrize("beta", [1.001, 1.01])
@pytest.mark.parametrize("ties", [False, True])
def test_one_pass_per_resample_matches_the_per_quantile_oracle(outer, beta, ties):
    data, scale = (tie_heavy_data(), 0.0) if ties else (None, 0.1)
    for methods, round_outputs in itertools.product(
        [("uqe",), ("emq",), ("uqe", "emq"), ("emq", "uqe")], [False, True]
    ):
        spec = small_spec(
            **({"data": data} if ties else {}),
            sample_size=60,
            outer_trials=outer,
            inner_trials=4,
            eps_grid=(0.5, 2.0),
            quantile_grid=(0.0, 0.1, 0.5, 0.93, 1.0),
            methods=methods,
            perturb_scale=scale,
            beta=beta,
            sum_beta=1.001 if beta == 1.01 else 1.01,
            round_outputs=round_outputs,
        )
        assert records_to_json(run_quantile_experiment(spec)) == records_to_json(
            oracle_quantile_experiment(spec)
        )
        assert records_to_json(run_sum_experiment(spec)) == records_to_json(
            oracle_sum_experiment(spec)
        )


@pytest.mark.parametrize("outer", [1, 7, 8, 9, 127, 128, 129, 1000])
def test_row_statistics_are_the_per_row_ones(outer):
    # sizes on both sides of numpy's pairwise-summation blocks
    errs = np.abs(RandomSource(outer).gen.standard_cauchy((38, outer)))
    mae, std = errs.mean(axis=1), errs.std(axis=1)
    for row, m, s in zip(errs, mae, std):
        assert float(m).hex() == float(row.mean()).hex()
        assert float(s).hex() == float(row.std()).hex()


def test_each_resample_is_bucketed_sorted_and_scored_once(monkeypatch):
    calls = {}

    def counted(name):
        inner = getattr(bench, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(bench, name, wrapper)

    for name in ("build_histogram", "_interval_edges", "true_quantile"):
        counted(name)
    spec = small_spec(outer_trials=3, eps_grid=(0.5, 1.0), quantile_grid=(0.2, 0.5, 0.8))
    run_quantile_experiment(spec)
    assert calls == {"build_histogram": 3, "_interval_edges": 3, "true_quantile": 3}
    calls.clear()
    run_quantile_experiment(small_spec(outer_trials=2, methods=("emq",)))
    assert calls == {"_interval_edges": 2, "true_quantile": 2}
    calls.clear()
    run_sum_experiment(small_spec(outer_trials=2, declared_range=BoundedRange(-5.0, 5.0)))
    assert calls == {"build_histogram": 2, "_interval_edges": 2}


class TestFigureEmission:
    def test_grid_curve_ignores_assumed_range(self, tmp_path):
        data = RandomSource(9).gen.uniform(0.0, 9.5, size=300)
        first = emit_pdf_figures(
            data, BoundedRange(0.0, 10.0), 0.9, 1.0, 1.01, tmp_path, "narrow"
        )
        second = emit_pdf_figures(
            data, BoundedRange(0.0, 20.0), 0.9, 1.0, 1.01, tmp_path, "wide"
        )
        uqe_narrow = first["uqe"].read_bytes()
        uqe_wide = second["uqe"].read_bytes()
        assert uqe_narrow == uqe_wide
        assert first["emq"].read_bytes() != second["emq"].read_bytes()
        header, *rows = first["emq"].read_text().splitlines()
        assert header == "value,density"
        assert len(rows) == 1001


class TestRecordJson:
    def test_round_trip_fields(self):
        rec = ResultRecord("d", "quantile", "uqe", 1.0, 0.5, 0.25, 0.1, 10, 1, 3.5)
        assert "runtime" not in json.loads(records_to_json([rec]))[0]
        assert json.loads(records_to_json([rec], include_runtime=True))[0]["runtime"] == 3.5
        text = records_to_json([rec])
        assert text.endswith("\n")
        assert json.loads(text)[0]["dataset"] == "d"

    @pytest.mark.parametrize("include_runtime", [False, True])
    @pytest.mark.parametrize("size", [0, 1, 3])
    def test_bytes_are_those_of_the_indented_encoder(self, include_runtime, size):
        names = ["plain", 'q"uo}te,d\nlineé中', '},\n    {"x": 1}']
        recs = [
            ResultRecord(names[i], "sum", "emq", 0.5, 0.1 * i, math.nan, -1e300, 9, 3, 0.25 * i)
            for i in range(size)
        ]
        rows = [dict(vars(r)) for r in recs]
        if not include_runtime:
            for row in rows:
                del row["runtime"]
        expected = json.dumps(rows, sort_keys=True, indent=2) + "\n"
        assert records_to_json(recs, include_runtime=include_runtime) == expected
