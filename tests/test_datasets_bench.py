"""Dataset helpers and the resampling benchmark harness.

Reference-quantile oracle used below: for sorted values v_1..v_n the linear
interpolation at level q sits at position q*(n-1); with j = floor(pos) and
frac = pos - j the value is v_{j+1} + frac * (v_{j+2} - v_{j+1}) (0-indexed
j, j+1). Frozen cases: {1..101} at q = 0.5 gives 51; {1,2,3,4} gives 2.5.
"""

import json
import math

import numpy as np
import pytest

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
from uqe.emq import BoundedRange
from uqe.noise import RandomSource


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

    def test_header_only_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("value\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(f, "value")

    def test_perturb_on_load(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("value\n1\n2\n3\n")
        with pytest.raises(ValueError, match="RandomSource"):
            load_csv(f, "value", perturb_scale=0.5)
        noisy = load_csv(f, "value", perturb_scale=0.5, rng=RandomSource(8))
        assert noisy.shape == (3,)
        assert not np.array_equal(noisy, [1.0, 2.0, 3.0])


class TestPerturb:
    def test_scale_zero_is_copy(self):
        x = np.array([1.0, 2.0])
        y = perturb(x, 0.0, RandomSource(0))
        assert np.array_equal(x, y) and y is not x

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            perturb(np.ones(3), -0.1, RandomSource(0))

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
        d = rec.as_dict()
        assert "runtime" not in d
        assert rec.as_dict(include_runtime=True)["runtime"] == 3.5
        text = records_to_json([rec])
        assert text.endswith("\n")
        assert json.loads(text)[0]["dataset"] == "d"
