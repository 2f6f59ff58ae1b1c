"""End-to-end checks of the command-line interface.

Most cases call main() in process and parse the JSON it prints; a few run
the entry point declared in pyproject.toml and `python -m uqe.cli` through
the current interpreter in a real subprocess to pin down exit codes, so no
installed `uqe` executable is needed. The bundled smoke.csv (150
ratings-style values in [0, 10]) is the shared input fixture.
"""

import hashlib
import json
import math
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from uqe._checks import MIN_NOISE_EPS
from uqe.accounting import NeighborModel, QueryClass, guarantee_for
from uqe import cli
from uqe.bench import emit_pdf_figures
from uqe.cli import main
from uqe.emq import BoundedRange
from uqe.noise import NoiseKind

SMOKE = str(resources.files("uqe") / "data" / "smoke.csv")
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


class TestAccount:
    def test_monotonic_guarantee(self, capsys):
        code, payload = run_cli(
            capsys, "account", "--query-class", "monotonic", "--eps1", "0.5", "--eps2", "0.5"
        )
        assert code == 0
        assert payload["guarantee"]["eps_dp"] == 1.0
        assert payload["guarantee"]["rho_zcdp"] == 0.28125
        assert payload["guarantee"]["gamma_range_bounded"] == 1.5

    def test_count_minus_qn(self, capsys):
        code, payload = run_cli(
            capsys,
            "account",
            "--query-class",
            "count-minus-qn",
            "--neighbor",
            "add-subtract",
            "--noise",
            "gumbel",
            "--eps1",
            "0.5",
            "--eps2",
            "0.5",
            "--q",
            "0.99",
        )
        assert code == 0
        assert payload["guarantee"]["eps_dp"] == pytest.approx(0.995)

    def test_multi_quantile_budget(self, capsys):
        code, payload = run_cli(
            capsys, "account", "--num-quantiles", "3", "--eps1", "0.5", "--eps2", "0.5"
        )
        assert code == 0
        budget = payload["multi_quantile"]
        assert budget["levels"] == 2
        assert budget["total"]["eps_dp"] == 2.0

    def test_needs_class_or_count(self, capsys):
        code = main(["account"])
        assert code == 1
        assert "query-class" in capsys.readouterr().err


class TestQuantile:
    def test_bounded_run(self, capsys):
        code, payload = run_cli(
            capsys,
            "quantile",
            "--input",
            SMOKE,
            "--column",
            "value",
            "--q",
            "0.9",
            "--epsilon",
            "1.0",
            "--lower",
            "0",
            "--seed",
            "5",
        )
        assert code == 0
        assert payload["mode"] == "bounded"
        assert 7.0 < payload["estimate"] < 10.0
        assert payload["guarantee"]["eps_dp"] == 1.0
        assert payload["n"] == 150

    def test_env_seed_matches_flag(self, capsys, monkeypatch):
        args = ["quantile", "--input", SMOKE, "--column", "value", "--q", "0.5", "--lower", "0"]
        code = main(args + ["--seed", "5"])
        flagged = capsys.readouterr().out
        assert code == 0
        monkeypatch.setenv("UQE_SEED", "5")
        code = main(args)
        via_env = capsys.readouterr().out
        assert code == 0
        assert flagged == via_env

    def test_unbounded_mode(self, capsys):
        code, payload = run_cli(
            capsys,
            "quantile",
            "--input",
            SMOKE,
            "--column",
            "value",
            "--q",
            "0.5",
            "--epsilon",
            "1.0",
            "--seed",
            "5",
        )
        assert code == 0
        assert payload["mode"] == "unbounded"
        assert payload["epsilon_total_worst_case"] == 2.0
        assert "first_halt" in payload and "second_ran" in payload

    def test_unbounded_total_is_at_least_the_exact_sum_of_its_claims(self, capsys):
        # it printed the float sum of the two claims, 7.062238730135482,
        # which is below their exact sum
        eps1, eps2, q = 2.942697662940928, 2.059770533597277, 0.64745009074246
        code, payload = run_cli(
            capsys, "quantile", "--input", SMOKE, "--column", "value",
            "--neighbor", "add-subtract", "--eps1", str(eps1), "--eps2", str(eps2), "--q", str(q),
        )  # fmt: skip
        assert code == 0 and payload["mode"] == "unbounded"
        second = guarantee_for(
            QueryClass.COUNT_MINUS_QN, NeighborModel.ADD_SUBTRACT, NoiseKind.EXPONENTIAL,
            eps1, eps2, q=1.0 - q,
        )  # fmt: skip
        claims = [payload["guarantee_per_run"]["eps_dp"], second.eps_dp]
        assert claims == [3.965020402496006, 3.0972183276394762]
        total = payload["epsilon_total_worst_case"]
        assert Fraction(total) >= Fraction(claims[0]) + Fraction(claims[1]) > sum(claims)
        assert total == 7.0622387301354825

    def test_lower_and_upper_conflict(self, capsys):
        code = main(
            [
                "quantile",
                "--input",
                SMOKE,
                "--column",
                "value",
                "--q",
                "0.5",
                "--lower",
                "0",
                "--upper",
                "10",
            ]
        )
        assert code == 1
        assert "at most one" in capsys.readouterr().err

    def test_overflowing_lower_bound_exits_1(self, tmp_path):
        # 1e308 - (-1e308) + 1 overflows; it used to end in an AssertionError
        f = tmp_path / "big.csv"
        f.write_text("value\n1e308\n1.0\n")
        args = ["quantile", "--input", str(f), "--column", "value", "--q", "0.5"]
        proc = subprocess.run(
            [sys.executable, "-m", "uqe.cli", *args, "--lower=-1e308"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error:"), proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


@pytest.mark.parametrize(
    "mode", [["--q", "0.99", "--lower", "0"], ["--q", "0.99"], ["--q", "0.01", "--upper", "10"]]
)
def test_an_overflowing_single_estimate_exits_1(capsys, mode):
    # bounded, unbounded and inverted runs that halt past index 1,023 at beta 2
    code = main(["quantile", "--input", SMOKE, "--column", "value", *mode, "--beta", "2",
                 "--eps1", "0.05", "--eps2", "0.05", "--seed", "4"])  # fmt: skip
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "not finite" in captured.err and "index 1023" in captured.err


class TestQuantiles:
    def test_an_overflowing_estimate_exits_1_and_prints_no_infinity(self):
        # at beta 2 the 0.99 run halted past index 1,023, where beta^k is
        # inf; this used to exit 0 with "estimates": [7.0, Infinity]
        proc = subprocess.run(
            [sys.executable, "-m", "uqe.cli", "quantiles", "--input", SMOKE,
             "--column", "value", "--qs", "0.5,0.99", "--lower", "0", "--beta", "2",
             "--eps1", "0.05", "--eps2", "0.05", "--seed", "4"],
            capture_output=True,
            text=True,
            timeout=120,
        )  # fmt: skip
        assert proc.returncode == 1, proc.stdout
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:"), proc.stderr
        assert "beta 2.0" in proc.stderr and "index 1023" in proc.stderr, proc.stderr

    def test_monotone_estimates(self, capsys):
        code, payload = run_cli(
            capsys,
            "quantiles",
            "--input",
            SMOKE,
            "--column",
            "value",
            "--qs",
            "0.25,0.5,0.75",
            "--epsilon",
            "1.0",
            "--lower",
            "0",
            "--seed",
            "3",
        )
        assert code == 0
        ests = payload["estimates"]
        assert ests == sorted(ests)
        assert payload["budget"]["levels"] == 2


class TestSum:
    def test_sum_and_mean(self, capsys):
        base = ["sum", "--input", SMOKE, "--column", "value", "--epsilon", "1.0", "--seed", "3"]
        code, total = run_cli(capsys, *base)
        assert code == 0
        assert total["kind"] == "sum"
        assert total["epsilon_total"] == 2.0
        code, mean = run_cli(capsys, *base, "--mean")
        assert code == 0
        assert mean["kind"] == "mean"
        assert 0.0 < mean["estimate"] < 10.5

    def test_emq_needs_range(self, capsys):
        code = main(
            ["sum", "--input", SMOKE, "--column", "value", "--method", "emq"]
        )
        assert code == 1
        assert "range" in capsys.readouterr().err

    def test_emq_with_range(self, capsys):
        code, payload = run_cli(
            capsys,
            "sum",
            "--input",
            SMOKE,
            "--column",
            "value",
            "--method",
            "emq",
            "--range",
            "0",
            "10",
            "--seed",
            "2",
        )
        assert code == 0
        assert payload["method"] == "emq"


class TestVerify:
    def test_single_suite(self, capsys):
        code, payload = run_cli(capsys, "verify", "--suite", "em-equivalence", "--trials", "20000")
        assert code == 0
        assert payload["passed"] is True
        assert payload["suites"][0]["suite"] == "em-equivalence"


class TestBench:
    def test_deterministic_output_files(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        curves = tmp_path / "curves.csv"
        args = [
            "bench",
            "--input",
            SMOKE,
            "--column",
            "value",
            "--range",
            "0",
            "10",
            "--sample-size",
            "100",
            "--outer",
            "3",
            "--qs",
            "0.5,0.9",
            "--seed",
            "7",
        ]
        assert main(args + ["--out", str(f1), "--curves", str(curves)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()
        rows = json.loads(f1.read_text())
        assert len(rows) == 4
        assert all("runtime" not in r for r in rows)
        header = curves.read_text().splitlines()[0]
        assert header == "eps,q,method,mae,normalized"

    def test_synthetic_source(self, capsys):
        code, rows = run_cli(
            capsys,
            "bench",
            "--synthetic",
            "uniform",
            "--n",
            "400",
            "--range",
            "-5",
            "5",
            "--sample-size",
            "80",
            "--outer",
            "2",
            "--qs",
            "0.5",
            "--methods",
            "uqe",
            "--seed",
            "1",
        )
        assert code == 0
        assert rows[0]["dataset"] == "uniform"

    def test_sum_experiment(self, capsys):
        code, rows = run_cli(
            capsys,
            "bench",
            "--input",
            SMOKE,
            "--column",
            "value",
            "--experiment",
            "sum",
            "--range",
            "0",
            "10",
            "--sample-size",
            "60",
            "--outer",
            "2",
            "--inner",
            "3",
            "--methods",
            "uqe",
            "--sum-beta",
            "1.01",
            "--seed",
            "4",
        )
        assert code == 0
        assert rows[0]["experiment"] == "sum"
        assert rows[0]["q"] == 0.99

    @pytest.mark.filterwarnings("error")
    def test_errors_whose_squares_overflow_have_a_finite_std(self, capsys):
        # it warned "overflow encountered in square", then exited 1 as JSON
        # has no inf, although every error was finite
        code, rows = run_cli(
            capsys, "bench", "--input", SMOKE, "--column", "value", "--range", "0", "10",
            "--sample-size", "100", "--outer", "2", "--experiment", "sum", "--eps", "1e-300",
            "--methods", "emq",
        )  # fmt: skip
        assert code == 0
        # of two errors mae +- std, both >= 0
        assert all(1e299 < row["std"] <= row["mae"] < math.inf for row in rows)

    def test_errors_whose_sum_overflows_have_a_finite_mae(self):
        # the mean of 50 finite Laplace errors warned "overflow encountered
        # in reduce", a traceback under -W error
        args = [
            "bench", "--input", SMOKE, "--column", "value", "--range", "0", "10",
            "--sample-size", "100", "--outer", "2", "--experiment", "sum", "--eps", "3e-306",
            "--methods", "emq",
        ]  # fmt: skip
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "uqe.cli", *args],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        rows = json.loads(proc.stdout)
        assert rows and all(math.isfinite(r["mae"]) and math.isfinite(r["std"]) for r in rows)

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--qs", "0.5,1.5"),
            ("--qs", "nan"),
            ("--qs", "0.5,x"),
            ("--eps", "1,0"),
            ("--eps", "inf"),
        ],
    )
    def test_bad_grid_exits_1_before_any_resample(self, capsys, monkeypatch, flag, value):
        def no_resample(*args):
            raise AssertionError("a resample was drawn")

        monkeypatch.setattr("uqe.bench._draw_sample", no_resample)
        args = ["bench", "--input", SMOKE, "--column", "value", "--range", "0", "10"]
        # smoke.csv has 150 rows: a sample size above that would fail first
        args += ["--sample-size", "100", flag, value]
        for experiment in ("quantile", "sum"):
            assert main(args + ["--experiment", experiment]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error:")

    @pytest.mark.parametrize(
        "flag, value, name",
        [
            # NaN used to fail after a resample, in the grid lookup; inf
            # exited 0 with every perturbed point clipped to a range end
            ("--perturb-scale", "nan", "perturb_scale"),
            ("--perturb-scale", "inf", "perturb_scale"),
            ("--beta", "1", "beta"),
            ("--sum-beta", "1", "sum_beta"),
        ],
    )
    def test_bad_protocol_parameter_exits_1_before_any_resample(
        self, capsys, monkeypatch, flag, value, name
    ):
        def no_resample(*args):
            raise AssertionError("a resample was drawn")

        monkeypatch.setattr("uqe.bench._draw_sample", no_resample)
        args = ["bench", "--input", SMOKE, "--column", "value", "--range", "0", "10"]
        # smoke.csv has 150 rows: a sample size above that would fail first
        args += ["--sample-size", "100", flag, value]
        for experiment in ("quantile", "sum"):
            assert main(args + ["--experiment", experiment]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: {name} must be")


# each rejected flag, with the message it exits 1 with; none reads the CSV
REJECTED_FLAGS = {
    "--lower with --upper": (["quantile", "--q", "0.5", "--lower", "0", "--upper", "10"],
                             "give at most one of --lower / --upper"),
    "--eps1 alone": (["quantile", "--q", "0.5", "--eps1", "0.5"], "give both --eps1 and --eps2"),
    "quantile --q 2": (["quantile", "--q", "2"], "q must lie in [0, 1]"),
    "quantile --beta 1": (["quantile", "--q", "0.5", "--beta", "1"], "beta must be finite and > 1"),
    "--max-queries 0": (["quantile", "--q", "0.5", "--max-queries", "0"],
                        "max_queries must be at least 1"),
    # under add-subtract neighbors each of these used to run its O(n) pass,
    # then fail in request_guarantee
    "add-subtract, --lower, q = 0": (
        ["quantile", "--neighbor", "add-subtract", "--lower", "0", "--q", "0"],
        "quantile q in (0, 1)",
    ),
    "add-subtract, --upper, q = 1": (
        ["quantile", "--neighbor", "add-subtract", "--upper", "100", "--q", "1"],
        "quantile q in (0, 1)",
    ),
    "add-subtract, unbounded, q = 1e-17": (
        ["quantile", "--neighbor", "add-subtract", "--q", "1e-17"],
        "the run at level 1 - q = 1.0: ",
    ),
    "add-subtract, --upper, q = 1e-17": (
        ["quantile", "--neighbor", "add-subtract", "--upper", "9", "--q", "1e-17"],
        "the run at level 1 - q = 1.0: ",
    ),
    "--qs unparsed": (["quantiles", "--qs", "0.5,x", "--lower", "0"], "comma-separated numbers"),
    "--qs unsorted": (["quantiles", "--qs", "0.5,0.2", "--lower", "0"], "sorted and distinct"),
    "--qs at 1": (["quantiles", "--qs", "0.5,1", "--lower", "0"], "strictly inside (0, 1)"),
    "quantiles --neighbor add-subtract": (
        ["quantiles", "--qs", "0.5", "--lower", "0", "--neighbor", "add-subtract"],
        "swap neighbors only",
    ),
    "sum --q 0": (["sum", "--q", "0"], "q must lie in (0, 1]"),
    "sum --method emq": (["sum", "--method", "emq"], "the EMQ clip needs a declared range"),
    "sum --epsilon 0": (["sum", "--epsilon", "0"], "eps must be finite and > 0"),
    "bench --curves": (["bench", "--range", "0", "10", "--experiment", "sum", "--curves", "c.csv"],
                       "--curves applies to the quantile experiment only"),
    "bench --round": (["bench", "--range", "0", "10", "--experiment", "sum", "--round"],
                      "--round applies to the quantile experiment only"),
    "bench --synthetic": (["bench", "--range", "0", "10", "--synthetic", "uniform"],
                          "give either --synthetic or --input, not both"),
    "bench --qs": (["bench", "--range", "0", "10", "--qs", "0.5,x"], "comma-separated numbers"),
    "bench --eps": (["bench", "--range", "0", "10", "--eps", "1,x"], "comma-separated numbers"),
    # each of these, and the pdf flags below, used to be checked after the
    # CSV was read: a missing file was reported first
    "bench --outer 0": (["bench", "--range", "0", "10", "--outer", "0"],
                        "trial counts must be at least 1"),
    "bench --sample-size 0": (["bench", "--range", "0", "10", "--sample-size", "0"],
                              "sample size must be between 1 and the dataset size"),
    "bench --methods": (["bench", "--range", "0", "10", "--methods", "uqe,x"],
                        "unknown method: 'x'"),
    "bench --qs 1.5": (["bench", "--range", "0", "10", "--qs", "1.5"], "levels in [0, 1]"),
    "bench --eps 0": (["bench", "--range", "0", "10", "--eps", "0"], "eps must be finite and > 0"),
    "bench --perturb-scale": (["bench", "--range", "0", "10", "--perturb-scale", "-1"],
                              "perturb_scale must be finite and >= 0"),
    "bench --sum-beta 1": (["bench", "--range", "0", "10", "--sum-beta", "1"],
                           "sum_beta must be finite and > 1"),
    "bench --range": (["bench", "--range", "5", "1"], "range must be finite with a < b"),
    "pdf --q 1.5": (["pdf", "--q", "1.5"], "q must lie in [0, 1]"),
    "pdf --epsilon 0": (["pdf", "--epsilon", "0"], "eps must be finite and > 0"),
    "pdf --beta 1": (["pdf", "--beta", "1"], "beta must be finite and > 1"),
    "pdf --lower inf": (["pdf", "--lower", "inf"], "the lower bound must be finite"),
    "pdf --ranges": (["pdf", "--ranges", "0", "10", "--ranges", "5", "1"],
                     "range must be finite with a < b"),
}  # fmt: skip


@pytest.mark.parametrize("case", list(REJECTED_FLAGS))
def test_rejected_flags_exit_1_before_the_csv_is_read(monkeypatch, capsys, case):
    # a missing file used to be reported first, and a real one was parsed
    # before any flag was checked
    def no_read(*args):
        raise AssertionError("the CSV was read")

    monkeypatch.setattr(cli, "load_csv", no_read)
    argv, message = REJECTED_FLAGS[case]
    assert main([*argv, "--input", "/nonexistent.csv", "--column", "v"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err


class TestBadInputExits1:
    # each of these used to exit 0 with a non-finite release, or fail late
    # with an error about the noise scale
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv, names",
        [
            (["quantiles", "--qs", "0.2,nan", "--lower", "0"], "qs"),
            (["account", "--eps1", "inf", "--query-class", "monotonic"], "eps1"),
            (["account", "--eps1", "0.5", "--eps2", "inf", "--num-quantiles", "3"], "eps2"),
            # both used to print the swap budget, which assumes a public n
            (["account", "--num-quantiles", "3", "--neighbor", "add-subtract"], "add-subtract"),
            (
                ["quantiles", "--qs", "0.25,0.5,0.75", "--lower", "0",
                 "--neighbor", "add-subtract"],
                "add-subtract",
            ),
            # used to print "q": NaN or "q": Infinity, which is not JSON
            (["account", "--q", "nan", "--query-class", "monotonic"], "q must lie in [0, 1]"),
            (["account", "--q", "inf", "--query-class", "general"], "q must lie in [0, 1]"),
            (["quantile", "--q", "0.5", "--epsilon", "inf"], "eps1"),
            (["sum", "--epsilon", "inf"], "eps"),
            # smoke.csv reaches 9.943; both used to report the lower bound
            (["quantile", "--q", "0.5", "--upper", "5"], "upper bound"),
            (["quantile", "--q", "0.5", "--upper", "inf"], "upper bound"),
            # used to exit 0 with "passed": true and NaN z-scores
            (["verify", "--trials", "0"], "trials"),
            (
                ["bench", "--synthetic", "uniform", "--n", "200", "--sample-size", "100",
                 "--outer", "1", "--qs", "0.5", "--range", "-5", "inf"],
                "range",
            ),
            # used to end in a traceback: the write ran outside the try
            (["account", "--query-class", "general", "--out", "/nonexistent/dir/x.json"],
             "x.json"),
            # each used to print "rho_zcdp": Infinity, which is not JSON
            (
                ["account", "--query-class", "count-minus-qn", "--neighbor", "add-subtract",
                 "--q", "0.5", "--eps1", "1e308", "--eps2", "1e308"],
                "not JSON compliant",
            ),
            (["quantile", "--q", "0.5", "--lower", "0", "--eps1", "1e200", "--eps2", "1e200"],
             "not JSON compliant"),
            # each used to print "mae": Infinity after a numpy RuntimeWarning
            (
                ["bench", "--input", SMOKE, "--column", "value", "--range", "0", "100",
                 "--sample-size", "100", "--outer", "2", "--qs", "0.5,0.99",
                 "--beta", "1e300", "--methods", "uqe"],
                "at beta 1e+300 the grid's candidates overflow a float past index 1",
            ),
            (
                ["bench", "--input", SMOKE, "--column", "value", "--range", "0", "100",
                 "--sample-size", "100", "--outer", "2", "--qs", "0.5,0.99",
                 "--experiment", "sum", "--sum-beta", "1e300", "--eps", "0.01"],
                "at beta 1e+300 the grid's candidates overflow a float past index 1",
            ),
            # a budget whose half, each uqe run's eps1 and eps2, is 0
            (
                ["bench", "--input", SMOKE, "--column", "value", "--range", "0", "100",
                 "--sample-size", "100", "--outer", "1", "--qs", "0.5", "--eps", "5e-324"],
                "eps1",
            ),
            # each used to release the EMQ clip and ignore the flag
            (["sum", "--method", "emq", "--range", "0", "100", "--threshold-mode", "n"],
             "threshold_mode"),
            (["sum", "--method", "emq", "--range", "0", "100", "--beta", "0.5"], "beta"),
            (["sum", "--range", "0", "100"], "UQE one reads none"),
            # each used to exit 0 and drop the flag
            (["account", "--num-quantiles", "3", "--query-class", "general"], "--query-class"),
            (["account", "--num-quantiles", "3", "--q", "0.5"], "--q"),
            (
                ["bench", "--input", SMOKE, "--column", "value", "--range", "0", "100",
                 "--experiment", "sum", "--curves", "/nonexistent/curves.csv"],
                "--curves",
            ),
            (
                ["bench", "--input", SMOKE, "--column", "value", "--range", "0", "100",
                 "--experiment", "sum", "--round"],
                "--round",
            ),
        ],
    )
    def test_exits_1_with_an_error(self, capsys, argv, names):
        if argv[0] in ("quantiles", "quantile", "sum"):
            argv = argv + ["--input", SMOKE, "--column", "value"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert names in captured.err

    # the csv module rejects the first (a field past its 131072-character
    # limit) and, on Python 3.10, the second; that used to end in a traceback
    @pytest.mark.parametrize(
        "text", ["name,value\na,1\n" + "b" * 200_000 + ",2\n", "value\n1\n2\x00\n3\n"]
    )
    def test_file_the_csv_module_rejects_exits_1(self, capsys, tmp_path, text):
        f = tmp_path / "f.csv"
        f.write_text(text)
        assert main(["quantile", "--input", str(f), "--column", "value", "--q", "0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {f}, ")


class TestGoldenOutput:
    """sha256 of stdout for fixed seeded runs on smoke.csv. A change that
    moves any printed byte, seeded releases included, fails here."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["quantile", "--q", "0.5", "--lower", "0"],
                "6daa2a1ca28f2f8fa075350e47816caa9117a6842402f288272d60b350f17e68",
            ),
            (
                ["quantile", "--q", "0.5", "--upper", "10"],
                "216d65fbb170a0ec56e388d4b39c7b2db348152c8a4592573eeb8b04078db621",
            ),
            (
                ["quantile", "--q", "0.5"],
                "258410a241e7ef4e2a03b77573c52e389fa85de799d1036549af3e3f497b67ec",
            ),
            (
                ["quantiles", "--qs", "0.25,0.5,0.75", "--lower", "0"],
                "e2f01166e51a2d23fdaecde1cd50d07422200a08c27a037df2a3ed600dc7914e",
            ),
            (["sum"], "e95011d20841e69167bca489cf2cc40dc75afc332aa0d36f8f67a69348bf7c95"),
            (
                ["sum", "--mean"],
                "df16209ce3333ee9a7956115d6c8aeafb9de54a4fb6defaab931529043121a11",
            ),
            (
                ["sum", "--method", "emq", "--range", "0", "10"],
                "5de90789252fc9a2ca91826360f38b847191b7e4260c8c79bb278fffa85a484e",
            ),
        ],
    )
    def test_seeded_runs(self, capsys, argv, digest):
        assert main(argv + ["--input", SMOKE, "--column", "value", "--seed", "5"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["account", "--query-class", "monotonic"],
                "54bd19753f4020bd39f1c811b432ff7e8105bdfd8f230c5fd34cbc0d4a68df99",
            ),
            (
                ["account", "--num-quantiles", "3"],
                "d12f973c5ae52878c44223f80d8d220d410e34759d416a02a6df708c9e551e7d",
            ),
        ],
    )
    def test_accounting(self, capsys, argv, digest):
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestPdf:
    def test_default_ranges_share_grid_curve(self, capsys, tmp_path):
        code, payload = run_cli(
            capsys,
            "pdf",
            "--input",
            SMOKE,
            "--column",
            "value",
            "--beta",
            "1.01",
            "--out-dir",
            str(tmp_path),
        )
        assert code == 0
        paths = payload["written"]
        assert len(paths) == 4
        uqe_paths = [p for p in paths if "uqe_pdf" in p]
        a, b = (open(p, "rb").read() for p in uqe_paths)
        assert a == b

    @pytest.mark.parametrize("eps", ["1e15", "1e308"])
    def test_extreme_budgets_write_one_distribution(self, capsys, tmp_path, eps):
        # the grid curve's masses used to sum to 3.0 at eps 1e15, and its
        # densities were not finite at 1e308; a RuntimeWarning fails the test
        argv = ["pdf", "--input", SMOKE, "--column", "value", "--epsilon", eps]
        code, payload = run_cli(capsys, *argv, "--ranges", "0", "10", "--out-dir", str(tmp_path))
        assert code == 0
        for path in payload["written"]:
            rows = np.loadtxt(path, delimiter=",", skiprows=1)
            assert np.isfinite(rows).all() and (rows[:, 1] >= 0).all()
        # the grid curve's rows are (left, density), (right, density) per interval
        (uqe_path,) = [p for p in payload["written"] if "uqe_pdf" in p]
        rows = np.loadtxt(uqe_path, delimiter=",", skiprows=1)
        mass = rows[0::2, 1] * (rows[1::2, 0] - rows[0::2, 0])
        assert mass.sum() <= 1.0 + 1e-12

    def test_an_error_leaves_no_file(self, capsys, tmp_path):
        # smoke.csv reaches 9.943, past the second range: its curves used to
        # fail after the first range's two files were written
        argv = ["pdf", "--input", SMOKE, "--column", "value", "--out-dir", str(tmp_path)]
        assert main([*argv, "--ranges", "0", "10", "--ranges", "0", "5"]) == 1
        assert "outside the declared range" in capsys.readouterr().err
        # emit_pdf_figures used to write the interval curve, then reject beta
        with pytest.raises(ValueError, match="beta"):
            emit_pdf_figures([1.0, 2.0], BoundedRange(0.0, 10.0), 0.5, 1.0, 0.5, tmp_path, "x")
        assert list(tmp_path.iterdir()) == []


class TestExitCodes:
    def test_console_script(self):
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10
            tomllib = pytest.importorskip("tomli")
        with PYPROJECT.open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["uqe"] == "uqe.cli:main"

        # The body of the script pip generates for this entry point.
        module, attr = scripts["uqe"].split(":")
        launcher = f"import sys; from {module} import {attr}; sys.exit({attr}())"

        def uqe(*argv):
            return subprocess.run(
                [sys.executable, "-c", launcher, *argv], capture_output=True, text=True
            )

        ok = uqe("account", "--query-class", "monotonic")
        assert ok.returncode == 0, ok.stderr
        bad_flag = uqe("nonsense")
        assert bad_flag.returncode == 2, bad_flag.stderr
        bad_input = uqe(
            "quantile", "--input", "/definitely/missing.csv", "--column", "v", "--q", "0.5"
        )
        assert bad_input.returncode == 1, bad_input.stderr
        assert "error:" in bad_input.stderr

    @pytest.mark.parametrize(
        "argv, eps1",
        [(["quantile", "--lower", "0", "--epsilon", "2e-308"], 1e-308), (["sum", "--epsilon", "1e-320"], 5e-321)],
    )  # fmt: skip
    def test_a_budget_whose_noise_overflows_a_float_exits_1_with_the_error_alone(self, argv, eps1):
        # the quantile warned of an overflow, then released a value drawn
        # from infinite noise; the sum blamed the data for its noise
        res = subprocess.run(
            [sys.executable, "-m", "uqe.cli", *argv, "--input", SMOKE, "--column", "value", "--q", "0.5"],
            capture_output=True,
            text=True,
        )  # fmt: skip
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr == (
            f"error: eps1 must be at least {MIN_NOISE_EPS!r}, below which its noise "
            f"overflows a float, got {eps1!r}\n"
        )

    def test_module_invocation(self):
        res = subprocess.run(
            [sys.executable, "-m", "uqe.cli", "account", "--query-class", "general"],
            capture_output=True,
            text=True,
        )
        assert res.returncode == 0
        assert json.loads(res.stdout)["guarantee"]["eps_dp"] == 1.5
