"""The scriptable self-check suites must pass at their default strength."""

import math

import pytest

from uqe import verify
from uqe.verify import DP_RATIO_MIN_TRIALS, SUITE_NAMES, run_verification_suite


def test_all_suites_pass():
    results = [run_verification_suite(name, seed=0, trials=120_000) for name in SUITE_NAMES]
    assert [r["suite"] for r in results] == list(SUITE_NAMES)
    for result in results:
        for check in result["checks"]:
            assert check["passed"], f"{result['suite']}/{check['id']}: {check['detail']}"
        assert result["passed"]


def test_detail_strings_are_informative():
    # a request below the floor runs the floor, and the details say so
    result = run_verification_suite("dp-ratio", seed=1, trials=10)
    for check in result["checks"]:
        assert "claimed" in check["detail"]
        assert check["detail"].endswith(f" x {DP_RATIO_MIN_TRIALS} trials")


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_verification_suite("everything")


def test_nan_z_score_fails_its_check(monkeypatch):
    monkeypatch.setattr(verify, "_mc_max_z", lambda *args: math.nan)
    for name in ("gumbel-closed-form", "em-equivalence"):
        assert not run_verification_suite(name, trials=10)["passed"]
