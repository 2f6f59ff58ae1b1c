"""The validation boundary: every parameter rule lives in uqe._checks, and
every public entry point rejects a bad parameter before it reads the data.

The fuzz gives each numeric parameter NaN, +-inf, 0, a negative value, the
least subnormal and +-DBL_MAX, on data that lie within any bound the value
declares.
A call then returns a result or raises ValueError, with no warning. It runs
once as it is, and once with the passes over the data patched to fail: a
ValueError must come the same way from both, so before any pass, unless a
rule that compares the data with a parameter raised it. With the data
inside every bound, two such rules are left: a sum's Laplace scale, which
its clip sets, and a bench release past the float range, which at a beta
near DBL_MAX the halt index sets.
"""

import ast
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uqe
from uqe import aggregates, bench, emq, quantile
from uqe.accounting import NeighborModel, multi_quantile_guarantee
from uqe.aggregates import ClipMethod, SumConfig, dp_sum
from uqe.bench import ExperimentSpec, run_quantile_experiment, run_sum_experiment
from uqe.datasets import generate_synthetic
from uqe.emq import BoundedRange, emq_estimate
from uqe.noise import NoiseKind, RandomSource
from uqe.quantile import (
    Dataset,
    QuantileRequest,
    estimate_multiple_quantiles,
    estimate_quantile,
    estimate_quantile_unbounded,
    estimate_small_quantile_inverted,
)
from uqe.sparse_vector import SvtConfig, run_above_threshold
from uqe.verify import run_verification_suite

import reference

SRC = Path(uqe.__file__).parent

DBL_MAX = sys.float_info.max
SPECIAL = (math.nan, math.inf, -math.inf, 0.0, -1.0, 5e-324, DBL_MAX, -DBL_MAX)

# the passes over the data: the unbounded sign split, the histogram build,
# the min and max pass of Dataset and dp_sum, and the sorts of emq and the
# multi-quantile recursion
PASSES = ("_sign_split_totals", "build_histogram", "_finite_min")

# the rules that compare the data with a parameter, which can fail only
# after a pass
DATA_RULES = re.compile(r"lets the sum's noise overflow a float|a released estimate is not finite")

DATA = np.arange(1.0, 11.0)
BOUNDED, SIGNED = Dataset(DATA, lower_bound=0.0), Dataset(DATA - 5.5)


class DataRead(Exception):
    """A pass over the data began."""


def rng():
    return RandomSource(1)


def near(bound, side):
    """Ten points on the given side (+1 above, -1 below) of a finite bound."""
    return bound + side * np.arange(10.0) if math.isfinite(bound) else DATA


def request_cases():
    estimators = {
        "estimate_quantile": lambda req: estimate_quantile(BOUNDED, req, rng()),
        "unbounded": lambda req: estimate_quantile_unbounded(SIGNED, req, rng()),
        "inverted": lambda req: estimate_small_quantile_inverted(BOUNDED, 20.0, req, rng()),
        "multiple": lambda req: estimate_multiple_quantiles(BOUNDED, [0.25, 0.75], req, rng()),
    }
    for field in ("q", "eps1", "eps2", "beta", "max_queries"):
        for neighbor in NeighborModel:
            for name, run in estimators.items():

                def make(v, field=field, neighbor=neighbor, run=run):
                    kwargs = {"q": 0.5, "eps1": 0.5, "eps2": 0.5, field: v}
                    return lambda: run(QuantileRequest(**kwargs, neighbor=neighbor))

                yield f"QuantileRequest.{field}-{neighbor.value}-{name}", make


def sum_cases():
    ranges = {ClipMethod.UQE: None, ClipMethod.EMQ: BoundedRange(0.0, 20.0)}
    for field in ("eps", "q", "beta"):
        for method, emq_range in ranges.items():

            def make(v, field=field, method=method, emq_range=emq_range):
                kwargs = {"eps": 1.0, field: v, "method": method, "emq_range": emq_range}
                return lambda: dp_sum(DATA, SumConfig(**kwargs), rng())

            yield f"SumConfig.{field}-{method.value}", make


def spec_cases():
    fields = (
        "sample_size", "outer_trials", "inner_trials", "eps_grid", "quantile_grid",
        "perturb_scale", "beta", "sum_beta", "seed",
    )  # fmt: skip
    for field in fields:
        for run in (run_quantile_experiment, run_sum_experiment):

            def make(v, field=field, run=run):
                value = (v,) if field.endswith("grid") else v
                kwargs = {"sample_size": 5, "outer_trials": 2, "inner_trials": 2, field: value}
                return lambda: run(ExperimentSpec(DATA, "fuzz", BoundedRange(0.0, 20.0), **kwargs))

            yield f"ExperimentSpec.{field}-{run.__name__}", make


def other_cases():
    def bounded_range(a, b):
        # the data clipped into a valid range: a linspace from -DBL_MAX overflows
        data = np.clip(DATA, a, b) if -math.inf < a < b < math.inf else DATA
        return lambda: emq_estimate(data, BoundedRange(a, b), 0.5, 1.0, rng())

    yield "BoundedRange.a", lambda v: bounded_range(v, 20.0)
    yield "BoundedRange.b", lambda v: bounded_range(0.0, v)
    for field in ("eps1", "eps2", "threshold"):
        for noise in NoiseKind:

            def make(v, field=field, noise=noise):
                kwargs = {"eps1": 1.0, "eps2": 1.0, "threshold": 5.0, field: v}
                stream = reference.query_stream(np.arange(10), DATA, 100)
                return lambda: run_above_threshold(stream, SvtConfig(**kwargs, noise=noise), rng())

            yield f"SvtConfig.{field}-{noise.value}", make

    def lower_bound(v):
        data = near(v, 1)
        req = QuantileRequest.even_split(0.5, 1.0)
        return lambda: estimate_quantile(Dataset(data, lower_bound=v), req, rng())

    def upper_bound(v):
        data = Dataset(near(v, -1))
        req = QuantileRequest.even_split(0.5, 1.0)
        return lambda: estimate_small_quantile_inverted(data, v, req, rng())

    yield "Dataset.lower_bound", lower_bound
    yield "inverted.upper_bound", upper_bound
    emq_range = BoundedRange(0.0, 20.0)
    yield "emq_estimate.eps", lambda v: lambda: emq_estimate(DATA, emq_range, 0.5, v, rng())
    yield "emq_estimate.q", lambda v: lambda: emq_estimate(DATA, emq_range, v, 1.0, rng())
    yield "estimate_multiple_quantiles.qs", lambda v: lambda: estimate_multiple_quantiles(
        BOUNDED, [v, 0.5], QuantileRequest.even_split(0.5, 1.0), rng()
    )
    # counts and seeds, which no float is
    yield "multi_quantile_guarantee.m", lambda v: lambda: multi_quantile_guarantee(
        v, 0.5, 0.5, NoiseKind.LAPLACE
    )
    yield "generate_synthetic.n", lambda v: lambda: generate_synthetic("uniform", v, rng())
    suite = "gumbel-closed-form"
    yield "run_verification_suite.trials", lambda v: lambda: run_verification_suite(suite, trials=v)
    yield "run_verification_suite.seed", lambda v: lambda: run_verification_suite(
        suite, seed=v, trials=10
    )


CASES = dict([*request_cases(), *sum_cases(), *spec_cases(), *other_cases()])


def outcome(call):
    """None for a result, else the ValueError's message; a warning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call()
        except ValueError as e:
            return str(e)
    return None


def outcome_without_passes(call):
    """outcome(call), or DataRead once a pass over the data begins."""

    def no_pass(*args, **kwargs):
        raise DataRead

    with pytest.MonkeyPatch.context() as mp:
        for module in (aggregates, bench, emq, quantile):
            for name in PASSES:
                if hasattr(module, name):
                    mp.setattr(module, name, no_pass)
        mp.setattr(np, "sort", no_pass)
        try:
            return outcome(call)
        except DataRead:
            return DataRead


@pytest.mark.parametrize("case", list(CASES))
@settings(max_examples=len(SPECIAL) * 4, deadline=None)
@given(value=st.sampled_from(SPECIAL))
def test_fuzzed_parameters_fail_before_the_data_pass(case, value):
    make = CASES[case]
    plain = outcome(make(value))
    blocked = outcome_without_passes(make(value))
    if blocked is DataRead:
        assert plain is None or DATA_RULES.search(plain), plain
    else:
        assert blocked == plain


def test_the_fuzz_reaches_both_outcomes():
    # a case list that only ever fails, or never does, would check nothing
    seen = {outcome(CASES[case](value)) is None for case in CASES for value in SPECIAL[3:]}
    assert seen == {True, False}


def test_counts_and_seeds_must_be_integers():
    # m = 2.5 gave a budget for m = 2.5, a seed of 2.5 ran at seed 2, and
    # n and trials of 2.5 were a TypeError in numpy
    calls = {
        "m": lambda: multi_quantile_guarantee(2.5, 0.5, 0.5, NoiseKind.LAPLACE),
        "n": lambda: generate_synthetic("uniform", 2.5, rng()),
        "trials": lambda: run_verification_suite("gumbel-closed-form", trials=2.5),
        "seed": lambda: run_verification_suite("gumbel-closed-form", seed=2.5, trials=10),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
            call()


def test_parameter_rules_live_in_one_module():
    rules = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        # each record has one constructor: no unchecked _built twin
        assert "_built" not in text, path.name
        for node in ast.walk(ast.parse(text, filename=str(path))):
            if isinstance(node, ast.FunctionDef) and re.match(r"_?check_", node.name):
                rules.append((path.stem, node.name))
    assert ("_checks", "check_eps") in rules
    # bench._check_finite checks released estimates, not parameters
    assert [rule for rule in rules if rule[0] != "_checks"] == [("bench", "_check_finite")]
