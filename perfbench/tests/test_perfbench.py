"""Fast tests of the benchmark itself: python3 -m pytest -q perfbench/tests"""

import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import yardstick  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.mark.parametrize("cls", WORKLOADS.values(), ids=list(WORKLOADS))
def test_inputs_are_deterministic_in_the_seed(cls):
    first, again, other = cls.make_inputs(7), cls.make_inputs(7), cls.make_inputs(8)
    assert first.keys() == again.keys() == other.keys()
    for key in first:
        assert np.array_equal(first[key], again[key])
        assert not np.array_equal(first[key], other[key])


def test_metric_names_and_units_are_well_formed():
    metrics = [*run.END_TO_END, *run.REPORTED, *layers.PER_LAYER]
    names = [name for name, _ in metrics]
    assert len(names) == len(set(names))
    for name, unit in metrics:
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert UNIT.fullmatch(unit), unit


def test_benchmark_json_lists_what_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_self_time_subtracts_nested_children():
    # root [0, 100] > mid [10, 60] > leaf [20, 30]; then leaf [70, 75] under root
    ticks = iter([0, 10, 20, 30, 60, 70, 75, 100])
    t = Tracer(clock=lambda: next(ticks))
    parents = []
    leaf = t.wrap("leaf", lambda: None, after=lambda tr, *_: parents.append(tr.parent_name))
    mid = t.wrap("mid", leaf)

    def body():
        mid()
        leaf()

    t.begin_call(0)
    t.wrap("root", body)()
    totals = t.span_totals(window=1)
    assert {name: e["self_ns"] for name, e in totals.items()} == {
        "root": 45,
        "mid": 40,
        "leaf": 15,
    }
    assert totals["root"]["total_ns"] == 100
    assert totals["leaf"]["n"] == totals["leaf"]["window"] == 2
    assert parents == ["mid", "root"]
    assert t.span_totals(window=0)["leaf"]["window"] == 0


def test_install_rebinds_every_module_that_imported_the_name():
    def f():
        return 1

    home, user, unrelated = SimpleNamespace(f=f), SimpleNamespace(f=f), SimpleNamespace(f=len)
    t = Tracer()
    t.begin_call(0)
    t.install([home, user, unrelated], "home.f", "f")
    assert home.f is not f and user.f is home.f and unrelated.f is len
    assert user.f() == 1 and t.span_totals(1)["home.f"]["n"] == 1
    t.uninstall()
    assert home.f is f and user.f is f


def test_to_reference_scales_by_the_pooled_yardstick():
    ref_ns = yardstick.REF_MS * 1e6
    times = [100.0, 200.0, 300.0, 400.0, 500.0, 600.0]
    # the host runs at half speed; one yardstick timing is hit by an interrupt
    yard = [2 * ref_ns] * 6
    yard[2] = 50 * ref_ns
    assert np.allclose(yardstick.to_reference(times, yard), np.asarray(times) / 2)
    assert np.allclose(yardstick.to_reference([7.0], [ref_ns]), [7.0])


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("cls", WORKLOADS.values(), ids=list(WORKLOADS))
def test_short_run_passes_every_check(cls, trace):
    report = run.run_workload(cls, seed=3, seconds=0, trace=trace, min_calls=3)
    assert report["problems"] == []
    assert report["loop"].failed == 0
    if trace:
        assert set(report["layers"]) == {name for name, _ in layers.PER_LAYER}
        assert report["layers"]["noise.threshold_draws_per_run"] == 1.0
    else:
        values = run.end_to_end(report)
        assert all(values[name] > 0 for name, _ in run.END_TO_END)
        assert run.reported(report)["failed_frac"] == 0
