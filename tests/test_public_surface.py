"""The package's top-level names cover every `from uqe import X` in the demos
and in the README's python examples, and its public signatures carry no
switch that bypasses the private release."""

import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uqe
from uqe import quantile
from uqe.emq import emq_estimate
from uqe.quantile import Dataset, QuantileRequest

ROOT = Path(__file__).resolve().parent.parent


def python_sources():
    for path in sorted((ROOT / "demos").glob("*.py")):
        yield path.name, path.read_text()
    readme = (ROOT / "README.md").read_text()
    for i, block in enumerate(re.findall(r"```python\n(.*?)```", readme, re.DOTALL)):
        yield f"README.md python block {i}", block


def top_level_imports():
    names = set()
    for source, text in python_sources():
        for node in ast.walk(ast.parse(text, filename=source)):
            if isinstance(node, ast.ImportFrom) and node.module == "uqe" and node.level == 0:
                names.update((alias.name, source) for alias in node.names)
    return sorted(names)


def test_examples_import_from_the_package():
    # a regex or path mistake would make the check below vacuous
    sources = {source for _, source in top_level_imports()}
    assert any(s.startswith("README.md") for s in sources)
    assert any(s.endswith(".py") for s in sources)


@pytest.mark.parametrize("name, source", top_level_imports())
def test_every_example_import_is_public(name, source):
    assert name in uqe.__all__, f"{source} imports {name}, which uqe.__all__ leaves out"
    assert hasattr(uqe, name)


def test_all_names_exist():
    for name in uqe.__all__:
        assert hasattr(uqe, name), name


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo, tmp_path):
    # parsing the imports misses a demo that reads a removed attribute;
    # tmp_path takes the figures/ directory demo 05 writes
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def public_signatures():
    """(module.name, parameter names) of every callable a submodule's
    __all__ names."""
    out = []
    for info in pkgutil.iter_modules(uqe.__path__):
        module = importlib.import_module(f"uqe.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if callable(obj):
                out.append((f"{info.name}.{name}", set(inspect.signature(obj).parameters)))
    return out


MECHANISMS = (
    "estimate_quantile_unbounded",
    "estimate_small_quantile_inverted",
    "estimate_multiple_quantiles",
    "dp_sum",
    "dp_mean",
)


def test_only_estimate_quantile_has_a_noiseless_switch():
    names = {name for name, _ in public_signatures()}
    assert {"quantile.estimate_quantile", "aggregates.dp_sum"} <= names
    noiseless = {name for name, params in public_signatures() if "noiseless" in params}
    assert noiseless == {"quantile.estimate_quantile"}


def test_no_public_callable_takes_a_sensitivity():
    # every query stream in the package is a counting stream, of sensitivity 1
    assert [name for name, params in public_signatures() if "sensitivity" in params] == []


@pytest.mark.parametrize("name", MECHANISMS)
def test_mechanisms_require_a_random_source(name):
    rng = inspect.signature(getattr(uqe, name)).parameters["rng"]
    assert rng.default is inspect.Parameter.empty


def test_a_missing_random_source_fails_at_the_call(monkeypatch):
    # it used to raise ValueError only after the O(n) sign-split pass
    passes = []
    monkeypatch.setattr(quantile, "_sign_split_totals", lambda *args: passes.append(args))
    req = QuantileRequest.even_split(0.5, 1.0)
    with pytest.raises(TypeError):
        uqe.estimate_quantile_unbounded(Dataset(np.arange(5.0)), req)
    assert passes == []


def call_without_a_source(name, rng):
    """Call mechanism `name` with rng and otherwise valid arguments."""
    req = QuantileRequest.even_split(0.5, 1.0)
    data = np.arange(5.0)
    emq = uqe.SumConfig(eps=1.0, method=uqe.ClipMethod.EMQ, emq_range=uqe.BoundedRange(0.0, 9.0))
    calls = {
        "estimate_quantile_unbounded": lambda: uqe.estimate_quantile_unbounded(
            Dataset(data), req, rng
        ),
        "estimate_small_quantile_inverted": lambda: uqe.estimate_small_quantile_inverted(
            Dataset(data), 9.0, req, rng
        ),
        "estimate_multiple_quantiles": lambda: uqe.estimate_multiple_quantiles(
            Dataset(data, lower_bound=0.0), [0.25, 0.75], req, rng
        ),
        "dp_sum": lambda: uqe.dp_sum(data, uqe.SumConfig(eps=1.0), rng),
        "dp_sum with the EMQ clip": lambda: uqe.dp_sum(data, emq, rng),
        "dp_mean": lambda: uqe.dp_mean(data, uqe.SumConfig(eps=1.0), rng),
        "estimate_quantile": lambda: uqe.estimate_quantile(Dataset(data, 0.0), req, rng),
        "emq_estimate": lambda: emq_estimate(data, uqe.BoundedRange(0.0, 9.0), 0.5, 1.0, rng),
    }
    return calls[name]()


@pytest.mark.parametrize("rng", [None, 7], ids=["None", "a seed"])
@pytest.mark.parametrize(
    "name", [*MECHANISMS, "dp_sum with the EMQ clip", "estimate_quantile", "emq_estimate"]
)
def test_a_random_source_that_is_not_one_fails_before_the_data_pass(monkeypatch, name, rng):
    # None used to reach the first draw: an AttributeError after the O(n)
    # pass, or a message naming a switch dp_sum no longer has. The
    # estimators' passes over the data are patched to fail the test.
    def no_pass(*args, **kwargs):
        raise AssertionError("the data were read")

    for module, attr in [
        (quantile, "_sign_split_totals"),
        (quantile, "build_histogram"),
        (np, "sort"),
    ]:
        monkeypatch.setattr(module, attr, no_pass)
    with pytest.raises(ValueError, match=r"^a RandomSource is required, got (NoneType|int)$"):
        call_without_a_source(name, rng)
