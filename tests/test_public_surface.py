"""The package's top-level names cover every `from uqe import X` in the demos
and in the README's python examples."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import uqe

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
