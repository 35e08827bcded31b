"""The package's public names: the imports of __init__.py are their only list.  Also
the names the benchmark's tracer reads, and the suite's one warnings filter."""

import ast
import importlib
import pkgutil
import re
import types
from pathlib import Path

import pytest

import selfpredict
from selfpredict import DynamicsConfig

ROOT = Path(__file__).resolve().parents[1]


def test_every_public_name_resolves_and_is_what_star_import_binds():
    names = selfpredict.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert not name.startswith("_")
        assert not isinstance(getattr(selfpredict, name), types.ModuleType)
    bound: dict = {}
    exec("from selfpredict import *", bound)
    bound.pop("__builtins__")
    assert bound == {name: getattr(selfpredict, name) for name in names}


def test_init_imports_each_public_name_once():
    tree = ast.parse(Path(selfpredict.__file__).read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]
    assert sorted(imported) == sorted(selfpredict.__all__)


def test_readme_entry_points_are_public():
    readme = (ROOT / "README.md").read_text()
    table = readme.split("The main entry points:", 1)[1].split("\n\n", 2)[1]
    rows = [line.split("|")[1] for line in table.splitlines()[2:]]
    named = {name for row in rows for name in re.findall(r"`(\w+)`", row)}
    assert len(named) > 20
    assert named <= set(selfpredict.__all__)


def test_the_benchmark_tracer_resolves_every_name_it_wraps(monkeypatch):
    # Some of these names look unused in src/ (scenarios.integrate_ode, integrate_bidir,
    # bidirectional.normalizers, DynamicsConfig.loss_kind); bench/run.py --trace 1 needs them.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracing = importlib.import_module("tracing")
    bound = tracing.snapshot()  # reads the names, swaps nothing in
    assert list(bound) == list(tracing.TARGETS) and len(bound) == 15
    assert all(callable(fn) for fn in bound.values())
    assert DynamicsConfig.loss_kind == "squared"


@pytest.mark.parametrize("module", ["selfpredict", *(
    f"selfpredict.{m.name}" for m in pkgutil.iter_modules(selfpredict.__path__))])
def test_a_runtime_warning_from_any_module_fails_the_suite(module):
    # pyproject's one filter, error::RuntimeWarning:selfpredict, matches a module name's start
    with pytest.raises(RuntimeWarning):
        exec("import warnings; warnings.warn('overflow', RuntimeWarning)", {"__name__": module})
