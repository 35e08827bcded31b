"""The package's public names: the imports of __init__.py are their only list."""

import ast
import re
import types
from pathlib import Path

import selfpredict

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
