"""Every public name resolves, and the package re-exports only names its home module lists."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import meltfront

MODULES = ["meltfront"] + [f"meltfront.{m.name}" for m in pkgutil.iter_modules(meltfront.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_each_name_in_all_exists(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_each_reexported_name_is_listed_by_its_home_module():
    tree = ast.parse(Path(meltfront.__file__).read_text())
    reexports = {
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert {name for _, name in reexports} >= set(meltfront.__all__) - {"__version__"}
    missing = [
        (module, name)
        for module, name in sorted(reexports)
        if name in meltfront.__all__ and name not in importlib.import_module(f"meltfront.{module}").__all__
    ]
    assert missing == []
