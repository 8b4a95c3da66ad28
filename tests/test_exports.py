import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import onesided

MODULES = ["onesided"] + [f"onesided.{m.name}" for m in pkgutil.iter_modules(onesided.__path__)]


def exported(mod) -> list:
    """The names a module promises: its ``__all__``, and for the package
    every name its ``from .module import ...`` lines bring in."""
    if mod is onesided:
        tree = ast.parse(Path(mod.__file__).read_text())
        return [a.asname or a.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for a in node.names]
    return list(getattr(mod, "__all__", ()))


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    # a stale entry breaks only ``from module import *``, which nothing else runs
    mod = importlib.import_module(name)
    assert [n for n in exported(mod) if not hasattr(mod, n)] == []
