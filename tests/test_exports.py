"""Export lists name only what exists, so a stale export fails here and not
at ``from wdmqkd.<module> import *``."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import wdmqkd

MODULES = sorted(m.name for m in pkgutil.iter_modules(wdmqkd.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"wdmqkd.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(wdmqkd.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, ast.unparse(node)
        module = importlib.import_module(f"wdmqkd.{node.module}")
        assert [a.name for a in node.names if a.name not in module.__all__] == []
