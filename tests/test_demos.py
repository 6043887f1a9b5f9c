"""The demos import only names that exist; the demos themselves are not run."""
import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _vtsi_imports(path: Path):
    """(module, name) of every ``from vtsi... import name`` in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "vtsi":
            for alias in node.names:
                yield node.module, alias.name


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_vtsi_imports_resolve(demo):
    imports = list(_vtsi_imports(demo))
    assert imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), \
            "%s: %s has no %r" % (demo.name, module, name)
