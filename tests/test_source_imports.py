"""Every module-level import in the rtp package is used by its module."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "rtp").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names that the module's top-level import statements bind and that no
    expression of the module reads; `from __future__` imports are exempt."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_checker_flags_an_unused_import():
    source = "import json\nimport math\nfrom os import path, sep as separator\nmath.pi\nseparator\n"
    assert unused_imports(source) == ["line 1: json", "line 3: path"]


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text()) == []
