"""Every module-level name that the rtp package defines is read somewhere."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
SOURCES = sorted((ROOT / "src" / "rtp").glob("*.py"))
# The other code that may read an rtp name: the tests and the benchmark.
READERS = [*sorted((ROOT / "tests").rglob("*.py")), *sorted((ROOT / "perfbench").rglob("*.py"))]


def defined(tree: ast.Module) -> dict[str, ast.stmt]:
    """The module's top-level functions, classes and constants, each with
    the statement that defines it; `_cmd_*` (main dispatches them by name)
    and dunder names are exempt."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        names[name.id] = node
    return {
        name: node for name, node in names.items()
        if not name.startswith("_cmd_") and not (name.startswith("__") and name.endswith("__"))
    }


def reads(tree: ast.Module):
    """(top-level statement, name) of every name the module reads, by itself
    or as an attribute."""
    for statement in tree.body:
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield statement, node.id
            elif isinstance(node, ast.Attribute):
                yield statement, node.attr


def unread_names(sources: dict[str, str], readers: list[str]) -> list[str]:
    """`module: name` for each name a source module defines that no code
    reads outside that name's own definition: not its module, another
    source module, nor any of `readers`."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    outside = {name for text in readers for _, name in reads(ast.parse(text))}
    unread = []
    for module, tree in trees.items():
        read = outside | {n for m, t in trees.items() if m != module for _, n in reads(t)}
        own = list(reads(tree))
        for name, node in defined(tree).items():
            if name not in read and not any(n == name and s is not node for s, n in own):
                unread.append(f"{module}: {name}")
    return unread


def test_checker_flags_a_name_no_code_reads():
    sources = {
        "a": "import os\nLIMIT = 3\n_RULES = {}\n\n"
             "def used():\n    return _RULES\n\n"
             "def recursive(n):\n    return recursive(n - 1)\n\n"
             "def dead():\n    return LIMIT\n\n"
             "def _cmd_run(args):\n    pass\n\n__version__ = '1'\n",
        "b": "from a import used\n\nclass Table:\n    pass\n\nused()\n",
    }
    readers = ["import b\nb.Table()\n"]
    assert unread_names(sources, readers) == ["a: recursive", "a: dead"]


def test_every_defined_name_is_read():
    sources = {path.name: path.read_text() for path in SOURCES}
    readers = [path.read_text() for path in READERS if path != Path(__file__)]
    assert unread_names(sources, readers) == []
