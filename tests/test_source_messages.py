"""Only the CLI names a file in an error message: every other rtp module
raises a bare message, and the CLI prefixes the path of the input it read."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "rtp").glob("*.py"))
LIBRARY = [path for path in SOURCES if path.name != "cli.py"]


def is_path_name(name: str) -> bool:
    return name in ("path", "source") or name.endswith("_path")


def path_messages(source: str) -> list[int]:
    """The lines of the `raise` statements whose f-strings read a name
    `path`, `source` or `*_path`."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            fstrings = [f for f in ast.walk(node.exc) if isinstance(f, ast.JoinedStr)]
            names = [n for f in fstrings for n in ast.walk(f) if isinstance(n, ast.Name)]
            if any(is_path_name(name.id) for name in names):
                lines.append(node.lineno)
    return sorted(lines)


def test_checker_flags_a_path_in_a_raised_fstring():
    source = (
        "def f(path, out_path, source, name):\n"
        "    raise ValueError(f'{path}: bad')\n"
        "    raise ValueError(f'bad: {out_path.name}')\n"
        "    raise ValueError('in ' + f'{source}')\n"
        "    raise ValueError(f'{name}: bad', path)\n"
        "    raise ValueError(f'{pathname}')\n"
        "    print(f'{path}')\n"
        "    raise\n"
    )
    assert path_messages(source) == [2, 3, 4]


@pytest.mark.parametrize("path", LIBRARY, ids=[path.name for path in LIBRARY])
def test_library_messages_name_no_file(path):
    assert path_messages(path.read_text()) == []
