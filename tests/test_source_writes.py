"""rtp opens a file for writing in one place only, rtp.files.writing, so
every file it writes lands whole or not at all."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parents[1] / "src" / "rtp").glob("*.py"))


def opens_for_writing(call: ast.Call) -> bool:
    """Whether the call opens a file for writing, or may: open, io.open,
    Path.open and os.fdopen with a mode that is not a read mode or not a
    constant, any os.open (its flags decide), and Path.write_text/write_bytes."""
    func = call.func
    if isinstance(func, ast.Name):
        name, owner = func.id, None
    elif isinstance(func, ast.Attribute):
        name, owner = func.attr, getattr(func.value, "id", "")
    else:
        return False
    if name in ("write_text", "write_bytes") or (name, owner) == ("open", "os"):
        return True
    if name not in ("open", "fdopen"):
        return False
    # Path.open takes its mode first; the others take a path or fd first.
    position = 0 if name == "open" and owner not in (None, "io") else 1
    modes = [k.value for k in call.keywords if k.arg == "mode"] or call.args[position : position + 1]
    if not modes:
        return False
    mode = modes[0]
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return any(flag in mode.value for flag in "wax+")
    return True


def write_calls(source: str) -> list[int]:
    """The lines of the calls in `source` that open a file for writing."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and opens_for_writing(node)
    )


def test_checker_flags_every_way_to_open_for_writing():
    source = (
        "open(path)\n"
        "open(path, 'r', newline='')\n"
        "open(path, 'w')\n"
        "open(path, mode='ab')\n"
        "open(path, 'x' if new else 'r+')\n"
        "io.open(path, 'wb')\n"
        "path.open()\n"
        "path.open('w')\n"
        "os.fdopen(fd, 'w')\n"
        "os.open(path, os.O_WRONLY)\n"
        "path.write_text('x')\n"
        "path.write_bytes(b'x')\n"
        "path.read_text()\n"
    )
    assert write_calls(source) == [3, 4, 5, 6, 8, 9, 10, 11, 12]


def test_one_call_in_rtp_opens_a_file_for_writing():
    calls = [(path.name, line) for path in SOURCES for line in write_calls(path.read_text())]
    assert len(calls) == 1 and calls[0][0] == "files.py", calls
