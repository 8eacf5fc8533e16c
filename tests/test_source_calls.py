"""A trained network meets feature rows in one place only,
rtp.compose.run_stage, so its inputs are always its variant's columns; every
forward pass is cut into blocks in one place, the engine; a variant is
trained in two places only, one pipeline chain and rtp train; and every
report block is built in one place, rtp.pipeline.score."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "rtp").glob("*.py"))


def users(source: str, name: str) -> list[str | None]:
    """The function around each use of `name` in `source`, in line order:
    a read of the bare name or of an attribute `x.name` (a call, or a
    reference passed on), or an import of it under another name. The
    function is the outermost def holding the use, or None at module level."""
    tree = ast.parse(source)
    owner = {}
    for top in ast.walk(tree):  # breadth first: outer defs before inner ones
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(top):
                owner.setdefault(node, top.name)
    uses = [
        node for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load))
        or (isinstance(node, ast.Attribute) and node.attr == name and isinstance(node.ctx, ast.Load))
        or (isinstance(node, ast.alias) and node.name == name and node.asname not in (None, name))
    ]
    return [owner.get(node) for node in sorted(uses, key=lambda n: (n.lineno, n.col_offset))]


def uses_in_rtp(name: str, skip: str = "") -> dict[str, list]:
    found = {path.name: users(path.read_text(), name) for path in SOURCES if path.name != skip}
    return {file: where for file, where in found.items() if where}


def test_checker_finds_every_use_and_its_function():
    source = (
        "from .engine import run_layers\n"
        "from .engine import run_layers as go\n"
        "run_layers(m, x)\n"
        "def outer(m, x):\n"
        "    def inner():\n"
        "        return engine.run_layers(m, x)\n"
        "    return list(map(run_layers, [m], [x]))\n"
        "class Runner:\n"
        "    def run(self, x):\n"
        "        return self.run_layers(x)\n"
        "def unrelated(run_layers_count):\n"
        "    run_layers = None\n"
        "    return run_layers_count\n"
    )
    assert users(source, "run_layers") == [None, None, "outer", "outer", "run"]


def test_only_run_stage_runs_a_network_outside_the_engine():
    assert uses_in_rtp("run_blocks", skip="engine.py") == {"compose.py": ["run_stage"]}


def test_only_the_engine_runs_layers():
    assert list(uses_in_rtp("run_layers")) == ["engine.py"]


def test_the_engine_alone_sets_the_block_size_and_only_read_chunks_reads_it_elsewhere():
    assigned = [
        path.name for path in SOURCES for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and node.id == "CHUNK_ROWS" and isinstance(node.ctx, ast.Store)
    ]
    assert assigned == ["engine.py"]
    found = uses_in_rtp("CHUNK_ROWS", skip="engine.py")
    assert {file: set(where) for file, where in found.items()} == {"ingest.py": {"read_chunks"}}


def test_only_run_stage_and_fit_variant_pick_a_network_input():
    assert uses_in_rtp("stage_inputs") == {
        "compose.py": ["run_stage"],
        "pipeline.py": ["fit_variant", "fit_variant"],
    }


def test_only_fit_chain_and_rtp_train_train_a_variant():
    assert uses_in_rtp("fit_variant") == {"cli.py": ["_cmd_train"], "pipeline.py": ["fit_chain"]}


def imported_names(source: str) -> set[str]:
    """Every module and name that `source` imports, split at its dots:
    `from .evaluate import x` and `from rtp import evaluate` both give
    "evaluate"."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for name in [getattr(node, "module", None) or "", *(a.name for a in node.names)]:
                found.update(filter(None, name.split(".")))
    return found


def test_imported_names_finds_every_form():
    source = (
        "from .evaluate import confusion\n"
        "from . import engine\n"
        "import rtp.files as f\n"
        "def load():\n"
        "    from rtp import ingest\n"
    )
    assert imported_names(source) == {"evaluate", "confusion", "engine", "rtp", "files", "ingest"}


@pytest.mark.parametrize("name", ["confusion", "class_metrics", "regression_report"])
def test_only_score_builds_a_report_block(name):
    assert uses_in_rtp(name) == {"pipeline.py": ["score"]}


def test_compose_runs_networks_and_scores_nothing():
    assert "evaluate" not in imported_names((SOURCES[0].parent / "compose.py").read_text())
