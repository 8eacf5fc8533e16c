"""Seeded mutation fuzzing of every kind of file the CLI reads.

Each case mutates one valid input and runs a command that reads it. The
command must succeed, or exit 1 or 2 with a message that names the mutated
file exactly once, and never escape with an exception.
"""

import json
import random
from functools import wraps

import pytest

from rtp.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from rtp.compose import TwoStageModel, save_two_stage
from rtp.engine import save_model
from rtp.ingest import CorpusSpec, filter_report, synthesize_corpus, write_observations
from rtp.model_zoo import build_variant

CASES_PER_TARGET = 50

# Bytes that CSV and JSON give a meaning to, for insertion.
TOKENS = [b",", b"\"", b"\n", b"\r", b"-", b".", b"e", b"0", b"9", b":", b"[", b"]", b"{", b"}",
          b"\x00", b"\xff", b"\xc4", b"null", b"NaN", b"Infinity", b"1e400"]
# Values of every JSON type, for type swaps.
VALUES = [None, True, False, 0, -1, 1, 2.5, -1e308, "", "x", "a1", "b2", "softmax-5", [], [1],
          [64, 5], {}, {"a": 1}]


def flip(data: bytearray, rng: random.Random) -> bytearray:
    data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    return data


def delete(data: bytearray, rng: random.Random) -> bytearray:
    start = rng.randrange(len(data))
    del data[start : start + rng.randint(1, 8)]
    return data


def insert(data: bytearray, rng: random.Random) -> bytearray:
    at = rng.randrange(len(data) + 1)
    data[at:at] = rng.choice(TOKENS) if rng.random() < 0.5 else bytes([rng.randrange(256)])
    return data


def truncate(data: bytearray, rng: random.Random) -> bytearray:
    del data[rng.randrange(len(data)) :]
    return data


def _nodes(value, path=()):
    """The path of every value in a JSON document, the root's first."""
    yield path
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield from _nodes(child, (*path, key))


def _replace(doc, path, value):
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _on_json(swap):
    """A mutation that applies swap(doc, paths, rng) to the file's JSON document."""

    @wraps(swap)
    def mutate(data: bytearray, rng: random.Random) -> bytearray:
        doc = json.loads(data)
        doc = swap(doc, list(_nodes(doc)), rng)
        return bytearray((json.dumps(doc) + "\n").encode())

    return mutate


@_on_json
def type_swap(doc, paths, rng):
    return _replace(doc, rng.choice(paths), rng.choice(VALUES))


@_on_json
def value_swap(doc, paths, rng):
    """One value replaced by a copy of another of the same document."""
    source = json.loads(json.dumps(_get(doc, rng.choice(paths))))
    return _replace(doc, rng.choice(paths), source)


BYTE_MUTATIONS = [flip, delete, insert, truncate]
JSON_MUTATIONS = [*BYTE_MUTATIONS, type_swap, value_swap]

# (input file, its mutations, command reading {input})
TARGETS = {
    "csv-predict": (
        "corpus.csv",
        BYTE_MUTATIONS,
        ["predict", "--model", "{twostage}", "--in", "{input}", "--out", "{out}"],
    ),
    "csv-evaluate": (
        "corpus.csv",
        BYTE_MUTATIONS,
        ["evaluate", "--model", "{twostage}", "--data", "{input}", "--out", "{out}"],
    ),
    "model-evaluate": (
        "model_a1.json",
        JSON_MUTATIONS,
        ["evaluate", "--model", "{input}", "--data", "{corpus}", "--out", "{out}"],
    ),
    "model-train-stage1": (
        "model_a1.json",
        JSON_MUTATIONS,
        ["train", "--variant", "b2", "--data", "{corpus}", "--config", "{config}",
         "--stage1-model", "{input}", "--out", "{out}"],
    ),
    "twostage-predict": (
        "twostage.json",
        JSON_MUTATIONS,
        ["predict", "--model", "{input}", "--in", "{corpus}", "--out", "{out}"],
    ),
    "csv-train": (
        "corpus.csv",
        BYTE_MUTATIONS,
        ["train", "--variant", "a1", "--data", "{input}", "--config", "{config}", "--out", "{out}"],
    ),
    "config-train": (
        "train.json",
        JSON_MUTATIONS,
        ["train", "--variant", "a1", "--data", "{corpus}", "--config", "{input}", "--out", "{out}"],
    ),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Small valid inputs of every kind: eight kept corpus rows, untrained
    a1 and b2 models, their composition, and a one-epoch training config."""
    root = tmp_path_factory.mktemp("fuzz")
    rows, _ = filter_report(synthesize_corpus(CorpusSpec(n_observations=12, seed=0)))
    rows = rows.take(slice(0, 8))
    write_observations(rows, root / "corpus.csv")
    a1, b2 = build_variant("a1", seed=0), build_variant("b2", seed=0)
    save_model(a1, root / "model_a1.json")
    save_two_stage(TwoStageModel(a1, b2), root / "twostage.json")
    (root / "train.json").write_text(json.dumps({"max_epochs": 1, "batch_size": 4}))
    return root


def _fault(code: int, err: str, path) -> str | None:
    """What is wrong with a run's exit code and stderr, or None."""
    if code == EXIT_OK:
        return None
    prefix = {EXIT_USAGE: "usage error", EXIT_DATA: "error"}.get(code)
    if prefix is None:
        return f"exit {code}"
    if not err.startswith(f"{prefix}: {path}: ") or err.count(f"{path}: ") != 1:
        return f"message does not name the file once: {err!r}"
    return None


@pytest.mark.parametrize("target", TARGETS)
def test_mutated_input(inputs, tmp_path, capsys, target):
    name, mutations, command = TARGETS[target]
    original = (inputs / name).read_bytes()
    mutated = tmp_path / f"mutated-{name}"
    paths = {
        "input": mutated,
        "out": tmp_path / "out",
        "corpus": inputs / "corpus.csv",
        "twostage": inputs / "twostage.json",
        "config": inputs / "train.json",
    }
    argv = [arg.format(**paths) for arg in command]
    faults = []
    for case in range(CASES_PER_TARGET):
        rng = random.Random(f"{target}/{case}")
        mutation = rng.choice(mutations)
        mutated.write_bytes(mutation(bytearray(original), rng))
        try:
            code = main(argv)
        except Exception as exc:  # anything main lets escape is a fault
            fault = f"raised {type(exc).__name__}: {exc}"
        else:
            fault = _fault(code, capsys.readouterr().err, mutated)
        if fault:
            faults.append(f"case {case} ({mutation.__name__}): {fault}")
    assert faults == []


# Fixed malformed `pipeline --config` files; a mutation that stays valid
# would run a whole pipeline, so this file is not fuzzed.
PIPELINE_CONFIGS = {
    "empty": b"",
    "truncated": b'{"corpus_n": 30',
    "not-utf8": '{"out_dir": "Дата"}'.encode("cp1251"),
    "null": b"null",
    "list": b"[1]",
    "unknown-key": b'{"bogus": 1}',
    "unknown-policy-key": b'{"policy": {"bogus": 1}}',
    "unknown-override": b'{"training_overrides": {"bogus": 1}}',
    "string-count": b'{"corpus_n": "30"}',
    "policy-list": b'{"policy": [0.1]}',
    "override-list": b'{"training_overrides": [1]}',
}


@pytest.mark.parametrize("content", PIPELINE_CONFIGS.values(), ids=PIPELINE_CONFIGS)
def test_malformed_pipeline_config(tmp_path, capsys, content):
    config, out = tmp_path / "pipeline.json", tmp_path / "out"
    config.write_bytes(content)
    code = main(["pipeline", "--config", str(config), "--out-dir", str(out)])
    assert code == EXIT_USAGE
    assert _fault(code, capsys.readouterr().err, config) is None
    assert not out.exists()
