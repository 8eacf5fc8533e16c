"""Named deterministic random substreams derived from one root seed.

Every stage of the pipeline draws from its own named stream so stages can be
re-run independently while the whole pipeline stays reproducible.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _entropy(root_seed: int, name: str) -> list[int]:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    # SeedSequence takes the root seed whole, of any size, so no two alias.
    return [root_seed, *words]


def subseed(root_seed: int, name: str) -> int:
    """Derive a stable integer seed for the named substream."""
    seq = np.random.SeedSequence(_entropy(root_seed, name))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def substream(root_seed: int, name: str) -> np.random.Generator:
    """Generator for the named substream."""
    return np.random.default_rng(np.random.SeedSequence(_entropy(root_seed, name)))
