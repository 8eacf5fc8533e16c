"""BLAS thread pinning and the environment record printed with every result."""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_blas() -> None:
    """One BLAS thread; must run before numpy is first imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def commit_sha(root: Path) -> str | None:
    """HEAD of the checkout's own .git, if it has one; never looks above root."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_stats(root: Path) -> tuple[int, str]:
    """Line count and sha256 of the rtp package sources."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((root / "src" / "rtp").rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return lines, digest.hexdigest()


def _blas_info() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return {key: deps[key] for key in ("blas", "lapack") if key in deps}
    except (TypeError, KeyError):
        return {}


def describe(root: Path) -> dict:
    import numpy as np

    lines, digest = source_stats(root)
    return {
        "commit": commit_sha(root),
        "src_sha256": digest,
        "src_rtp_lines": lines,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }
