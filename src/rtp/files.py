"""The one way rtp writes a file: whole or not at all."""

from __future__ import annotations

import os
import stat
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO, Union


@contextmanager
def writing(path: Union[str, Path]) -> Iterator[TextIO]:
    """A text handle, with no line-end translation, whose output replaces
    `path` only if the block succeeds.

    The text goes to a temporary file beside the target, which os.replace
    moves onto it at the end and which is deleted if the block raises, so a
    failed or interrupted run leaves neither a partial file nor a changed old
    one, and the target may be a file the block is still reading. A new
    target gets the mode open(path, "w") would give it, a replaced one keeps
    its own. An existing target that is not a regular file (/dev/null, a
    FIFO) is written in place. There is no fsync: the guarantee covers a
    failing process, not a power loss.
    """
    target = os.path.realpath(path)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    in_place = mode is not None and not stat.S_ISREG(mode)
    head, name = os.path.split(target)
    temp = target if in_place else os.path.join(head, f".{name}.{os.urandom(6).hex()}.tmp")
    try:
        # "x" creates the file as "w" would, with the same permissions.
        handle = open(temp, "w" if in_place else "x", newline="")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with handle:
            yield handle
        if not in_place:
            if mode is not None:
                os.chmod(temp, stat.S_IMODE(mode))
            os.replace(temp, target)
    except BaseException:
        if not in_place:
            os.remove(temp)
        raise
