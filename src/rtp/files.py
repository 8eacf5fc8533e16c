"""The one way rtp writes a file: whole or not at all."""

from __future__ import annotations

import os
import re
import stat
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO, Union

_STANDARD = {"/dev/stdout": 1, "/dev/stderr": 2}


def _descriptor(path: Union[str, Path]) -> Union[int, None]:
    """The open descriptor of this process that `path`, or a symbolic link on
    the way from it to its file, names; or None. Links are followed one hop
    at a time, since realpath would go on to the file behind the descriptor."""
    path, seen = os.path.abspath(path), set()
    while path not in seen:
        found = re.fullmatch(r"/(?:dev|proc/self)/fd/(\d+)", path)
        if found or path in _STANDARD:
            return int(found[1]) if found else _STANDARD[path]
        seen.add(path)
        try:
            hop = os.readlink(path)
        except OSError:  # not a link, or not there
            return None
        path = os.path.normpath(os.path.join(os.path.dirname(path), hop))
    return None  # a loop of links


@contextmanager
def writing(path: Union[str, Path]) -> Iterator[TextIO]:
    """A text handle, with no line-end translation, whose output replaces
    `path` only if the block succeeds.

    The text goes to a temporary file beside the target, which os.replace
    moves onto it at the end and which is deleted if the block raises, so a
    failed or interrupted run leaves neither a partial file nor a changed old
    one, and the target may be a file the block is still reading. A new
    target gets the mode open(path, "w") would give it, a replaced one keeps
    its own. A path that names an open descriptor (/dev/stdout, /dev/stderr,
    /dev/fd/N, /proc/self/fd/N), itself or through symbolic links, is written
    through that descriptor, as print writes to stdout: nothing is truncated,
    so `>> log` keeps the log's earlier lines. Any other target that is not
    a regular file (/dev/null, a pipe, a FIFO) is written in place. There is
    no fsync: the guarantee covers a failing process, not a power loss.
    """
    descriptor = _descriptor(path)
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    in_place = descriptor is not None or (mode is not None and not stat.S_ISREG(mode))
    target = os.path.realpath(path)
    head, name = os.path.split(target)
    temp = path if in_place else os.path.join(head, f".{name}.{os.urandom(6).hex()}.tmp")
    try:
        if descriptor is not None:
            temp = os.dup(descriptor)  # closing the handle leaves the descriptor open
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
