"""Command-line output for a reader that stops reading early.

``python -m repro list | head -1`` closes stdout while the command is
still printing, and the next write raises :class:`BrokenPipeError`.
:func:`tolerate_closed_stdout` wraps a command's entry point so that
the first failed write points the stdout file descriptor at
``os.devnull`` instead: the command runs to its end, prints no
traceback and exits with the status it computed.
"""

from __future__ import annotations

import contextlib
import os
import sys
from typing import Iterator


class _Tolerant:
    """A stdout stand-in whose writes and flushes never raise
    :class:`BrokenPipeError`; everything else is the wrapped stream's."""

    def __init__(self, stream):
        self.stream = stream

    def __getattr__(self, name):
        return getattr(self.stream, name)

    def _guarded(self, call, *args):
        try:
            return call(*args)
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, self.stream.fileno())
            os.close(devnull)
            return call(*args)

    def write(self, text: str) -> int:
        return self._guarded(self.stream.write, text)

    def flush(self) -> None:
        self._guarded(self.stream.flush)


@contextlib.contextmanager
def tolerate_closed_stdout() -> Iterator[None]:
    """Context manager (or decorator) dropping output nobody reads."""
    tolerant = _Tolerant(sys.stdout)
    sys.stdout = tolerant
    try:
        yield
    finally:
        # Flush here, guarded: a write still buffered at interpreter
        # exit would fail there and turn the exit status into 120.
        tolerant.flush()
        sys.stdout = tolerant.stream
