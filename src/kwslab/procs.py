"""Threads and processes, decided in one place. At import, before any module
loads numpy, BLAS gets one thread unless the caller set one of
`_BLAS_THREAD_VARS`; where numpy was imported before kwslab, this cannot act.
Each fork flushes `sys.stdout` and `sys.stderr` first, so a child writes no
inherited buffered text again, and the child flushes them before it leaves
through `os._exit`, so its own text is not lost.
"""

from __future__ import annotations

import os
import select
import signal
import sys
from typing import Callable

_BLAS_THREAD_VARS = {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
if not _BLAS_THREAD_VARS & os.environ.keys():
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))

CAN_FORK = hasattr(os, "fork")


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError):  # no stream, or a closed one
            pass


def ended(code: int) -> str:
    """How a worker ended, from the exit code `Workers.end` returns."""
    if code >= 0:
        return f"exit code {code}"
    try:
        return f"killed by {signal.Signals(-code).name}"
    except ValueError:  # Python names only the first and last real-time signal
        return f"killed by signal {-code}"


class Workers:
    """Live forked workers, each named by its pipe's read end and carrying
    a tag its starter chose. Closing the group, or dropping it, kills and
    reaps every worker still alive."""

    def __init__(self):
        self._live: dict[int, tuple[int, object]] = {}  # read end -> (pid, tag)
        self._owner = os.getpid()

    def __del__(self):
        if self._live:
            self.close()

    def __len__(self) -> int:
        return len(self._live)

    def start(self, body: Callable[[int], None], tag: object) -> None:
        """Fork a worker that closes the group's read ends, runs `body(fd)`
        on its pipe's write end and exits with code 0, or 1 if `body`
        raised. Raises a refused fork's `OSError` (EAGAIN or ENOMEM)."""
        reader, writer = os.pipe()
        _flush_std_streams()
        try:
            pid = os.fork()
        except OSError:
            os.close(reader)
            os.close(writer)
            raise
        if pid == 0:
            code = 1
            try:
                for fd in (reader, *self._live):
                    os.close(fd)
                body(writer)
                code = 0
            finally:
                try:
                    _flush_std_streams()
                finally:
                    os._exit(code)
        os.close(writer)  # the worker holds the only write end, so its exit is EOF
        self._live[reader] = (pid, tag)

    def ready(self, timeout: float | None = None) -> list[int]:
        """The read ends with data or at EOF, waiting up to `timeout`
        seconds (None: until there is one)."""
        poller = select.poll()
        for fd in self._live:
            poller.register(fd, select.POLLIN)
        return [fd for fd, _ in poller.poll(None if timeout is None else 1000 * timeout)]

    def end(self, fd: int, kill: bool = False) -> tuple[object, int]:
        """Kill the worker on `fd` if asked, reap it and close its pipe.
        Returns its tag and exit code: minus the signal's number if a
        signal killed it."""
        pid, tag = self._live.pop(fd)
        if kill:
            os.kill(pid, signal.SIGKILL)  # an unreaped child is still there to kill
        _, status = os.waitpid(pid, 0)
        os.close(fd)
        return tag, os.waitstatus_to_exitcode(status)

    def close(self) -> list:
        """Kill and reap every worker still alive; returns their tags."""
        if os.getpid() != self._owner:  # a forked copy of a group does not own its workers
            return []
        return [self.end(fd, kill=True)[0] for fd in list(self._live)]
