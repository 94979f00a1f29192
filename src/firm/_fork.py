"""Forked worker processes that each send bytes back over a pipe.

`processes` counts the workers a task may use, and `forked` starts one
child per sender and guarantees that none outlives the block: on leaving
it, by return or by any exception (KeyboardInterrupt too), every child not
yet reaped is killed and reaped. `_emit.poim_tsv` sends text through them,
and `dataset._read_forked` the rows each parses from its range of a CSV.

A fork copies only the calling thread, so a lock another thread holds
(OpenBLAS's, when it runs more than one thread) would never be released in
the child, and Python 3.12+ warns of such a fork. `processes` therefore
gives one, and nothing is forked, wherever this process runs more than one
thread; the CLI pins one BLAS thread unless told otherwise (see firm.cli).
"""

from __future__ import annotations

import contextlib
import os
import signal


def processes(cap: int) -> int:
    """Processes for a task that can use at most cap of them: one per core
    this process may run on, at most cap, and at least one. Only one where
    the cores or the threads cannot be counted, or where this process runs
    more than one thread (see the module docstring)."""
    try:
        cores = len(os.sched_getaffinity(0))
        threads = len(os.listdir("/proc/self/task"))
    except (AttributeError, OSError):
        return 1
    if threads > 1:
        return 1
    return max(1, min(cores, cap))


@contextlib.contextmanager
def forked(senders):
    """The list of a Worker per sender, started in order; on leaving the
    block, every child that was not reaped is killed and reaped."""
    children = []
    try:
        for send in senders:
            children.append(Worker(send))
        yield children
    finally:
        for child in children:
            child.stop()


class Worker:
    """A forked child that calls send(fh), fh the binary write end of a pipe
    whose read end is this process's `pipe`.

    The child leaves by os._exit, with status 0 only once send has returned
    and fh is flushed; it runs nothing of the parent's stack, its exit
    handlers or its buffered output.
    """

    def __init__(self, send):
        rfd, wfd = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            os.close(rfd)
            os.close(wfd)
            raise
        if pid == 0:
            status = 1
            try:
                os.close(rfd)
                with open(wfd, "wb") as fh:
                    send(fh)
                status = 0
            finally:
                os._exit(status)
        os.close(wfd)
        self.pid = pid
        self.pipe = open(rfd, "rb")

    def wait(self) -> int:
        """Close the pipe, reap the child and return its exit code (minus the
        signal's number for a child a signal ended)."""
        self.pipe.close()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        return os.waitstatus_to_exitcode(status)

    def stop(self) -> None:
        """Close the pipe, and kill and reap the child unless it was reaped."""
        self.pipe.close()
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
