"""Shared test guards."""

import contextlib
import glob
import os
import signal

import pytest


def _children() -> list[int]:
    """The pids of every child of this process, running or not yet reaped,
    read from each process's /proc stat line (pid (comm) state ppid ...);
    none where there is no /proc."""
    found = []
    for stat in glob.glob("/proc/[0-9]*/stat"):
        with contextlib.suppress(OSError, IndexError):  # gone meanwhile
            with open(stat, encoding="utf-8", errors="replace") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            if int(fields[1]) == os.getpid():
                found.append(int(stat.split("/")[2]))
    return found


@pytest.fixture(autouse=True)
def no_child_process_outlives_a_test():
    """A test that leaves a child process behind, running or unreaped,
    fails, and the child is killed and reaped so that it outlives no other
    test either."""
    yield
    left = _children()
    for pid in left:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)
    assert not left, f"child processes left behind: {left}"
