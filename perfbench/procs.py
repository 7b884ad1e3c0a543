"""Leave no process behind.

The process-backend workloads start pool workers and, through shared
memory, ``multiprocessing``'s resource tracker; the set-up probes are
child interpreters that start their own.  A tracker is never joined by
``multiprocessing`` itself: it outlives its parent and is orphaned.
:func:`adopt_orphans` makes this process the reaper of every orphaned
descendant, and :func:`stop_children` stops the tracker, then waits
for (or, past a deadline, kills) every remaining child.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time

PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Have orphaned descendants re-parented to this process (Linux)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> list:
    """PIDs whose parent is this process, zombies included."""
    me = os.getpid()
    found = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return found
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.append(int(entry))
    return found


def _reap(pid: int) -> bool:
    """True once ``pid`` has ended and been waited for."""
    try:
        done, _ = os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return done == pid


def stop_children(timeout: float = 20.0) -> None:
    """Stop the resource tracker, then wait for every child to end."""
    import multiprocessing
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()
    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()
    deadline = time.monotonic() + timeout
    while True:
        alive = [pid for pid in _children() if not _reap(pid)]
        if not alive:
            return
        if time.monotonic() > deadline:
            for pid in alive:
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except (ProcessLookupError, ChildProcessError):
                    pass
            return
        time.sleep(0.02)
