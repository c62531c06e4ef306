"""Every process a run starts ends before the run does.

The benchmark starts servers, a host-speed helper, cold-path cycles
and, on traced runs, the shared-memory resource tracker of
:mod:`multiprocessing`.  Three measures keep none of them alive past
the run:

* :func:`die_with_parent` (a ``preexec_fn``) has the kernel kill a
  child when the run's process dies, even by ``SIGKILL``;
* :func:`become_subreaper` makes the run's process the new parent of
  any grandchild whose parent exits first, so it can still be reaped;
* :func:`reap_children`, on the way out, stops the resource tracker,
  then ends and waits for every child that is left.

Linux only (``prctl``); elsewhere the first two do nothing.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time

PR_SET_PDEATHSIG = 1
PR_SET_CHILD_SUBREAPER = 36
#: How long a child may take to exit after ``SIGTERM``.
TERM_GRACE_S = 10.0

#: ``prctl`` from the C library the interpreter links, if it has one
_PRCTL = getattr(ctypes.CDLL(None, use_errno=True), "prctl", None)
if _PRCTL is not None:
    _PRCTL.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    _PRCTL.restype = ctypes.c_int


def _prctl(option: int, value: int) -> None:
    if _PRCTL is not None:
        _PRCTL(option, value, 0, 0, 0)


def die_with_parent() -> None:
    """In a child, before exec: be killed when the parent dies."""
    _prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def become_subreaper() -> None:
    """Adopt orphaned descendants of this process."""
    _prctl(PR_SET_CHILD_SUBREAPER, 1)


def children() -> list[int]:
    """Pids of this process's live (or unreaped) children."""
    pids = []
    try:
        tasks = os.listdir("/proc/self/task")
    except OSError:
        return pids
    for task in tasks:
        try:
            with open(f"/proc/self/task/{task}/children",
                      encoding="ascii") as handle:
                pids += [int(pid) for pid in handle.read().split()]
        except OSError:
            pass
    return pids


def _reap_exited() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _stop_resource_tracker() -> None:
    """Close the tracker's pipe and wait for it, as Python's own tests do."""
    from multiprocessing import resource_tracker
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()


def _signal(pids: list[int], signum: int) -> None:
    for pid in pids:
        try:
            os.kill(pid, signum)
        except ProcessLookupError:
            pass


def reap_children() -> None:
    """End and wait for every child this process still has.

    Children get ``SIGTERM`` and :data:`TERM_GRACE_S` to exit, then
    ``SIGKILL``; returns once none is left, reaped ones included.
    """
    _stop_resource_tracker()
    _reap_exited()
    _signal(children(), signal.SIGTERM)
    deadline = time.monotonic() + TERM_GRACE_S
    while children() and time.monotonic() < deadline:
        time.sleep(0.02)
        _reap_exited()
    while children():
        _signal(children(), signal.SIGKILL)
        time.sleep(0.02)
        _reap_exited()
