"""One fork fan-out, for the split parse, large tables and the verify suites; stdlib only."""

from __future__ import annotations

import os
from typing import Callable, Sequence


def usable_cpus() -> int:
    """CPUs this process may run on; 1 off Linux or while a second thread
    runs, as a forked child would hold copies of that thread's locks."""
    try:
        if len(os.listdir("/proc/self/task")) == 1:
            return len(os.sched_getaffinity(0))
    except (OSError, AttributeError):
        pass
    return 1


def fork_map(func: Callable, spans: Sequence[tuple]) -> list:
    """``[func(*span) for span in spans]``, the spans after the first in forked
    workers that pickle their results back. A result that arrives incomplete,
    or whose pipe or fork failed, is computed here, in order, so the first error
    is the one a single pass raises. Every worker is killed and reaped, and every
    pipe closed, before this returns or raises; gc, pickle and signal load only here.
    """
    if len(spans) < 2:
        return [func(*span) for span in spans]
    import gc
    import pickle
    import signal

    parent, workers = os.getpid(), []
    try:
        for span in spans[1:]:
            try:
                read_end, write_end = os.pipe()
            except OSError:  # no descriptors to spare: this span and the rest run here
                break
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the pipe stays empty
                pid = None
            if pid == 0:
                gc.disable()  # a collection would write to, and so copy, the parent's pages
                with os.fdopen(write_end, "wb") as out:
                    pickle.dump(func(*span), out, pickle.HIGHEST_PROTOCOL)
                os._exit(0)
            workers.append((pid, os.fdopen(read_end, "rb")))
            os.close(write_end)
        results = [func(*spans[0])]
        for (_, pipe), span in zip(workers, spans[1:]):
            try:
                results.append(pickle.load(pipe))
            except (EOFError, pickle.UnpicklingError):
                results.append(func(*span))
        return results + [func(*span) for span in spans[1 + len(workers):]]
    finally:
        if os.getpid() != parent:  # a worker that raised or was interrupted
            os._exit(1)
        for pid, pipe in workers:
            pipe.close()
            if pid:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
