"""One forked worker process beside this one: gamow.chain_traces and Monte
Carlo refinement (partitions) each fork at most once, when may_fork(), and
a child runs half of the work while this process runs the rest."""

import contextlib
import os
import threading
import warnings
from collections.abc import Callable


def may_fork() -> bool:
    """Whether this process may run on more than one CPU and no other
    Python thread runs, since a fork copies only the calling thread."""
    cpus = getattr(os, "sched_getaffinity", lambda pid: ())(0)
    return len(cpus) > 1 and threading.active_count() == 1


@contextlib.contextmanager
def forked(child: Callable[[], None]):
    """Run child() in one forked process while the with block runs here.

    The child leaves by os._exit, so it runs no exit handler and flushes no
    inherited buffer.  If the block raises, or a generator suspended in it
    is closed, the child is killed; it is always reaped before the block is
    left.  A failed child raises RuntimeError, after its traceback on stderr.
    """
    with warnings.catch_warnings():
        # Python 3.12+ counts the BLAS pool's idle threads; the work in
        # either process runs on its calling thread
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        status = 1
        try:
            child()
            status = 0
        except BaseException:
            # imported where used: only a failed child loads it
            import traceback
            os.write(2, traceback.format_exc().encode())
        finally:
            os._exit(status)
    try:
        yield
    except BaseException:
        import signal
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code:
        raise RuntimeError(f"a worker process failed with exit status {code}")
