"""stream, the one fork site of gamow.chain_traces and Monte Carlo
refinement (partitions), which each fork at most once, when may_fork()."""

import contextlib
import os
import threading
import warnings
from collections.abc import Callable, Iterator


def may_fork() -> bool:
    """Whether this process may run on more than one CPU and no other
    Python thread runs, since a fork copies only the calling thread."""
    cpus = getattr(os, "sched_getaffinity", lambda pid: ())(0)
    return len(cpus) > 1 and threading.active_count() == 1


@contextlib.contextmanager
def stream(child: Callable[[], Iterator[list]] | None):
    """Run child() in one forked process while the with block runs here.

    child() yields lists of C-contiguous arrays, each list sent at once,
    each array as its size in 8 bytes and its raw buffer; receive(dtype)
    in the block reads the next into a fresh flat array.  With child None
    nothing forks, and receive gives empty arrays, so a join over the
    child's share joins none.

    The child leaves by os._exit, so it runs no exit handler and flushes no
    inherited buffer.  If the block raises, or a generator suspended in it
    is closed, the child is killed; it is always reaped before the block is
    left.  A failed child raises RuntimeError, after its traceback on stderr.
    """
    # imported where used: only receive's arrays need it, and the package
    # has loaded it before this runs
    import numpy as np

    if child is None:
        yield lambda dtype=np.int64: np.empty(0, dtype=dtype)
        return
    r, w = os.pipe()
    with open(r, "rb") as inp, open(w, "wb") as out:
        with warnings.catch_warnings():
            # Python 3.12+ warns of a BLAS pool's idle threads, which run
            # when a caller asked for more than pesinlab's one BLAS thread
            # or imported numpy first; the work in either process runs on
            # its calling thread
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            status = 1
            try:
                inp.close()
                for arrays in child():
                    for arr in arrays:
                        out.writelines((arr.size.to_bytes(8, "little"), arr))
                    out.flush()
                status = 0
            except BaseException:
                # imported where used: only a failed child loads it.  The
                # pipe is left open until the traceback is out, so this
                # process sees no end of stream and kills no child first
                import traceback
                os.write(2, traceback.format_exc().encode())
            finally:
                os._exit(status)
        out.close()

        def receive(dtype=np.int64) -> np.ndarray:
            head = inp.read(8)
            arr = np.empty(int.from_bytes(head, "little"), dtype=dtype)
            if len(head) < 8 or inp.readinto(arr) < arr.nbytes:
                raise RuntimeError("a worker process failed before sending")
            return arr

        try:
            yield receive
        except BaseException:
            import signal
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            inp.close()   # first, so that a child blocked writing ends
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code:
        raise RuntimeError(f"a worker process failed with exit status {code}")
