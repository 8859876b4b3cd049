"""Two cooperating sides of one computation, one process each.

A side is a generator. Each value it yields is its message for one step,
the value sent back into it is the other side's message of the same step,
and its return value is its result. A side may also yield None, a step
with no message; both sides must yield at the same steps. `run_pair` runs
side 1 in the calling process and side 2 in a child forked from it, with
OpenBLAS capped at one thread in both while they run, so the two sides
each take a core and their BLAS threads do not compete for them. The
child's messages and its result come back through a pipe.

Where that cannot be done (the thread cap cannot be set, os.fork is
missing, or fewer than two cores are usable) both sides run in the calling
process in lockstep: one step of side 1, one step of side 2, then the
messages cross, so a None step lets a side finish work (and free its
memory) before the other side starts its next step. The thread cap is set
on that path too whenever it can be, so a side computes the same bits on
either path.

The child is a fork-context `multiprocessing` process. Forked, it starts
from the caller's loaded modules and data, sides included, and it ends
with os._exit, so it never runs the caller's exit handlers. A spawned
worker would import atlas4d again (0.30-0.44 s measured on a 2-core box),
more than a short run saves, and could not be handed a generator.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import multiprocessing
import os


@functools.cache
def blas_thread_count_fns():
    """(get, set) of OpenBLAS's thread count, or None when numpy's BLAS has none.

    numpy is loaded by then, so environment variables no longer act: the
    functions are looked up through the handle of numpy's own extension
    module, whose OpenBLAS exports them under one of three names.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    lib = ctypes.CDLL(umath.__file__)
    for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                 "openblas_{}_num_threads"):
        try:
            get, put = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


def _can_fork() -> bool:
    """Whether this platform forks and this process may run on two cores."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


def run_pair(side1, side2, name2: str):
    """(result of side1, result of side2), each side in its own process.

    See the module docstring for the paths. An exception in either side
    reaches the caller with its type and message; if the child ends without
    replying, a RuntimeError names `name2` (what side 2 works on) and the
    child's exit status. No child outlives the call, whatever it raises,
    and OpenBLAS's thread count is restored on every exit.
    """
    fns = blas_thread_count_fns()
    if fns is None:
        return _lockstep(side1, side2)
    get, put = fns
    before = get()
    put(1)
    try:
        if _can_fork():
            return _forked(side1, side2, name2)
        return _lockstep(side1, side2)
    finally:
        put(before)


def _advance(side, message):
    """Run a side to its next yield: (False, its message) or (True, its result)."""
    try:
        return False, side.send(message)
    except StopIteration as stop:
        return True, stop.value


def _lockstep(side1, side2):
    done1, out1 = _advance(side1, None)
    done2, out2 = _advance(side2, None)
    while not (done1 and done2):
        if done1 or done2:
            raise RuntimeError("the two sides ended after different numbers of steps")
        (done1, out1), (done2, out2) = _advance(side1, out2), _advance(side2, out1)
    return out1, out2


def _forked(side1, side2, name2: str):
    """Side 1 here, side 2 in a forked child.

    Per step the parent sends its message first and the child receives
    first, so neither blocks on a full pipe while the other also sends.
    """
    fork = multiprocessing.get_context("fork")
    conn, child_conn = fork.Pipe()
    child = fork.Process(target=_serve, args=(side2, child_conn, conn))
    child.start()
    child_conn.close()

    def reply(tag: str):
        try:
            got, value = conn.recv()
        except (EOFError, ConnectionResetError):  # reset: it died with our message unread
            child.join()
            raise RuntimeError(f"the process working on {name2} ended without replying "
                               f"(exit status {child.exitcode})") from None
        if got == "error":
            raise value
        if got != tag:
            raise RuntimeError(f"the process working on {name2} sent {got!r}, not {tag!r}")
        return value

    done = False
    try:
        finished, out = _advance(side1, None)
        while not finished:
            if out is not None:
                with contextlib.suppress(OSError):  # a child that has ended left its reply
                    conn.send(out)
                out = reply("step")
            finished, out = _advance(side1, out)
        result = out, reply("done")
        done = True
        return result
    finally:
        conn.close()
        if not done:  # the child may be mid-step: stop it now
            child.kill()
        child.join()
        child.close()


def _serve(side, conn, parent_end) -> None:
    """Run side 2 in the forked child and send the parent its result.

    An exception is sent instead, as a RuntimeError with its type name and
    message if it cannot be pickled, and the child then exits with status 1.
    """
    try:
        parent_end.close()
        finished, out = _advance(side, None)
        while not finished:
            if out is not None:
                message = conn.recv()  # EOFError once the parent has gone
                conn.send(("step", out))
                out = message
            finished, out = _advance(side, out)
        conn.send(("done", out))
    except BaseException as exc:  # Ctrl-C included: the parent re-raises it
        with contextlib.suppress(BaseException):
            try:
                conn.send(("error", exc))
            except Exception:
                conn.send(("error", RuntimeError(f"{type(exc).__name__}: {exc}")))
        raise SystemExit(1) from None
