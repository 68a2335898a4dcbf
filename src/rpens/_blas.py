"""One OpenBLAS thread inside library calls.

A fit makes thousands of BLAS and LAPACK calls on matrices a few columns
wide.  OpenBLAS's worker threads make each of them several times slower,
and the thread count moves the last bits of larger products.
``single_thread`` sets every OpenBLAS bundled with numpy and scipy to one
thread for the length of a call and gives the caller's count back
afterwards.  With any other BLAS (MKL, a system library) no symbol is
found and it does nothing.

``helper`` gives the one thread that runs large matrix products beside
the caller: a fit's next wave of projection products and the products
of ``evaluation.run``'s test samples.  It runs BLAS calls into arrays
that the caller allocates, inside the caller's pinned region.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

import numpy
import scipy


def _find_libraries() -> tuple:
    """(get, set) thread-count functions of each bundled OpenBLAS found."""
    found = []
    # numpy bundles the 64-bit-integer build, whose symbols end in "64_".
    for package, suffix in ((numpy, "64_"), (scipy, "")):
        site = os.path.dirname(os.path.dirname(package.__file__))
        pattern = os.path.join(site, package.__name__ + ".libs", "*openblas*")
        for path in sorted(glob.glob(pattern)):
            try:
                lib = ctypes.CDLL(path)
                get = lib[f"scipy_openblas_get_num_threads{suffix}"]
                set_ = lib[f"scipy_openblas_set_num_threads{suffix}"]
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            found.append((get, set_))
    return tuple(found)


LIBRARIES = _find_libraries()

# The thread count is process-wide, so the count of calls inside a pinned
# region is too: the first entry saves the caller's counts and the last
# exit restores them, whatever the nesting or the Python thread.
_lock = threading.Lock()
_depth = 0
_saved: list = []


def single_thread(fn):
    """Run ``fn`` with every bundled OpenBLAS on one thread."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        global _depth, _saved
        libraries = LIBRARIES
        if not libraries:
            return fn(*args, **kwargs)
        with _lock:
            if _depth == 0:
                _saved = [get() for get, _ in libraries]
                for _, set_ in libraries:
                    set_(1)
            _depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            with _lock:
                _depth -= 1
                if _depth == 0:
                    for (_, set_), count in zip(libraries, _saved):
                        set_(count)

    return wrapper


class _Inline:
    """An executor that runs each call on the caller as it is submitted.

    Its futures are done when ``submit`` returns and keep a call's
    exception for ``wait`` to raise, as the helper thread's do.
    """

    @staticmethod
    def submit(fn, /, *args, **kwargs):
        future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


INLINE = _Inline()


@contextlib.contextmanager
def helper():
    """An executor of one thread, joined on leaving the block, when the
    process may use at least two CPUs; INLINE otherwise."""
    has_mask = hasattr(os, "sched_getaffinity")  # Linux; elsewhere count every CPU
    cpus = len(os.sched_getaffinity(0)) if has_mask else (os.cpu_count() or 1)
    if cpus < 2:
        yield INLINE
        return
    # The executor starts its thread at the first call.
    with ThreadPoolExecutor(max_workers=1) as executor:
        yield executor


def wait(pending) -> None:
    """Wait for every future in ``pending``, raising the first one's
    exception. It polls: on a shared 2-vCPU VM, blocking here let the vCPU
    idle, and the work that follows ran slower and less steadily."""
    for future in pending:
        while not future.done():
            time.sleep(0)  # gives up the interpreter lock
        future.result()
