"""One OpenBLAS thread inside library calls.

A fit makes thousands of BLAS and LAPACK calls on matrices a few columns
wide.  OpenBLAS's worker threads make each of them several times slower,
and the thread count moves the last bits of larger products.
``single_thread`` sets every OpenBLAS bundled with numpy and scipy to one
thread for the length of a call and gives the caller's count back
afterwards.  With any other BLAS (MKL, a system library) no symbol is
found and it does nothing.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading

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
