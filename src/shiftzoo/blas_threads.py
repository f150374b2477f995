"""Process-wide OpenBLAS thread count, set through ctypes, and the CPU count.

numpy and scipy wheels each bundle their own OpenBLAS build, so a process can
hold two copies with separate thread counts. Both are found in the process's
own memory map (``/proc/self/maps``) and driven through their exported
``*_set_num_threads`` / ``*_get_num_threads`` symbols. Where there is no
memory map or no OpenBLAS, nothing is found and nothing changes.

The setter is process-wide: a count set from one thread is the count every
thread's next BLAS call uses. Set it once, from the thread that then starts
any workers, and restore it from that same thread.

``usable_cpus`` is the one CPU count that sizes the process's own worker
threads: the profile grid's ``--jobs`` default and the train pool.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple

# scipy-openblas wheels prefix their symbols; the 64-bit-integer build adds "64_"
_SYMBOL_PREFIXES = ("scipy_openblas", "openblas")
_SYMBOL_SUFFIXES = ("64_", "")


class OpenBlas(NamedTuple):
    path: str
    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]


def _bind(lib: ctypes.CDLL, verb: str):
    for prefix in _SYMBOL_PREFIXES:
        for suffix in _SYMBOL_SUFFIXES:
            name = f"{prefix}_{verb}_num_threads{suffix}"
            if hasattr(lib, name):
                return getattr(lib, name)
    return None


def openblas_libraries() -> list[OpenBlas]:
    """Every OpenBLAS mapped into this process, in map order."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return []
    paths = dict.fromkeys(
        f[5].strip() for f in fields if len(f) == 6 and "openblas" in os.path.basename(f[5]).lower()
    )
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        getter, setter = _bind(lib, "get"), _bind(lib, "set")
        if getter is None or setter is None:
            continue
        getter.argtypes, getter.restype = [], ctypes.c_int
        setter.argtypes, setter.restype = [ctypes.c_int], None
        found.append(OpenBlas(path, getter, setter))
    return found


@lru_cache(maxsize=1)
def _mapped_libraries() -> tuple[OpenBlas, ...]:
    return tuple(openblas_libraries())


def max_blas_threads() -> int:
    """The highest thread count of any OpenBLAS in the process, 1 when none is found.

    The libraries are looked up once, at the first call, and each later call
    reads only the counts. Its caller, ``ensemble_train``, imports numpy and
    ``scipy.linalg`` first, so both of their OpenBLAS copies are mapped by
    then.
    """
    return max((lib.get_num_threads() for lib in _mapped_libraries()), default=1)


@contextmanager
def single_blas_thread() -> Iterator[None]:
    """Run the body with every OpenBLAS on one thread, then restore each count."""
    libs = openblas_libraries()
    previous = [lib.get_num_threads() for lib in libs]
    for lib in libs:
        lib.set_num_threads(1)
    try:
        yield
    finally:
        for lib, count in zip(libs, previous):
            lib.set_num_threads(count)


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1
