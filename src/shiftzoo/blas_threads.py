"""Process-wide OpenBLAS thread count and numpy's own LAPACK, both through
ctypes; the CPU count; and the process's one worker pool.

Every OpenBLAS mapped into the process is found in its own memory map
(``/proc/self/maps``) and driven through its exported ``*_set_num_threads`` /
``*_get_num_threads`` symbols. shiftzoo needs only numpy, whose wheels bundle
one OpenBLAS; a copy another package brings (scipy's, say) is found and
pinned too when it was mapped before the lookup. Where there is no memory map
or no OpenBLAS, nothing is found and nothing changes. The map is read once,
at the first ``openblas_libraries`` call, and every later call returns the
same libraries.

``lapack_routine`` binds a LAPACK routine of numpy's own OpenBLAS: the mapped
copy that numpy's LAPACK module links, whatever else is mapped and in
whichever order. shiftzoo calls three, in place on numpy's arrays: ``dgeqrf``
and ``dorgqr`` for the projection QRs and ``dtrtrs`` for L^-1. Where numpy
links no mapped OpenBLAS, or it exports no such routine (no memory map,
Accelerate, MKL), the lookup finds nothing and callers use ``numpy.linalg``.

The setter is process-wide: a count set from one thread is the count every
thread's next BLAS call uses. Set it once, from the thread that then starts
any workers, and restore it from that same thread. A ``single_blas_thread``
nested inside another, on any thread, finds every count at 1 and sets
nothing.

``usable_cpus`` is the one CPU count that sizes the process's own worker
threads: the profile grid's ``--jobs`` default and ``worker_pool``. Work goes
to that pool only through ``run_tasks``, which ``synth`` (its domains,
projection QRs and encoded cells), ``profile`` (its encoders) and ``train``
(its split GEMMs and optimizer runs) share; the calling thread always takes
tasks too.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple, Sequence, TypeVar

from numpy.linalg import _umath_linalg  # maps numpy's OpenBLAS before the one lookup

# scipy-openblas wheels (numpy's too) prefix their symbols; the 64-bit-integer build adds "64_"
_SYMBOL_PREFIXES = ("scipy_", "")
_SYMBOL_SUFFIXES = ("64_", "")

# Work under 2 * SPLIT_MACS = 2^22 multiply-adds stays on the calling thread:
# ``train`` cuts no smaller GEMM (see ensemble_train._matmul) and ``synth``
# sends no zoo to the pool whose largest cell is smaller, since handing such
# work to a pool thread costs more than it saves.
SPLIT_MACS = 1 << 21

T = TypeVar("T")


class OpenBlas(NamedTuple):
    path: str
    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]


def _bind(lib: ctypes.CDLL, verb: str):
    for prefix in _SYMBOL_PREFIXES:
        for suffix in _SYMBOL_SUFFIXES:
            name = f"{prefix}openblas_{verb}_num_threads{suffix}"
            if hasattr(lib, name):
                return getattr(lib, name)
    return None


@lru_cache(maxsize=1)
def openblas_libraries() -> tuple[OpenBlas, ...]:
    """Every OpenBLAS mapped into this process, in map order, looked up once."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return ()
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
    return tuple(found)


def _address(fn) -> int | None:
    return ctypes.cast(fn, ctypes.c_void_p).value


@lru_cache(maxsize=1)
def numpy_openblas() -> OpenBlas | None:
    """The mapped OpenBLAS that numpy's LAPACK module links, None when it links none.

    A symbol looked up through that module's own handle resolves within the
    module and its dependencies, so numpy's copy is the one whose thread
    getter that lookup finds.
    """
    try:
        linalg = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None
    for lib in openblas_libraries():
        own = getattr(linalg, lib.get_num_threads.__name__, None)
        if own is not None and _address(own) == _address(lib.get_num_threads):
            return lib
    return None


@lru_cache(maxsize=None)
def lapack_routine(name: str, nargs: int) -> tuple[Callable[..., None], type] | None:
    """numpy's OpenBLAS routine ``name`` (say "dgeqrf") and its integer ctype, or None.

    The routine is bound to take ``nargs`` pointer-sized integers: the
    addresses of its arrays, of its integers (of the returned ctype) and of
    its one-character strings, then the strings' hidden Fortran lengths.
    A ``64_`` symbol suffix means 64-bit integers and none 32-bit ones.
    ctypes releases the GIL for each call.
    """
    lib = numpy_openblas()
    if lib is None:
        return None
    handle = ctypes.CDLL(lib.path)
    for prefix in _SYMBOL_PREFIXES:
        for suffix, int_type in (("_64_", ctypes.c_int64), ("_", ctypes.c_int32)):
            try:
                # indexing makes a new function object, whose argtypes are its own
                routine = handle[f"{prefix}{name}{suffix}"]
            except AttributeError:
                continue
            routine.argtypes, routine.restype = (ctypes.c_void_p,) * nargs, None
            return routine, int_type
    return None


def max_blas_threads() -> int:
    """The highest thread count of any OpenBLAS in the process, 1 when none is found."""
    return max((lib.get_num_threads() for lib in openblas_libraries()), default=1)


@contextmanager
def single_blas_thread() -> Iterator[None]:
    """Run the body with every OpenBLAS on one thread, then restore each count.

    Only counts other than 1 are set and restored, so a nested call sets nothing.
    """
    counts = [(lib, lib.get_num_threads()) for lib in openblas_libraries()]
    changed = [(lib, count) for lib, count in counts if count != 1]
    for lib, _ in changed:
        lib.set_num_threads(1)
    try:
        yield
    finally:
        for lib, count in changed:
            lib.set_num_threads(count)


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@lru_cache(maxsize=1)
def worker_pool() -> ThreadPoolExecutor:
    """The process's one pool: ``usable_cpus() - 1`` workers (at least one), made
    at the first call and kept for the process; the calling thread is the last CPU.
    """
    return ThreadPoolExecutor(max_workers=max(usable_cpus() - 1, 1), thread_name_prefix="shiftzoo")


def run_tasks(tasks: Sequence[Callable[[], T]], workers: int) -> list[T]:
    """Run every task once and return the results in task order.

    The calling thread and up to ``min(workers, len(tasks), usable_cpus()) - 1``
    threads of ``worker_pool`` each take the next task no thread has taken,
    until none is left; with one worker nothing goes to the pool. After a task
    raises, no thread starts another; once the running ones have ended, the
    first error is raised here. A helper still queued behind busy pool threads
    is cancelled, never waited for, so a task may call ``run_tasks`` itself.
    """
    results: list = [None] * len(tasks)
    errors: list[BaseException] = []
    lock = threading.Lock()
    taken = iter(range(len(tasks)))

    def drain() -> None:
        while True:
            with lock:
                i = None if errors else next(taken, None)
            if i is None:
                return
            try:
                results[i] = tasks[i]()
            except BaseException as exc:
                with lock:
                    errors.append(exc)
                return

    helpers = min(workers, len(tasks), usable_cpus()) - 1
    futures = [worker_pool().submit(drain) for _ in range(helpers)]
    try:
        drain()
    finally:
        for future in futures:
            if not future.cancel():
                future.result()
    if errors:
        raise errors[0]
    return results
