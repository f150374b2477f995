"""Process-wide OpenBLAS thread count, set through ctypes, the CPU count and
the process's one worker pool.

numpy and scipy wheels each bundle their own OpenBLAS build, so a process can
hold two copies with separate thread counts. Both are found in the process's
own memory map (``/proc/self/maps``) and driven through their exported
``*_set_num_threads`` / ``*_get_num_threads`` symbols. Where there is no
memory map or no OpenBLAS, nothing is found and nothing changes.

The map is read once, at the first ``openblas_libraries`` call, and every
later call returns the same libraries. This module imports numpy and
``scipy.linalg`` itself, so both copies are mapped before that lookup.

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

import numpy  # noqa: F401  (maps numpy's OpenBLAS before the one lookup)
import scipy.linalg  # noqa: F401  (and scipy's)

# scipy-openblas wheels prefix their symbols; the 64-bit-integer build adds "64_"
_SYMBOL_PREFIXES = ("scipy_openblas", "openblas")
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
            name = f"{prefix}_{verb}_num_threads{suffix}"
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
