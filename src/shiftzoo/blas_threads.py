"""numpy's own OpenBLAS through ctypes (its process-wide thread count and
its LAPACK routines), the CPU count, the physical memory, and the process's
one worker pool.

Every OpenBLAS symbol is looked up through one handle: ``ctypes.CDLL`` of
numpy's LAPACK module, which resolves within that module and the libraries
it links. So it binds numpy's own copy, whatever else is loaded and in
whichever order, and a copy another package brings (scipy's, say) is neither
called nor pinned. Where numpy links no OpenBLAS (Accelerate, MKL), nothing
is found: nothing is pinned, and ``lapack_routine``'s callers use
``numpy.linalg`` or numpy's product. shiftzoo calls four routines, in place
on numpy's arrays: ``dgeqrf`` and ``dorgqr`` for the projection QRs,
``dtrtrs`` for L^-1 and the BLAS ``dtrmm`` for the Mahalanobis distances.

The thread setter is process-wide: a count set from one thread is the count
every thread's next BLAS call uses. Set it once, from the thread that then
starts any workers, and restore it from that same thread. A
``single_blas_thread`` nested inside another, on any thread, finds the count
at 1 and sets nothing.

``usable_cpus`` is the one CPU count that sizes the process's own worker
threads: the profile grid's ``--jobs`` default and ``worker_pool``. Work goes
to that pool only through ``run_tasks``, which ``synth`` (its domains,
projection QRs and encoded cells), ``profile`` (its encoders) and ``train``
(its split GEMMs and optimizer runs) share; the calling thread always takes
tasks too.
"""

from __future__ import annotations

import contextvars
import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from functools import lru_cache, partial
from typing import Callable, Iterator, NamedTuple, Sequence, TypeVar

from numpy.linalg import _umath_linalg

# Work under 2 * SPLIT_MACS = 2^22 multiply-adds stays on the calling thread:
# ``train`` cuts no smaller GEMM (see ensemble_train._matmul) and ``synth``
# sends no zoo to the pool whose largest cell is smaller, since handing such
# work to a pool thread costs more than it saves.
SPLIT_MACS = 1 << 21
# Row cuts at multiples of ROW_ALIGN keep an OpenBLAS product's bits (see ensemble_train._matmul)
ROW_ALIGN = 48
# Work that runs in row blocks (synth's draws and encodings, the Mahalanobis
# distances) takes about BLOCK_DOUBLES float64 values per block: 1 MiB, so a
# block's elementwise passes stay in cache
BLOCK_DOUBLES = 1 << 17

T = TypeVar("T")


class OpenBlas(NamedTuple):
    handle: ctypes.CDLL | None
    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]


def _symbol(lib: ctypes.CDLL, stem: str):
    """``stem`` (say "dgeqrf_") as exported through ``lib``, None when it is not."""
    # scipy-openblas wheels (numpy's too) prefix their symbols; the 64-bit-integer build adds "64_"
    for prefix in ("scipy_", ""):
        for suffix in ("64_", ""):
            fn = getattr(lib, f"{prefix}{stem}{suffix}", None)
            if fn is not None:
                return fn
    return None


@lru_cache(maxsize=1)
def numpy_openblas() -> OpenBlas | None:
    """The OpenBLAS that numpy's LAPACK module links, None when it links none."""
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None
    getter = _symbol(lib, "openblas_get_num_threads")
    setter = _symbol(lib, "openblas_set_num_threads")
    if getter is None or setter is None:
        return None
    getter.argtypes, getter.restype = [], ctypes.c_int
    setter.argtypes, setter.restype = [ctypes.c_int], None
    return OpenBlas(lib, getter, setter)


@lru_cache(maxsize=None)
def lapack_routine(name: str) -> Callable[..., int] | None:
    """numpy's OpenBLAS routine ``name`` (say "dgeqrf") as a call, or None.

    The call takes the routine's arguments up to, not including, ``info``:
    numpy arrays (passed by address), Python ints, Python floats (as
    doubles) and one-character ``bytes``; it returns ``info``. A BLAS
    routine (``dtrmm``) takes no ``info``: the trailing address is not read,
    and the call returns 0. A ``64_`` symbol suffix means 64-bit integers and
    none 32-bit ones. ctypes releases the GIL for each call.
    """
    lib = numpy_openblas()
    routine = None if lib is None else _symbol(lib.handle, f"{name}_")
    if routine is None:
        return None
    routine.restype = None
    int_type = ctypes.c_int64 if routine.__name__.endswith("64_") else ctypes.c_int32
    return partial(_call, routine, int_type)


def _call(routine, int_type: type, *args) -> int:
    """Call a Fortran routine: every argument by address, ``info`` last, and then
    the hidden lengths of the strings; return ``info``."""
    n = len(args)
    ints = (int_type * (n + 1))()  # the integer arguments, then info
    base, size = ctypes.addressof(ints), ctypes.sizeof(int_type)
    doubles = (ctypes.c_double * n)()  # the float arguments
    pointers, lengths = [], []
    for i, arg in enumerate(args):
        if isinstance(arg, int):
            ints[i] = arg
            pointers.append(base + i * size)
        elif isinstance(arg, float):
            doubles[i] = arg
            pointers.append(ctypes.addressof(doubles) + i * ctypes.sizeof(ctypes.c_double))
        elif isinstance(arg, bytes):
            pointers.append(arg)
            lengths.append(len(arg))
        else:
            pointers.append(arg.ctypes.data)
    if routine.argtypes is None:  # a routine is always called with the same arguments
        routine.argtypes = (ctypes.c_void_p,) * (n + 1 + len(lengths))
    routine(*pointers, base + n * size, *lengths)
    return ints[n]


def numpy_blas_threads() -> int:
    """The thread count of numpy's OpenBLAS, 1 when none is found."""
    lib = numpy_openblas()
    return 1 if lib is None else lib.get_num_threads()


@contextmanager
def single_blas_thread() -> Iterator[None]:
    """Run the body with numpy's OpenBLAS on one thread, then restore its count.

    Only a count other than 1 is set and restored, so a nested call sets nothing.
    """
    lib = numpy_openblas()
    count = numpy_blas_threads()
    if count != 1:
        lib.set_num_threads(1)
    try:
        yield
    finally:
        if count != 1:
            lib.set_num_threads(count)


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def physical_memory() -> int | None:
    """Bytes of physical memory, or None where the system does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def check_memory(command: str, need: int, holding: str, advice: str = "") -> None:
    """Refuse, before it allocates them, the ``need`` bytes of arrays that
    ``command`` (``synth``, ``profile`` or ``train``) would hold, ``holding``
    saying of what, when they exceed the physical memory: a ``MemoryError``
    names both sizes, then ``advice``."""
    have = physical_memory()
    if have is not None and need > have:
        raise MemoryError(
            f"{command} would hold {need / 2**30:.3g} GiB of {holding}, more than the "
            f"{have / 2**30:.3g} GiB of physical memory{advice}"
        )


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
    error of the first task, in task order, that raised is raised here: every
    task before a failed one was started, so that error does not depend on
    the threads' timing. A helper still queued behind busy pool threads
    is cancelled, never waited for, so a task may call ``run_tasks`` itself.
    Each helper runs in a copy of the caller's ``contextvars`` context, so its
    tasks compute under the caller's numpy error state (``np.errstate``).
    """
    results: list = [None] * len(tasks)
    errors: dict[int, BaseException] = {}
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
                    errors[i] = exc
                return

    helpers = min(workers, len(tasks), usable_cpus()) - 1
    futures = [
        worker_pool().submit(contextvars.copy_context().run, drain) for _ in range(helpers)
    ]
    try:
        drain()
    finally:
        for future in futures:
            if not future.cancel():
                future.result()
    if errors:
        raise errors[min(errors)]
    return results
