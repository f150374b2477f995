"""numpy's OpenBLAS: found without a memory map, its routines bound, one
thread inside ``single_blas_thread`` and the count restored after; and the
fallback where none is found."""

import ctypes
import os
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.linalg  # noqa: F401  (maps scipy's own OpenBLAS)

import shiftzoo
from shiftzoo import blas_threads, gaussian_profile, synthetic_dg
from shiftzoo.blas_threads import OpenBlas, lapack_routine, numpy_openblas, single_blas_thread
from shiftzoo.correlation_profile import dataset_correlation
from shiftzoo.feature_store import load_domain_features
from shiftzoo.gaussian_profile import dataset_diversity
from shiftzoo.synthetic_dg import SynthEncoder, SynthSpec, build_zoo


def _bundled(module) -> set[str]:
    """The OpenBLAS copies a wheel ships in its ``<package>.libs`` directory."""
    libs_dir = Path(module.__file__).resolve().parent.parent / f"{module.__name__}.libs"
    return {str(p.resolve()) for p in libs_dir.glob("*openblas*")}


BUNDLED = {"numpy": _bundled(np), "scipy": _bundled(scipy)}


@pytest.fixture
def lib():
    found = numpy_openblas()
    if found is None:
        pytest.skip("numpy links no OpenBLAS here")
    return found


def _address(fn) -> int:
    return ctypes.cast(fn, ctypes.c_void_p).value


def _env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(Path(shiftzoo.__file__).resolve().parent.parent)}


def _numpy_wheel_symbol(name: str):
    """``name`` looked up by path in the OpenBLAS that numpy's wheel bundles."""
    if len(BUNDLED["numpy"]) != 1:
        pytest.skip("numpy brings no one OpenBLAS of its own here")
    (path,) = BUNDLED["numpy"]
    return ctypes.CDLL(path)[name]


def test_numpy_openblas_is_found_pinned_and_its_lapack_bound(lib):
    """With scipy's copy mapped too (this module imports it), the lookup binds
    numpy's copy: its thread symbols, which the pin sets, and its routines."""
    for fn in (lib.get_num_threads, lib.set_num_threads):
        assert _address(fn) == _address(_numpy_wheel_symbol(fn.__name__))
    with single_blas_thread():
        assert _numpy_wheel_symbol(lib.get_num_threads.__name__)() == 1
    for name in ("dgeqrf", "dorgqr", "dtrtrs", "dtrmm"):
        routine, int_type = lapack_routine(name).args
        assert _address(routine) == _address(_numpy_wheel_symbol(routine.__name__))
        assert int_type is (ctypes.c_int64 if routine.__name__.endswith("_64_") else ctypes.c_int32)
    assert lapack_routine("no_such_routine") is None


NO_MEMORY_MAP = """
import builtins, ctypes, io, os, sys

def refusing(real):
    def call(file, *args, **kwargs):
        if not isinstance(file, int) and os.fsdecode(file) == "/proc/self/maps":
            raise PermissionError("no memory map here")
        return real(file, *args, **kwargs)
    return call

builtins.open = io.open = refusing(builtins.open)
os.open = refusing(os.open)
from shiftzoo import blas_threads
lib = blas_threads.numpy_openblas()
assert lib is not None, "numpy's OpenBLAS was not found"
own = ctypes.CDLL(sys.argv[1])[lib.get_num_threads.__name__]
lib.set_num_threads(2)
with blas_threads.single_blas_thread():
    assert own() == 1, own()
assert own() == 2, own()
assert blas_threads.lapack_routine("dtrtrs") is not None
"""


def test_the_lookup_needs_no_memory_map():
    """Where ``/proc/self/maps`` cannot be opened, numpy's OpenBLAS is still
    found, pinned to one thread inside the pin, and its ``dtrtrs`` bound."""
    if len(BUNDLED["numpy"]) != 1:
        pytest.skip("numpy brings no one OpenBLAS of its own here")
    proc = subprocess.run(
        [sys.executable, "-c", NO_MEMORY_MAP, *BUNDLED["numpy"]],
        env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_single_thread_inside_and_previous_counts_after(lib):
    before = lib.get_num_threads()
    with single_blas_thread():
        assert lib.get_num_threads() == 1
        np.linalg.eigh(np.eye(64))
    assert lib.get_num_threads() == before


def test_counts_restored_when_the_body_raises(lib):
    before = lib.get_num_threads()
    lib.set_num_threads(2)  # a count other than 1, so that a missing restore shows
    try:
        with pytest.raises(RuntimeError, match="body failed"):
            with single_blas_thread():
                assert lib.get_num_threads() == 1
                raise RuntimeError("body failed")
        assert lib.get_num_threads() == 2
    finally:
        lib.set_num_threads(before)


def test_a_nested_pin_sets_nothing(monkeypatch):
    """Only a count other than 1 is set, so workers under an outer pin never call the setter."""
    count, calls = [2], []

    def setter(n):
        calls.append(n)
        count[0] = n

    fake = OpenBlas(None, lambda: count[0], setter)
    monkeypatch.setattr(blas_threads, "numpy_openblas", lambda: fake)
    with single_blas_thread():
        assert count == [1] and calls == [1]
        with single_blas_thread():
            assert calls == [1]
        assert calls == [1]
    assert count == [2] and calls == [1, 2]


def test_physical_memory_is_the_page_count_times_the_page_size(monkeypatch):
    have = blas_threads.physical_memory()
    assert have == os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") and have > 0

    def unknown(name):
        raise ValueError(f"unknown {name}")

    monkeypatch.setattr(os, "sysconf", unknown)
    assert blas_threads.physical_memory() is None


def test_check_memory_refuses_more_than_physical_memory_naming_both_sizes(monkeypatch):
    monkeypatch.setattr(blas_threads, "physical_memory", lambda: 3 << 30)
    blas_threads.check_memory("train", 3 << 30, "features")
    with pytest.raises(MemoryError) as refused:
        blas_threads.check_memory("profile", (3 << 30) + 1, "features (four)", "; lower --jobs")
    assert str(refused.value) == (
        "profile would hold 3 GiB of features (four), more than the 3 GiB of physical memory; "
        "lower --jobs"
    )
    # where the system does not say, nothing is refused
    monkeypatch.setattr(blas_threads, "physical_memory", lambda: None)
    blas_threads.check_memory("synth", 1 << 60, "raw domains")


def test_synth_and_train_share_one_worker_pool(tmp_path, monkeypatch, fresh_pool):
    """synth, profile and train hand their work to one pool through run_tasks."""
    import shiftzoo.ensemble_train as et
    import shiftzoo.report as report
    from shiftzoo.feature_store import load_manifest
    from shiftzoo.synthetic_dg import SynthSpec, build_zoo

    monkeypatch.setattr(blas_threads, "usable_cpus", lambda: 2)
    pool = blas_threads.worker_pool()
    assert blas_threads.worker_pool() is pool
    names = set()
    real = blas_threads.run_tasks

    def recording(tasks, workers):
        def named(task):
            names.add(threading.current_thread().name)
            return task()

        return real([partial(named, task) for task in tasks], workers)

    for module in (blas_threads, report, et):
        monkeypatch.setattr(module, "run_tasks", recording)
    # 600 rows and 192 wide: above the size rule, so synth uses the pool
    spec = SynthSpec(dim_core=128, dim_div=64, dim_spur=64, samples_per_domain=600)
    build_zoo(spec, zoo_size=4, out_dir=tmp_path)
    report.build_report(load_manifest(tmp_path / "manifest.json"), jobs=2)
    a, b = np.ones((1, 480, 96)), np.ones((1, 96, 192))
    with single_blas_thread():
        assert et._matmul(a, b).tobytes() == np.matmul(a, b).tobytes()
    me = threading.current_thread().name
    assert me in names and len(names) == 2
    assert all(name == me or name.startswith("shiftzoo") for name in names)
    assert len(pool._threads) == 1


def test_run_tasks_returns_results_in_task_order(monkeypatch, fresh_pool):
    monkeypatch.setattr(blas_threads, "usable_cpus", lambda: 3)
    tasks = [partial(lambda i: (time.sleep(0.001 * (i % 3)), i)[1], i) for i in range(20)]
    assert blas_threads.run_tasks(tasks, 3) == list(range(20))
    assert blas_threads.run_tasks([], 3) == []


def test_one_worker_runs_every_task_on_the_caller(monkeypatch):
    def no_pool():
        raise AssertionError("a task went to the pool")

    monkeypatch.setattr(blas_threads, "worker_pool", no_pool)
    monkeypatch.setattr(blas_threads, "usable_cpus", lambda: 4)
    me = threading.get_ident()
    assert blas_threads.run_tasks([threading.get_ident] * 5, 1) == [me] * 5
    # one usable CPU caps any worker count at the caller
    monkeypatch.setattr(blas_threads, "usable_cpus", lambda: 1)
    assert blas_threads.run_tasks([threading.get_ident] * 5, 8) == [me] * 5


def test_an_error_starts_no_new_task_and_waits_for_the_running_ones(monkeypatch, fresh_pool):
    monkeypatch.setattr(blas_threads, "usable_cpus", lambda: 2)
    started, running, release = [], [], threading.Event()

    def slow(i):
        started.append(i)
        running.append(i)
        release.wait(5)
        time.sleep(0.05)
        running.remove(i)

    def failing():
        started.append("fail")
        # let the other worker take the slow task first
        deadline = time.monotonic() + 5
        while not running and time.monotonic() < deadline:
            time.sleep(0.001)
        release.set()
        raise ValueError("task failed on purpose")

    tasks = [failing, partial(slow, 1)] + [partial(slow, i) for i in range(2, 10)]
    with pytest.raises(ValueError, match="on purpose"):
        blas_threads.run_tasks(tasks, 2)
    assert running == []  # the running task had ended before the error was raised
    assert sorted(started, key=str) == [1, "fail"]


def test_the_error_raised_is_that_of_the_first_failing_task_in_task_order(
    monkeypatch, fresh_pool
):
    """Task 1 fails first in time, task 0 after it: task 0's error is raised."""
    monkeypatch.setattr(blas_threads, "usable_cpus", lambda: 2)
    second_failed = threading.Event()

    def first():
        second_failed.wait(5)
        raise ValueError("task 0 failed")

    def second():
        try:
            raise ValueError("task 1 failed")
        finally:
            second_failed.set()

    with pytest.raises(ValueError, match="task 0 failed"):
        blas_threads.run_tasks([first, second], 2)


def test_pool_threads_run_under_the_callers_numpy_error_state(monkeypatch, fresh_pool):
    """A task on a pool thread sees the caller's ``np.errstate``: under pytest's
    ``error::RuntimeWarning`` an overflow it was told to ignore raises nothing."""
    monkeypatch.setattr(blas_threads, "usable_cpus", lambda: 2)
    both_taken = threading.Barrier(2, timeout=10)  # so that each thread takes one task

    def overflowing():
        both_taken.wait()
        big = np.full(4, 1e300)
        return threading.current_thread().name, np.geterr()["over"], np.isinf(big * big).all()

    with np.errstate(over="ignore"):
        results = blas_threads.run_tasks([overflowing] * 2, 2)
    assert len({name for name, _, _ in results}) == 2
    assert [(over, inf) for _, over, inf in results] == [("ignore", True)] * 2
    # the pool thread's own state is untouched: outside the block it warns again
    both_taken.reset()
    with pytest.raises(RuntimeWarning, match="overflow"):
        blas_threads.run_tasks([overflowing] * 2, 2)


def test_a_task_may_run_tasks_itself(monkeypatch, fresh_pool):
    """A nested call's helper queued behind the busy pool is cancelled, not awaited."""
    monkeypatch.setattr(blas_threads, "usable_cpus", lambda: 2)

    def inner():
        return sum(blas_threads.run_tasks([lambda: 1] * 4, 2))

    outcome = []
    caller = threading.Thread(
        target=lambda: outcome.append(blas_threads.run_tasks([inner] * 4, 2)), daemon=True
    )
    caller.start()
    caller.join(timeout=30)
    assert not caller.is_alive(), "nested run_tasks deadlocked"
    assert outcome == [[4, 4, 4, 4]]


@contextmanager
def _no_lapack():
    """The lookup finds nothing, as under Accelerate or MKL."""
    with pytest.MonkeyPatch.context() as m:
        for module in (synthetic_dg, gaussian_profile):
            m.setattr(module, "lapack_routine", lambda name: None)
        yield


@pytest.mark.parametrize("width", [1, 5, 103, 446])
def test_projection_without_lapack_has_the_main_paths_bits(width):
    enc = SynthEncoder("e", tuple(range(width)), 7 + width)
    main = enc.projection()
    with _no_lapack():
        fallback = enc.projection()
    assert fallback.flags.f_contiguous
    assert fallback.tobytes() == main.tobytes()


def _profile(manifest, encoder_id):
    sets = [load_domain_features(manifest, encoder_id, d.domain_id) for d in manifest.domains]
    f_div, div_pairs = dataset_diversity(sets)
    f_cor, cor_pairs = dataset_correlation(sets, div_pairs, manifest.n_classes)
    flags = {
        key: (p.escape_a.tobytes(), p.escape_b.tobytes(), p.f_div) for key, p in div_pairs.items()
    }
    return f_div, f_cor, flags, {key: p.f_cor for key, p in cor_pairs.items()}


def test_zoo_and_profile_without_lapack_match_the_main_path(tmp_path):
    """Same zoo bytes; every escape flag, f_div and f_cor the same from a numpy L^-1."""
    spec = SynthSpec(dim_core=32, dim_div=16, dim_spur=16, samples_per_domain=800, seed=4)
    manifest, _, _ = build_zoo(spec, zoo_size=6, out_dir=tmp_path / "main")
    with _no_lapack():
        build_zoo(spec, zoo_size=6, out_dir=tmp_path / "fallback")
    names = sorted(p.name for p in (tmp_path / "main").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "fallback").iterdir())
    for name in names:
        main, fallback = tmp_path / "main" / name, tmp_path / "fallback" / name
        assert main.read_bytes() == fallback.read_bytes(), name
    for enc in manifest.encoders:
        main = _profile(manifest, enc.encoder_id)
        with _no_lapack():
            assert _profile(manifest, enc.encoder_id) == main, enc.encoder_id


PIPELINE = """
import sys
if sys.argv[1] == "scipy-first":
    import scipy.linalg
else:
    sys.modules["scipy"] = None
if len(sys.argv) > 3:  # the lookup binds numpy's copy, found here by its path
    import ctypes
    from shiftzoo.blas_threads import numpy_openblas
    fn = numpy_openblas().get_num_threads
    own = ctypes.CDLL(sys.argv[3])[fn.__name__]
    assert ctypes.cast(fn, ctypes.c_void_p).value == ctypes.cast(own, ctypes.c_void_p).value
from shiftzoo.cli import main
out = sys.argv[2]
assert main(["synth", "--out", out, "--seed", "2", "--samples", "600",
             "--dim-core", "64", "--dim-div", "32", "--dim-spur", "32"]) == 0
assert main(["profile", "--manifest", out + "/manifest.json", "--out", out + "/profile.json"]) == 0
"""


def test_scipy_imported_first_changes_neither_the_lookup_nor_the_bytes(tmp_path):
    """Imported first, scipy's OpenBLAS is mapped (and may come first in the
    map), but the lookup still binds numpy's and synth and profile write the
    bytes of a process without scipy."""
    own = list(BUNDLED["numpy"]) if len(BUNDLED["numpy"]) == 1 else []
    for how in ("scipy-first", "no-scipy"):
        proc = subprocess.run(
            [sys.executable, "-c", PIPELINE, how, str(tmp_path / how), *own],
            env=_env(), capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
    first, without = tmp_path / "scipy-first", tmp_path / "no-scipy"
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in without.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (without / name).read_bytes(), name
