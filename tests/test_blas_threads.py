"""OpenBLAS thread pinning: found libraries, one thread inside, counts restored."""

import os
import threading
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.linalg  # noqa: F401  (maps scipy's own OpenBLAS)

from shiftzoo import blas_threads
from shiftzoo.blas_threads import OpenBlas, openblas_libraries, single_blas_thread


def _bundled(module) -> set[str]:
    """The OpenBLAS copies a wheel ships in its ``<package>.libs`` directory."""
    libs_dir = Path(module.__file__).resolve().parent.parent / f"{module.__name__}.libs"
    return {str(p.resolve()) for p in libs_dir.glob("*openblas*")}


BUNDLED = {"numpy": _bundled(np), "scipy": _bundled(scipy)}


@pytest.fixture
def libs():
    if not any(BUNDLED.values()):
        pytest.skip("numpy and scipy bring no OpenBLAS of their own here")
    return openblas_libraries()


def test_numpy_and_scipy_openblas_are_both_found(libs):
    found = {os.path.realpath(lib.path) for lib in libs}
    assert len(found) == len(libs)
    for package, paths in BUNDLED.items():
        assert paths <= found, (package, sorted(found))


def test_single_thread_inside_and_previous_counts_after(libs):
    before = [lib.get_num_threads() for lib in libs]
    with single_blas_thread():
        assert [lib.get_num_threads() for lib in libs] == [1] * len(libs)
        np.linalg.eigh(np.eye(64))
    assert [lib.get_num_threads() for lib in libs] == before


def test_counts_restored_when_the_body_raises(libs):
    before = [lib.get_num_threads() for lib in libs]
    # a count other than 1, so that a missing restore shows
    for lib in libs:
        lib.set_num_threads(2)
    try:
        with pytest.raises(RuntimeError, match="body failed"):
            with single_blas_thread():
                assert [lib.get_num_threads() for lib in libs] == [1] * len(libs)
                raise RuntimeError("body failed")
        assert [lib.get_num_threads() for lib in libs] == [2] * len(libs)
    finally:
        for lib, count in zip(libs, before):
            lib.set_num_threads(count)


def test_a_nested_pin_sets_nothing(monkeypatch):
    """Only counts other than 1 are set, so workers under an outer pin never call the setter."""
    counts, calls = [2, 1], []

    def fake(i):
        def setter(n):
            calls.append((i, n))
            counts[i] = n

        return OpenBlas(f"lib{i}", lambda: counts[i], setter)

    monkeypatch.setattr(blas_threads, "openblas_libraries", lambda: (fake(0), fake(1)))
    with single_blas_thread():
        assert counts == [1, 1] and calls == [(0, 1)]
        with single_blas_thread():
            assert calls == [(0, 1)]
        assert calls == [(0, 1)]
    assert counts == [2, 1] and calls == [(0, 1), (0, 2)]


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
    a, b = np.ones((480, 96)), np.ones((96, 192))
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
