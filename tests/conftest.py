"""Fixtures shared by the test modules."""

from functools import lru_cache

import pytest

from shiftzoo import blas_threads


@pytest.fixture
def fresh_pool(monkeypatch):
    """Replace the process's worker pool with a new one, made at its first use
    and sized from ``usable_cpus()`` at that moment; calling the fixture's
    value starts over with another. Every pool made is shut down afterwards.
    """
    made = []

    def renew():
        pool = lru_cache(maxsize=1)(blas_threads.worker_pool.__wrapped__)
        made.append(pool)
        monkeypatch.setattr(blas_threads, "worker_pool", pool)

    renew()
    yield renew
    for pool in made:
        if pool.cache_info().currsize:
            pool().shutdown()
