"""OpenBLAS thread pinning: found libraries, one thread inside, counts restored."""

import os
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.linalg  # noqa: F401  (maps scipy's own OpenBLAS)

from shiftzoo.blas_threads import openblas_libraries, single_blas_thread


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
