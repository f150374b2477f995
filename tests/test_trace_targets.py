"""The benchmark's traced run wraps shiftzoo functions by name: they must resolve.

``perfbench/tracing.py`` lists (module, qualified name) targets and reads some
positional arguments by index. A rename or a signature change in ``src/`` would
only surface when the traced benchmark runs, so this checks the list here.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACING_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while being built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def _resolve(package, module_name, qualname):
    obj = importlib.import_module(f"{package}.{module_name}")
    for part in qualname.split("."):
        obj = inspect.getattr_static(obj, part)
    return obj


def test_every_trace_target_resolves(tracing):
    assert tracing.TARGETS
    for module_name, qualname, _ in tracing.TARGETS:
        assert module_name in tracing.MODULES
        target = _resolve(tracing.PACKAGE, module_name, qualname)
        assert callable(target) or isinstance(target, property), (module_name, qualname)


def test_positional_arguments_the_tracer_reads(tracing):
    def params(module_name, name):
        target = _resolve(tracing.PACKAGE, module_name, name)
        return tuple(inspect.signature(target).parameters)

    assert params("gaussian_profile", "mahalanobis_sq")[2] == "x"
    assert params("feature_store", "read_features")[0] == "path"
    names = ("head", "optimizer", "x", "labels", "aux_div", "rew_batch", "config", "step_index")
    assert params("ensemble_train", "train_step")[: len(names)] == names


def test_tracer_installs_and_restores(tracing):
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        assert tracer.restore() == []
