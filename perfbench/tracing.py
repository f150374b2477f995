"""Spans around shiftzoo's public functions, recorded from outside the package.

A ``Tracer`` replaces each target function, method or property with a
wrapper that records one span per call: id, parent id, name, start, end,
run id, thread and optional attributes (row counts, file paths, solver
iterations). Spans stay in memory until the run ends.

Callers often reach a function through their own module's imported binding
(``ensemble_train.hsic_b_value_and_grad``, ``cli.dataset_correlation``), so
every ``shiftzoo`` module attribute that *is* the target object gets the
wrapper, and ``restore`` puts every original object back.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

PACKAGE = "shiftzoo"
MODULES = (
    "cli",
    "correlation_profile",
    "ensemble_train",
    "feature_store",
    "gaussian_profile",
    "hsic",
    "report",
    "synthetic_dg",
)


def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _mahalanobis_attrs(args, kwargs, out):
    x = args[2] if len(args) > 2 else kwargs["x"]
    return {"rows": _rows(x)}


def _read_attrs(args, kwargs, out):
    return {"path": str(args[0] if args else kwargs["path"])}


def _logme_attrs(args, kwargs, out):
    return {"iters": sum(r.n_iters for r in out.regressions)}


def _train_step_attrs(args, kwargs, out):
    names = ("head", "optimizer", "x", "labels", "aux_div", "rew_batch", "config", "step_index")
    bound = dict(zip(names, args))
    bound.update(kwargs)
    rew_batch, config = bound["rew_batch"], bound["config"]
    return {
        "rew_computed": rew_batch is not None,
        "rew_applied": rew_batch is not None and bound["step_index"] >= config.n_anneal,
    }


# (module, qualified name, attribute extractor). A qualified name with a dot
# is a method or property on a class of that module.
TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    ("feature_store", "read_features", _read_attrs),
    ("feature_store", "read_labels", None),
    ("feature_store", "write_features", None),
    ("feature_store", "write_labels", None),
    ("feature_store", "build_feature_set", None),
    ("feature_store", "load_feature_set", None),
    ("feature_store", "load_domain_features", None),
    ("feature_store", "load_manifest", None),
    ("feature_store", "save_manifest", None),
    ("feature_store", "FeatureSet.train_features", None),
    ("feature_store", "FeatureSet.val_features", None),
    ("gaussian_profile", "fit_gaussian", None),
    ("gaussian_profile", "regularize_and_factor", None),
    ("gaussian_profile", "mahalanobis_sq", _mahalanobis_attrs),
    ("gaussian_profile", "estimate_threshold", None),
    ("gaussian_profile", "fit_profile", None),
    ("gaussian_profile", "escape_mask", None),
    ("gaussian_profile", "diversity_shift", None),
    ("gaussian_profile", "dataset_diversity", None),
    ("correlation_profile", "logme_fit", _logme_attrs),
    ("correlation_profile", "predict_tilde", None),
    ("correlation_profile", "calibrate", None),
    ("correlation_profile", "Calibrator.apply", None),
    ("correlation_profile", "correlation_shift", None),
    ("correlation_profile", "dataset_correlation", None),
    ("hsic", "hsic_b_value_and_grad", None),
    ("ensemble_train", "train", None),
    ("ensemble_train", "train_on_sets", None),
    ("ensemble_train", "train_step", _train_step_attrs),
    ("ensemble_train", "head_loss_and_grads", None),
    ("ensemble_train", "MlpHead.forward", None),
    ("ensemble_train", "MlpHead.backward", None),
    ("ensemble_train", "AdamW.step", None),
    ("ensemble_train", "train_rew_auxiliary", None),
    ("ensemble_train", "rew_weights", None),
    ("ensemble_train", "accuracy", None),
    ("ensemble_train", "logit_feature_sets", None),
    ("report", "build_report", None),
    ("report", "profile_encoder", None),
    ("report", "write_report", None),
    ("report", "read_report", None),
    ("report", "rank_lines", None),
    ("report", "train_run_report", None),
    ("synthetic_dg", "generate", None),
    ("synthetic_dg", "build_zoo", None),
    ("synthetic_dg", "SynthEncoder.projection", None),
    ("synthetic_dg", "SynthEncoder.transform", None),
)


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float
    run_id: int
    thread: int
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.span_id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "run": self.run_id,
            "thread": self.thread,
            "attrs": self.attrs,
        }


@dataclass
class Tracer:
    """Collects spans; ``install`` wraps the targets, ``restore`` undoes it.

    Each thread keeps its own stack of open spans. A span opened on a thread
    with an empty stack (a worker of the profile thread pool) takes the
    current command span as its parent.
    """

    spans: list[Span] = field(default_factory=list)
    run_id: int = 0
    _bindings: list[tuple[Any, str]] = field(default_factory=list)
    _before: dict = field(default_factory=dict)
    _ids: Iterable[int] = field(default_factory=lambda: itertools.count(1))
    _local: threading.local = field(default_factory=threading.local)
    _command: int | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else self._command
        frame = [next(self._ids), parent, name, time.perf_counter()]
        stack.append(frame)
        return frame

    def end(self, frame: list, attrs: dict | None = None) -> Span:
        stop = time.perf_counter()
        stack = self._stack()
        stack.pop()
        span = Span(frame[0], frame[1], frame[2], frame[3], stop, self.run_id,
                    threading.get_ident(), attrs)
        self.spans.append(span)
        return span

    def command(self, name: str, call: Callable[[], Any]) -> Any:
        """Run ``call`` under a root span; module spans on any thread nest in it."""
        frame = self.begin(name)
        self._command = frame[0]
        try:
            return call()
        finally:
            self._command = None
            self.end(frame)

    def _wrap(self, name: str, fn: Callable, attrs: Callable | None) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.end(frame)
                raise
            tracer.end(frame, attrs(args, kwargs, out) if attrs else None)
            return out

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, targets: Sequence = TARGETS) -> None:
        if self._bindings:
            raise RuntimeError("tracer is already installed")
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        owners = list(modules.values()) + [
            getattr(modules[m], q.split(".")[0]) for m, q, _ in targets if "." in q
        ]
        self._before = {owner: dict(vars(owner)) for owner in owners}
        try:
            for module_name, qualname, attrs in targets:
                span_name = f"{module_name}.{qualname}"
                owner_name, _, attr = qualname.rpartition(".")
                if owner_name:
                    owner = getattr(modules[module_name], owner_name)
                    original = owner.__dict__[attr]
                    if isinstance(original, property):
                        replacement = property(self._wrap(span_name, original.fget, attrs))
                    else:
                        replacement = self._wrap(span_name, original, attrs)
                    self._bind(owner, attr, replacement)
                    continue
                original = getattr(modules[module_name], attr)
                replacement = self._wrap(span_name, original, attrs)
                for module in modules.values():
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._bind(module, name, replacement)
        except BaseException:
            self.restore()
            raise

    def _bind(self, owner: Any, attr: str, replacement: Any) -> None:
        self._bindings.append((owner, attr))
        setattr(owner, attr, replacement)

    def restore(self) -> list[str]:
        """Put every original back and return the names that are not their original.

        Every attribute of every shiftzoo module and traced class is compared
        with its value before ``install``, not only the rebound ones.
        """
        for owner, attr in reversed(self._bindings):
            setattr(owner, attr, self._before[owner][attr])
        self._bindings.clear()
        return [
            f"{owner.__name__}.{name}"
            for owner, before in self._before.items()
            for name, value in before.items()
            if vars(owner).get(name) is not value
        ]


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover.

    Children may overlap each other (parallel workers under one command), so
    the covered part is the length of the union of the child intervals,
    clipped to the parent's interval.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.span_id] = s.duration - covered
    return out


def lineage(spans: Sequence[Span]) -> dict[int, tuple[str, frozenset[str]]]:
    """Map each span id to (name of its root span, names on its path from the root).

    The path includes the span itself. Spans whose parent was not recorded
    count as roots.
    """
    by_id = {s.span_id: s for s in spans}
    memo: dict[int, tuple[str, frozenset[str]]] = {}
    for s in spans:
        pending = []
        sid = s.span_id
        while sid not in memo:
            span = by_id[sid]
            if span.parent is None or span.parent not in by_id:
                memo[sid] = (span.name, frozenset((span.name,)))
                break
            pending.append(sid)
            sid = span.parent
        for sid in reversed(pending):
            root, names = memo[by_id[sid].parent]
            memo[sid] = (root, names | {by_id[sid].name})
    return memo
