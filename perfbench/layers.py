"""Per-layer metrics computed from the spans of one traced run.

A layer is a shiftzoo module. Times are self times (span duration minus the
part its child spans cover) unless a metric says it is inclusive. Calls are
split by the command whose span is the root of the call: ``synth``,
``profile`` or ``train``. Metrics without a prefix are taken under the
command the layer mainly serves; the ``profile_`` and ``train_`` twins
count the same layer under the other command (the logit-level profiling
that every ``train`` fold runs, or the feature loads of ``profile``).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable, Iterable

from tracing import Span, lineage, self_times

COMMAND_PREFIX = "cli."


@dataclass(frozen=True)
class Call:
    span: Span
    self_s: float
    command: str
    path: frozenset[str]


class Index:
    """Spans grouped by name, each tagged with its command and self time."""

    def __init__(self, spans: Iterable[Span]):
        spans = list(spans)
        own = self_times(spans)
        tree = lineage(spans)
        self.spans = spans
        self.by_name: dict[str, list[Call]] = {}
        for s in spans:
            root, path = tree[s.span_id]
            command = root[len(COMMAND_PREFIX):] if root.startswith(COMMAND_PREFIX) else ""
            self.by_name.setdefault(s.name, []).append(Call(s, own[s.span_id], command, path))

    def calls(self, names: Iterable[str], command: str | None = None,
              within: str | None = None) -> list[Call]:
        out = []
        for name in names:
            for c in self.by_name.get(name, ()):
                if command is not None and c.command != command:
                    continue
                if within is not None and within not in c.path:
                    continue
                out.append(c)
        return out

    def self_s(self, names, command=None, within=None) -> float:
        return sum(c.self_s for c in self.calls(names, command, within))

    def inclusive_s(self, names, command=None) -> float:
        return sum(c.span.duration for c in self.calls(names, command))

    def count(self, names, command=None) -> int:
        return len(self.calls(names, command))

    def attr_sum(self, name, key, command=None) -> float:
        return sum(c.span.attrs[key] for c in self.calls([name], command))

    def distinct(self, name, key, command=None) -> int:
        return len({c.span.attrs[key] for c in self.calls([name], command)})

    def module_self_s(self, module: str) -> float:
        prefix = module + "."
        return sum(
            c.self_s for name, calls in self.by_name.items() if name.startswith(prefix)
            for c in calls
        )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile_ms(durations: list[float], q: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e3


FS = "feature_store."
GP = "gaussian_profile."
CP = "correlation_profile."
ET = "ensemble_train."
READS = [FS + n for n in ("read_features", "read_labels", "load_feature_set",
                          "build_feature_set", "load_domain_features")]
COPIES = [FS + "FeatureSet.train_features", FS + "FeatureSet.val_features"]
FITS = [GP + n for n in ("fit_profile", "fit_gaussian", "regularize_and_factor",
                         "estimate_threshold")]
ESCAPES = [GP + "mahalanobis_sq", GP + "escape_mask"]
CALIBRATION = [CP + "predict_tilde", CP + "calibrate", CP + "Calibrator.apply"]
LOGIT_PROFILE = [ET + "logit_feature_sets", GP + "dataset_diversity", CP + "dataset_correlation"]
SYNTH = ["synthetic_dg.build_zoo", "synthetic_dg.generate", "synthetic_dg.SynthEncoder.transform",
         "synthetic_dg.SynthEncoder.projection"]
MODULE_NAMES = ("cli", "feature_store", "gaussian_profile", "correlation_profile", "hsic",
                "ensemble_train", "report", "synthetic_dg")


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    value: Callable[[Index, dict], float]


def _reads(prefix: str, command: str) -> list[LayerMetric]:
    read = FS + "read_features"
    return [
        LayerMetric(f"{FS}{prefix}read_s", "s", "lower", lambda ix, x: ix.self_s(READS, command)),
        LayerMetric(f"{FS}{prefix}read_calls", "count", "lower",
                    lambda ix, x: ix.count([read], command)),
        LayerMetric(f"{FS}{prefix}reads_per_file", "ratio", "lower",
                    lambda ix, x: _ratio(ix.count([read], command),
                                         ix.distinct(read, "path", command))),
    ]


def _copies(prefix: str, command: str) -> list[LayerMetric]:
    return [
        LayerMetric(f"{FS}{prefix}f64_copies", "count", "lower",
                    lambda ix, x: ix.count(COPIES, command)),
        LayerMetric(f"{FS}{prefix}f64_copy_s", "s", "lower",
                    lambda ix, x: ix.self_s(COPIES, command)),
    ]


def _gaussian(prefix: str, command: str) -> list[LayerMetric]:
    return [
        LayerMetric(f"{GP}{prefix}fit_s", "s", "lower", lambda ix, x: ix.self_s(FITS, command)),
        LayerMetric(f"{GP}{prefix}fit_calls", "count", "lower",
                    lambda ix, x: ix.count([GP + "fit_gaussian"], command)),
        LayerMetric(f"{GP}{prefix}escape_s", "s", "lower",
                    lambda ix, x: ix.self_s(ESCAPES, command)),
        LayerMetric(f"{GP}{prefix}escape_rows", "count", "lower",
                    lambda ix, x: ix.attr_sum(GP + "mahalanobis_sq", "rows", command)),
    ]


def _logme(prefix: str, command: str) -> list[LayerMetric]:
    return [
        LayerMetric(f"{CP}{prefix}logme_s", "s", "lower",
                    lambda ix, x: ix.self_s([CP + "logme_fit"], command)),
        LayerMetric(f"{CP}{prefix}logme_calls", "count", "lower",
                    lambda ix, x: ix.count([CP + "logme_fit"], command)),
        LayerMetric(f"{CP}{prefix}logme_iters", "count", "lower",
                    lambda ix, x: ix.attr_sum(CP + "logme_fit", "iters", command)),
        LayerMetric(f"{CP}{prefix}calibrate_s", "s", "lower",
                    lambda ix, x: ix.self_s(CALIBRATION, command)),
    ]


def _step_durations(ix: Index) -> list[float]:
    return [c.span.duration for c in ix.calls([ET + "train_step"])]


def _rew_ratio(ix: Index) -> float:
    steps = ix.calls([ET + "train_step"])
    return _ratio(sum(c.span.attrs["rew_applied"] for c in steps),
                  sum(c.span.attrs["rew_computed"] for c in steps))


LAYER_METRICS: tuple[LayerMetric, ...] = (
    # synthetic_dg: the workload's set-up, under `synth`
    LayerMetric("synthetic_dg.build_zoo_s", "s", "lower", lambda ix, x: ix.self_s(SYNTH, "synth")),
    LayerMetric("synthetic_dg.projection_s", "s", "lower",
                lambda ix, x: ix.self_s(["synthetic_dg.SynthEncoder.projection"], "synth")),
    LayerMetric("synthetic_dg.projection_calls", "count", "lower",
                lambda ix, x: ix.count(["synthetic_dg.SynthEncoder.projection"], "synth")),
    LayerMetric("feature_store.write_s", "s", "lower",
                lambda ix, x: ix.self_s([FS + "write_features", FS + "write_labels",
                                         FS + "save_manifest"], "synth")),
    # feature_store: loads per fold and per fold record under `train`
    *_reads("", "train"),
    *_reads("profile_", "profile"),
    # feature_store: float64 copies made by each train_features/val_features access
    *_copies("", "profile"),
    *_copies("train_", "train"),
    # gaussian_profile and correlation_profile under `profile`, twins under `train`
    *_gaussian("", "profile"),
    LayerMetric(GP + "fits_per_domain", "ratio", "lower",
                lambda ix, x: _ratio(ix.count([GP + "fit_gaussian"], "profile"), x["cells"])),
    *_gaussian("train_", "train"),
    *_logme("", "profile"),
    LayerMetric(CP + "logme_per_domain", "ratio", "lower",
                lambda ix, x: _ratio(ix.count([CP + "logme_fit"], "profile"), x["cells"])),
    *_logme("train_", "train"),
    # report: one profile_encoder span per encoder; inclusive, since the
    # slowest encoder bounds the wall time of a parallel profile
    LayerMetric("report.encoder_s_sum", "s", "lower",
                lambda ix, x: ix.inclusive_s(["report.profile_encoder"], "profile")),
    LayerMetric("report.encoder_s_max", "s", "lower",
                lambda ix, x: max((c.span.duration for c in
                                   ix.calls(["report.profile_encoder"], "profile")), default=0.0)),
    # hsic and ensemble_train: the per-step layers
    LayerMetric("hsic.value_grad_s", "s", "lower",
                lambda ix, x: ix.self_s(["hsic.hsic_b_value_and_grad"], "train")),
    LayerMetric("hsic.calls", "count", "lower",
                lambda ix, x: ix.count(["hsic.hsic_b_value_and_grad"], "train")),
    LayerMetric(ET + "steps", "count", "lower", lambda ix, x: ix.count([ET + "train_step"])),
    LayerMetric(ET + "step_ms_p50", "ms", "lower",
                lambda ix, x: _percentile_ms(_step_durations(ix), 50)),
    LayerMetric(ET + "step_ms_p99", "ms", "lower",
                lambda ix, x: _percentile_ms(_step_durations(ix), 99)),
    LayerMetric(ET + "forward_s", "s", "lower",
                lambda ix, x: ix.self_s([ET + "MlpHead.forward"], "train",
                                        within=ET + "head_loss_and_grads")),
    LayerMetric(ET + "backward_s", "s", "lower",
                lambda ix, x: ix.self_s([ET + "MlpHead.backward"], "train")),
    LayerMetric(ET + "optimizer_s", "s", "lower",
                lambda ix, x: ix.self_s([ET + "AdamW.step"], "train")),
    LayerMetric(ET + "optimizer_calls", "count", "lower",
                lambda ix, x: ix.count([ET + "AdamW.step"], "train")),
    LayerMetric(ET + "rew_aux_s", "s", "lower",
                lambda ix, x: ix.self_s([ET + "train_rew_auxiliary"], "train")),
    LayerMetric(ET + "rew_weights_s", "s", "lower",
                lambda ix, x: ix.self_s([ET + "rew_weights"], "train")),
    LayerMetric(ET + "rew_weights_useful_ratio", "ratio", "higher", lambda ix, x: _rew_ratio(ix)),
    # inclusive: accuracy's forward passes are evaluation, not training
    LayerMetric(ET + "eval_s", "s", "lower",
                lambda ix, x: ix.inclusive_s([ET + "accuracy"], "train")),
    LayerMetric(ET + "logit_profile_s", "s", "lower",
                lambda ix, x: ix.inclusive_s(LOGIT_PROFILE, "train")),
    LayerMetric(ET + "target_acc", "ratio", "higher", lambda ix, x: x["target_acc"]),
    # wall time of each command, the stages a user waits for
    *(LayerMetric(f"cli.{c}_s", "s", "lower",
                  lambda ix, x, c=c: ix.inclusive_s([COMMAND_PREFIX + c], c))
      for c in ("synth", "profile", "rank", "train")),
    # busy time of each layer over the whole traced run, every command together
    *(LayerMetric(f"{m}.self_s", "s", "lower", lambda ix, x, m=m: ix.module_self_s(m))
      for m in MODULE_NAMES),
    LayerMetric("trace.spans", "count", "lower", lambda ix, x: len(ix.spans)),
    LayerMetric("trace.overhead_s", "s", "lower", lambda ix, x: x["overhead_s"]),
    LayerMetric("trace.overhead_pct", "%", "lower", lambda ix, x: x["overhead_pct"]),
)


def layer_metrics(spans: Iterable[Span], extra: dict) -> dict[str, dict]:
    """Evaluate every per-layer metric; ``extra`` carries the non-span inputs.

    ``extra`` holds ``cells`` (encoder x domain cells profiled), ``target_acc``,
    ``overhead_s`` and ``overhead_pct``.
    """
    ix = Index(spans)
    return {m.name: {"value": float(m.value(ix, extra)), "unit": m.unit} for m in LAYER_METRICS}
