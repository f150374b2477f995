"""Versioned shift reports: profiling grids, rankings, tables, and CSV.

A shift report captures, for every profiled encoder, the per-domain-pair
diversity and correlation shifts plus their pair-averaged summaries. Reports
are canonical JSON (sorted keys, two-space indent, trailing newline) so the
same inputs always serialize to the same bytes; nothing time- or
path-dependent is stored.
"""

from __future__ import annotations

import json
import math
from functools import partial
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import __version__
from .blas_threads import run_tasks, single_blas_thread, usable_cpus
from .correlation_profile import DEFAULT_BINS, dataset_correlation
from .errors import ValidationError
from .feature_store import ZooManifest, load_domain_features
from .gaussian_profile import DEFAULT_QUANTILE, DEFAULT_SHRINKAGE, dataset_diversity

SCHEMA_VERSION = 1
PROFILE_KIND = "shift_profile"
TRAIN_KIND = "train_run"


def dumps_report(report: Mapping) -> str:
    """Canonical serialization; identical content gives identical bytes."""
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_report(report: Mapping, path: Path | str) -> None:
    Path(path).write_text(dumps_report(report), encoding="utf-8")


def read_report(path: Path | str) -> dict:
    """Load a report, checking its schema version, kind, dataset name, seed and numbers."""
    try:
        report = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValidationError(f"cannot read report: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"report is not valid JSON: {exc}") from exc
    if not isinstance(report, dict):
        raise ValidationError("report must be a JSON object")
    version = report.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported report schema version {version!r}, expected {SCHEMA_VERSION}"
        )
    if report.get("kind") not in (PROFILE_KIND, TRAIN_KIND):
        raise ValidationError(f"unknown report kind {report.get('kind')!r}")
    if not isinstance(report.get("dataset_name"), str):
        raise ValidationError("report has no string 'dataset_name'")
    seed = report.get("seed", 0)
    if type(seed) is not int or seed < 0:  # bool is no seed
        raise ValidationError(f"report {path}: seed is {seed!r}; it must be a non-negative integer")
    _check_finite(report, "report")
    return report


def _check_finite(node, path: str) -> None:
    """Reject the NaN and Infinity that json.loads accepts, naming where they are."""
    if isinstance(node, float) and not math.isfinite(node):
        raise ValidationError(f"{path} is {node}; numbers in a report must be finite")
    if isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            name = value.get("encoder_id", key) if isinstance(value, dict) else key
            _check_finite(value, f"{path}[{name!r}]")


def profile_encoder(
    manifest: ZooManifest,
    encoder_id: str,
    seed: int = 0,
    shrinkage: float = DEFAULT_SHRINKAGE,
    quantile: float = DEFAULT_QUANTILE,
    n_bins: int = DEFAULT_BINS,
) -> dict:
    """Profile one encoder across all domain pairs of the manifest."""
    sets = [
        load_domain_features(manifest, encoder_id, d.domain_id, seed=seed)
        for d in manifest.domains
    ]
    f_div, div_pairs = dataset_diversity(sets, shrinkage=shrinkage, quantile=quantile)
    f_cor, cor_pairs = dataset_correlation(sets, div_pairs, manifest.n_classes, n_bins=n_bins)
    pairs = []
    for key in sorted(div_pairs):
        dp, cp = div_pairs[key], cor_pairs[key]
        pairs.append(
            {
                "domain_a": dp.domain_a,
                "domain_b": dp.domain_b,
                "f_div": dp.f_div,
                "f_cor": cp.f_cor,
                "escape_prob_a": float(dp.escape_a.mean()),
                "escape_prob_b": float(dp.escape_b.mean()),
                "overlap_count_a": cp.n_overlap_a,
                "overlap_count_b": cp.n_overlap_b,
                "empty_overlap": cp.empty_overlap,
            }
        )
    return {
        "encoder_id": encoder_id,
        "dim": manifest.encoder(encoder_id).dim,
        "f_div": f_div,
        "f_cor": f_cor,
        "pairs": pairs,
    }


def build_report(
    manifest: ZooManifest,
    encoder_ids: Sequence[str] | None = None,
    jobs: int | None = None,
    seed: int = 0,
    shrinkage: float = DEFAULT_SHRINKAGE,
    quantile: float = DEFAULT_QUANTILE,
    n_bins: int = DEFAULT_BINS,
) -> dict:
    """Profile the encoder grid in parallel; output independent of `jobs`.

    ``jobs`` defaults to the usable CPU count. At most ``min(jobs, usable
    CPUs, encoders)`` encoders are profiled at once, one of them on the
    calling thread and the rest on the process's one worker pool
    (``blas_threads.run_tasks``), so repeated calls start no new threads.
    OpenBLAS runs on one thread for the whole grid, so the workers do not
    compete with BLAS threads and every BLAS result is the same for any
    ``jobs`` and any ``OPENBLAS_NUM_THREADS``. The previous thread count is
    restored on return.
    """
    known = [e.encoder_id for e in manifest.encoders]
    if encoder_ids is None:
        encoder_ids = known
    else:
        for enc_id in encoder_ids:
            if enc_id not in known:
                raise ValidationError(f"unknown encoder id '{enc_id}' in manifest")
    todo = sorted(set(encoder_ids))
    if not todo:
        raise ValidationError("no encoders selected to profile")

    if jobs is not None and jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")
    tasks = [
        partial(profile_encoder, manifest, enc_id, seed=seed, shrinkage=shrinkage,
                quantile=quantile, n_bins=n_bins)
        for enc_id in todo
    ]
    with single_blas_thread():
        profiles = run_tasks(tasks, jobs or usable_cpus())
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": PROFILE_KIND,
        "tool_version": __version__,
        "dataset_name": manifest.dataset_name,
        "n_classes": manifest.n_classes,
        "domains": [d.domain_id for d in manifest.domains],
        "seed": seed,
        "config": {
            "shrinkage": shrinkage,
            "quantile": quantile,
            "n_bins": n_bins,
            "split_ratio": manifest.split_ratio,
        },
        "encoders": profiles,
    }


def report_scores(report: Mapping) -> dict[str, tuple[float, float]]:
    """Extract {encoder_id: (f_div, f_cor)} from a profile report."""
    if report.get("kind") != PROFILE_KIND:
        raise ValidationError("ranking needs a shift-profile report")
    encoders = report.get("encoders")
    if not encoders:
        raise ValidationError("report lists no encoders")
    out = {}
    for entry in encoders:
        try:
            encoder_id, f_div, f_cor = entry["encoder_id"], entry["f_div"], entry["f_cor"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed encoder entry in report: {exc}") from exc
        if not isinstance(encoder_id, str):
            raise ValidationError(f"encoder id {encoder_id!r} in report is not a string")
        for key, value in (("f_div", f_div), ("f_cor", f_cor)):
            if type(value) not in (int, float) or not math.isfinite(value):  # bool is no score
                raise ValidationError(
                    f"encoder '{encoder_id}' has {key} = {value!r}; scores must be finite numbers"
                )
        out[encoder_id] = (float(f_div), float(f_cor))
    return out


def select_auxiliaries(
    scores: Mapping[str, tuple[float, float]], main_encoder_id: str
) -> tuple[str, str]:
    """Pick the diversity and correlation auxiliaries from profiled scores.

    ``scores`` maps encoder id to (f_div, f_cor). The main encoder is
    excluded; ties break toward the lexicographically smallest id.
    """
    candidates = {k: v for k, v in scores.items() if k != main_encoder_id}
    if not candidates:
        raise ValidationError("no auxiliary candidates besides the main encoder")
    div_id = min(candidates, key=lambda k: (-candidates[k][0], k))
    cor_id = min(candidates, key=lambda k: (-candidates[k][1], k))
    return div_id, cor_id


def rank_lines(report: Mapping, main_encoder_id: str | None = None) -> str:
    """Sorted listings by each shift axis plus the suggested auxiliaries."""
    scores = report_scores(report)
    if main_encoder_id is not None and main_encoder_id not in scores:
        raise ValidationError(f"unknown encoder id '{main_encoder_id}' in report")
    width = max(len(e) for e in scores)
    lines = [f"dataset: {report['dataset_name']}", ""]
    for title, idx in (("by f_div", 0), ("by f_cor", 1)):
        lines.append(title)
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1][idx], kv[0]))
        for rank_pos, (enc, sc) in enumerate(ranked, start=1):
            lines.append(f"  {rank_pos}. {enc:<{width}}  f_div={sc[0]:.6f}  f_cor={sc[1]:.6f}")
        lines.append("")
    div_aux, cor_aux = select_auxiliaries(scores, main_encoder_id or "")
    suffix = f" (main: {main_encoder_id})" if main_encoder_id else ""
    lines.append(f"suggested auxiliaries{suffix}: diversity={div_aux} correlation={cor_aux}")
    return "\n".join(lines) + "\n"


def _check_one_dataset(reports: Sequence[Mapping]) -> None:
    if not reports:
        raise ValidationError("need at least one report")
    names = {r.get("dataset_name") for r in reports}
    if len(names) != 1:
        raise ValidationError(f"reports mix dataset names: {sorted(map(str, names))}")


def comparison_table(reports: Sequence[Mapping]) -> str:
    """Aligned per-encoder table across reports; datasets must match."""
    _check_one_dataset(reports)
    rows = []
    for rep in reports:
        for enc, (f_div, f_cor) in sorted(report_scores(rep).items()):
            rows.append((rep.get("seed", 0), enc, f_div, f_cor))
    rows.sort(key=lambda r: (r[0], r[1]))
    header = ("seed", "encoder", "f_div", "f_cor")
    cells = [header] + [(str(s), e, f"{d:.6f}", f"{c:.6f}") for s, e, d, c in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(4)]
    lines = [f"dataset: {reports[0]['dataset_name']}"]
    for row in cells:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def scatter_csv(reports: Sequence[Mapping]) -> str:
    """Plot-ready rows, one per (report, encoder)."""
    _check_one_dataset(reports)
    lines = ["encoder_id,f_div,f_cor"]
    for rep in reports:
        for enc, (f_div, f_cor) in sorted(report_scores(rep).items()):
            # quoted as csv.writer does; it leaves a lone CR unquoted before Python 3.13
            if any(c in enc for c in ',"\r\n'):
                enc = '"' + enc.replace('"', '""') + '"'
            lines.append(f"{enc},{f_div!r},{f_cor!r}")
    return "\n".join(lines) + "\n"


def _json_safe_config(config: Mapping) -> dict:
    out = {}
    for key, value in config.items():
        if isinstance(value, float) and math.isinf(value):
            out[key] = "inf"
        else:
            out[key] = value
    return out


def train_run_report(
    manifest: ZooManifest,
    encoder_ids: Mapping[str, str | None],
    config_echo: Mapping,
    folds: Iterable[Mapping],
    seed: int,
) -> dict:
    """Assemble the run report for a training invocation.

    Only the effective hyperparameters are echoed, not the mode name that
    produced them: a run of mode 'both' with lambda=0 and T=inf is the same
    run as mode 'erm' and serializes identically.
    """
    fold_list = sorted(folds, key=lambda f: f["target_domain"])
    if not fold_list:
        raise ValidationError("training produced no folds")
    mean = lambda key: sum(f[key] for f in fold_list) / len(fold_list)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": TRAIN_KIND,
        "tool_version": __version__,
        "dataset_name": manifest.dataset_name,
        "encoders": dict(encoder_ids),
        "config": _json_safe_config(config_echo),
        "seed": seed,
        "folds": fold_list,
        "summary": {
            "mean_final_test_accuracy": mean("final_test_accuracy"),
            "mean_best_test_accuracy": mean("best_test_accuracy"),
            "mean_logit_f_div": mean("logit_f_div"),
            "mean_logit_f_cor": mean("logit_f_cor"),
        },
    }
