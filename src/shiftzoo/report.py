"""Versioned shift reports: profiling grids, rankings, tables, and CSV.

A shift report captures, for every profiled encoder, the per-domain-pair
diversity and correlation shifts plus their pair-averaged summaries. Reports
are canonical JSON (``feature_store.write_json``) so the same inputs always
serialize to the same bytes; nothing time- or path-dependent is stored. A
report is read back through ``read_report`` and checked against the spec of
its kind, ``PROFILE_SPEC`` or ``RUN_SPEC``.
"""

from __future__ import annotations

import math
from functools import partial
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import __version__
from .blas_threads import check_memory, run_tasks, single_blas_thread, usable_cpus
from .correlation_profile import DEFAULT_BINS, dataset_correlation
from .errors import ShiftZooError, ValidationError
from .feature_store import ZooManifest, check_json, load_domain_features, read_json, write_json
from .gaussian_profile import DEFAULT_QUANTILE, DEFAULT_SHRINKAGE, dataset_diversity

SCHEMA_VERSION = 1
PROFILE_KIND = "shift_profile"
TRAIN_KIND = "train_run"


# The JSON specs of the two report kinds (see feature_store.check_json)
_HEADER = {"schema_version": SCHEMA_VERSION, "tool_version": str, "dataset_name": str}
_PAIR = {
    "domain_a": str, "domain_b": str, "f_div": float, "f_cor": float, "escape_prob_a": float,
    "escape_prob_b": float, "overlap_count_a": slice(0, None), "overlap_count_b": slice(0, None),
    "empty_overlap": bool,
}
PROFILE_SPEC = {
    **_HEADER,
    "kind": PROFILE_KIND,
    "n_classes": slice(1, 2**32),
    "domains": [str],
    "seed": (slice(0, None), ...),
    "config": {"shrinkage": float, "quantile": float, "n_bins": int, "split_ratio": float},
    "encoders": [{"encoder_id": str, "dim": int, "f_div": float, "f_cor": float, "pairs": [_PAIR]}],
}
FOLD_SPEC = {
    "target_domain": str, "final_val_accuracy": float, "best_val_accuracy": float,
    "best_step": int, "final_test_accuracy": float, "best_test_accuracy": float,
    "logit_f_div": float, "logit_f_cor": float,
}
RUN_SPEC = {
    **_HEADER,
    "kind": TRAIN_KIND,
    "encoders": {"main": str, "div_aux": (str, None), "rew_aux": (str, None)},
    "config": {str: (float, "inf")},  # "inf" is T = infinity
    "seed": slice(0, None),
    "folds": [FOLD_SPEC],
    "summary": {"mean_final_test_accuracy": float, "mean_best_test_accuracy": float,
                "mean_logit_f_div": float, "mean_logit_f_cor": float},
}

# what ``report_scores`` reads of a profile report, which may hold anything else
_SCORES = {"kind": PROFILE_KIND, "encoders": [
    {"encoder_id": str, "f_div": float, "f_cor": float, str: object}], str: object}


def write_report(report: Mapping, path: Path | str) -> None:
    write_json(path, report)


def read_report(path: Path | str, kind: str | None = None) -> dict:
    """Load a report, checked against the spec of its kind; with ``kind``, a
    report of another kind is refused, naming the file. So is a profile
    report that lists an encoder id more than once."""
    report = read_json(path, "report", lambda doc: RUN_SPEC if type(doc) is dict
                       and doc.get("kind") == TRAIN_KIND else PROFILE_SPEC)
    if kind is not None:
        check_json(report, {"kind": kind, str: object}, f"report {path}")
    if report["kind"] == PROFILE_KIND:
        _check_encoder_ids(report, f"report {path}")
    return report


def _check_encoder_ids(report: Mapping, where: str) -> None:
    """Refuse a profile report that lists an encoder id more than once."""
    seen = set()
    for enc_id in (e["encoder_id"] for e in report["encoders"]):
        if enc_id in seen:
            raise ValidationError(f"{where}: encoder id '{enc_id}' is listed more than once")
        seen.add(enc_id)


def profile_encoder(
    manifest: ZooManifest,
    encoder_id: str,
    seed: int = 0,
    shrinkage: float = DEFAULT_SHRINKAGE,
    quantile: float = DEFAULT_QUANTILE,
    n_bins: int = DEFAULT_BINS,
) -> dict:
    """Profile one encoder across all domain pairs of the manifest. An error
    of its estimators begins "encoder 'X': "; one of its feature files names
    the file."""
    sets = [
        load_domain_features(manifest, encoder_id, d.domain_id, seed=seed)
        for d in manifest.domains
    ]
    try:
        f_div, div_pairs = dataset_diversity(sets, shrinkage=shrinkage, quantile=quantile)
        f_cor, cor_pairs = dataset_correlation(sets, div_pairs, manifest.n_classes, n_bins=n_bins)
    except ShiftZooError as exc:
        raise type(exc)(f"encoder '{encoder_id}': {exc}") from exc
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
    restored on return. Before any feature is read, a ``MemoryError``
    refuses a grid whose encoders profiled at once, taken as the widest,
    hold more features than the physical memory.
    """
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    for enc_id in encoder_ids or ():
        manifest.encoder(enc_id)  # raises naming an unknown id
    todo = sorted(set(manifest.encoder_ids if encoder_ids is None else encoder_ids))
    if not todo:
        raise ValidationError("no encoders selected to profile")

    if jobs is not None and jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")
    jobs = jobs or usable_cpus()
    # the encoders profiled at once hold their domains' features: at worst the widest
    at_once = min(jobs, usable_cpus(), len(todo))
    rows = sum(d.n_samples for d in manifest.domains)
    widest = sorted((manifest.encoder(e).dim for e in todo), reverse=True)[:at_once]
    check_memory("profile", 4 * rows * sum(widest),
                 f"features (the domains of its {at_once} widest encoders, profiled at once "
                 f"under --jobs {jobs})", "; lower --jobs")
    tasks = [
        partial(profile_encoder, manifest, enc_id, seed=seed, shrinkage=shrinkage,
                quantile=quantile, n_bins=n_bins)
        for enc_id in todo
    ]
    with single_blas_thread():
        profiles = run_tasks(tasks, jobs)
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
    check_json(report, _SCORES, "report")
    if not report["encoders"]:
        raise ValidationError("report lists no encoders")
    _check_encoder_ids(report, "report")
    return {e["encoder_id"]: (float(e["f_div"]), float(e["f_cor"])) for e in report["encoders"]}


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
        "config": {k: "inf" if v == math.inf else v for k, v in config_echo.items()},
        "seed": seed,
        "folds": fold_list,
        "summary": {
            "mean_final_test_accuracy": mean("final_test_accuracy"),
            "mean_best_test_accuracy": mean("best_test_accuracy"),
            "mean_logit_f_div": mean("logit_f_div"),
            "mean_logit_f_cor": mean("logit_f_cor"),
        },
    }
