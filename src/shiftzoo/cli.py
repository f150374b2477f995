"""Command-line surface: synth -> profile -> rank -> train -> report.

Every command is deterministic given its inputs and seed: repeated runs
write byte-identical files and stdout. Settings resolve in precedence
order defaults < config file < SHIFTZOO_SEED < explicit flags.

Exit codes: 0 success, 1 runtime failure, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Mapping, Sequence

# dataset_correlation is not called here: perfbench/tests checks that the
# tracer rebinds cli.dataset_correlation, so the name must exist
from .correlation_profile import DEFAULT_BINS, dataset_correlation  # noqa: F401
from .ensemble_train import MODES, Fold, TrainConfig, apply_mode, train
from .errors import ShiftZooError, ValidationError
from .feature_store import load_manifest
from .gaussian_profile import DEFAULT_QUANTILE, DEFAULT_SHRINKAGE
from .report import (
    build_report,
    comparison_table,
    rank_lines,
    read_report,
    scatter_csv,
    train_run_report,
    write_report,
)
from .synthetic_dg import SynthSpec, build_zoo

SEED_ENV = "SHIFTZOO_SEED"

SYNTH_PARAMS = {
    "n_domains": 3,
    "n_classes": 4,
    "dim_core": 8,
    "dim_div": 4,
    "dim_spur": 4,
    "samples_per_domain": 2000,
    "spur_strength": (0.9, 0.9, -0.9),
    "div_offset": 2.5,
    "noise_sigma": 1.0,
    "seed": 0,
    "zoo_size": 6,
    "split_ratio": 0.2,
    "dataset_name": "synth",
}

PROFILE_PARAMS = {
    "seed": 0,
    "jobs": None,
    "shrinkage": DEFAULT_SHRINKAGE,
    "quantile": DEFAULT_QUANTILE,
    "n_bins": DEFAULT_BINS,
}

TRAIN_PARAMS = {f.name: f.default for f in TrainConfig.__dataclass_fields__.values()}


def _load_config_file(path: str | None, allowed: Mapping) -> dict:
    if path is None:
        return {}
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValidationError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError("config file must hold a JSON object")
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise ValidationError(f"unknown config keys: {unknown}")
    return raw


def _env_seed() -> int | None:
    value = os.environ.get(SEED_ENV)
    if value is None:
        return None
    try:
        return int(value)
    except ValueError:
        raise ValidationError(f"{SEED_ENV} must be an integer, got {value!r}") from None


def _merge(defaults: Mapping, config: Mapping, flags: Mapping) -> dict:
    """defaults < config file < SHIFTZOO_SEED < explicit flags."""
    merged = dict(defaults)
    merged.update(config)
    env_seed = _env_seed()
    if env_seed is not None and "seed" in merged:
        merged["seed"] = env_seed
    merged.update({k: v for k, v in flags.items() if v is not None})
    return merged


def _strengths(value) -> tuple[float, ...]:
    if isinstance(value, str):
        try:
            return tuple(float(part) for part in value.split(","))
        except ValueError:
            raise ValidationError(f"bad spur strength list {value!r}") from None
    return tuple(float(v) for v in value)


def cmd_synth(args: argparse.Namespace) -> int:
    flags = {
        key: getattr(args, key)
        for key in SYNTH_PARAMS
        if getattr(args, key, None) is not None
    }
    params = _merge(SYNTH_PARAMS, _load_config_file(args.config, SYNTH_PARAMS), flags)
    zoo_size = params.pop("zoo_size")
    split_ratio = params.pop("split_ratio")
    dataset_name = params.pop("dataset_name")
    params["spur_strength"] = _strengths(params["spur_strength"])
    spec = SynthSpec(**params)
    manifest, encoders, _ = build_zoo(
        spec,
        zoo_size=zoo_size,
        out_dir=args.out,
        split_ratio=split_ratio,
        dataset_name=dataset_name,
    )
    print(f"dataset: {manifest.dataset_name}")
    print(f"domains: {' '.join(manifest.domain_ids)}")
    print(f"encoders: {' '.join(sorted(e.encoder_id for e in encoders))}")
    print(f"wrote manifest.json and ground_truth.json under {args.out}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    flags = {
        "seed": args.seed,
        "jobs": args.jobs,
        "shrinkage": args.shrinkage,
        "quantile": args.quantile,
        "n_bins": args.bins,
    }
    params = _merge(PROFILE_PARAMS, _load_config_file(args.config, PROFILE_PARAMS), flags)
    manifest = load_manifest(args.manifest)
    report = build_report(
        manifest,
        encoder_ids=args.encoder or None,
        jobs=params["jobs"],
        seed=params["seed"],
        shrinkage=params["shrinkage"],
        quantile=params["quantile"],
        n_bins=params["n_bins"],
    )
    write_report(report, args.out)
    print(f"profiled {len(report['encoders'])} encoders -> {args.out}")
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    report = read_report(args.report)
    sys.stdout.write(rank_lines(report, args.main))
    return 0


def _fold_record(fold: Fold) -> dict:
    result = fold.result
    return {
        "target_domain": fold.target_domain,
        "final_val_accuracy": result.final_val_accuracy,
        "best_val_accuracy": result.best_val_accuracy,
        "best_step": result.best_step,
        "final_test_accuracy": result.final_test_accuracy,
        "best_test_accuracy": result.best_test_accuracy,
        "logit_f_div": fold.logit_f_div,
        "logit_f_cor": fold.logit_f_cor,
    }


def _write_train_log(path: str, folds: Sequence[Fold]) -> None:
    lines = []
    for fold in folds:
        lines.append(f"# fold target={fold.target_domain}")
        for s in fold.result.log:
            lines.append(
                f"step={s.step} ce={s.ce!r} hsic={s.hsic!r} "
                f"mean_weight={s.mean_weight!r} lr={s.lr!r}"
            )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_train(args: argparse.Namespace) -> int:
    flags = {
        key: getattr(args, key)
        for key in TRAIN_PARAMS
        if getattr(args, key, None) is not None
    }
    params = _merge(TRAIN_PARAMS, _load_config_file(args.config, TRAIN_PARAMS), flags)
    manifest = load_manifest(args.manifest)
    for enc_id in (args.main, args.div_aux, args.rew_aux):
        if enc_id is not None:
            manifest.encoder(enc_id)  # raises with the offending id
    config = apply_mode(TrainConfig(**params), args.mode)
    targets = [args.target] if args.target else manifest.domain_ids
    folds = train(manifest, args.main, args.div_aux, args.rew_aux, config, targets)
    report = train_run_report(
        manifest,
        encoder_ids={"main": args.main, "div_aux": args.div_aux, "rew_aux": args.rew_aux},
        config_echo={k: getattr(config, k) for k in TRAIN_PARAMS},
        folds=[_fold_record(f) for f in folds],
        seed=config.seed,
    )
    write_report(report, args.out)
    if args.log:
        _write_train_log(args.log, folds)
    for fold in report["folds"]:
        print(
            f"fold target={fold['target_domain']} "
            f"final_test={fold['final_test_accuracy']:.6f} "
            f"best_test={fold['best_test_accuracy']:.6f} "
            f"logit_f_div={fold['logit_f_div']:.6f} "
            f"logit_f_cor={fold['logit_f_cor']:.6f}"
        )
    summary = report["summary"]
    print(
        f"mean final_test={summary['mean_final_test_accuracy']:.6f} "
        f"logit_f_div={summary['mean_logit_f_div']:.6f} "
        f"logit_f_cor={summary['mean_logit_f_cor']:.6f}"
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    reports = [read_report(p) for p in args.reports]
    table = comparison_table(reports)
    sys.stdout.write(table)
    if args.csv:
        Path(args.csv).write_text(scatter_csv(reports), encoding="utf-8")
        print(f"wrote scatter csv -> {args.csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftzoo",
        description="Profile encoder zoos for diversity/correlation shift and "
        "train shift-aware classifier heads.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a planted-shift dataset and encoder zoo")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.add_argument("--config", help="JSON config file")
    p_synth.add_argument("--n-domains", dest="n_domains", type=int)
    p_synth.add_argument("--n-classes", dest="n_classes", type=int)
    p_synth.add_argument("--dim-core", dest="dim_core", type=int)
    p_synth.add_argument("--dim-div", dest="dim_div", type=int)
    p_synth.add_argument("--dim-spur", dest="dim_spur", type=int)
    p_synth.add_argument("--samples", dest="samples_per_domain", type=int)
    p_synth.add_argument(
        "--spur-strength", dest="spur_strength", help="comma-separated, one per domain"
    )
    p_synth.add_argument("--div-offset", dest="div_offset", type=float)
    p_synth.add_argument("--noise-sigma", dest="noise_sigma", type=float)
    p_synth.add_argument("--seed", type=int)
    p_synth.add_argument("--zoo-size", dest="zoo_size", type=int)
    p_synth.add_argument("--split-ratio", dest="split_ratio", type=float)
    p_synth.add_argument("--dataset-name", dest="dataset_name")
    p_synth.set_defaults(handler=cmd_synth)

    p_profile = sub.add_parser("profile", help="profile encoders over all domain pairs")
    p_profile.add_argument("--manifest", required=True)
    p_profile.add_argument("--out", required=True, help="report path")
    p_profile.add_argument("--config", help="JSON config file")
    p_profile.add_argument(
        "--encoder", action="append", help="restrict to this encoder (repeatable)"
    )
    p_profile.add_argument(
        "--jobs", type=int, help="parallel workers for the grid (default: usable CPUs)"
    )
    p_profile.add_argument("--seed", type=int)
    p_profile.add_argument("--shrinkage", type=float)
    p_profile.add_argument("--quantile", type=float)
    p_profile.add_argument("--bins", type=int)
    p_profile.set_defaults(handler=cmd_profile)

    p_rank = sub.add_parser("rank", help="rank a profile report and suggest auxiliaries")
    p_rank.add_argument("--report", required=True)
    p_rank.add_argument("--main", help="main encoder id to exclude from suggestions")
    p_rank.set_defaults(handler=cmd_rank)

    p_train = sub.add_parser("train", help="train a head with optional HSIC/reweighting")
    p_train.add_argument("--manifest", required=True)
    p_train.add_argument("--out", required=True, help="run report path")
    p_train.add_argument("--log", help="line-per-step training log path")
    p_train.add_argument("--config", help="JSON config file")
    p_train.add_argument("--main", required=True, help="main encoder id")
    p_train.add_argument("--div-aux", dest="div_aux", help="diversity auxiliary encoder id")
    p_train.add_argument("--rew-aux", dest="rew_aux", help="correlation auxiliary encoder id")
    p_train.add_argument("--mode", choices=MODES, default="both")
    p_train.add_argument("--target", help="single target domain (default: all folds)")
    p_train.add_argument("--lam", type=float)
    p_train.add_argument("--gamma1", type=float)
    p_train.add_argument("--gamma2", type=float)
    p_train.add_argument("--temperature", type=float)
    p_train.add_argument("--warmup", dest="n_warmup", type=int)
    p_train.add_argument("--anneal", dest="n_anneal", type=int)
    p_train.add_argument("--lr", dest="learning_rate", type=float)
    p_train.add_argument("--weight-decay", dest="weight_decay", type=float)
    p_train.add_argument("--batch-size", dest="batch_size", type=int)
    p_train.add_argument("--steps", type=int)
    p_train.add_argument("--dropout", type=float)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--eval-every", dest="eval_every", type=int)
    p_train.add_argument("--aux-lr", dest="aux_lr", type=float)
    p_train.add_argument("--aux-steps", dest="aux_steps", type=int)
    p_train.add_argument("--aux-batch-size", dest="aux_batch_size", type=int)
    p_train.set_defaults(handler=cmd_train)

    p_report = sub.add_parser("report", help="combine profile reports into a table and CSV")
    p_report.add_argument("reports", nargs="+", help="profile report paths")
    p_report.add_argument("--csv", help="scatter CSV output path")
    p_report.set_defaults(handler=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ShiftZooError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
