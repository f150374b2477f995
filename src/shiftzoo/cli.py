"""Command-line surface: synth -> profile -> rank -> train -> report.

Every command is deterministic given its inputs and seed: repeated runs
write byte-identical files and stdout. Settings resolve in precedence
order defaults < config file < explicit flags, and from nothing else. The
parameters are the library's own (``SynthSpec`` and ``build_zoo``,
``build_report``, ``TrainConfig``): each one's default, flag, config key and
value type come from its declaration there.

Exit codes: 0 success, 1 runtime failure, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import inspect
import math
import sys
from dataclasses import fields
from pathlib import Path
from typing import Callable, Mapping, Sequence

# dataset_correlation is not called here: perfbench/tests checks that the
# tracer rebinds cli.dataset_correlation, so the name must exist
from .correlation_profile import dataset_correlation  # noqa: F401
from .ensemble_train import MODES, Fold, TrainConfig, apply_mode, train
from .errors import ShiftZooError, ValidationError
from .feature_store import load_manifest, read_json
from .report import (
    FOLD_SPEC,
    PROFILE_KIND,
    build_report,
    comparison_table,
    rank_lines,
    read_report,
    scatter_csv,
    train_run_report,
    write_report,
)
from .synthetic_dg import SynthSpec, build_zoo


def _keyword_defaults(func: Callable, skip: Sequence[str]) -> dict:
    return {
        name: p.default
        for name, p in inspect.signature(func).parameters.items()
        if p.default is not p.empty and name not in skip
    }


SYNTH_PARAMS = {
    **{f.name: f.default for f in fields(SynthSpec)},
    **_keyword_defaults(build_zoo, skip=("out_dir",)),
}
PROFILE_PARAMS = _keyword_defaults(build_report, skip=("encoder_ids",))
TRAIN_PARAMS = {f.name: f.default for f in fields(TrainConfig)}


def _strengths(value: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in value.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad spur strength list {value!r}") from None


# How a parameter's flag differs from `--<name>` taking the library default's type.
_FLAG_EXCEPTIONS = {
    "samples_per_domain": {"flag": "--samples"},
    "spur_strength": {"type": _strengths, "help": "comma-separated, one per domain"},
    "jobs": {
        "type": int,
        "help": "profile min(JOBS, usable CPUs, encoders) encoders at once "
        "(default: usable CPUs)",
    },
    "n_bins": {"flag": "--bins", "metavar": "BINS"},
    "n_warmup": {"flag": "--warmup"},
    "n_anneal": {"flag": "--anneal"},
    "learning_rate": {"flag": "--lr"},
}

# The JSON spec of a config value, per flag parser (see feature_store.check_json);
# JSON's Infinity is `--temperature inf`
_JSON_SPECS = {int: int, float: (float, math.inf), str: str, _strengths: [float]}


def _flag(name: str, default) -> tuple[str, dict]:
    """The flag of one library parameter and its ``add_argument`` keywords."""
    kwargs = {"type": type(default), **_FLAG_EXCEPTIONS.get(name, {})}
    return kwargs.pop("flag", "--" + name.replace("_", "-")), kwargs


def _add_params(parser: argparse.ArgumentParser, params: Mapping) -> None:
    for name, default in params.items():
        flag, kwargs = _flag(name, default)
        parser.add_argument(flag, dest=name, **kwargs)


def _load_config_file(path: str | None, defaults: Mapping) -> dict:
    """The config file's values, each checked against its JSON spec and of its flag's type."""
    if path is None:
        return {}
    parsers = {key: _flag(key, default)[1]["type"] for key, default in defaults.items()}
    raw = read_json(path, "config file", {k: (_JSON_SPECS[p], ...) for k, p in parsers.items()})
    return {key: tuple(map(float, value)) if type(value) is list else parsers[key](value)
            for key, value in raw.items()}


def _params(args: argparse.Namespace, defaults: Mapping) -> dict:
    """defaults < config file < explicit flags."""
    merged = {**defaults, **_load_config_file(args.config, defaults)}
    merged.update({key: getattr(args, key) for key in defaults if getattr(args, key) is not None})
    return merged


def cmd_synth(args: argparse.Namespace) -> int:
    params = _params(args, SYNTH_PARAMS)
    spec = {f.name: params.pop(f.name) for f in fields(SynthSpec)}
    manifest, encoders, _ = build_zoo(SynthSpec(**spec), out_dir=args.out, **params)
    print(f"dataset: {manifest.dataset_name}")
    print(f"domains: {' '.join(manifest.domain_ids)}")
    print(f"encoders: {' '.join(sorted(e.encoder_id for e in encoders))}")
    print(f"wrote manifest.json and ground_truth.json under {args.out}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    params = _params(args, PROFILE_PARAMS)
    manifest = load_manifest(args.manifest)
    report = build_report(manifest, encoder_ids=args.encoder or None, **params)
    write_report(report, args.out)
    print(f"profiled {len(report['encoders'])} encoders -> {args.out}")
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    report = read_report(args.report, PROFILE_KIND)
    sys.stdout.write(rank_lines(report, args.main))
    return 0


def _fold_record(fold: Fold) -> dict:
    """A fold's run-report record: each field of ``FOLD_SPEC``, from the fold or its result."""
    return {key: getattr(fold if hasattr(fold, key) else fold.result, key) for key in FOLD_SPEC}


def _write_train_log(path: str, folds: Sequence[Fold], config: TrainConfig) -> None:
    lines, lr = [], config.learning_rate
    for fold in folds:
        lines.append(f"# fold target={fold.target_domain}")
        lines += [f"step={step} ce={ce!r} hsic={hsic!r} mean_weight={weight!r} lr={lr!r}"
                  for step, (ce, hsic, weight) in enumerate(fold.result.log.tolist())]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_train(args: argparse.Namespace) -> int:
    params = _params(args, TRAIN_PARAMS)
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
        _write_train_log(args.log, folds, config)
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
    reports = [read_report(p, PROFILE_KIND) for p in args.reports]
    sys.stdout.write(comparison_table(reports))
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
    _add_params(p_synth, SYNTH_PARAMS)
    p_synth.set_defaults(handler=cmd_synth)

    p_profile = sub.add_parser("profile", help="profile encoders over all domain pairs")
    p_profile.add_argument("--manifest", required=True)
    p_profile.add_argument("--out", required=True, help="report path")
    p_profile.add_argument("--config", help="JSON config file")
    p_profile.add_argument(
        "--encoder", action="append", help="restrict to this encoder (repeatable)"
    )
    _add_params(p_profile, PROFILE_PARAMS)
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
    _add_params(p_train, TRAIN_PARAMS)
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
    except (ShiftZooError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValidationError) else 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
