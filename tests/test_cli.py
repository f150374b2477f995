"""CLI pipeline: determinism, exit codes, precedence, and report surfaces."""

import hashlib
import inspect
import json
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import shiftzoo
from shiftzoo import blas_threads, cli, feature_store
from shiftzoo.cli import PROFILE_PARAMS, SYNTH_PARAMS, TRAIN_PARAMS, main
from shiftzoo.ensemble_train import TrainConfig
from shiftzoo.feature_store import load_manifest
from shiftzoo.report import build_report
from shiftzoo.synthetic_dg import SynthSpec, build_zoo

HELP_DIR = Path(__file__).resolve().parent / "cli_help"


@pytest.fixture(scope="module")
def zoo_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("zoo")
    code = main(["synth", "--out", str(out), "--samples", "400", "--seed", "1"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def profile_path(zoo_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("reports") / "profile.json"
    code = main(
        ["profile", "--manifest", str(zoo_dir / "manifest.json"), "--out", str(out)]
    )
    assert code == 0
    return out


TRAIN_ARGS = [
    "--main", "main_full", "--div-aux", "div_heavy", "--rew-aux", "cor_heavy",
    "--target", "domain2", "--steps", "120", "--warmup", "20", "--anneal", "40",
    "--lr", "1e-3", "--batch-size", "32", "--aux-lr", "1e-2", "--aux-steps", "50",
    "--seed", "5",
]


def _train(zoo_dir, out, log, extra):
    return main(
        ["train", "--manifest", str(zoo_dir / "manifest.json"),
         "--out", str(out), "--log", str(log), *TRAIN_ARGS, *extra]
    )


def test_synth_is_byte_deterministic(tmp_path):
    for sub in ("a", "b"):
        assert main(["synth", "--out", str(tmp_path / sub), "--samples", "200"]) == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_profile_bytes_independent_of_jobs(zoo_dir, profile_path, tmp_path):
    for jobs in ("1", "4"):
        out = tmp_path / f"prof{jobs}.json"
        code = main(
            ["profile", "--manifest", str(zoo_dir / "manifest.json"),
             "--out", str(out), "--jobs", jobs]
        )
        assert code == 0
        assert out.read_bytes() == profile_path.read_bytes()


NO_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import shiftzoo.synthetic_dg
assert "shiftzoo.ensemble_train" not in sys.modules, "the generator imported the trainer"
from shiftzoo.cli import main
out = sys.argv[1]
manifest = out + "/manifest.json"
assert main(["synth", "--out", out, "--samples", "100", "--seed", "0"]) == 0
assert main(["profile", "--manifest", manifest, "--out", out + "/profile.json"]) == 0
assert main(["rank", "--report", out + "/profile.json", "--main", "main_full"]) == 0
assert main(["train", "--manifest", manifest, "--out", out + "/run.json", "--main", "main_full",
             "--div-aux", "div_heavy", "--rew-aux", "cor_heavy", "--mode", "both",
             "--target", "domain2", "--steps", "20"]) == 0
"""


def test_every_command_runs_without_scipy(tmp_path):
    """numpy is the one runtime dependency: synth, profile, rank and train run
    with scipy unimportable, and the generator imports no trainer."""
    src = str(Path(shiftzoo.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, str(tmp_path / "zoo")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "zoo" / "run.json").read_text())


def test_synth_bytes_independent_of_blas_threads(tmp_path):
    """A zoo of 1032-wide encoders under 1 and 2 OpenBLAS threads.

    Unpinned, LAPACK's QR gives the 1032-wide projections other last bits
    under two threads, and ``cor_heavy_domain1.fzf`` differs. ``synth`` pins
    OpenBLAS to one thread once for all its projections, so both runs write
    the same bytes.
    """
    src = str(Path(shiftzoo.__file__).resolve().parent.parent)
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items() if k != "OMP_NUM_THREADS"}
        env.update(OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "shiftzoo.cli", "synth", "--out", str(tmp_path / threads),
             "--seed", "0", "--samples", "1000", "--dim-core", "32", "--dim-div", "1000",
             "--dim-spur", "1000"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in (tmp_path / "1").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "2").iterdir())
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


def test_profile_bytes_independent_of_blas_threads(tmp_path):
    """One encoder of a 6-domain, 256-wide zoo under 1 and 2 OpenBLAS threads.

    Both runs pin OpenBLAS to one thread while profiling, so they write the
    same bytes; unpinned, this encoder's f_cor differs in the last digits.
    """
    zoo = tmp_path / "zoo"
    code = main(
        ["synth", "--out", str(zoo), "--seed", "0", "--samples", "4000", "--n-domains", "6",
         "--dim-core", "128", "--dim-div", "64", "--dim-spur", "64", "--zoo-size", "8",
         "--spur-strength", "0.9,0.9,0.9,0.9,0.9,-0.9"]
    )
    assert code == 0
    src = str(Path(shiftzoo.__file__).resolve().parent.parent)
    digests = {}
    for threads in ("1", "2"):
        out = tmp_path / f"profile-{threads}.json"
        env = {k: v for k, v in os.environ.items() if k != "OMP_NUM_THREADS"}
        env.update(OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "shiftzoo.cli", "profile", "--manifest",
             str(zoo / "manifest.json"), "--out", str(out), "--encoder", "main_full",
             "--seed", "0"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        digests[threads] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digests["1"] == digests["2"]


def test_train_bytes_independent_of_blas_threads(tmp_path):
    """``train`` on a 512-wide main encoder under 1 and 2 OpenBLAS threads.

    The 512 -> 256 -> 256 -> 4 head is wide enough that, given two CPUs, its
    products and its AdamW update are split over the worker pool. ``train``
    pins OpenBLAS to one thread, so both runs write the same bytes.
    """
    zoo = tmp_path / "zoo"
    code = main(
        ["synth", "--out", str(zoo), "--seed", "0", "--samples", "600", "--dim-core", "32",
         "--dim-div", "480", "--dim-spur", "480"]
    )
    assert code == 0
    src = str(Path(shiftzoo.__file__).resolve().parent.parent)
    digests = {}
    for threads in ("1", "2"):
        rep, log = tmp_path / f"train-{threads}.json", tmp_path / f"train-{threads}.log"
        env = {k: v for k, v in os.environ.items() if k != "OMP_NUM_THREADS"}
        env.update(OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "shiftzoo.cli", "train", "--manifest",
             str(zoo / "manifest.json"), "--out", str(rep), "--log", str(log), *TRAIN_ARGS,
             "--steps", "40", "--warmup", "10", "--anneal", "20", "--eval-every", "20"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        digests[threads] = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (rep, log)]
    assert digests["1"] == digests["2"]


def test_profile_filter_restricts_encoders(zoo_dir, tmp_path):
    out = tmp_path / "one.json"
    code = main(
        ["profile", "--manifest", str(zoo_dir / "manifest.json"),
         "--out", str(out), "--encoder", "clean"]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert [e["encoder_id"] for e in report["encoders"]] == ["clean"]


def test_profile_unknown_encoder_exits_2_naming_it(zoo_dir, tmp_path, capsys):
    code = main(
        ["profile", "--manifest", str(zoo_dir / "manifest.json"),
         "--out", str(tmp_path / "x.json"), "--encoder", "nope"]
    )
    assert code == 2
    assert "nope" in capsys.readouterr().err


def test_profile_report_averages_match_pairs(profile_path):
    report = json.loads(profile_path.read_text())
    for enc in report["encoders"]:
        for key in ("f_div", "f_cor"):
            mean = sum(p[key] for p in enc["pairs"]) / len(enc["pairs"])
            assert abs(enc[key] - mean) <= 1e-12


def test_rank_suggests_planted_extremes(profile_path, capsys):
    assert main(["rank", "--report", str(profile_path), "--main", "main_full"]) == 0
    out = capsys.readouterr().out
    assert "suggested auxiliaries (main: main_full): diversity=div_heavy correlation=cor_heavy" in out
    assert out.index("by f_div") < out.index("by f_cor")


def test_rank_rejects_bad_schema(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 99, "kind": "shift_profile"}))
    assert main(["rank", "--report", str(bad)]) == 2
    assert "schema" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["rank", "report"])
def test_report_without_dataset_name_exits_2(profile_path, tmp_path, capsys, command):
    report = json.loads(profile_path.read_text())
    del report["dataset_name"]
    bad = tmp_path / "nameless.json"
    bad.write_text(json.dumps(report))
    argv = ["rank", "--report", str(bad)] if command == "rank" else ["report", str(bad)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "dataset_name" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["rank", "report"])
@pytest.mark.parametrize(
    "key,score",
    [("f_div", "NaN"), ("f_cor", "Infinity"), ("f_div", "-Infinity"),
     ("f_cor", '"inf"'), ("f_div", '"0.5"'), ("f_cor", "true")],
)
def test_report_with_a_non_finite_or_non_number_score_exits_2(
    profile_path, tmp_path, capsys, command, key, score
):
    report = json.loads(profile_path.read_text())
    entry = report["encoders"][1]
    entry[key] = "SCORE"
    bad = tmp_path / "scores.json"
    bad.write_text(json.dumps(report).replace('"SCORE"', score))
    argv = ["rank", "--report", str(bad)] if command == "rank" else ["report", str(bad)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"$.encoders[1].{key} must be a finite number" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["rank", "report"])
def test_report_repeating_an_encoder_id_exits_2_naming_the_file_and_id(
    profile_path, tmp_path, capsys, command
):
    """A second record of an encoder, with other scores, would otherwise
    replace the first in the ranking and the table."""
    report = json.loads(profile_path.read_text())
    first = report["encoders"][0]
    report["encoders"].append({**first, "f_div": 0.0, "f_cor": 0.0})
    bad = tmp_path / "repeated.json"
    bad.write_text(json.dumps(report))
    argv = ["rank", "--report", str(bad)] if command == "rank" else ["report", str(bad)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: report {bad}: encoder id '{first['encoder_id']}' is listed more than once\n"
    )


@pytest.mark.parametrize("seed", ['"1"', "true", "false", "-1", "1.0", "null"])
def test_report_with_a_bad_seed_exits_2_naming_the_file(profile_path, tmp_path, capsys, seed):
    """A string seed used to end in a TypeError from the table's sort; true sorted as 1."""
    report = json.loads(profile_path.read_text())
    report["seed"] = "SEED"
    bad = tmp_path / "bad-seed.json"
    bad.write_text(json.dumps(report).replace('"SEED"', seed))
    assert main(["report", str(profile_path), str(bad)]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "seed" in err and "Traceback" not in err
    assert main(["rank", "--report", str(bad)]) == 2


def test_report_accepts_a_missing_or_non_negative_seed(profile_path, tmp_path, capsys):
    report = json.loads(profile_path.read_text())
    paths = []
    for seed in (None, 0, 7):
        if seed is None:
            report.pop("seed")
        else:
            report["seed"] = seed
        paths.append(tmp_path / f"seed-{seed}.json")
        paths[-1].write_text(json.dumps(report))
    assert main(["report", *map(str, paths)]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [row.split()[0] for row in rows] == ["0"] * (2 * len(report["encoders"])) + [
        "7"
    ] * len(report["encoders"])


def test_train_outputs_are_deterministic(zoo_dir, tmp_path, capsys):
    outs = []
    for sub in ("a", "b"):
        rep, log = tmp_path / f"{sub}.json", tmp_path / f"{sub}.log"
        assert _train(zoo_dir, rep, log, ["--mode", "both"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a.log").read_bytes() == (tmp_path / "b.log").read_bytes()


def test_train_mode_reduction_is_bit_identical(zoo_dir, tmp_path, capsys):
    rep_b, log_b = tmp_path / "both.json", tmp_path / "both.log"
    assert _train(zoo_dir, rep_b, log_b, ["--mode", "both", "--lam", "0", "--temperature", "inf"]) == 0
    out_b = capsys.readouterr().out
    rep_e, log_e = tmp_path / "erm.json", tmp_path / "erm.log"
    assert _train(zoo_dir, rep_e, log_e, ["--mode", "erm"]) == 0
    out_e = capsys.readouterr().out
    assert rep_b.read_bytes() == rep_e.read_bytes()
    assert log_b.read_bytes() == log_e.read_bytes()
    assert out_b == out_e


def test_train_log_has_line_per_step(zoo_dir, tmp_path):
    rep, log = tmp_path / "r.json", tmp_path / "r.log"
    assert _train(zoo_dir, rep, log, ["--mode", "erm"]) == 0
    lines = log.read_text().splitlines()
    assert lines[0] == "# fold target=domain2"
    steps = [l for l in lines if l.startswith("step=")]
    assert len(steps) == 120
    assert steps[0].startswith("step=0 ce=")
    for field in ("ce=", "hsic=", "mean_weight=", "lr="):
        assert field in steps[0]


def _log_sections(path):
    """The lines of a training log, grouped under each fold's header line."""
    sections = {}
    for line in path.read_text().splitlines():
        if line.startswith("# fold target="):
            lines = sections[line.split("=", 1)[1]] = []
        lines.append(line)
    return sections


@pytest.mark.parametrize("mode", ["erm", "rew", "hsic", "both"])
def test_each_leave_one_out_fold_equals_its_target_run(zoo_dir, tmp_path, capsys, mode):
    """The folds of one run over every target train as one stack; each fold's
    report record and log section are those of a ``--target`` run of it alone."""
    flags = [
        "--main", "main_full", "--div-aux", "div_heavy", "--rew-aux", "cor_heavy",
        "--mode", mode, "--steps", "40", "--warmup", "10", "--anneal", "20",
        "--eval-every", "15", "--lr", "1e-2", "--batch-size", "32", "--aux-lr", "1e-2",
        "--aux-steps", "30", "--seed", "5",
    ]

    def run(name, *extra):
        rep, log = tmp_path / f"{name}.json", tmp_path / f"{name}.log"
        argv = ["train", "--manifest", str(zoo_dir / "manifest.json"), "--out", str(rep),
                "--log", str(log), *flags, *extra]
        assert main(argv) == 0
        return json.loads(rep.read_text())["folds"], _log_sections(log)

    folds, sections = run("all")
    capsys.readouterr()
    assert [f["target_domain"] for f in folds] == ["domain0", "domain1", "domain2"]
    for fold in folds:
        target = fold["target_domain"]
        [alone], alone_sections = run(target, "--target", target)
        assert json.dumps(fold) == json.dumps(alone)
        assert sections[target] == alone_sections[target]


def test_train_non_finite_loss_exits_1_naming_the_fold(zoo_dir, tmp_path, capsys):
    out = tmp_path / "diverged.json"
    argv = ["train", "--manifest", str(zoo_dir / "manifest.json"), "--out", str(out),
            "--main", "main_full", "--div-aux", "div_heavy", "--rew-aux", "cor_heavy",
            "--steps", "20", "--lr", "1e300"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "the fold on target 'domain0' has a non-finite loss at step 1 " in err
    # one error line: no numpy warning, no traceback
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_train_diverging_reweighting_classifier_exits_1_naming_aux_lr(zoo_dir, tmp_path, capsys):
    # the head's learning rate is fine; at this one the classifier's own loss
    # turns non-finite within its first steps, before the head's first
    # weighted step could read its weights
    out = tmp_path / "diverged.json"
    argv = ["train", "--manifest", str(zoo_dir / "manifest.json"), "--out", str(out),
            "--main", "main_full", "--div-aux", "div_heavy", "--rew-aux", "cor_heavy",
            "--mode", "rew", "--target", "domain2", "--steps", "20", "--anneal", "5",
            "--aux-lr", "1e37"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"error: the fold on target 'domain2' has a reweighting classifier with a non-finite "
        r"loss at step \d+ \(ce=(nan|inf)\); try an aux_lr \(--aux-lr\) below 1e\+37\n", err
    ), err
    assert not out.exists()


def test_train_logits_past_float32_exit_1_naming_the_fold(zoo_dir, tmp_path, capsys):
    # one step: its loss, at the initial weights, is finite, but the update at
    # this learning rate takes the weights to about 1e15, and the trained heads'
    # float32 logits overflow, which the logit profile would read
    out = tmp_path / "overflowed.json"
    argv = ["train", "--manifest", str(zoo_dir / "manifest.json"), "--out", str(out),
            "--main", "main_full", "--div-aux", "div_heavy", "--rew-aux", "cor_heavy",
            "--mode", "both", "--steps", "1", "--lr", "1e15"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == (
        "error: the fold on target 'domain0' gives non-finite float32 logits on domain "
        "'domain0'; try a lower learning rate\n"
    )
    assert not out.exists()


def test_train_collapsed_fold_exits_1_naming_the_fold(zoo_dir, tmp_path, capsys):
    # at this learning rate the losses and logits stay finite, but the fold on
    # domain0 collapses: its logits on domain2 are one row repeated
    out = tmp_path / "collapsed.json"
    argv = ["train", "--manifest", str(zoo_dir / "manifest.json"), "--out", str(out),
            "--main", "main_full", "--div-aux", "div_heavy", "--rew-aux", "cor_heavy",
            "--mode", "both", "--steps", "20", "--lr", "1e7"]
    assert main(argv) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(
        "error: the fold on target 'domain0': features of domain 'domain2' have zero variance"
    )
    assert line.endswith("; its training may have collapsed (try a lower learning rate)")
    assert not out.exists()


def _profile_constant_zoo(tmp_path, capsys) -> str:
    """The one error line of ``profile`` on a zoo whose div_heavy features of
    domain1 have zero variance: the offset swamps every other coordinate."""
    zoo = tmp_path / "z"
    assert main(["synth", "--out", str(zoo), "--samples", "100", "--div-offset", "1e37"]) == 0
    capsys.readouterr()
    out = tmp_path / "p.json"
    assert main(["profile", "--manifest", str(zoo / "manifest.json"), "--out", str(out)]) == 1
    assert not out.exists()
    [line] = capsys.readouterr().err.splitlines()
    return line


def test_profile_error_of_an_estimator_names_the_encoder(tmp_path, capsys):
    assert _profile_constant_zoo(tmp_path, capsys).startswith(
        "error: encoder 'div_heavy': features of domain 'domain1' have zero variance"
    )


def test_profile_zero_variance_error_gives_no_training_advice(tmp_path, capsys):
    # no head was trained, so no learning rate applies
    assert _profile_constant_zoo(tmp_path, capsys) == (
        "error: encoder 'div_heavy': features of domain 'domain1' have zero variance (every "
        "training row is the same), so no Gaussian can be fitted"
    )


def test_train_unknown_encoder_exits_2(zoo_dir, tmp_path, capsys):
    code = main(
        ["train", "--manifest", str(zoo_dir / "manifest.json"),
         "--out", str(tmp_path / "x.json"), "--main", "ghost", "--mode", "erm"]
    )
    assert code == 2
    assert "ghost" in capsys.readouterr().err


def test_train_collapsed_logits_exit_1_naming_zero_variance(zoo_dir, tmp_path, capsys):
    # at this learning rate the head dies and every logit row is the same
    out = tmp_path / "collapsed.json"
    code = _train(zoo_dir, out, tmp_path / "collapsed.log", ["--lr", "1e6", "--steps", "50"])
    assert code == 1
    err = capsys.readouterr().err
    assert "zero variance" in err and "larger shrinkage" not in err
    assert not out.exists()


def test_train_leave_one_out_covers_all_domains(zoo_dir, tmp_path):
    rep = tmp_path / "folds.json"
    code = main(
        ["train", "--manifest", str(zoo_dir / "manifest.json"), "--out", str(rep),
         "--main", "clean", "--mode", "erm", "--steps", "30", "--lr", "1e-3",
         "--batch-size", "32", "--seed", "2"]
    )
    assert code == 0
    report = json.loads(rep.read_text())
    assert [f["target_domain"] for f in report["folds"]] == ["domain0", "domain1", "domain2"]
    means = report["summary"]
    expected = sum(f["final_test_accuracy"] for f in report["folds"]) / 3
    assert means["mean_final_test_accuracy"] == pytest.approx(expected, abs=1e-15)


def test_report_table_and_csv(profile_path, tmp_path, capsys):
    csv_path = tmp_path / "scatter.csv"
    assert main(["report", str(profile_path), "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("dataset: synth")
    assert "encoder" in out and "f_div" in out
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "encoder_id,f_div,f_cor"
    report = json.loads(profile_path.read_text())
    assert len(rows) - 1 == len(report["encoders"])


def test_report_rejects_mixed_datasets(zoo_dir, profile_path, tmp_path, capsys):
    other_zoo = tmp_path / "other"
    assert main(
        ["synth", "--out", str(other_zoo), "--samples", "200", "--dataset-name", "other"]
    ) == 0
    other_prof = tmp_path / "other.json"
    assert main(
        ["profile", "--manifest", str(other_zoo / "manifest.json"), "--out", str(other_prof)]
    ) == 0
    assert main(["report", str(profile_path), str(other_prof)]) == 2
    assert "dataset" in capsys.readouterr().err


def test_seed_precedence_config_below_flag(zoo_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 11}))
    def run(out, extra):
        assert main(
            ["profile", "--manifest", str(zoo_dir / "manifest.json"),
             "--out", str(out), "--config", str(cfg), *extra]
        ) == 0
        return json.loads(out.read_text())["seed"]

    assert run(tmp_path / "a.json", []) == 11
    assert run(tmp_path / "b.json", ["--seed", "3"]) == 3


def test_the_environment_sets_no_seed(zoo_dir, tmp_path, monkeypatch):
    # a seed comes from the flag or the config file only, so an exported
    # SHIFTZOO_SEED cannot change a command's bytes
    monkeypatch.setenv("SHIFTZOO_SEED", "7")
    out = tmp_path / "p.json"
    assert main(["profile", "--manifest", str(zoo_dir / "manifest.json"), "--out", str(out),
                 "--encoder", "clean"]) == 0
    assert json.loads(out.read_text())["seed"] == 0


def test_unknown_config_key_exits_2(zoo_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"not_a_knob": 1}))
    code = main(
        ["profile", "--manifest", str(zoo_dir / "manifest.json"),
         "--out", str(tmp_path / "x.json"), "--config", str(cfg)]
    )
    assert code == 2
    assert "not_a_knob" in capsys.readouterr().err


def test_usage_errors_exit_2(capsys):
    assert main(["train"]) == 2  # missing required flags
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def _keyword_defaults(func):
    return {
        name: p.default
        for name, p in inspect.signature(func).parameters.items()
        if p.default is not p.empty
    }


def test_cli_defaults_are_the_library_defaults():
    # the key sets are the config-file keys of each command
    assert SYNTH_PARAMS == {
        **asdict(SynthSpec()),
        **{k: _keyword_defaults(build_zoo)[k] for k in ("zoo_size", "split_ratio", "dataset_name")},
    }
    assert set(SYNTH_PARAMS) == {
        "n_domains", "n_classes", "dim_core", "dim_div", "dim_spur", "samples_per_domain",
        "spur_strength", "div_offset", "noise_sigma", "seed", "zoo_size", "split_ratio",
        "dataset_name",
    }
    report_defaults = _keyword_defaults(build_report)
    profile_keys = ("seed", "jobs", "shrinkage", "quantile", "n_bins")
    assert PROFILE_PARAMS == {k: report_defaults[k] for k in profile_keys}
    assert TRAIN_PARAMS == asdict(TrainConfig())


def test_synth_without_flags_writes_the_library_zoo(tmp_path):
    assert main(["synth", "--out", str(tmp_path / "cli")]) == 0
    build_zoo(SynthSpec(), out_dir=tmp_path / "lib")
    names = sorted(p.name for p in (tmp_path / "lib").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "cli").iterdir())
    for name in names:
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()


def test_profile_bins_flag_reaches_build_report(zoo_dir, tmp_path, monkeypatch):
    seen = []

    def recording(manifest, **kwargs):
        seen.append(kwargs)
        return build_report(manifest, **kwargs)

    monkeypatch.setattr(cli, "build_report", recording)
    out = tmp_path / "bins.json"
    code = main(
        ["profile", "--manifest", str(zoo_dir / "manifest.json"), "--out", str(out),
         "--encoder", "clean", "--bins", "7"]
    )
    assert code == 0
    assert [kw["n_bins"] for kw in seen] == [7]
    assert json.loads(out.read_text())["config"]["n_bins"] == 7


@pytest.mark.parametrize("command", ["", "synth", "profile", "rank", "train", "report"])
def test_help_text_is_unchanged(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert main([command, "--help"] if command else ["--help"]) == 0
    want = (HELP_DIR / f"{command or 'shiftzoo'}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want


@pytest.mark.parametrize(
    "argv, name",
    [
        (["train", "--lam", "nan"], "lam"),
        (["train", "--lam", "inf"], "lam"),
        (["train", "--gamma1", "nan"], "gamma1"),
        (["train", "--gamma2", "inf"], "gamma2"),
        (["train", "--lr", "nan"], "learning_rate"),
        (["train", "--weight-decay", "nan"], "weight_decay"),
        (["train", "--aux-lr", "nan"], "aux_lr"),
        (["profile", "--shrinkage", "nan"], "shrinkage"),
        (["profile", "--shrinkage", "inf"], "shrinkage"),
        (["synth", "--div-offset", "nan"], "div_offset"),
        (["synth", "--div-offset", "inf"], "div_offset"),
        (["synth", "--div-offset=-inf"], "div_offset"),
        (["synth", "--noise-sigma", "nan"], "noise_sigma"),
        (["synth", "--noise-sigma", "inf"], "noise_sigma"),
    ],
)
def test_non_finite_hyperparameters_exit_2_naming_them(zoo_dir, tmp_path, capsys, argv, name):
    command, *flags = argv
    out = tmp_path / "out.json"
    base = ["--manifest", str(zoo_dir / "manifest.json"), "--out", str(out)]
    if command == "synth":
        base = ["--out", str(out), "--samples", "100"]
    elif command == "train":
        base += ["--main", "main_full", "--div-aux", "div_heavy", "--rew-aux", "cor_heavy",
                 "--steps", "5", "--target", "domain2"]
    else:
        base += ["--encoder", "clean"]
    assert main([command, *base, *flags]) == 2
    err = capsys.readouterr().err
    assert f"{name} must be finite" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("zoo_size", ["2", "3"])
def test_synth_zoo_smaller_than_the_roles_exits_2(tmp_path, capsys, zoo_size):
    out = tmp_path / "zoo"
    assert main(["synth", "--out", str(out), "--samples", "100", "--zoo-size", zoo_size]) == 2
    err = capsys.readouterr().err
    assert "zoo_size must be >= 4" in err and "Traceback" not in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("ratio", ["0", "1", "nan", "1.5"])
def test_synth_bad_split_ratio_exits_2_without_writing(tmp_path, capsys, ratio):
    out = tmp_path / "zoo"
    assert main(["synth", "--out", str(out), "--samples", "100", "--split-ratio", ratio]) == 2
    err = capsys.readouterr().err
    assert "split ratio must be in (0,1)" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "ratio, n_val, n",
    [("0.2", 0, 4), ("0.99999999999", 4, 4), ("0.2", 1, 5), ("0.67", 2, 3)],
    ids=["0.2-0", "0.99999999999-4", "0.2-1-of-5", "0.67-2-of-3"],
)
def test_synth_split_without_validation_or_training_rows_exits_2(
    tmp_path, capsys, ratio, n_val, n
):
    # 4 rows at 0.2 leave no validation row; at 1 - 1e-11 validation takes all 4;
    # 5 rows at 0.2 leave one, and a threshold needs a second-largest distance;
    # 3 rows at 0.67 leave one training row, and a Gaussian fit needs two
    out = tmp_path / "zoo"
    argv = ["synth", "--out", str(out), "--samples", str(n), "--n-classes", "2"]
    assert main(argv + ["--split-ratio", ratio]) == 2
    err = capsys.readouterr().err
    assert f"samples_per_domain={n} at split_ratio={float(ratio)} leaves each domain" in err
    assert f"{n_val} validation and {n - n_val} training rows" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("bins", ["0", "-5"])
def test_profile_bad_bins_exit_2_without_overlap(tmp_path, capsys, bins):
    # div_heavy sees only the far-apart div block and one core coordinate, so
    # no domain pair overlaps and no calibration would ever read --bins
    zoo = tmp_path / "zoo"
    assert main(["synth", "--out", str(zoo), "--samples", "200", "--dim-core", "1",
                 "--dim-spur", "1", "--dim-div", "4", "--div-offset", "1000",
                 "--zoo-size", "4"]) == 0
    out = tmp_path / "profile.json"
    argv = ["profile", "--manifest", str(zoo / "manifest.json"), "--out", str(out),
            "--encoder", "div_heavy", f"--bins={bins}"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "need at least one calibration bin" in err and "Traceback" not in err
    assert not out.exists()


def _readme_commands(readme: str) -> list[list[str]]:
    """Every ``shiftzoo`` command of the README's bash blocks, continuations joined."""
    commands = []
    for block in readme.split("```bash\n")[1:]:
        text = block.split("```", 1)[0].replace("\\\n", " ")
        commands += [line.split()[1:] for line in text.splitlines() if line.startswith("shiftzoo ")]
    return commands


def test_readme_quick_start_runs_as_written(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    commands = _readme_commands(readme)
    assert [c[0] for c in commands] == ["synth", "profile", "rank", "train", "train", "profile",
                                        "report"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        capsys.readouterr()
        assert main(argv) == 0, argv
        if argv[0] == "rank":
            # the other printed numbers follow the platform's BLAS, so only
            # the suggestion line is pinned
            want = "suggested auxiliaries (main: main_full): diversity=div_heavy correlation=cor_heavy"
            assert want in readme and want in capsys.readouterr().out.splitlines()


def test_readme_library_snippet_runs(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    accuracy, f_div, f_cor = (float(v) for v in capsys.readouterr().out.split())
    assert 0.0 <= accuracy <= 1.0 and 0.0 <= f_div <= 1.0 and 0.0 <= f_cor <= 1.0


def _argv(command, zoo_dir, out):
    """A short run of ``command`` writing to ``out``."""
    if command == "synth":
        return ["synth", "--out", str(out), "--samples", "100"]
    base = [command, "--manifest", str(zoo_dir / "manifest.json"), "--out", str(out)]
    if command == "profile":
        return base + ["--encoder", "clean"]
    return base + ["--log", str(out) + ".log", "--main", "main_full", "--div-aux", "div_heavy",
                   "--rew-aux", "cor_heavy", "--target", "domain2", "--steps", "30",
                   "--warmup", "5", "--anneal", "10", "--lr", "1e-3", "--aux-steps", "20"]


@pytest.mark.parametrize(
    "command, config",
    [
        ("profile", {"n_bins": 2.5}),
        ("profile", {"jobs": "2"}),
        ("profile", {"seed": 1.5}),
        ("profile", {"quantile": None}),
        ("train", {"lam": "1"}),
        ("train", {"steps": 20.7}),
        ("train", {"batch_size": True}),
        ("train", {"lam": 10**400}),
        ("synth", {"n_domains": "3"}),
        ("synth", {"spur_strength": 5}),
        ("synth", {"spur_strength": [0.9, "0.9", -0.9]}),
        ("synth", {"spur_strength": "0.9,x,-0.9"}),
        ("synth", {"zoo_size": "4"}),
        ("synth", {"dataset_name": 7}),
        # the flag's comma-separated text is not a config value
        ("synth", {"spur_strength": "0.5,1,-0.7"}),
    ],
)
def test_config_value_of_the_wrong_type_exits_2_naming_the_key(
    zoo_dir, tmp_path, capsys, command, config
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([*_argv(command, zoo_dir, out), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    [key] = config
    assert f"config file {cfg}: $.{key}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["profile", "train"])
@pytest.mark.parametrize("n_classes", ["1e30", str(2**32 + 1)])
def test_manifest_n_classes_past_the_label_range_exits_2(
    zoo_dir, tmp_path, capsys, command, n_classes
):
    # a u32 label indexes at most 2**32 classes; both counts are refused before
    # any array is made (numpy would refuse arrays this large before allocating)
    zoo = tmp_path / "zoo"
    shutil.copytree(zoo_dir, zoo)
    doc = json.loads((zoo / "manifest.json").read_text())
    text = json.dumps({**doc, "n_classes": "N"}).replace('"N"', n_classes)
    (zoo / "manifest.json").write_text(text)
    out = tmp_path / "out"
    assert main(_argv(command, zoo, out)) == 2
    err = capsys.readouterr().err
    where = f"manifest {zoo / 'manifest.json'}: $.n_classes"
    assert f"{where} must be an integer in [1, 4294967296], got " in err
    assert "Traceback" not in err
    assert not out.exists()


def test_manifest_with_one_validation_row_exits_2_before_any_work(
    zoo_dir, tmp_path, monkeypatch, capsys
):
    # 400 rows at 0.004 leave each domain one validation row: refused at load,
    # before train fits a fold or profile profiles an encoder
    zoo = tmp_path / "zoo"
    shutil.copytree(zoo_dir, zoo)
    doc = json.loads((zoo / "manifest.json").read_text())
    (zoo / "manifest.json").write_text(json.dumps({**doc, "split_ratio": 0.004}))
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        raise AssertionError("the split should have been refused at load")

    monkeypatch.setattr("shiftzoo.ensemble_train.train_on_sets", recording)
    monkeypatch.setattr("shiftzoo.report.profile_encoder", recording)
    for command in ("train", "profile"):
        out = tmp_path / command
        assert main(_argv(command, zoo, out)) == 2
        err = capsys.readouterr().err
        assert "samples_per_domain=400 at split_ratio=0.004 leaves domain 'domain0'" in err
        assert "1 validation and 399 training rows" in err and "Traceback" not in err
        assert not out.exists()
    assert calls == []


def _refusing_reads(monkeypatch):
    """Make any feature read fail the test; return the list of paths tried."""
    tried = []

    def refusing(path, *args):
        tried.append(path)
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(feature_store, "read_features", refusing)
    return tried


def test_train_larger_than_physical_memory_exits_1_naming_both_sizes(
    zoo_dir, tmp_path, monkeypatch, capsys
):
    """Before any payload is read, train weighs the main encoder's three
    domains and each active auxiliary's training rows on the two domains that
    train the fold against physical memory; an inactive auxiliary is not
    counted."""
    manifest = load_manifest(zoo_dir / "manifest.json")
    dim = {e.encoder_id: e.dim for e in manifest.encoders}
    main_bytes = 4 * 3 * 400 * dim["main_full"]
    aux_bytes = 4 * 2 * 320 * (dim["div_heavy"] + dim["cor_heavy"])
    need = main_bytes + aux_bytes
    monkeypatch.setattr(blas_threads, "physical_memory", lambda: need - 1)
    tried = _refusing_reads(monkeypatch)
    out = tmp_path / "refused.json"
    assert main(_argv("train", zoo_dir, out)) == 1
    gib = lambda b: f"{b / 2**30:.3g} GiB"  # noqa: E731
    assert capsys.readouterr().err == (
        f"error: out of memory: train would hold {gib(need)} of features ({gib(main_bytes)} of "
        f"the main encoder's domains and {gib(aux_bytes)} of auxiliary training rows), more "
        f"than the {gib(need - 1)} of physical memory\n"
    )
    assert tried == [] and not out.exists()
    monkeypatch.undo()
    monkeypatch.setattr(blas_threads, "physical_memory", lambda: main_bytes)
    assert main(_argv("train", zoo_dir, tmp_path / "erm.json") + ["--mode", "erm"]) == 0
    assert main(_argv("train", zoo_dir, tmp_path / "both.json")) == 1
    monkeypatch.setattr(blas_threads, "physical_memory", lambda: need)
    assert main(_argv("train", zoo_dir, tmp_path / "both.json")) == 0


def test_train_memory_check_counts_an_auxiliary_in_both_roles_once(
    zoo_dir, tmp_path, monkeypatch, capsys
):
    manifest = load_manifest(zoo_dir / "manifest.json")
    main_bytes = 4 * 3 * 400 * manifest.encoder("main_full").dim
    aux_bytes = 4 * 2 * 320 * manifest.encoder("cor_heavy").dim
    argv = _argv("train", zoo_dir, tmp_path / "shared.json")
    argv[argv.index("div_heavy")] = "cor_heavy"
    monkeypatch.setattr(blas_threads, "physical_memory", lambda: main_bytes + aux_bytes - 1)
    tried = _refusing_reads(monkeypatch)
    assert main(argv) == 1
    assert f"and {aux_bytes / 2**30:.3g} GiB of auxiliary training rows" in capsys.readouterr().err
    assert tried == []
    monkeypatch.undo()
    monkeypatch.setattr(blas_threads, "physical_memory", lambda: main_bytes + aux_bytes)
    assert main(argv) == 0


def test_profile_larger_than_physical_memory_exits_1_naming_jobs(
    zoo_dir, tmp_path, monkeypatch, capsys
):
    """profile weighs the domains of as many encoders as it profiles at once,
    taken as the widest, against physical memory before it reads a payload."""
    manifest = load_manifest(zoo_dir / "manifest.json")
    widths = sorted((e.dim for e in manifest.encoders), reverse=True)
    need = 4 * 3 * 400 * (widths[0] + widths[1])
    monkeypatch.setattr("shiftzoo.report.usable_cpus", lambda: 2)
    monkeypatch.setattr(blas_threads, "physical_memory", lambda: need - 1)
    tried = _refusing_reads(monkeypatch)
    argv = ["profile", "--manifest", str(zoo_dir / "manifest.json"), "--out",
            str(tmp_path / "p.json")]
    assert main(argv + ["--jobs", "3"]) == 1
    assert capsys.readouterr().err == (
        f"error: out of memory: profile would hold {need / 2**30:.3g} GiB of features (the "
        f"domains of its 2 widest encoders, profiled at once under --jobs 3), more than the "
        f"{(need - 1) / 2**30:.3g} GiB of physical memory; lower --jobs\n"
    )
    assert tried == [] and not (tmp_path / "p.json").exists()
    monkeypatch.undo()
    monkeypatch.setattr("shiftzoo.report.usable_cpus", lambda: 2)
    monkeypatch.setattr(blas_threads, "physical_memory", lambda: need - 1)
    assert main(argv + ["--jobs", "1"]) == 0


@pytest.mark.parametrize("command", ["profile", "train"])
def test_feature_file_cut_short_exits_2_naming_it(zoo_dir, tmp_path, capsys, command):
    # neither command reads mixed1's features: the manifest check at load finds it
    zoo = tmp_path / "zoo"
    shutil.copytree(zoo_dir, zoo)
    cut = zoo / "mixed1_domain1.fzf"
    cut.write_bytes(cut.read_bytes()[:-4])
    out = tmp_path / "out"
    assert main(_argv(command, zoo, out)) == 2
    err = capsys.readouterr().err
    assert f"feature file {cut}: its (400, " in err and "Traceback" not in err
    assert not out.exists()


def test_config_integer_past_the_digit_limit_exits_2(zoo_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": ' + "9" * 5000 + "}")
    out = tmp_path / "out"
    assert main([*_argv("synth", zoo_dir, out), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config file is not valid JSON" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config, flags",
    [
        ("train", {"weight_decay": 0}, ["--weight-decay", "0"]),
        ("train", {"temperature": math.inf}, ["--temperature", "inf"]),
        ("synth", {"spur_strength": [0.5, 1, -0.7]}, ["--spur-strength", "0.5,1,-0.7"]),
    ],
)
def test_config_values_give_the_bytes_of_their_flags(
    zoo_dir, tmp_path, capsys, command, config, flags
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))  # math.inf is written as Infinity
    by_cfg, by_flag = tmp_path / "cfg", tmp_path / "flag"
    assert main([*_argv(command, zoo_dir, by_cfg), "--config", str(cfg)]) == 0
    assert main([*_argv(command, zoo_dir, by_flag), *flags]) == 0
    capsys.readouterr()
    if command == "synth":
        names = sorted(p.name for p in by_flag.iterdir())
        assert sorted(p.name for p in by_cfg.iterdir()) == names
        pairs = [(by_cfg / name, by_flag / name) for name in names]
    else:
        pairs = [(by_cfg, by_flag), (Path(f"{by_cfg}.log"), Path(f"{by_flag}.log"))]
    for got, want in pairs:
        assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("command", ["synth", "train", "profile"])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_negative_seed_exits_2_naming_seed(zoo_dir, tmp_path, capsys, command, via):
    out = tmp_path / "out"
    argv = _argv(command, zoo_dir, out)
    if via == "flag":
        argv += ["--seed", "-1"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -1}))
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "seed must be >= 0" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("via", ["flag", "config"])
def test_train_has_no_dropout(zoo_dir, tmp_path, capsys, via):
    out = tmp_path / "out"
    argv = _argv("train", zoo_dir, out)
    if via == "flag":
        argv += ["--dropout", "0.1"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dropout": 0.1}))
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "dropout" in err and "Traceback" not in err
    assert not out.exists()


def test_train_temperature_that_underflows_the_weights_exits_2_naming_it(
    zoo_dir, tmp_path, capsys
):
    out = tmp_path / "out.json"
    argv = ["train", "--manifest", str(zoo_dir / "manifest.json"), "--out", str(out),
            "--main", "main_full", "--rew-aux", "cor_heavy", "--mode", "rew",
            "--target", "domain2", "--steps", "50", "--eval-every", "10", "--anneal", "5",
            "--aux-steps", "200", "--aux-lr", "1e-2"]
    # (prior / p_y) ** (1 / T) underflows to 0 on rows the classifier gets right
    assert main([*argv, "--temperature", "0.001"]) == 2
    err = capsys.readouterr().err
    assert "temperature 0.001" in err and "Traceback" not in err
    assert not out.exists()
    assert main([*argv, "--temperature", "0.01"]) == 0


def test_out_of_memory_exits_1_without_a_traceback(zoo_dir, tmp_path, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (100000, 100000)")

    monkeypatch.setattr(cli, "train", exhausted)
    out = tmp_path / "out"
    assert main(_argv("train", zoo_dir, out)) == 1
    assert capsys.readouterr().err == (
        "error: out of memory: Unable to allocate 74.5 GiB for an array with shape (100000, 100000)\n"
    )
    assert not out.exists()
