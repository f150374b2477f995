"""CLI pipeline: determinism, exit codes, precedence, and report surfaces."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shiftzoo
from shiftzoo.cli import main


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
        env = {k: v for k, v in os.environ.items() if k not in ("OMP_NUM_THREADS", "SHIFTZOO_SEED")}
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
    products and its AdamW update are split over the train pool. ``train``
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
        env = {k: v for k, v in os.environ.items() if k not in ("OMP_NUM_THREADS", "SHIFTZOO_SEED")}
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


def test_seed_precedence_env_between_config_and_flag(zoo_dir, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 11}))
    def run(out, extra, env=None):
        if env is None:
            monkeypatch.delenv("SHIFTZOO_SEED", raising=False)
        else:
            monkeypatch.setenv("SHIFTZOO_SEED", env)
        assert main(
            ["profile", "--manifest", str(zoo_dir / "manifest.json"),
             "--out", str(out), "--config", str(cfg), *extra]
        ) == 0
        return json.loads(out.read_text())["seed"]

    assert run(tmp_path / "a.json", []) == 11
    assert run(tmp_path / "b.json", [], env="7") == 7
    assert run(tmp_path / "c.json", ["--seed", "3"], env="7") == 3


def test_bad_env_seed_exits_2(zoo_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SHIFTZOO_SEED", "not-a-number")
    code = main(
        ["profile", "--manifest", str(zoo_dir / "manifest.json"),
         "--out", str(tmp_path / "x.json")]
    )
    assert code == 2
    assert "SHIFTZOO_SEED" in capsys.readouterr().err


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
