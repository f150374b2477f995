"""Tests for the benchmark's own pieces: span arithmetic, tracing, names, seeds.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
import tracing
import workloads
from tracing import Span, Tracer, lineage, self_times

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
END_TO_END = {"setup_s", "pipeline_s", "peak_rss_mb"}


def span(sid, parent, start, end, name="x"):
    return Span(sid, parent, name, start, end, 0, 0)


def test_self_time_with_overlapping_children():
    spans = [
        span(1, None, 0.0, 10.0, "cli.profile"),
        # two workers overlap on [2, 4]; one child runs past the parent's end
        span(2, 1, 1.0, 4.0),
        span(3, 1, 2.0, 6.0),
        span(4, 1, 9.0, 12.0),
        span(5, 3, 2.5, 3.0),
        span(6, 3, 2.75, 3.5),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - (5.0 + 1.0))  # union [1, 6] + [9, 10]
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(4.0 - 1.0)  # union [2.5, 3.5]
    assert own[4] == pytest.approx(3.0)
    assert own[5] == pytest.approx(0.5)


def test_lineage_names_the_command_of_every_span():
    spans = [
        span(1, None, 0, 9, "cli.train"),
        span(2, 1, 1, 8, "ensemble_train.head_loss_and_grads"),
        span(3, 2, 2, 3, "ensemble_train.MlpHead.forward"),
        span(4, 1, 4, 5, "ensemble_train.MlpHead.forward"),
        span(5, 99, 0, 1, "orphan"),
    ]
    tree = lineage(spans)
    assert {sid: tree[sid][0] for sid in (1, 2, 3, 4)} == dict.fromkeys((1, 2, 3, 4), "cli.train")
    assert "ensemble_train.head_loss_and_grads" in tree[3][1]
    assert "ensemble_train.head_loss_and_grads" not in tree[4][1]
    assert tree[5][0] == "orphan"
    ix = layers.Index(spans)
    forward = ["ensemble_train.MlpHead.forward"]
    assert ix.self_s(forward, "train", within="ensemble_train.head_loss_and_grads") == 1
    assert ix.self_s(forward, "train") == 2
    assert ix.self_s(forward, "profile") == 0


def test_tracer_wraps_the_callers_bindings_and_restores_them():
    from shiftzoo import cli, ensemble_train, feature_store, hsic, report

    watched = {
        (ensemble_train, "hsic_b_value_and_grad"): hsic.hsic_b_value_and_grad,
        (report, "dataset_diversity"): report.dataset_diversity,
        (cli, "dataset_correlation"): cli.dataset_correlation,
        (cli, "build_zoo"): cli.build_zoo,
        (ensemble_train.AdamW, "step"): vars(ensemble_train.AdamW)["step"],
        (feature_store.FeatureSet, "train_features"):
            vars(feature_store.FeatureSet)["train_features"],
    }
    tracer = Tracer()
    tracer.install()
    try:
        for (owner, attr), original in watched.items():
            assert vars(owner)[attr] is not original, attr
        import numpy as np

        x = np.ones((4, 3))
        tracer.command("cli.train", lambda: ensemble_train.hsic_b_value_and_grad(
            x, x, hsic.KernelSpec(0.1), hsic.KernelSpec(0.5)))
    finally:
        assert tracer.restore() == []
    for (owner, attr), original in watched.items():
        assert vars(owner)[attr] is original, attr
    assert [s.name for s in tracer.spans] == ["hsic.hsic_b_value_and_grad", "cli.train"]
    assert tracer.spans[0].parent == tracer.spans[1].span_id


def test_metric_names_follow_the_contract():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [m.name for m in layers.LAYER_METRICS]
    names = [m["name"] for m in bench["end_to_end"]] + per_layer + [
        w["name"] for w in bench["workloads"]]
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(set(names)) == len(names)
    assert {m["name"] for m in bench["end_to_end"]} == END_TO_END
    assert [m["name"] for m in bench["per_layer"]] == per_layer
    assert [m["unit"] for m in bench["per_layer"]] == [m.unit for m in layers.LAYER_METRICS]
    assert {w["name"] for w in bench["workloads"]} == set(workloads.BY_NAME)


def run_bench(capsys, *argv) -> tuple[dict, dict]:
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(workloads.BY_NAME))
def test_stages_receive_the_seed(name):
    wl = workloads.get(name)
    for flags in [wl.synth, wl.profile, *(f for _, f in wl.trains)]:
        assert "--seed" not in flags  # added per run from --seed, never fixed here


@pytest.mark.parametrize("name", sorted(workloads.BY_NAME))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_size_passes_every_check(capsys, name, trace):
    info, result = run_bench(capsys, "--workload", name, "--seed", "3", "--seconds", "0.1",
                             "--trace", str(trace), "--size", "smoke")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = END_TO_END if trace == 0 else {m.name for m in layers.LAYER_METRICS}
    assert set(result["metrics"]) == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float) and metric["value"] == metric["value"]
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert info["seed"] == 3 and set(info["environment"]) >= {"nproc", "blas", "git_sha"}


def test_rank_check_follows_the_scores_not_the_planted_roles():
    # a random encoder may out-score the planted div_heavy on some seeds
    # (mixed1 on desk-modes seed 616032808); rank is right to suggest it
    report = {"kind": "shift_profile", "dataset_name": "d", "encoders": [
        {"encoder_id": "clean", "f_div": 0.01, "f_cor": 0.09},
        {"encoder_id": "cor_heavy", "f_div": 0.03, "f_cor": 0.56},
        {"encoder_id": "div_heavy", "f_div": 0.59, "f_cor": 0.37},
        {"encoder_id": "main_full", "f_div": 0.47, "f_cor": 0.60},
        {"encoder_id": "mixed1", "f_div": 0.61, "f_cor": 0.22},
    ]}
    shiftzoo = run.import_shiftzoo()
    runner = run.Runner(shiftzoo, workloads.get("desk-modes"), 0, ROOT)
    good = run.Op("rank")
    good.stdout = shiftzoo.report.rank_lines(report, "main_full")
    runner.check_rank(good, report)
    assert good.problems == []
    assert good.stdout.endswith("diversity=mixed1 correlation=cor_heavy\n")
    wrong = run.Op("rank")
    wrong.stdout = good.stdout.replace("diversity=mixed1", "diversity=div_heavy")
    runner.check_rank(wrong, report)
    assert len(wrong.problems) == 1
    unsorted = run.Op("rank")
    lines = good.stdout.splitlines()
    i = lines.index("by f_div") + 1
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    unsorted.stdout = "\n".join(lines)
    runner.check_rank(unsorted, report)
    assert len(unsorted.problems) == 1


def test_same_seed_same_bytes_other_seed_other_data(capsys):
    args = ["--workload", "desk-modes", "--seconds", "0.1", "--size", "smoke"]
    a, _ = run_bench(capsys, *args, "--seed", "1")
    b, _ = run_bench(capsys, *args, "--seed", "1")
    c, _ = run_bench(capsys, *args, "--seed", "2")
    assert a["report_sha256"] == b["report_sha256"]
    assert a["report_sha256"]["synth"] != c["report_sha256"]["synth"]
    assert a["report_sha256"]["train-both.json"] != c["report_sha256"]["train-both.json"]


def test_held_out_seed_passes_every_check_at_full_size(capsys):
    _, result = run_bench(capsys, "--workload", "desk-modes", "--seed", "1", "--seconds", "0")
    assert result["correct"] and result["failed"] == 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-modes", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
