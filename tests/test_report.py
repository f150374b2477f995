"""Report assembly: canonical bytes, schema checks, rankings, and tables."""

import csv
import io
import json
import math
import os
import threading
import time

import pytest

from shiftzoo import blas_threads
from shiftzoo import report as report_module
from shiftzoo.cli import main
from shiftzoo.errors import ValidationError
from shiftzoo.feature_store import dumps_json
from shiftzoo.report import (
    PROFILE_KIND,
    SCHEMA_VERSION,
    TRAIN_KIND,
    build_report,
    comparison_table,
    profile_encoder,
    rank_lines,
    read_report,
    report_scores,
    scatter_csv,
    train_run_report,
    write_report,
)
from shiftzoo.synthetic_dg import SynthSpec, build_zoo


@pytest.fixture(scope="module")
def small_zoo(tmp_path_factory):
    spec = SynthSpec(samples_per_domain=300, seed=3)
    out = tmp_path_factory.mktemp("report_zoo")
    manifest, _, _ = build_zoo(spec, zoo_size=4, out_dir=out)
    return manifest


@pytest.fixture(scope="module")
def profile(small_zoo):
    return build_report(small_zoo, jobs=1)


def test_dumps_report_is_canonical():
    text = dumps_json({"b": 1, "a": [2, 3]})
    assert text == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'
    assert dumps_json(json.loads(text)) == text


def test_dumps_report_rejects_nan():
    with pytest.raises(ValueError):
        dumps_json({"x": float("nan")})


def test_write_read_roundtrip(profile, tmp_path):
    path = tmp_path / "profile.json"
    write_report(profile, path)
    assert read_report(path) == json.loads(dumps_json(profile))


@pytest.mark.parametrize(
    "payload",
    [
        "[1, 2]",
        "not json",
        '{"schema_version": 99, "kind": "shift_profile"}',
        '{"schema_version": 1, "kind": "mystery"}',
        '{"kind": "shift_profile"}',
    ],
)
def test_read_report_rejects_bad_payloads(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(payload, encoding="utf-8")
    with pytest.raises(ValidationError):
        read_report(path)


def test_read_report_missing_file(tmp_path):
    with pytest.raises(ValidationError):
        read_report(tmp_path / "absent.json")


def test_profile_entry_is_pair_average_and_sorted(small_zoo):
    entry = profile_encoder(small_zoo, "main_full")
    pairs = entry["pairs"]
    assert len(pairs) == 3  # C(3, 2) domain pairs
    keys = [(p["domain_a"], p["domain_b"]) for p in pairs]
    assert keys == sorted(keys)
    assert entry["f_div"] == pytest.approx(
        sum(p["f_div"] for p in pairs) / len(pairs), abs=1e-12
    )
    assert entry["f_cor"] == pytest.approx(
        sum(p["f_cor"] for p in pairs) / len(pairs), abs=1e-12
    )
    for p in pairs:
        assert 0.0 <= p["escape_prob_a"] <= 1.0
        assert 0.0 <= p["escape_prob_b"] <= 1.0
        assert p["overlap_count_a"] >= 0 and p["overlap_count_b"] >= 0
        assert p["empty_overlap"] == (p["overlap_count_a"] + p["overlap_count_b"] == 0)


def test_build_report_shape_and_order(small_zoo, profile):
    assert profile["schema_version"] == SCHEMA_VERSION
    assert profile["kind"] == PROFILE_KIND
    assert profile["dataset_name"] == small_zoo.dataset_name
    ids = [e["encoder_id"] for e in profile["encoders"]]
    assert ids == sorted(ids)
    assert set(ids) == {e.encoder_id for e in small_zoo.encoders}
    single = profile_encoder(small_zoo, "clean")
    listed = next(e for e in profile["encoders"] if e["encoder_id"] == "clean")
    assert listed == single


def test_build_report_parallel_matches_serial(small_zoo, profile):
    assert dumps_json(build_report(small_zoo, jobs=3)) == dumps_json(profile)


def test_profiling_widens_the_stored_rows_not_the_accessors(small_zoo, profile, monkeypatch):
    from shiftzoo.feature_store import FeatureSet

    def no_copy(fs):
        raise AssertionError("the profile grid copied a split to float64")

    monkeypatch.setattr(FeatureSet, "train_features", property(no_copy))
    monkeypatch.setattr(FeatureSet, "val_features", property(no_copy))
    assert dumps_json(build_report(small_zoo, jobs=1)) == dumps_json(profile)


@pytest.mark.parametrize("cpus", [1, 3, 64])
def test_build_report_default_jobs_is_usable_cpus_capped_at_encoders(
    small_zoo, profile, monkeypatch, fresh_pool, cpus
):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    fresh_pool()  # the pool is sized from the CPU count once, at its first use
    threads = set()
    real = report_module.profile_encoder

    def recording(*args, **kwargs):
        threads.add(threading.get_ident())
        time.sleep(0.05)  # overlap the calls, so that every allowed worker starts
        return real(*args, **kwargs)

    monkeypatch.setattr(report_module, "profile_encoder", recording)
    got = build_report(small_zoo)
    assert dumps_json(got) == dumps_json(profile)
    n_encoders = len(small_zoo.encoders)
    assert n_encoders > 3
    assert len(threads) == min(cpus, n_encoders)
    # the calling thread is always one of the workers
    assert threading.get_ident() in threads


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_build_report_bytes_do_not_depend_on_jobs(
    small_zoo, profile, monkeypatch, fresh_pool, jobs
):
    monkeypatch.setattr(blas_threads, "usable_cpus", lambda: 3)
    assert dumps_json(build_report(small_zoo, jobs=jobs)) == dumps_json(profile)


def test_profile_calls_start_no_threads_after_the_first(
    small_zoo, tmp_path, monkeypatch, fresh_pool
):
    """``profile --jobs 2`` runs on the process's one pool, so a second call in
    the same process finds its worker and starts no thread."""
    monkeypatch.setattr(blas_threads, "usable_cpus", lambda: 2)
    started = []
    real = threading.Thread.start

    def recording(thread):
        started.append(thread.name)
        real(thread)

    monkeypatch.setattr(threading.Thread, "start", recording)
    argv = ["profile", "--manifest", str(small_zoo.root / "manifest.json"), "--jobs", "2"]
    per_call = []
    for i in range(2):
        assert main([*argv, "--out", str(tmp_path / f"p{i}.json")]) == 0
        per_call.append(list(started))
        started.clear()
    assert len(per_call[0]) == 1 and per_call[0][0].startswith("shiftzoo")
    assert per_call[1] == []
    assert (tmp_path / "p0.json").read_bytes() == (tmp_path / "p1.json").read_bytes()


def test_build_report_rejects_bad_selection(small_zoo):
    with pytest.raises(ValidationError, match="nope"):
        build_report(small_zoo, encoder_ids=["clean", "nope"])
    with pytest.raises(ValidationError):
        build_report(small_zoo, encoder_ids=[])
    with pytest.raises(ValidationError):
        build_report(small_zoo, jobs=0)


def test_report_scores_requires_profile_kind(profile):
    scores = report_scores(profile)
    assert set(scores) == {e["encoder_id"] for e in profile["encoders"]}
    with pytest.raises(ValidationError):
        report_scores({"kind": TRAIN_KIND})
    with pytest.raises(ValidationError):
        report_scores({"kind": PROFILE_KIND, "encoders": []})


def test_a_repeated_encoder_id_is_refused(profile, tmp_path):
    repeated = dict(profile, encoders=[*profile["encoders"], profile["encoders"][1]])
    enc_id = profile["encoders"][1]["encoder_id"]
    with pytest.raises(ValidationError, match=f"^report: encoder id '{enc_id}' is listed more"):
        report_scores(repeated)
    path = tmp_path / "repeated.json"
    write_report(repeated, path)
    with pytest.raises(ValidationError, match=f"^report {path}: encoder id '{enc_id}' is listed"):
        read_report(path)


def test_report_scores_rejects_an_encoder_id_that_is_no_string():
    # rank_lines sizes its columns by len(encoder_id)
    entry = {"encoder_id": 7, "f_div": 0.5, "f_cor": 0.25}
    with pytest.raises(ValidationError, match=r"encoders\[0\]\.encoder_id must be a string, got 7"):
        report_scores({"kind": PROFILE_KIND, "encoders": [entry]})


def test_rank_lines_lists_both_axes(profile):
    text = rank_lines(profile, main_encoder_id="main_full")
    assert "by f_div" in text and "by f_cor" in text
    assert "suggested auxiliaries (main: main_full): diversity=" in text
    scores = report_scores(profile)
    top_div = max(scores, key=lambda e: scores[e][0])
    assert f"1. {top_div}" in text
    with pytest.raises(ValidationError, match="ghost"):
        rank_lines(profile, main_encoder_id="ghost")


def test_comparison_table_is_aligned(profile):
    text = comparison_table([profile, profile])
    lines = text.splitlines()
    assert lines[0] == f"dataset: {profile['dataset_name']}"
    header = lines[1].split()
    assert header == ["seed", "encoder", "f_div", "f_cor"]
    n_enc = len(profile["encoders"])
    assert len(lines) == 2 + 2 * n_enc
    col = lines[1].index("encoder")
    assert all(len(line) > col and line[col] != " " for line in lines[1:])


def test_comparison_table_rejects_mixed_datasets(profile):
    other = dict(profile, dataset_name="other")
    with pytest.raises(ValidationError):
        comparison_table([profile, other])
    with pytest.raises(ValidationError):
        comparison_table([])


def test_scatter_csv_roundtrips_floats(profile):
    text = scatter_csv([profile])
    lines = text.splitlines()
    assert lines[0] == "encoder_id,f_div,f_cor"
    scores = report_scores(profile)
    assert len(lines) == 1 + len(scores)
    for line in lines[1:]:
        enc, f_div, f_cor = line.split(",")
        assert float(f_div) == scores[enc][0]
        assert float(f_cor) == scores[enc][1]


def test_scatter_csv_quotes_an_id_holding_a_comma(profile):
    entry = profile["encoders"][0]
    doc = {**profile, "encoders": [{**entry, "encoder_id": "vit,b16"}]}
    rows = list(csv.reader(io.StringIO(scatter_csv([doc]))))
    f_div, f_cor = entry["f_div"], entry["f_cor"]
    assert rows == [["encoder_id", "f_div", "f_cor"], ["vit,b16", repr(f_div), repr(f_cor)]]


@pytest.mark.parametrize("enc_id", ["a\rb", "a\nb", "a\r\nb", 'say "hi"', "vit,b16", "clean"])
def test_scatter_csv_reads_back_every_id_whole(profile, enc_id):
    # csv.writer left "a\rb" unquoted before Python 3.13, and the reader split its row
    entry = profile["encoders"][0]
    doc = {**profile, "encoders": [{**entry, "encoder_id": enc_id}]}
    text = scatter_csv([doc])
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert rows == [["encoder_id", "f_div", "f_cor"], [enc_id, repr(entry["f_div"]),
                                                       repr(entry["f_cor"])]]
    if "\r" not in enc_id:  # the bytes csv.writer gives on every Python
        want = io.StringIO()
        csv.writer(want, lineterminator="\n").writerows(rows)
        assert text == want.getvalue()


def _fold(target, acc, best, f_div, f_cor):
    return {
        "target_domain": target,
        "final_test_accuracy": acc,
        "best_test_accuracy": best,
        "logit_f_div": f_div,
        "logit_f_cor": f_cor,
    }


def test_train_run_report_sorts_folds_and_averages(small_zoo):
    folds = [
        _fold("domain2", 0.8, 0.85, 0.2, 0.3),
        _fold("domain0", 0.6, 0.70, 0.4, 0.1),
    ]
    rep = train_run_report(
        small_zoo,
        {"main": "main_full", "div_aux": None, "rew_aux": "cor_heavy"},
        {"lam": 5.0, "temperature": float("inf")},
        folds,
        seed=7,
    )
    assert rep["kind"] == TRAIN_KIND
    assert [f["target_domain"] for f in rep["folds"]] == ["domain0", "domain2"]
    assert rep["summary"]["mean_final_test_accuracy"] == pytest.approx(0.7)
    assert rep["summary"]["mean_best_test_accuracy"] == pytest.approx(0.775)
    assert rep["summary"]["mean_logit_f_div"] == pytest.approx(0.3)
    assert rep["summary"]["mean_logit_f_cor"] == pytest.approx(0.2)
    assert rep["config"]["temperature"] == "inf"
    assert rep["config"]["lam"] == 5.0
    assert "mode" not in rep
    dumped = dumps_json(rep)  # inf must survive canonical serialization
    assert json.loads(dumped)["config"]["temperature"] == "inf"
    assert not math.isinf(json.loads(dumped)["config"]["lam"])


def test_train_run_report_rejects_empty(small_zoo):
    with pytest.raises(ValidationError):
        train_run_report(small_zoo, {}, {}, [], seed=0)
