"""Feature/label file round-trips, manifest validation, and split determinism."""

import dataclasses
import hashlib
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from shiftzoo.errors import ValidationError
from shiftzoo.feature_store import (
    DomainInfo,
    EncoderInfo,
    ZooManifest,
    build_feature_set,
    check_split,
    load_domain_features,
    load_feature_set,
    load_manifest,
    read_features,
    read_labels,
    save_manifest,
    split_mask,
    validate_manifest,
    write_features,
    write_labels,
)

finite_f32 = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=32
)


def test_feature_file_bytes_are_pinned(tmp_path):
    # 1x1 matrix holding 3.5 has a fully specified byte layout.
    p = tmp_path / "one.fzf"
    write_features(p, np.array([[3.5]], dtype=np.float32))
    expected = b"FZF1" + struct.pack("<II", 1, 1) + struct.pack("<f", 3.5)
    assert p.read_bytes() == expected


def test_label_file_bytes_are_pinned(tmp_path):
    p = tmp_path / "one.fzl"
    write_labels(p, np.array([0, 2, 1], dtype=np.int64))
    expected = b"FZL1" + struct.pack("<I", 3) + struct.pack("<III", 0, 2, 1)
    assert p.read_bytes() == expected


def test_empty_feature_file_roundtrip(tmp_path):
    p = tmp_path / "empty.fzf"
    write_features(p, np.zeros((0, 7), dtype=np.float32))
    out = read_features(p)
    assert out.shape == (0, 7)


def test_write_features_writes_from_the_array_buffer(tmp_path):
    matrix = np.random.default_rng(0).standard_normal(size=(1000, 1000), dtype=np.float32)
    p = tmp_path / "big.fzf"
    tracemalloc.start()
    try:
        write_features(p, matrix)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a bytes copy of the payload would trace 4 MB
    assert peak < matrix.nbytes // 8
    assert p.read_bytes()[12:] == matrix.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    hnp.arrays(
        dtype=np.float32,
        shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=40),
        elements=finite_f32,
    )
)
def test_feature_roundtrip_is_bit_exact(tmp_path_factory, matrix):
    p = tmp_path_factory.mktemp("rt") / "m.fzf"
    write_features(p, matrix)
    out = read_features(p)
    assert out.dtype == np.float32
    assert out.shape == matrix.shape
    assert np.array_equal(out.view(np.uint32), matrix.view(np.uint32))


@settings(max_examples=60, deadline=None)
@given(
    hnp.arrays(
        dtype=np.uint32,
        shape=hnp.array_shapes(min_dims=1, max_dims=1, min_side=0, max_side=200),
        elements=st.integers(min_value=0, max_value=2**32 - 1),
    )
)
def test_label_roundtrip_is_exact(tmp_path_factory, labels):
    p = tmp_path_factory.mktemp("rt") / "l.fzl"
    write_labels(p, labels)
    out = read_labels(p)
    assert np.array_equal(out, labels.astype(np.int64))


@pytest.mark.parametrize("labels", [[-1, 2, 3], [0, 2**32, 3], [-1, 2**32, 3]])
def test_write_labels_refuses_a_label_a_u32_cannot_hold(tmp_path, labels):
    # a u32 label would wrap: -1 read back as 4294967295 and 2**32 as 0
    p = tmp_path / "wide.fzl"
    with pytest.raises(ValidationError, match=r"labels must be in \[0, 2\*\*32\)"):
        write_labels(p, np.array(labels))
    assert not p.exists()


def test_read_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.fzf"
    p.write_bytes(b"NOPE" + struct.pack("<II", 1, 1) + struct.pack("<f", 0.0))
    with pytest.raises(ValidationError):
        read_features(p)


def test_read_rejects_truncated_payload(tmp_path):
    p = tmp_path / "short.fzf"
    p.write_bytes(b"FZF1" + struct.pack("<II", 2, 3) + b"\x00" * 8)
    with pytest.raises(ValidationError):
        read_features(p)


def test_read_rejects_nan_payload(tmp_path):
    p = tmp_path / "nan.fzf"
    p.write_bytes(b"FZF1" + struct.pack("<II", 1, 1) + struct.pack("<f", float("nan")))
    with pytest.raises(ValidationError):
        read_features(p)


def test_split_mask_size_and_determinism():
    m1 = split_mask("ds", "dom0", 100, 0.2, seed=7)
    m2 = split_mask("ds", "dom0", 100, 0.2, seed=7)
    assert m1.sum() == 20
    assert np.array_equal(m1, m2)
    assert not np.array_equal(m1, split_mask("ds", "dom1", 100, 0.2, seed=7))
    assert not np.array_equal(m1, split_mask("ds", "dom0", 100, 0.2, seed=8))


def test_split_mask_floor_and_bounds():
    assert split_mask("ds", "a", 7, 0.2, seed=0).sum() == 1
    assert split_mask("ds", "a", 9, 0.5, seed=0).sum() == 4
    assert split_mask("ds", "a", 1, 0.2, seed=0).sum() == 0
    with pytest.raises(ValidationError):
        split_mask("ds", "a", 10, 0.0, seed=0)
    with pytest.raises(ValidationError):
        split_mask("ds", "a", 10, 1.0, seed=0)


def test_split_mask_is_platform_stable():
    # Frozen sample of the keyed permutation; any change to the seeding or
    # shuffling procedure must show up here.
    m = split_mask("ds", "dom0", 10, 0.3, seed=1)
    assert m.dtype == np.bool_
    assert np.flatnonzero(m).tolist() == [0, 2, 5]
    big = split_mask("ds", "dom0", 1000, 0.2, seed=3)
    assert big.sum() == 200
    assert hashlib.sha256(np.packbits(big).tobytes()).hexdigest() == (
        "20c5a5371b53bef10e9700698f33caf564f85bc7f0ae93d9c88492b054caaf4e"
    )


def test_build_feature_set_rejects_label_equal_to_n_classes():
    feats = np.zeros((4, 2), dtype=np.float32)
    labels = np.array([0, 1, 2, 3])
    with pytest.raises(ValidationError):
        build_feature_set(
            "d0", feats, labels, dataset_name="ds", n_classes=3, split_ratio=0.25, seed=0
        )


def test_build_feature_set_rejects_length_mismatch():
    feats = np.zeros((4, 2), dtype=np.float32)
    with pytest.raises(ValidationError):
        build_feature_set(
            "d0", feats, np.array([0, 1]), dataset_name="ds", n_classes=2,
            split_ratio=0.25, seed=0,
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_build_feature_set_rejects_non_finite_features(bad):
    feats = np.zeros((4, 2), dtype=np.float32)
    feats[2, 1] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        build_feature_set(
            "d0", feats, np.array([0, 1, 0, 1]), dataset_name="ds", n_classes=2,
            split_ratio=0.25, seed=0,
        )


def test_feature_set_split_accessors():
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(100, 5)).astype(np.float32)
    labels = rng.integers(0, 4, size=100)
    fs = build_feature_set(
        "d0", feats, labels, dataset_name="ds", n_classes=4, split_ratio=0.2, seed=3
    )
    assert fs.val_features.shape == (20, 5)
    assert fs.train_features.shape == (80, 5)
    assert fs.train_features.dtype == np.float64
    # train/val partition the rows exactly
    assert fs.train_labels.size + fs.val_labels.size == 100
    recombined = np.concatenate([fs.features[~fs.split_mask], fs.features[fs.split_mask]])
    assert sorted(map(tuple, recombined.tolist())) == sorted(map(tuple, feats.tolist()))


def _tiny_manifest(tmp_path, n=10, d=3, n_classes=2):
    rng = np.random.default_rng(5)
    domains = []
    encoders = [EncoderInfo("encA", d, {}), EncoderInfo("encB", d, {})]
    for i in range(2):
        dom = f"dom{i}"
        labels = rng.integers(0, n_classes, size=n)
        write_labels(tmp_path / f"{dom}.fzl", labels)
        domains.append(DomainInfo(dom, n, f"{dom}.fzl"))
        for enc in encoders:
            fname = f"{enc.encoder_id}_{dom}.fzf"
            write_features(tmp_path / fname, rng.normal(size=(n, d)).astype(np.float32))
            enc.files[dom] = fname
    return ZooManifest(
        dataset_name="tiny",
        n_classes=n_classes,
        split_ratio=0.2,
        domains=tuple(domains),
        encoders=tuple(encoders),
        root=tmp_path,
    )


def test_manifest_roundtrip_and_validation(tmp_path):
    manifest = _tiny_manifest(tmp_path)
    validate_manifest(manifest)
    mpath = tmp_path / "manifest.json"
    save_manifest(manifest, mpath)
    loaded = load_manifest(mpath)
    assert loaded.dataset_name == "tiny"
    assert loaded.domain_ids == ["dom0", "dom1"]
    assert loaded.encoder_ids == ["encA", "encB"]
    assert loaded.split_ratio == 0.2
    fs = load_domain_features(loaded, "encA", "dom0", seed=0)
    assert fs.n_samples == 10 and fs.dim == 3


def test_manifest_detects_missing_file(tmp_path):
    manifest = _tiny_manifest(tmp_path)
    (tmp_path / "encA_dom0.fzf").unlink()
    with pytest.raises(ValidationError):
        validate_manifest(manifest)


def test_manifest_detects_header_mismatch(tmp_path):
    manifest = _tiny_manifest(tmp_path)
    write_features(tmp_path / "encA_dom0.fzf", np.zeros((10, 4), dtype=np.float32))
    with pytest.raises(ValidationError):
        validate_manifest(manifest)


@pytest.mark.parametrize("name", ["encB_dom1.fzf", "dom1.fzl"])
def test_load_manifest_refuses_a_file_cut_short_and_names_it(tmp_path, name):
    # the header still matches the manifest; only the file's size gives it away
    save_manifest(_tiny_manifest(tmp_path), tmp_path / "manifest.json")
    cut = tmp_path / name
    cut.write_bytes(cut.read_bytes()[:-4])
    with pytest.raises(ValidationError, match=f"file {re.escape(str(cut))}: its .* header needs"):
        load_manifest(tmp_path / "manifest.json")


def test_manifest_detects_a_label_count_mismatch(tmp_path):
    manifest = _tiny_manifest(tmp_path)
    write_labels(tmp_path / "dom1.fzl", np.zeros(9, dtype=np.int64))
    with pytest.raises(ValidationError, match=r"header \(9,\) does not match manifest \(10,\)"):
        validate_manifest(manifest)


@pytest.mark.parametrize("n, ratio, n_val", [(10, 0.1, 1), (10, 0.9, 9), (3, 0.67, 2)])
def test_manifest_refuses_a_split_with_a_side_under_two_rows(tmp_path, n, ratio, n_val):
    # a threshold needs two validation rows and a Gaussian fit two training rows
    manifest = dataclasses.replace(_tiny_manifest(tmp_path, n=n), split_ratio=ratio)
    with pytest.raises(ValidationError, match=f"{n_val} validation and {n - n_val} training"):
        validate_manifest(manifest)


def test_check_split_accepts_two_rows_a_side():
    check_split(4, 0.5)
    check_split(10, 0.2)


def test_manifest_rejects_duplicate_ids(tmp_path):
    manifest = _tiny_manifest(tmp_path)
    dup = ZooManifest(
        dataset_name=manifest.dataset_name,
        n_classes=manifest.n_classes,
        split_ratio=manifest.split_ratio,
        domains=manifest.domains + (manifest.domains[0],),
        encoders=manifest.encoders,
        root=manifest.root,
    )
    with pytest.raises(ValidationError):
        validate_manifest(dup)


def test_split_shared_across_encoders(tmp_path):
    manifest = _tiny_manifest(tmp_path)
    fa = load_domain_features(manifest, "encA", "dom0", seed=11)
    fb = load_domain_features(manifest, "encB", "dom0", seed=11)
    assert np.array_equal(fa.split_mask, fb.split_mask)


def test_save_and_load_feature_set_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    manifest = _tiny_manifest(tmp_path)
    fs = build_feature_set(
        "dom0",
        rng.normal(size=(10, 3)).astype(np.float32),
        rng.integers(0, 2, size=10),
        dataset_name="tiny",
        n_classes=2,
        split_ratio=0.2,
        seed=4,
    )
    fpath, lpath = tmp_path / "rt.fzf", tmp_path / "rt.fzl"
    write_features(fpath, fs.features)
    write_labels(lpath, fs.labels)
    back = load_feature_set(fpath, lpath, "dom0", manifest, seed=4)
    assert np.array_equal(back.features.view(np.uint32), fs.features.view(np.uint32))
    assert np.array_equal(back.labels, fs.labels)
    assert np.array_equal(back.split_mask, fs.split_mask)


def test_loading_checks_each_matrix_for_non_finite_values_once(tmp_path, monkeypatch):
    manifest = _tiny_manifest(tmp_path)
    calls = []
    isfinite = np.isfinite

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return isfinite(*args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counted)
    fs = load_domain_features(manifest, "encA", "dom0")
    assert calls == [fs.features.shape]
