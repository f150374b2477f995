"""Feature/label file round-trips, manifest validation, and split determinism."""

import dataclasses
import hashlib
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracle_utils import reference_pair_shifts, train_first

from shiftzoo.correlation_profile import dataset_correlation
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
from shiftzoo.gaussian_profile import dataset_diversity

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


@pytest.mark.parametrize("labels", [[0.5, 1.7, 2.2], [0.0, 1.0, np.nan], ["0", "1", "2"]])
def test_write_labels_refuses_labels_that_are_not_whole_numbers(tmp_path, labels):
    # a u32 cast would truncate 0.5, 1.7 and 2.2 to 0, 1 and 2
    p = tmp_path / "frac.fzl"
    with pytest.raises(ValidationError, match="labels must be whole numbers"):
        write_labels(p, np.array(labels))
    assert not p.exists()


def test_write_labels_takes_whole_float_labels(tmp_path):
    p = tmp_path / "whole.fzl"
    write_labels(p, np.array([0.0, 2.0, 1.0]))
    assert read_labels(p).tolist() == [0, 2, 1]


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


@pytest.mark.parametrize("labels", [[0.5, 1.7, 0.2, 1.9], [0.0, 1.0, np.inf, 1.0]])
def test_build_feature_set_refuses_labels_that_are_not_whole_numbers(labels):
    # an int64 cast would store classes 0 and 1 for 0.5, 1.7, 0.2 and 1.9
    feats = np.zeros((4, 2), dtype=np.float32)
    with pytest.raises(ValidationError, match="domain 'd0': labels must be whole numbers"):
        build_feature_set(
            "d0", feats, np.array(labels), dataset_name="ds", n_classes=2,
            split_ratio=0.25, seed=0,
        )


def test_build_feature_set_takes_whole_float_labels():
    fs = build_feature_set(
        "d0", np.zeros((4, 2), dtype=np.float32), np.array([0.0, 1.0, 1.0, 0.0]),
        dataset_name="ds", n_classes=2, split_ratio=0.25, seed=0,
    )
    # stored train-first, as whole numbers
    want = train_first(np.array([0, 1, 1, 0]), "ds", "d0", 0.25, 0)
    assert fs.labels.dtype == np.int64 and fs.labels.tolist() == want.tolist()


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
    assert fs.n_train == 80
    assert fs.val_features.shape == (20, 5)
    assert fs.train_features.shape == (80, 5)
    assert fs.train_features.dtype == np.float64
    # train/val partition the rows exactly
    assert fs.train_labels.size + fs.val_labels.size == 100
    recombined = np.concatenate([fs.train, fs.val])
    assert sorted(map(tuple, recombined.tolist())) == sorted(map(tuple, feats.tolist()))
    # the training rows first, then the validation rows, each side in file order
    assert fs.features.tobytes() == train_first(feats, "ds", "d0", 0.2, 3).tobytes()
    assert np.array_equal(fs.labels, train_first(labels, "ds", "d0", 0.2, 3))
    assert np.array_equal(fs.train_features, fs.train.astype(np.float64))
    assert np.array_equal(fs.val_features, fs.val.astype(np.float64))


def test_train_and_val_are_views_of_the_stored_rows():
    rng = np.random.default_rng(1)
    fs = build_feature_set(
        "d0", rng.normal(size=(50, 4)).astype(np.float32), rng.integers(0, 3, size=50),
        dataset_name="ds", n_classes=3, split_ratio=0.3, seed=2,
    )
    assert (len(fs.train), len(fs.val)) == (35, 15) == (fs.n_train, fs.n_samples - fs.n_train)
    for view, whole in ((fs.train, fs.features), (fs.val, fs.features),
                        (fs.train_labels, fs.labels), (fs.val_labels, fs.labels)):
        assert np.shares_memory(view, whole)
    assert fs.train.flags.c_contiguous and fs.val.flags.c_contiguous
    assert np.array_equal(np.concatenate([fs.train, fs.val]), fs.features)
    assert np.array_equal(np.concatenate([fs.train_labels, fs.val_labels]), fs.labels)


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
    assert fa.n_train == fb.n_train
    assert np.array_equal(fa.train_labels, fb.train_labels)
    assert np.array_equal(fa.val_labels, fb.val_labels)
    assert not np.array_equal(fa.train, fb.train)


@pytest.mark.parametrize("seed", [0, 7])
def test_loaded_rows_are_the_file_rows_the_split_mask_picks(tmp_path, seed):
    manifest = _tiny_manifest(tmp_path, n=40)
    for domain_id in manifest.domain_ids:
        labels = read_labels(manifest.label_path(domain_id))
        mask = split_mask("tiny", domain_id, 40, 0.2, seed)
        for encoder_id in manifest.encoder_ids:
            rows = read_features(manifest.feature_path(encoder_id, domain_id))
            fs = load_domain_features(manifest, encoder_id, domain_id, seed=seed)
            # row i of ``train`` is file row np.flatnonzero(~mask)[i], and so on
            for view, view_labels, picked in ((fs.train, fs.train_labels, ~mask),
                                              (fs.val, fs.val_labels, mask)):
                file_rows = np.flatnonzero(picked)
                assert view.tobytes() == rows[file_rows].tobytes()
                assert np.array_equal(view_labels, labels[file_rows])


def test_save_and_load_feature_set_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    manifest = _tiny_manifest(tmp_path)
    feats = rng.normal(size=(10, 3)).astype(np.float32)
    labels = rng.integers(0, 2, size=10)
    fs = build_feature_set(
        "dom0", feats, labels, dataset_name="tiny", n_classes=2, split_ratio=0.2, seed=4,
    )
    # the files hold the rows in file order; both sets store them train-first
    fpath, lpath = tmp_path / "rt.fzf", tmp_path / "rt.fzl"
    write_features(fpath, feats)
    write_labels(lpath, labels)
    back = load_feature_set(fpath, lpath, "dom0", manifest, seed=4)
    assert np.array_equal(back.features.view(np.uint32), fs.features.view(np.uint32))
    assert np.array_equal(back.labels, fs.labels)
    assert back.n_train == fs.n_train


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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_domains=st.integers(2, 3),
    n=st.integers(12, 90),
    d=st.integers(1, 48),
    n_classes=st.integers(2, 3),
    ratio=st.sampled_from([0.2, 0.3, 0.5]),
    split_seed=st.integers(0, 1000),
    offset=st.sampled_from([0.0, 0.5, 3.0]),
)
# pairs with a one-row overlap side: (dom0, dom2) has 50 and 1 rows at width 48,
# (dom0, dom2) 1 and 4 rows at width 48, and (dom0, dom1) 0 and 1 rows at width 3
@example(seed=763308098, n_domains=3, n=75, d=48, n_classes=3, ratio=0.2, split_seed=392,
         offset=0.5)
@example(seed=1347780874, n_domains=3, n=80, d=48, n_classes=2, ratio=0.5, split_seed=845,
         offset=0.5)
@example(seed=1528336650, n_domains=3, n=63, d=3, n_classes=2, ratio=0.2, split_seed=692,
         offset=3.0)
def test_views_score_every_pair_as_gathers_by_split_mask(
    seed, n_domains, n, d, n_classes, ratio, split_seed, offset
):
    """dataset_diversity and dataset_correlation on the train-first sets give
    every pair the bits of scoring the file rows gathered by ``split_mask``,
    where the reference predicts each side's overlap rows on their own and
    again within the pooled rows."""
    rng = np.random.default_rng(seed)
    domains = [
        (f"dom{e}", (rng.normal(size=(n, d)) + e * offset).astype(np.float32),
         rng.integers(0, n_classes, size=n))
        for e in range(n_domains)
    ]
    sets = [
        build_feature_set(domain_id, x, y, dataset_name="hyp", n_classes=n_classes,
                          split_ratio=ratio, seed=split_seed)
        for domain_id, x, y in domains
    ]
    _, div_pairs = dataset_diversity(sets)
    _, cor_pairs = dataset_correlation(sets, div_pairs, n_classes)
    want = reference_pair_shifts(domains, "hyp", n_classes, ratio, split_seed)
    assert list(div_pairs) == list(cor_pairs) == list(want)
    for key, (escape_a, escape_b, f_div, f_cor, n_a, n_b) in want.items():
        div, cor = div_pairs[key], cor_pairs[key]
        assert np.array_equal(div.escape_a, escape_a)
        assert np.array_equal(div.escape_b, escape_b)
        assert div.f_div.hex() == f_div.hex()
        assert cor.f_cor.hex() == f_cor.hex()
        assert (cor.n_overlap_a, cor.n_overlap_b) == (n_a, n_b)
