"""Planted-shift generator: block semantics, zoo construction, determinism."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracle_utils import benchmark_train_config

import shiftzoo
from shiftzoo.correlation_profile import dataset_correlation
from shiftzoo.ensemble_train import TrainConfig
from shiftzoo.errors import ValidationError
from shiftzoo.feature_store import FeatureSet, load_domain_features, load_manifest
from shiftzoo.gaussian_profile import dataset_diversity
from shiftzoo.report import select_auxiliaries
from shiftzoo.synthetic_dg import (
    LEAKY_SLOPE,
    ZOO_ROLES,
    SynthEncoder,
    SynthSpec,
    _spur_patterns,
    build_zoo,
    generate,
)


def _encoded(sets, coords, seed=99):
    enc = SynthEncoder("probe", tuple(coords), seed)
    return [
        FeatureSet(f.domain_id, enc.transform(f.features).astype(np.float32), f.labels, f.split_mask)
        for f in sets
    ]


def _scores(manifest):
    out = {}
    for enc in manifest.encoders:
        sets = [
            load_domain_features(manifest, enc.encoder_id, d.domain_id, seed=0)
            for d in manifest.domains
        ]
        f_div, div_pairs = dataset_diversity(sets)
        f_cor, _ = dataset_correlation(sets, div_pairs, manifest.n_classes)
        out[enc.encoder_id] = (f_div, f_cor)
    return out


def test_spec_validation():
    with pytest.raises(ValidationError):
        SynthSpec(n_domains=1, spur_strength=(0.5,))
    with pytest.raises(ValidationError):
        SynthSpec(spur_strength=(0.5, 0.5))  # wrong length for 3 domains
    with pytest.raises(ValidationError):
        SynthSpec(spur_strength=(1.5, 0.0, 0.0))
    with pytest.raises(ValidationError, match="spur strengths"):
        SynthSpec(spur_strength=(float("nan"), 0.9, 0.9))
    with pytest.raises(ValidationError):
        SynthSpec(dim_core=0, dim_div=0, dim_spur=0)
    with pytest.raises(ValidationError):
        SynthSpec(noise_sigma=0.0)
    with pytest.raises(ValidationError, match="seed"):
        SynthSpec(seed=-1)  # numpy's generators take no negative seed
    for name in ("div_offset", "noise_sigma"):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValidationError, match=f"{name} must be finite"):
                SynthSpec(**{name: value})


def test_block_index_layout():
    spec = SynthSpec()
    assert spec.core_indices == tuple(range(8))
    assert spec.div_indices == (8, 9, 10, 11)
    assert spec.spur_indices == (12, 13, 14, 15)
    assert spec.dim_total == 16


def test_labels_are_balanced():
    sets, _ = generate(SynthSpec(seed=5))
    for fs in sets:
        counts = np.bincount(fs.labels, minlength=4)
        assert counts.min() == counts.max() == 500


def test_generate_is_deterministic():
    a, _ = generate(SynthSpec(seed=11))
    b, _ = generate(SynthSpec(seed=11))
    for fa, fb in zip(a, b):
        assert np.array_equal(fa.features, fb.features)
        assert np.array_equal(fa.labels, fb.labels)
        assert np.array_equal(fa.split_mask, fb.split_mask)


def test_iid_spec_has_near_zero_diversity():
    spec = SynthSpec(seed=3, div_offset=0.0, spur_strength=(0.5, 0.5, 0.5))
    sets, _ = generate(spec)
    f_div, _ = dataset_diversity(_encoded(sets, range(spec.dim_total)))
    assert f_div == pytest.approx(0.01, abs=0.01)


def test_large_offset_separates_div_supports():
    spec = SynthSpec(seed=3, div_offset=100.0)
    sets, _ = generate(spec)
    f_div, _ = dataset_diversity(_encoded(sets, spec.div_indices))
    assert f_div >= 0.99


def test_flipped_spur_gives_high_correlation_shift():
    spec = SynthSpec(seed=3, n_domains=2, spur_strength=(1.0, -1.0))
    sets, _ = generate(spec)
    enc_sets = _encoded(sets, spec.spur_indices)
    _, div_pairs = dataset_diversity(enc_sets)
    f_cor, _ = dataset_correlation(enc_sets, div_pairs, spec.n_classes)
    assert f_cor >= 0.8


def test_spur_block_leaks_no_diversity():
    # the +/- pattern mixture keeps the spur marginal strength-free, so a
    # spur-only encoder must look i.i.d. to the diversity estimator even
    # when the correlation flips sign across domains
    spec = SynthSpec(seed=7, spur_strength=(0.9, 0.9, -0.9))
    sets, _ = generate(spec)
    f_div, _ = dataset_diversity(_encoded(sets, spec.spur_indices))
    assert f_div <= 0.05


def test_sign_mixture_rate_tracks_strength():
    spec = SynthSpec(seed=2, spur_strength=(0.8, 0.0, -0.6))
    sets, _ = generate(spec)
    ss = np.random.SeedSequence(spec.seed)
    _, ss_pat, *_ = ss.spawn(2 + spec.n_domains)
    patterns = _spur_patterns(np.random.default_rng(ss_pat), spec.n_classes, spec.dim_spur)
    for fs, strength in zip(sets, spec.spur_strength):
        align = (fs.features[:, list(spec.spur_indices)] * patterns[fs.labels]).sum(axis=1)
        own_rate = (align > 0).mean()
        # alignment sign recovers the drawn mixture component up to noise
        expected = 0.5 * (1.0 + strength)
        assert own_rate == pytest.approx(expected, abs=0.06)


def test_encoder_is_deterministic_and_leaky():
    enc = SynthEncoder("e", (0, 1, 2), 21)
    x = np.random.default_rng(0).normal(size=(40, 5))
    z1, z2 = enc.transform(x), enc.transform(x)
    assert np.array_equal(z1, z2)
    pre = x[:, :3] @ enc.projection()
    neg = pre < 0
    np.testing.assert_allclose(z1[neg], LEAKY_SLOPE * pre[neg], atol=1e-12)
    np.testing.assert_allclose(z1[~neg], pre[~neg], atol=1e-12)


@pytest.mark.parametrize("width", [5, 1024])
def test_projection_equals_dense_diagonal_product(width):
    enc = SynthEncoder("e", tuple(range(width)), 21 + width)
    rng = np.random.default_rng(enc.seed)
    q, _ = np.linalg.qr(rng.normal(size=(width, width)))
    dense = q @ np.diag(rng.uniform(0.8, 1.25, size=width))
    assert enc.projection().tobytes() == dense.tobytes()


def test_encoder_requires_coordinates():
    with pytest.raises(ValidationError):
        SynthEncoder("empty", (), 0)


def test_build_zoo_outputs_load_cleanly(tmp_path):
    spec = SynthSpec(seed=4)
    manifest, encoders, card = build_zoo(spec, zoo_size=6, out_dir=tmp_path)
    reread = load_manifest(tmp_path / "manifest.json")
    assert {e.encoder_id for e in reread.encoders} == {e.encoder_id for e in encoders}
    for role in ZOO_ROLES:
        assert role in {e.encoder_id for e in encoders}
    fs = load_domain_features(reread, "main_full", "domain0", seed=0)
    assert fs.n_samples == spec.samples_per_domain
    assert card["blocks"]["spur"] == list(spec.spur_indices)


def test_build_zoo_projects_once_per_encoder(tmp_path, monkeypatch):
    calls = []
    original = SynthEncoder.projection

    def counting(self):
        calls.append(self.encoder_id)
        return original(self)

    monkeypatch.setattr(SynthEncoder, "projection", counting)
    spec = SynthSpec(n_domains=4, spur_strength=(0.9, 0.9, 0.9, -0.9), samples_per_domain=100)
    manifest, encoders, _ = build_zoo(spec, zoo_size=5, out_dir=tmp_path)
    assert sorted(calls) == sorted(e.encoder_id for e in encoders)
    # the files hold exactly what each encoder's transform gives
    monkeypatch.undo()
    raw_sets, _ = generate(spec)
    for enc in encoders:
        for fs in raw_sets:
            stored = load_domain_features(manifest, enc.encoder_id, fs.domain_id).features
            assert np.array_equal(stored, enc.transform(fs.features).astype(np.float32))


def test_build_zoo_is_byte_deterministic(tmp_path):
    spec = SynthSpec(seed=9)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    build_zoo(spec, zoo_size=5, out_dir=dir_a)
    build_zoo(spec, zoo_size=5, out_dir=dir_b)
    files_a = sorted(p.name for p in dir_a.iterdir())
    assert files_a == sorted(p.name for p in dir_b.iterdir())
    for name in files_a:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_mixed_encoders_respect_block_caps(tmp_path):
    spec = SynthSpec(seed=6)
    _, encoders, _ = build_zoo(spec, zoo_size=8, out_dir=tmp_path)
    core = set(spec.core_indices)
    div = set(spec.div_indices)
    spur = set(spec.spur_indices)
    mixed = [e for e in encoders if e.encoder_id.startswith("mixed")]
    assert len(mixed) == 4
    for enc in mixed:
        picks = set(enc.coord_indices)
        assert len(picks & core) >= len(core) // 2
        assert len(picks & div) <= len(div) // 2
        assert len(picks & spur) <= max(1, len(spur) // 4)


def test_zoo_rejects_tiny_size(tmp_path):
    # the four planted roles are always built, so a smaller zoo cannot exist
    for zoo_size in (1, 2, 3):
        with pytest.raises(ValidationError, match="zoo_size must be >= 4"):
            build_zoo(SynthSpec(seed=0), zoo_size=zoo_size, out_dir=tmp_path)
    assert not (tmp_path / "manifest.json").exists()


def test_planted_extremes_rank_top(tmp_path):
    manifest, _, _ = build_zoo(SynthSpec(seed=0), zoo_size=6, out_dir=tmp_path)
    scores = _scores(manifest)
    assert max(scores, key=lambda k: scores[k][0]) == "div_heavy"
    assert max(scores, key=lambda k: scores[k][1]) == "cor_heavy"
    assert select_auxiliaries(scores, "main_full") == ("div_heavy", "cor_heavy")
    # the clean encoder sits below both planted extremes on both axes
    assert scores["clean"][0] < scores["div_heavy"][0]
    assert scores["clean"][1] < scores["cor_heavy"][1]


def test_benchmark_config_defaults_and_overrides():
    cfg = benchmark_train_config(seed=12)
    assert isinstance(cfg, TrainConfig)
    assert cfg.seed == 12
    assert cfg.hsic_active and cfg.rew_active
    cfg2 = benchmark_train_config(seed=12, lam=0.0, steps=10)
    assert cfg2.lam == 0.0 and cfg2.steps == 10


def test_importing_the_generator_leaves_the_trainer_and_scipy_unloaded():
    src = str(Path(shiftzoo.__file__).resolve().parent.parent)
    probe = (
        "import sys; import shiftzoo.synthetic_dg; "
        "print(sorted({'shiftzoo.ensemble_train', 'scipy'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
