"""Synthetic multi-domain datasets with planted, analytically known shifts.

Raw inputs are a concatenation of three blocks:

* core: class-conditional Gaussians identical in every domain (the stable
  signal a robust model should use);
* div: label-independent Gaussians centered at domain_index * div_offset,
  so domains occupy disjoint supports once the offset clears the noise
  (plants diversity shift and nothing else);
* spur: sign * pattern[label] + noise, where the sign is +1 with
  probability (1 + strength_e) / 2, so the block correlates with the label
  at per-domain strength. Class patterns come in +/- pairs, so flipping the
  strength's sign permutes class conditionals while leaving the block's
  marginal distribution intact (plants correlation shift without diversity
  shift); minority-sign rows are exactly the ones a correlation-reliant
  model gets confidently wrong.

Encoders are coordinate masks followed by a fixed seeded well-conditioned
linear map and a leaky rectifier; the built zoo contains a clean encoder
(core only), a diversity-heavy one (core+div), a correlation-heavy one
(core+spur), a full encoder used as the main model, and mixed randoms that
see at most half of each shifted block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ensemble_train import TrainConfig
from .errors import ValidationError
from .feature_store import (
    DomainInfo,
    EncoderInfo,
    FeatureSet,
    ZooManifest,
    build_feature_set,
    save_manifest,
    write_features,
    write_labels,
)

CORE_SCALE = 1.8  # class-mean separation in the core block, in noise units
PATTERN_NORM = 3.0  # length of each spur class pattern
LEAKY_SLOPE = 0.2


@dataclass(frozen=True)
class SynthSpec:
    """Generative knobs for the planted-shift benchmark."""

    n_domains: int = 3
    n_classes: int = 4
    dim_core: int = 8
    dim_div: int = 4
    dim_spur: int = 4
    samples_per_domain: int = 2000
    spur_strength: tuple[float, ...] = (0.9, 0.9, -0.9)
    div_offset: float = 2.5
    noise_sigma: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_domains < 2:
            raise ValidationError(f"need >= 2 domains, got {self.n_domains}")
        if self.n_classes < 2:
            raise ValidationError(f"need >= 2 classes, got {self.n_classes}")
        if min(self.dim_core, self.dim_div, self.dim_spur) < 0:
            raise ValidationError("block dims must be >= 0")
        if self.dim_core + self.dim_div + self.dim_spur < 1:
            raise ValidationError("at least one block must be non-empty")
        if self.samples_per_domain < self.n_classes:
            raise ValidationError("need at least one sample per class per domain")
        if len(self.spur_strength) != self.n_domains:
            raise ValidationError(
                f"spur_strength has {len(self.spur_strength)} entries for "
                f"{self.n_domains} domains"
            )
        if any(abs(s) > 1.0 for s in self.spur_strength):
            raise ValidationError("spur strengths must lie in [-1, 1]")
        if self.noise_sigma <= 0:
            raise ValidationError("noise_sigma must be positive")

    @property
    def dim_total(self) -> int:
        return self.dim_core + self.dim_div + self.dim_spur

    @property
    def core_indices(self) -> tuple[int, ...]:
        return tuple(range(self.dim_core))

    @property
    def div_indices(self) -> tuple[int, ...]:
        return tuple(range(self.dim_core, self.dim_core + self.dim_div))

    @property
    def spur_indices(self) -> tuple[int, ...]:
        return tuple(range(self.dim_core + self.dim_div, self.dim_total))


def _class_means(rng: np.random.Generator, n_classes: int, dim: int) -> np.ndarray:
    if dim == 0:
        return np.zeros((n_classes, 0))
    raw = rng.normal(size=(n_classes, dim))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    return CORE_SCALE * raw


def _spur_patterns(rng: np.random.Generator, n_classes: int, dim: int) -> np.ndarray:
    """Class patterns in +/- pairs; an odd trailing class gets the zero pattern.

    With paired patterns, negating the domain strength maps each class's
    conditional onto its partner's, so the block's marginal is unchanged.
    """
    patterns = np.zeros((n_classes, dim))
    if dim == 0:
        return patterns
    n_pairs = n_classes // 2
    if n_pairs:
        base = rng.normal(size=(dim, n_pairs))
        q, _ = np.linalg.qr(base)
        for j in range(n_pairs):
            v = PATTERN_NORM * q[:, j % q.shape[1]]
            patterns[2 * j] = v
            patterns[2 * j + 1] = -v
    return patterns


def _balanced_labels(rng: np.random.Generator, n: int, n_classes: int) -> np.ndarray:
    reps = -(-n // n_classes)
    labels = np.tile(np.arange(n_classes), reps)[:n]
    rng.shuffle(labels)
    return labels


def generate(
    spec: SynthSpec, split_ratio: float = 0.2, dataset_name: str = "synth"
) -> tuple[list[FeatureSet], dict]:
    """Raw-input-space domains plus a ground-truth card describing the shifts."""
    ss = np.random.SeedSequence(spec.seed)
    ss_means, ss_patterns, *domain_seeds = ss.spawn(2 + spec.n_domains)
    means = _class_means(np.random.default_rng(ss_means), spec.n_classes, spec.dim_core)
    patterns = _spur_patterns(np.random.default_rng(ss_patterns), spec.n_classes, spec.dim_spur)
    sets = []
    for e, dseed in enumerate(domain_seeds):
        rng = np.random.default_rng(dseed)
        n = spec.samples_per_domain
        labels = _balanced_labels(rng, n, spec.n_classes)
        blocks = []
        if spec.dim_core:
            blocks.append(means[labels] + spec.noise_sigma * rng.normal(size=(n, spec.dim_core)))
        if spec.dim_div:
            blocks.append(
                e * spec.div_offset + spec.noise_sigma * rng.normal(size=(n, spec.dim_div))
            )
        if spec.dim_spur:
            # sign mixture: each row carries its own class pattern with
            # probability (1 + strength) / 2, otherwise the partner's.
            # E[spur | y] = strength * pattern[y], and the pooled marginal
            # over a +/- class pair is strength-free, so nothing leaks into
            # the diversity axis.
            own = rng.random(n) < 0.5 * (1.0 + spec.spur_strength[e])
            signs = np.where(own, 1.0, -1.0)[:, None]
            blocks.append(
                signs * patterns[labels]
                + spec.noise_sigma * rng.normal(size=(n, spec.dim_spur))
            )
        x = np.concatenate(blocks, axis=1).astype(np.float32)
        sets.append(
            build_feature_set(
                f"domain{e}",
                x,
                labels,
                dataset_name=dataset_name,
                n_classes=spec.n_classes,
                split_ratio=split_ratio,
                seed=spec.seed,
            )
        )
    card = {
        "dataset_name": dataset_name,
        "blocks": {
            "core": list(spec.core_indices),
            "div": list(spec.div_indices),
            "spur": list(spec.spur_indices),
        },
        "diversity_shift": {
            "source_block": "div",
            "domain_centers": [e * spec.div_offset for e in range(spec.n_domains)],
        },
        "correlation_shift": {
            "source_block": "spur",
            "domain_strengths": list(spec.spur_strength),
        },
        "n_domains": spec.n_domains,
        "n_classes": spec.n_classes,
        "samples_per_domain": spec.samples_per_domain,
        "noise_sigma": spec.noise_sigma,
        "seed": spec.seed,
    }
    return sets, card


@dataclass(frozen=True)
class SynthEncoder:
    """Coordinate mask plus a fixed seeded linear map and leaky rectifier."""

    encoder_id: str
    coord_indices: tuple[int, ...]
    seed: int

    def __post_init__(self) -> None:
        if not self.coord_indices:
            raise ValidationError(f"encoder '{self.encoder_id}' passes no coordinates")

    @property
    def dim(self) -> int:
        return len(self.coord_indices)

    def projection(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        d = self.dim
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        return q * rng.uniform(0.8, 1.25, size=d)  # scales column j of q by u[j]

    def transform(self, x: np.ndarray) -> np.ndarray:
        return _encode(x, self.coord_indices, self.projection())


def _encode(x: np.ndarray, coord_indices: tuple[int, ...], projection: np.ndarray) -> np.ndarray:
    z = np.asarray(x, dtype=np.float64)[:, list(coord_indices)] @ projection
    return np.where(z > 0, z, LEAKY_SLOPE * z)


ZOO_ROLES = ("clean", "div_heavy", "cor_heavy", "main_full")


def _zoo_encoders(spec: SynthSpec, zoo_size: int) -> list[SynthEncoder]:
    ss = np.random.SeedSequence(spec.seed).spawn(1)[0]
    seeds = [int(s.generate_state(1)[0]) for s in ss.spawn(max(zoo_size, 4) + 1)]
    core, div, spur = spec.core_indices, spec.div_indices, spec.spur_indices
    half = lambda idx: idx[: -(-len(idx) // 2)] if idx else ()
    encoders = [
        SynthEncoder("clean", core or div or spur, seeds[0]),
        SynthEncoder("div_heavy", core + div if div else core, seeds[1]),
        SynthEncoder("cor_heavy", core + spur if spur else core, seeds[2]),
        SynthEncoder("main_full", core + half(div) + half(spur), seeds[3]),
    ]
    rng = np.random.default_rng(seeds[-1])
    for i in range(4, max(zoo_size, 4)):
        picks: list[int] = []
        if core:
            k = int(rng.integers(max(1, len(core) // 2), len(core) + 1))
            picks += sorted(rng.choice(core, size=k, replace=False).tolist())
        if div:
            k = int(rng.integers(0, len(div) // 2 + 1))
            picks += sorted(rng.choice(div, size=k, replace=False).tolist())
        if spur:
            # at most a quarter of the spur block, so no random encoder can
            # rival the planted correlation-heavy one
            k = int(rng.integers(0, max(1, len(spur) // 4) + 1))
            picks += sorted(rng.choice(spur, size=k, replace=False).tolist())
        if not picks:
            picks = list(core or div or spur)
        encoders.append(SynthEncoder(f"mixed{i - 3}", tuple(picks), seeds[i]))
    return encoders


def build_zoo(
    spec: SynthSpec,
    zoo_size: int = 6,
    out_dir: Path | str = ".",
    split_ratio: float = 0.2,
    dataset_name: str = "synth",
) -> tuple[ZooManifest, list[SynthEncoder], dict]:
    """Generate domains, extract zoo features, and write everything to disk.

    Emits FZF1/FZL1 files, a manifest, and a ground-truth card naming the
    planted-extreme encoder for each shift axis. Byte-identical across runs
    with the same spec.
    """
    if zoo_size < 2:
        raise ValidationError(f"zoo_size must be >= 2, got {zoo_size}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    raw_sets, card = generate(spec, split_ratio=split_ratio, dataset_name=dataset_name)
    encoders = _zoo_encoders(spec, zoo_size)
    domains = []
    for fs in raw_sets:
        label_file = f"{fs.domain_id}.fzl"
        write_labels(out_dir / label_file, fs.labels)
        domains.append(DomainInfo(fs.domain_id, fs.n_samples, label_file))
    infos = []
    for enc in encoders:
        # one projection per encoder, shared by its domains
        projection = enc.projection()
        files = {}
        for fs in raw_sets:
            fname = f"{enc.encoder_id}_{fs.domain_id}.fzf"
            z = _encode(fs.features, enc.coord_indices, projection)
            write_features(out_dir / fname, z.astype(np.float32))
            del z  # one domain's encoding alive at a time
            files[fs.domain_id] = fname
        del projection
        infos.append(EncoderInfo(enc.encoder_id, enc.dim, files))
    manifest = ZooManifest(
        dataset_name=dataset_name,
        n_classes=spec.n_classes,
        split_ratio=split_ratio,
        domains=tuple(domains),
        encoders=tuple(infos),
        root=out_dir,
    )
    save_manifest(manifest, out_dir / "manifest.json")
    card = dict(card)
    card["zoo_roles"] = {role: role for role in ZOO_ROLES}
    card["encoders"] = {e.encoder_id: sorted(e.coord_indices) for e in encoders}
    (out_dir / "ground_truth.json").write_text(
        json.dumps(card, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return manifest, encoders, card


def benchmark_train_config(seed: int = 0, **overrides) -> TrainConfig:
    """Desk-scale training preset for the planted-shift benchmark.

    The reweighting classifier's step count and learning rate differ from
    the pretrained-feature defaults: zero-initialized logits on unit-scale
    synthetic features need a much larger step size to produce informative
    confidences within the budget, and a short schedule keeps the classifier
    leaning on the dominant (spurious) direction, which is what makes its
    low-confidence rows the counterexample rows worth upweighting.
    """
    params = dict(
        lam=20.0,
        temperature=1.0,
        n_warmup=100,
        n_anneal=300,
        learning_rate=1e-3,
        batch_size=32,
        steps=1200,
        eval_every=100,
        weight_decay=0.01,
        aux_lr=1e-2,
        aux_steps=200,
        seed=seed,
    )
    params.update(overrides)
    return TrainConfig(**params)
