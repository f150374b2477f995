"""Per-domain feature matrices, labels, manifests, and train/validation splits.

File formats (all little-endian):

* feature file: magic ``FZF1``, u32 n_rows, u32 n_cols, then n_rows*n_cols
  f32 values in row-major order;
* label file: magic ``FZL1``, u32 n, then n u32 labels;
* manifest: UTF-8 JSON document, see ``ZooManifest``. Paths inside the
  manifest are relative to the manifest file's directory.

A file whose size is not the one its header implies is refused, by the
readers and, before any payload is read, by ``load_manifest``.

Validation splits are a pure function of (dataset_name, domain_id, seed), so
every encoder of a dataset sees the same rows of a domain in the same split,
and reruns reproduce the split bit-for-bit on any platform.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import ValidationError

FEATURE_MAGIC = b"FZF1"
LABEL_MAGIC = b"FZL1"
# magic -> (what the file holds, its number of dimensions, its value type)
_FORMATS = {FEATURE_MAGIC: ("feature", 2, "<f4"), LABEL_MAGIC: ("label", 1, "<u4")}


@dataclass(frozen=True)
class FeatureSet:
    """Encoder outputs for one domain, with labels and a frozen split.

    ``split_mask`` is True on validation rows. ``features`` keeps the on-disk
    float32 payload. ``train_features`` / ``val_features`` hand out float64
    copies; the package itself no longer calls them and widens the stored
    rows inside each operation instead.
    """

    domain_id: str
    features: np.ndarray
    labels: np.ndarray
    split_mask: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def train_features(self) -> np.ndarray:
        return self.features[~self.split_mask].astype(np.float64)

    @property
    def val_features(self) -> np.ndarray:
        return self.features[self.split_mask].astype(np.float64)

    @property
    def train_labels(self) -> np.ndarray:
        return self.labels[~self.split_mask]

    @property
    def val_labels(self) -> np.ndarray:
        return self.labels[self.split_mask]


@dataclass(frozen=True)
class DomainInfo:
    domain_id: str
    n_samples: int
    label_file: str


@dataclass(frozen=True)
class EncoderInfo:
    encoder_id: str
    dim: int
    files: dict[str, str]  # domain_id -> feature file path, manifest-relative


@dataclass(frozen=True)
class ZooManifest:
    """Dataset bookkeeping: domains, encoders, and where their files live."""

    dataset_name: str
    n_classes: int
    split_ratio: float
    domains: tuple[DomainInfo, ...]
    encoders: tuple[EncoderInfo, ...]
    root: Path = field(default_factory=Path)

    def domain(self, domain_id: str) -> DomainInfo:
        for d in self.domains:
            if d.domain_id == domain_id:
                return d
        raise ValidationError(f"unknown domain id '{domain_id}'")

    def encoder(self, encoder_id: str) -> EncoderInfo:
        for e in self.encoders:
            if e.encoder_id == encoder_id:
                return e
        raise ValidationError(f"unknown encoder id '{encoder_id}'")

    @property
    def domain_ids(self) -> list[str]:
        return [d.domain_id for d in self.domains]

    @property
    def encoder_ids(self) -> list[str]:
        return [e.encoder_id for e in self.encoders]

    def feature_path(self, encoder_id: str, domain_id: str) -> Path:
        enc = self.encoder(encoder_id)
        if domain_id not in enc.files:
            raise ValidationError(
                f"encoder '{encoder_id}' has no feature file for domain '{domain_id}'"
            )
        return self.root / enc.files[domain_id]

    def label_path(self, domain_id: str) -> Path:
        return self.root / self.domain(domain_id).label_file


def _write(path: Path | str, magic: bytes, shape: tuple[int, ...], blocks: Iterable) -> None:
    """Write ``magic``, one u32 per dimension of ``shape``, then ``blocks`` in row order.

    Each block goes out as soon as it arrives, straight from its buffer, so a
    caller can reuse one block buffer. The blocks must add up to ``shape``.
    """
    rows = 0
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack(f"<{len(shape)}I", *shape))
        for block in blocks:
            arr = np.ascontiguousarray(block, dtype=_FORMATS[magic][2])
            if arr.shape[1:] != shape[1:] or rows + arr.shape[0] > shape[0]:
                raise ValidationError(f"{path}: a {arr.shape} block does not fit rows {rows}.. "
                                      f"of a {shape} file")
            fh.write(memoryview(arr))
            rows += arr.shape[0]
    if rows != shape[0]:
        raise ValidationError(f"{path}: {rows} rows written for a {shape} file")


def _shape(path: Path | str, magic: bytes, head: bytes, size: int) -> tuple[int, ...]:
    """The shape that ``head``, a file's first bytes, declares, checked against its ``size``."""
    kind, ndim, _ = _FORMATS[magic]
    if len(head) < 4 + 4 * ndim or head[:4] != magic:
        raise ValidationError(f"malformed {kind} file header: {path}")
    shape = struct.unpack(f"<{ndim}I", head[4 : 4 + 4 * ndim])
    expected = 4 + 4 * ndim + 4 * math.prod(shape)
    if size != expected:
        raise ValidationError(
            f"{kind} file {path}: its {shape} header needs {expected} bytes, the file has {size}"
        )
    return shape


def _payload(path: Path | str, magic: bytes) -> np.ndarray:
    """A read-only view of a file's payload, from one read of its bytes."""
    data = Path(path).read_bytes()
    shape = _shape(path, magic, data, len(data))
    return np.frombuffer(data, _FORMATS[magic][2], offset=4 + 4 * len(shape)).reshape(shape)


def write_feature_blocks(path: Path | str, shape: tuple[int, int], blocks: Iterable) -> None:
    """Write an FZF1 file of ``shape`` from its row blocks, taken in row order."""
    _write(path, FEATURE_MAGIC, tuple(shape), blocks)


def write_features(path: Path | str, matrix: np.ndarray) -> None:
    """Write a 2-D array as an FZF1 file (values stored as little-endian f32)."""
    arr = np.asarray(matrix)
    if arr.ndim != 2:
        raise ValidationError(f"feature matrix must be 2-D, got shape {arr.shape}")
    write_feature_blocks(path, arr.shape, [arr])


def read_features(path: Path | str) -> np.ndarray:
    """Load an FZF1 file into a float32 matrix, rejecting NaN/Inf payloads."""
    arr = _payload(path, FEATURE_MAGIC)
    if not np.isfinite(arr).all():
        raise ValidationError(f"feature file {path}: non-finite payload")
    return arr.copy()


def _whole_labels(labels, owner: str) -> np.ndarray:
    """``labels`` as an array, refused unless every value is a whole number."""
    arr = np.asarray(labels)
    if arr.dtype.kind not in "biu" and not (
        arr.dtype.kind == "f" and np.isfinite(arr).all() and (arr == np.trunc(arr)).all()
    ):
        raise ValidationError(f"{owner}: labels must be whole numbers")
    return arr


def write_labels(path: Path | str, labels: np.ndarray) -> None:
    arr = _whole_labels(labels, str(path))
    if arr.ndim != 1:
        raise ValidationError(f"label vector must be 1-D, got shape {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= 2**32):
        raise ValidationError(f"{path}: labels must be in [0, 2**32), the range of a u32")
    _write(path, LABEL_MAGIC, arr.shape, [arr])


def read_labels(path: Path | str) -> np.ndarray:
    return _payload(path, LABEL_MAGIC).astype(np.int64)


def validation_rows(n: int, ratio: float) -> int:
    """How many of ``n`` rows ``split_mask`` puts in validation: floor(ratio*n)."""
    if not 0.0 < ratio < 1.0:
        raise ValidationError(f"split ratio must be in (0,1), got {ratio}")
    return int(ratio * n + 1e-9)


def check_split(n: int, ratio: float, domain: str = "each domain") -> None:
    """Refuse a split of ``n`` rows with fewer than two on either side.

    A diversity threshold is the (k+1)-th largest validation distance, k >= 1,
    and a Gaussian fit needs two training rows.
    """
    n_val = validation_rows(n, ratio)
    if n_val < 2 or n - n_val < 2:
        raise ValidationError(
            f"samples_per_domain={n} at split_ratio={ratio} leaves {domain} {n_val} validation "
            f"and {n - n_val} training rows; each side needs at least two"
        )


def split_mask(dataset_name: str, domain_id: str, n: int, ratio: float, seed: int) -> np.ndarray:
    """Deterministic validation mask: last floor(ratio*n) of a keyed permutation.

    The permutation is seeded from a SHA-256 digest of
    ``dataset_name|domain_id|seed``, so the split is shared by every encoder
    of the dataset and is stable across runs and platforms.
    """
    n_val = validation_rows(n, ratio)
    digest = hashlib.sha256(f"{dataset_name}|{domain_id}|{seed}".encode()).digest()
    words = struct.unpack("<8I", digest)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))
    perm = rng.permutation(n)
    mask = np.zeros(n, dtype=bool)
    if n_val:
        mask[perm[n - n_val:]] = True
    return mask


def build_feature_set(
    domain_id: str,
    features: np.ndarray,
    labels: np.ndarray,
    *,
    dataset_name: str,
    n_classes: int,
    split_ratio: float,
    seed: int,
) -> FeatureSet:
    """Assemble and validate a FeatureSet from in-memory arrays."""
    features = np.ascontiguousarray(features, dtype=np.float32)
    if features.ndim != 2:
        raise ValidationError("features must be a 2-D matrix")
    if not np.isfinite(features).all():
        raise ValidationError(f"domain '{domain_id}': non-finite feature values")
    return _feature_set(domain_id, features, labels, dataset_name, n_classes, split_ratio, seed)


def _feature_set(
    domain_id: str,
    features: np.ndarray,
    labels: np.ndarray,
    dataset_name: str,
    n_classes: int,
    split_ratio: float,
    seed: int,
) -> FeatureSet:
    """A FeatureSet of a finite float32 matrix: the labels checked, the split drawn."""
    labels = _whole_labels(labels, f"domain '{domain_id}'")
    if labels.shape != (features.shape[0],):
        raise ValidationError(
            f"domain '{domain_id}': {labels.shape[0]} labels for {features.shape[0]} rows"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        bad = int(labels.min()) if labels.min() < 0 else int(labels.max())
        raise ValidationError(f"domain '{domain_id}': label out of range ({bad})")
    mask = split_mask(dataset_name, domain_id, features.shape[0], split_ratio, seed)
    return FeatureSet(domain_id=domain_id, features=features,
                      labels=np.asarray(labels, dtype=np.int64), split_mask=mask)


def load_feature_set(
    features_path: Path | str,
    labels_path: Path | str,
    domain_id: str,
    manifest: ZooManifest,
    seed: int = 0,
    expected_dim: int | None = None,
) -> FeatureSet:
    """Load and validate one (encoder, domain) feature file plus its labels.

    ``read_features`` has checked the matrix for NaN/Inf, so it is not
    checked again.
    """
    features = read_features(features_path)
    labels = read_labels(labels_path)
    info = manifest.domain(domain_id)
    if features.shape[0] != info.n_samples:
        raise ValidationError(
            f"domain '{domain_id}': manifest declares {info.n_samples} samples, "
            f"file has {features.shape[0]}"
        )
    if expected_dim is not None and features.shape[1] != expected_dim:
        raise ValidationError(
            f"domain '{domain_id}': dim mismatch, manifest {expected_dim} vs file "
            f"{features.shape[1]}"
        )
    return _feature_set(
        domain_id, features, labels, manifest.dataset_name, manifest.n_classes,
        manifest.split_ratio, seed,
    )


def load_domain_features(
    manifest: ZooManifest, encoder_id: str, domain_id: str, seed: int = 0
) -> FeatureSet:
    """Manifest-level loader resolving file paths for (encoder, domain)."""
    enc = manifest.encoder(encoder_id)
    return load_feature_set(
        manifest.feature_path(encoder_id, domain_id),
        manifest.label_path(domain_id),
        domain_id,
        manifest,
        seed=seed,
        expected_dim=enc.dim,
    )


def load_manifest(path: Path | str) -> ZooManifest:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read manifest {path}: {exc}") from exc
    try:
        manifest = ZooManifest(
            dataset_name=str(doc["dataset_name"]),
            n_classes=int(doc["n_classes"]),
            split_ratio=float(doc.get("split_ratio", 0.2)),
            domains=tuple(
                DomainInfo(str(d["id"]), int(d["n_samples"]), str(d["label_file"]))
                for d in doc["domains"]
            ),
            encoders=tuple(
                EncoderInfo(str(e["id"]), int(e["dim"]), dict(e["files"]))
                for e in doc["encoders"]
            ),
            root=path.parent,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"manifest {path} is missing or has malformed fields: {exc}") from exc
    validate_manifest(manifest)
    return manifest


def validate_manifest(manifest: ZooManifest) -> None:
    """Check ids, each domain's split, and each file's header and size against the manifest."""
    # a u32 FZL1 label indexes at most 2**32 classes
    if not 1 <= manifest.n_classes <= 2**32:
        raise ValidationError(f"manifest n_classes must be in [1, 2**32], got {manifest.n_classes}")
    domain_ids = manifest.domain_ids
    if len(set(domain_ids)) != len(domain_ids):
        raise ValidationError("duplicate domain ids in manifest")
    encoder_ids = manifest.encoder_ids
    if len(set(encoder_ids)) != len(encoder_ids):
        raise ValidationError("duplicate encoder ids in manifest")
    for dom in manifest.domains:
        check_split(dom.n_samples, manifest.split_ratio, f"domain '{dom.domain_id}'")
    files = [(manifest.label_path(d.domain_id), LABEL_MAGIC, (d.n_samples,))
             for d in manifest.domains]
    files += [(manifest.feature_path(e.encoder_id, d.domain_id), FEATURE_MAGIC,
               (d.n_samples, e.dim)) for e in manifest.encoders for d in manifest.domains]
    for path, magic, shape in files:
        if not path.is_file():
            raise ValidationError(f"{_FORMATS[magic][0]} file missing: {path}")
        with open(path, "rb") as fh:
            declared = _shape(path, magic, fh.read(4 + 4 * len(shape)), path.stat().st_size)
        if declared != shape:
            raise ValidationError(f"{path}: header {declared} does not match manifest {shape}")


def save_manifest(manifest: ZooManifest, path: Path | str) -> None:
    doc = {
        "dataset_name": manifest.dataset_name,
        "n_classes": manifest.n_classes,
        "split_ratio": manifest.split_ratio,
        "domains": [
            {"id": d.domain_id, "n_samples": d.n_samples, "label_file": d.label_file}
            for d in manifest.domains
        ],
        "encoders": [
            {"id": e.encoder_id, "dim": e.dim, "files": dict(sorted(e.files.items()))}
            for e in manifest.encoders
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
