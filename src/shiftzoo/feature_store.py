"""Per-domain feature matrices, labels, manifests, and train/validation splits.

File formats (all little-endian):

* feature file: magic ``FZF1``, u32 n_rows, u32 n_cols, then n_rows*n_cols
  f32 values in row-major order;
* label file: magic ``FZL1``, u32 n, then n u32 labels;
* manifest: UTF-8 JSON document, see ``ZooManifest`` and ``MANIFEST_SPEC``.
  Paths inside the manifest are relative to the manifest file's directory.

Every JSON file is read through ``read_json`` and written through
``write_json``, and checked against a declarative spec (``check_json``). A
file whose size is not the one its header implies is refused, by the
readers and, before any payload is read, by ``load_manifest``. Every
feature load goes through one block reader, ``read_features``.

Validation splits are a pure function of (dataset_name, domain_id, seed),
shared by every encoder of a dataset and bit-for-bit the same on any
platform. A set's rows are stored train-first (``FeatureSet``), so no other
module reads the split mask.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .blas_threads import BLOCK_DOUBLES
from .errors import ValidationError

FEATURE_MAGIC = b"FZF1"
LABEL_MAGIC = b"FZL1"
# magic -> (what the file holds, its number of dimensions, its value type)
_FORMATS = {FEATURE_MAGIC: ("feature", 2, "<f4"), LABEL_MAGIC: ("label", 1, "<u4")}
# A feature file is read in row blocks of about READ_BLOCK_BYTES, the 1 MiB
# of the package's other row-block work, so a block's checks stay in cache
READ_BLOCK_BYTES = 8 * BLOCK_DOUBLES


@dataclass(frozen=True)
class FeatureSet:
    """Encoder outputs for one domain, with labels, split once when the set is built.

    ``features`` holds the float32 rows train-first: the ``n_train`` training
    rows, then the validation rows, each in file order as ``split_mask``
    picks them; ``labels`` is in the same order. ``features`` may be a slice
    of an array shared with other domains' sets (``load_encoder_sets``).
    ``train`` / ``val`` and ``train_labels`` / ``val_labels`` are views of
    them; ``train_features`` / ``val_features`` are float64 copies.
    """

    domain_id: str
    features: np.ndarray
    labels: np.ndarray
    n_train: int

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def train(self) -> np.ndarray:
        return self.features[: self.n_train]

    @property
    def val(self) -> np.ndarray:
        return self.features[self.n_train :]

    @property
    def train_labels(self) -> np.ndarray:
        return self.labels[: self.n_train]

    @property
    def val_labels(self) -> np.ndarray:
        return self.labels[self.n_train :]

    @property
    def train_features(self) -> np.ndarray:
        return self.train.astype(np.float64)

    @property
    def val_features(self) -> np.ndarray:
        return self.val.astype(np.float64)


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


def read_features(
    path: Path | str, mask: np.ndarray | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """Read an FZF1 file into a float32 matrix, rejecting NaN/Inf payloads.

    The payload is read through one reused buffer, one row block (about
    ``READ_BLOCK_BYTES``) at a time and never whole, and each block's rows go
    straight to their places in ``out`` (a new array by default), which is
    returned. With ``mask``, the domain's validation mask (``split_mask``),
    the rows land train-first as ``FeatureSet`` stores them; without one, in
    file order. ``out`` holds every row, or the training rows only.
    """
    with open(path, "rb") as fh:
        n, dim = _shape(path, FEATURE_MAGIC, fh.read(12), os.fstat(fh.fileno()).st_size)
        if mask is None:
            mask = np.zeros(n, dtype=bool)
        if mask.shape != (n,):
            raise ValidationError(f"feature file {path}: {n} rows, split as {mask.shape[0]}")
        n_train = n - int(np.count_nonzero(mask))
        if out is None:
            out = np.empty((n, dim), dtype=np.float32)
        if out.dtype != np.float32 or out.shape not in ((n, dim), (n_train, dim)):
            raise ValidationError(
                f"feature file {path}: its {n} x {dim} rows, {n_train} of them training "
                f"rows, cannot fill a {out.shape} {out.dtype} array"
            )
        step = max(READ_BLOCK_BYTES // (4 * max(dim, 1)), 1)
        buf = np.empty((min(step, n), dim), dtype=_FORMATS[FEATURE_MAGIC][2])
        # where the next training row and the next validation row go
        at = [0, n_train]
        for start in range(0, n, step):
            block = buf[: min(step, n - start)]
            if fh.readinto(block) != block.nbytes:
                raise ValidationError(f"feature file {path}: payload ends early")
            if not np.isfinite(block).all():
                raise ValidationError(f"feature file {path}: non-finite payload")
            is_val = mask[start : start + len(block)]
            for side in (0, 1) if len(out) == n else (0,):
                rows = np.flatnonzero(is_val == side)
                np.take(block, rows, axis=0, out=out[at[side] : at[side] + rows.size], mode="clip")
                at[side] += rows.size
    return out


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
    mask, labels = _split(
        domain_id, labels, features.shape[0], dataset_name, n_classes, split_ratio, seed
    )
    return FeatureSet(domain_id, features[np.argsort(mask, kind="stable")], labels,
                      features.shape[0] - int(np.count_nonzero(mask)))


def _split(
    domain_id: str,
    labels: np.ndarray,
    n: int,
    dataset_name: str,
    n_classes: int,
    split_ratio: float,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The validation mask of a domain's ``n`` rows, and its labels, checked
    and stored train-first: the training rows', then the validation rows',
    each side in file order."""
    labels = _whole_labels(labels, f"domain '{domain_id}'")
    if labels.shape != (n,):
        raise ValidationError(f"domain '{domain_id}': {labels.shape[0]} labels for {n} rows")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        bad = int(labels.min()) if labels.min() < 0 else int(labels.max())
        raise ValidationError(f"domain '{domain_id}': label out of range ({bad})")
    mask = split_mask(dataset_name, domain_id, n, split_ratio, seed)
    return mask, np.asarray(labels, dtype=np.int64)[np.argsort(mask, kind="stable")]


def load_feature_set(
    features_path: Path | str,
    labels_path: Path | str,
    domain_id: str,
    manifest: ZooManifest,
    seed: int = 0,
    expected_dim: int | None = None,
    out: np.ndarray | None = None,
) -> FeatureSet:
    """Load and validate one (encoder, domain) feature file plus its labels;
    the rows are read train-first into ``out`` (a new array by default), the
    set's ``features``."""
    info = manifest.domain(domain_id)
    mask, labels = _split(
        domain_id, read_labels(labels_path), info.n_samples, manifest.dataset_name,
        manifest.n_classes, manifest.split_ratio, seed,
    )
    features = read_features(features_path, mask, out)
    if expected_dim is not None and features.shape[1] != expected_dim:
        raise ValidationError(
            f"domain '{domain_id}': dim mismatch, manifest {expected_dim} vs file "
            f"{features.shape[1]}"
        )
    return FeatureSet(domain_id, features, labels, info.n_samples - int(np.count_nonzero(mask)))


def load_domain_features(
    manifest: ZooManifest,
    encoder_id: str,
    domain_id: str,
    seed: int = 0,
    out: np.ndarray | None = None,
) -> FeatureSet:
    """Manifest-level loader resolving file paths for (encoder, domain); see
    ``load_feature_set`` for ``out``."""
    enc = manifest.encoder(encoder_id)
    return load_feature_set(
        manifest.feature_path(encoder_id, domain_id),
        manifest.label_path(domain_id),
        domain_id,
        manifest,
        seed=seed,
        expected_dim=enc.dim,
        out=out,
    )


def training_counts(manifest: ZooManifest, domain_ids: Sequence[str]) -> list[int]:
    """Each domain's number of training rows, from the manifest."""
    sizes = [manifest.domain(d).n_samples for d in domain_ids]
    return [n - validation_rows(n, manifest.split_ratio) for n in sizes]


def _slices(array: np.ndarray, counts: Sequence[int]) -> list[np.ndarray]:
    """``array``'s consecutive row slices of ``counts`` rows each."""
    bounds = np.cumsum([0, *counts]).tolist()
    return [array[a:b] for a, b in zip(bounds, bounds[1:])]


def load_encoder_sets(
    manifest: ZooManifest, encoder_id: str, domain_ids: Sequence[str], seed: int = 0
) -> tuple[np.ndarray, list[FeatureSet]]:
    """One encoder's sets of ``domain_ids``, as views of one float32 array
    sized from the manifest that holds each domain's rows in turn."""
    counts = [manifest.domain(d).n_samples for d in domain_ids]
    rows = np.empty((sum(counts), manifest.encoder(encoder_id).dim), dtype=np.float32)
    sets = [load_domain_features(manifest, encoder_id, d, seed, out=part)
            for d, part in zip(domain_ids, _slices(rows, counts))]
    return rows, sets


def load_training_rows(
    manifest: ZooManifest, encoder_id: str, domain_ids: Sequence[str], seed: int = 0
) -> np.ndarray:
    """One encoder's training rows of ``domain_ids``, each domain's in turn, in
    one float32 array sized from the manifest."""
    counts = training_counts(manifest, domain_ids)
    rows = np.empty((sum(counts), manifest.encoder(encoder_id).dim), dtype=np.float32)
    for d, part in zip(domain_ids, _slices(rows, counts)):
        mask = split_mask(manifest.dataset_name, d, manifest.domain(d).n_samples,
                          manifest.split_ratio, seed)
        read_features(manifest.feature_path(encoder_id, d), mask, part)
    return rows


# A JSON spec says what a parsed JSON value may be:
#   object           any value;
#   int, str, bool   that JSON type (a bool is no int);
#   float            a finite number, integer or not, never a bool;
#   slice(lo, hi)    an integer in [lo, hi], or >= lo if hi is None;
#   [spec]           an array whose every item meets spec;
#   {"key": spec}    an object with these keys, each meeting its spec, and
#                    no other key, unless the dict also maps str to a spec:
#                    {str: spec} takes any other key whose value meets spec;
#   (spec, ...)      any one of these specs;
#   a function       the spec it returns for the value;
#   any other value  that value: None is null, and ``...`` an absent key, so
#                    (spec, ...) makes a key optional.
_NAMES = {int: "an integer", float: "a finite number", str: "a string", bool: "true or false",
          None: "null", list: "an array", dict: "an object"}
_UNKNOWN = object()


def _expect(spec) -> str:
    if isinstance(spec, tuple):
        return " or ".join(_expect(s) for s in spec if s is not ...)
    if isinstance(spec, slice):
        bounds = f">= {spec.start}" if spec.stop is None else f"in [{spec.start}, {spec.stop}]"
        return f"an integer {bounds}"
    return _NAMES.get(type(spec) if isinstance(spec, (list, dict)) else spec, repr(spec))


def _fits(node, spec) -> bool:
    if spec is float:
        return type(node) in (int, float) and abs(node) <= sys.float_info.max
    if isinstance(spec, slice):
        return type(node) is int and spec.start <= node and (spec.stop is None or node <= spec.stop)
    # a [...] or {...} spec reaches here only with a node of another type
    if isinstance(spec, (type, list, dict)):
        return type(node) is spec or spec is object
    return type(node) is type(spec) and node == spec


def _mismatch(node, spec, path: tuple) -> tuple[tuple, str] | None:
    """The JSON path of ``node``'s first departure from ``spec`` and what is wrong there.

    Of alternatives that all fail, the one that fails deepest is reported.
    """
    if callable(spec) and not isinstance(spec, type):
        spec = spec(node)
    if isinstance(spec, tuple):
        found = [_mismatch(node, s, path) for s in spec]
        if None in found:
            return None
        deepest = max(found, key=lambda m: len(m[0]))
        if len(deepest[0]) > len(path):
            return deepest
    elif type(node) is type(spec) in (list, dict):
        if type(spec) is list:
            items = [(i, v, spec[0]) for i, v in enumerate(node)]
        else:  # the spec's keys in its order, then any key it does not name
            items = [(k, node.get(k, ...), s) for k, s in spec.items() if k is not str]
            items += [(k, v, spec.get(str, _UNKNOWN)) for k, v in node.items() if k not in spec]
        for key, value, sub in items:
            if sub is _UNKNOWN:
                return path + (key,), "is an unknown key"
            if found := _mismatch(value, sub, path + (key,)):
                return found
        return None
    elif _fits(node, spec):
        return None
    if node is ...:
        return path, f"is missing; it must be {_expect(spec)}"
    shown = _NAMES[type(node)] if isinstance(node, (list, dict)) else repr(node)
    return path, f"must be {_expect(spec)}, got {shown}"


def check_json(node, spec, where: str):
    """``node``, a parsed JSON value, if it meets ``spec``.

    Otherwise a ``ValidationError`` names ``where`` (the file), the JSON path
    of the first mismatch and what it must be.
    """
    if found := _mismatch(node, spec, ()):
        steps = "".join(f"[{k}]" if type(k) is int else f".{k}" for k in found[0])
        raise ValidationError(f"{where}: ${steps} {found[1]}")
    return node


def _object(pairs: list[tuple[str, object]]) -> dict:
    """A parsed JSON object, refused if it repeats a key, whose last value
    ``json`` would otherwise keep."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"key {key!r} is repeated")
        doc[key] = value
    return doc


def read_json(path: Path | str, what: str, spec):
    """Read and parse the JSON file at ``path`` and check it against ``spec``.

    ``what`` names the kind of file in every error. A repeated key in any
    object is refused.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_object)
    except OSError as exc:
        raise ValidationError(f"cannot read {what}: {exc}") from exc
    except ValueError as exc:  # also an integer past Python's digit limit
        raise ValidationError(f"{what} is not valid JSON: {path}: {exc}") from exc
    return check_json(doc, spec, f"{what} {path}")


def dumps_json(doc) -> str:
    """Canonical JSON: sorted keys, two-space indent, a trailing newline, no NaN or infinity.

    Identical content gives identical bytes.
    """
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(path: Path | str, doc) -> None:
    Path(path).write_text(dumps_json(doc), encoding="utf-8")


MANIFEST_SPEC = {
    "dataset_name": str,
    "n_classes": slice(1, 2**32),  # a u32 FZL1 label indexes at most 2**32 classes
    "split_ratio": (float, ...),
    "domains": [{"id": str, "n_samples": int, "label_file": str}],
    "encoders": [{"id": str, "dim": int, "files": {str: str}}],
}


def load_manifest(path: Path | str) -> ZooManifest:
    doc = read_json(path, "manifest", MANIFEST_SPEC)
    manifest = ZooManifest(
        doc["dataset_name"], doc["n_classes"], doc.get("split_ratio", 0.2),
        tuple(DomainInfo(d["id"], d["n_samples"], d["label_file"]) for d in doc["domains"]),
        tuple(EncoderInfo(e["id"], e["dim"], e["files"]) for e in doc["encoders"]),
        Path(path).parent,
    )
    validate_manifest(manifest, f"manifest {path}")
    return manifest


def validate_manifest(manifest: ZooManifest, where: str = "manifest") -> None:
    """Check ids, each domain's split, and each file's header and size against the manifest.

    ``where`` names the manifest in the error for an encoder that has no
    feature file for some domain, with the JSON path of its ``files`` map.
    """
    for kind, ids in (("domain", manifest.domain_ids), ("encoder", manifest.encoder_ids)):
        if len(set(ids)) != len(ids):
            raise ValidationError(f"duplicate {kind} ids in manifest")
    for i, enc in enumerate(manifest.encoders):
        for domain_id in manifest.domain_ids:
            if domain_id not in enc.files:
                raise ValidationError(
                    f"{where}: $.encoders[{i}].files has no feature file for domain '{domain_id}'"
                )
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
    write_json(path, doc)
