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

Memory: ``generate`` writes each domain straight into one float32 matrix,
drawing and finishing each block one row block of float64 at a time (see
``BLOCK_DOUBLES``). Each projection is one d x d float64 matrix, factored in
place, so its QR peaks at two such matrices. ``build_zoo`` makes the
projections while ``generate`` runs and then holds the raw domains and every
encoder's projection; it frees each projection once its encoder's files are
written, and encodes one domain at a time into its float32 result through
the two float64 buffers of one row block. It makes no full-width float64
copy of a domain.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericalError, ValidationError
from .feature_store import (
    DomainInfo,
    EncoderInfo,
    FeatureSet,
    ZooManifest,
    build_feature_set,
    save_manifest,
    validation_rows,
    write_features,
    write_labels,
)

CORE_SCALE = 1.8  # class-mean separation in the core block, in noise units
PATTERN_NORM = 3.0  # length of each spur class pattern
LEAKY_SLOPE = 0.2
# Rows are drawn and encoded in blocks of about BLOCK_DOUBLES float64 values
# (1 MiB, so a block's elementwise passes stay in cache and a desk-width
# domain is one block), but of at least MIN_BLOCK_ROWS rows, so that each
# product's pass over a wide projection is shared by enough rows. Blocks hold
# a multiple of 48 rows, the row cut that keeps every element of an OpenBLAS
# product's bits (see ensemble_train.SPLIT_MACS), and the last block also
# takes the remainder: a one-row block would go to the matrix-vector kernel
# and can change the last bit.
BLOCK_DOUBLES = 1 << 17
MIN_BLOCK_ROWS = 480
_ROW_ALIGN = 48


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
        if not all(abs(s) <= 1.0 for s in self.spur_strength):  # rejects NaN too
            raise ValidationError("spur strengths must lie in [-1, 1]")
        for name in ("div_offset", "noise_sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.noise_sigma <= 0:
            raise ValidationError("noise_sigma must be positive")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")

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


def _row_blocks(n: int, width: int) -> list[tuple[int, int]]:
    """(start, stop) of each row block of an n-row matrix of this width."""
    rows = max(MIN_BLOCK_ROWS, BLOCK_DOUBLES // max(width, 1) // _ROW_ALIGN * _ROW_ALIGN)
    cuts = [i * rows for i in range(max(n // rows, 1))] + [n]
    return list(zip(cuts[:-1], cuts[1:]))


def _fill_noisy(
    rng: np.random.Generator,
    x: np.ndarray,
    cols: slice,
    labels: np.ndarray,
    centers: np.ndarray,
    sigma: float,
    signs: np.ndarray | None = None,
) -> None:
    """x[:, cols] = signs * centers[labels] + sigma * N(0, 1), one row block at a time.

    The normals come in row order, so the stream is that of one whole-block
    draw; IEEE addition commutes, so ``b *= sigma; b += c`` has the bits of
    ``c + sigma * b``, and a +/-1 sign multiplies exactly.
    """
    for lo, hi in _row_blocks(x.shape[0], cols.stop - cols.start):
        b = rng.normal(size=(hi - lo, cols.stop - cols.start))
        b *= sigma
        c = centers[labels[lo:hi]]
        if signs is not None:
            c *= signs[lo:hi, None]
        b += c
        x[lo:hi, cols] = b


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
        x = np.empty((n, spec.dim_total), dtype=np.float32)
        core = slice(0, spec.dim_core)
        div = slice(core.stop, core.stop + spec.dim_div)
        spur = slice(div.stop, spec.dim_total)
        if spec.dim_core:
            _fill_noisy(rng, x, core, labels, means, spec.noise_sigma)
        if spec.dim_div:
            # every class is centred at the domain's offset
            centers = np.full((spec.n_classes, spec.dim_div), e * spec.div_offset)
            _fill_noisy(rng, x, div, labels, centers, spec.noise_sigma)
        if spec.dim_spur:
            # sign mixture: each row carries its own class pattern with
            # probability (1 + strength) / 2, otherwise the partner's.
            # E[spur | y] = strength * pattern[y], and the pooled marginal
            # over a +/- class pair is strength-free, so nothing leaks into
            # the diversity axis.
            own = rng.random(n) < 0.5 * (1.0 + spec.spur_strength[e])
            signs = np.where(own, 1.0, -1.0)
            _fill_noisy(rng, x, spur, labels, patterns, spec.noise_sigma, signs)
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
        """Q of a seeded d x d Gaussian's QR, column j scaled by a seeded u[j] in [0.8, 1.25].

        The Gaussian is copied once into Fortran order, and LAPACK's
        ``dgeqrf`` and then ``dorgqr`` overwrite that copy with Q: no R is
        formed, and the peak is two d x d matrices. These are the routines
        and the queried workspace sizes of ``np.linalg.qr``, so Q has its
        bits. The result is Fortran-ordered.

        LAPACK's QR can take other bits under another OpenBLAS thread count
        (seen at d = 446 and 1032), so it runs on one thread; under
        ``build_zoo``'s pin this sets nothing. Imported here: blas_threads
        and scipy, which the generator does not need.
        """
        from scipy.linalg import lapack

        from .blas_threads import single_blas_thread

        rng = np.random.default_rng(self.seed)
        d = self.dim
        a = np.asfortranarray(rng.normal(size=(d, d)))
        with single_blas_thread():
            lwork, info = lapack.dgeqrf_lwork(d, d)
            self._lapack_ok("dgeqrf workspace query", info)
            a, tau, _, info = lapack.dgeqrf(a, lwork=int(lwork), overwrite_a=1)
            self._lapack_ok("dgeqrf", info)
            _, work, info = lapack.dorgqr(a, tau, lwork=-1, overwrite_a=1)
            self._lapack_ok("dorgqr workspace query", info)
            a, _, info = lapack.dorgqr(a, tau, lwork=int(work[0]), overwrite_a=1)
            self._lapack_ok("dorgqr", info)
        a *= rng.uniform(0.8, 1.25, size=d)  # scales column j of q by u[j]
        return a

    def _lapack_ok(self, routine: str, info: int) -> None:
        if info != 0:
            raise NumericalError(
                f"LAPACK {routine} returned info={info} for the {self.dim}-wide projection "
                f"of encoder '{self.encoder_id}'"
            )

    def transform(self, x: np.ndarray) -> np.ndarray:
        """The float32 features that ``build_zoo`` stores for raw rows ``x``."""
        return _encode(x, self.coord_indices, self.projection())


def _encode(x: np.ndarray, coord_indices: tuple[int, ...], projection: np.ndarray) -> np.ndarray:
    """leaky(x[:, coord_indices] @ projection) as float32, one row block at a time.

    Each block's columns are gathered and widened to float64 (exact, so these
    are the bits of widening first), multiplied into a reused buffer, and
    rectified as max(z, slope * z), which has the bits of
    where(z > 0, z, slope * z) for every double, signed zeros, subnormals,
    infinities and NaN included. Only the float32 result, two row blocks of
    float64 and one block's float32 gather are alive at once.
    """
    cols = np.asarray(coord_indices, dtype=np.intp)
    n, d = x.shape[0], projection.shape[1]
    out = np.empty((n, d), dtype=np.float32)
    blocks = _row_blocks(n, d)
    rows = max(hi - lo for lo, hi in blocks)
    # the projection is square, so one buffer holds the gathered block and then slope * z
    xb, zb = np.empty((rows, d)), np.empty((rows, d))
    for lo, hi in blocks:
        xr, zr = xb[: hi - lo], zb[: hi - lo]
        np.copyto(xr, np.take(x[lo:hi], cols, axis=1))
        np.matmul(xr, projection, out=zr)
        np.multiply(zr, LEAKY_SLOPE, out=xr)
        np.maximum(zr, xr, out=out[lo:hi], casting="same_kind")
    return out


ZOO_ROLES = ("clean", "div_heavy", "cor_heavy", "main_full")


def _zoo_encoders(spec: SynthSpec, zoo_size: int) -> list[SynthEncoder]:
    ss = np.random.SeedSequence(spec.seed).spawn(1)[0]
    seeds = [int(s.generate_state(1)[0]) for s in ss.spawn(zoo_size + 1)]
    core, div, spur = spec.core_indices, spec.div_indices, spec.spur_indices
    half = lambda idx: idx[: -(-len(idx) // 2)] if idx else ()
    encoders = [
        SynthEncoder("clean", core or div or spur, seeds[0]),
        SynthEncoder("div_heavy", core + div if div else core, seeds[1]),
        SynthEncoder("cor_heavy", core + spur if spur else core, seeds[2]),
        SynthEncoder("main_full", core + half(div) + half(spur), seeds[3]),
    ]
    rng = np.random.default_rng(seeds[-1])
    for i in range(4, zoo_size):
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


def _generate_and_project(
    spec: SynthSpec, encoders: list[SynthEncoder], split_ratio: float, dataset_name: str
) -> tuple[list[FeatureSet], dict, list[np.ndarray]]:
    """``generate`` on the calling thread while the worker pool makes the
    encoders' projections; returns its domains and card, and the projections.

    OpenBLAS is pinned to one thread once, from this thread, for all of it,
    so each projection has the bits of one made alone. Once the domains are
    generated, this thread makes, from the last encoder backwards, every
    projection no worker has started; with one usable CPU it makes them all.
    An error in a projection reaches the caller once every started
    projection has ended.
    """
    from concurrent.futures import wait

    from .blas_threads import single_blas_thread, usable_cpus, worker_pool

    with single_blas_thread():
        pool = worker_pool() if usable_cpus() > 1 else None
        futures = [pool.submit(enc.projection) for enc in encoders] if pool else []
        try:
            raw_sets, card = generate(spec, split_ratio=split_ratio, dataset_name=dataset_name)
            projections: list[np.ndarray | None] = [None] * len(encoders)
            for i in reversed(range(len(encoders))):
                if not futures or futures[i].cancel():
                    projections[i] = encoders[i].projection()
            for i, future in enumerate(futures):
                if projections[i] is None:
                    projections[i] = future.result()
            return raw_sets, card, projections
        finally:
            for future in futures:
                future.cancel()
            wait(futures)


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
    with the same spec, across usable CPU counts, and across OpenBLAS thread
    counts wherever ``blas_threads`` finds OpenBLAS.

    The worker pool makes the projections while this thread runs
    ``generate``, all on one OpenBLAS thread; encoding then runs unpinned.

    Memory: the raw float32 domains and every encoder's float64 projection
    are alive together, with at most one in-place QR (two d x d float64
    matrices) per usable CPU while they are made. Each projection is freed
    once its encoder's files are written; during encoding one domain's
    float32 encoding and the two float64 buffers of one row block (see
    ``BLOCK_DOUBLES``) are alive at a time.
    """
    if zoo_size < len(ZOO_ROLES):
        raise ValidationError(f"zoo_size must be >= {len(ZOO_ROLES)}, got {zoo_size}")
    n = spec.samples_per_domain
    n_val = validation_rows(n, split_ratio)
    if not 0 < n_val < n:
        raise ValidationError(
            f"samples_per_domain={n} at split_ratio={split_ratio} leaves each domain {n_val} "
            f"validation and {n - n_val} training rows; each split needs at least one"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    encoders = _zoo_encoders(spec, zoo_size)
    raw_sets, card, projections = _generate_and_project(spec, encoders, split_ratio, dataset_name)
    domains = []
    for fs in raw_sets:
        label_file = f"{fs.domain_id}.fzl"
        write_labels(out_dir / label_file, fs.labels)
        domains.append(DomainInfo(fs.domain_id, fs.n_samples, label_file))
    infos = []
    for i, enc in enumerate(encoders):
        # one domain's encoding alive at a time
        files = {}
        for fs in raw_sets:
            fname = f"{enc.encoder_id}_{fs.domain_id}.fzf"
            write_features(out_dir / fname, _encode(fs.features, enc.coord_indices, projections[i]))
            files[fs.domain_id] = fname
        projections[i] = None
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

