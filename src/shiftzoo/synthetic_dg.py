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

Each domain is drawn straight into one float32 matrix, and each cell is
encoded and streamed to its file, through float64 row blocks (see
``BLOCK_DOUBLES``): no encoded matrix and no full-width float64 copy of a
domain is ever whole in memory (``build_zoo`` states its bound).
"""

from __future__ import annotations

import math
import queue
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .blas_threads import (
    BLOCK_DOUBLES, ROW_ALIGN, SPLIT_MACS, check_memory, lapack_routine, run_tasks,
    single_blas_thread, usable_cpus,
)
from .errors import NumericalError, ValidationError
from .feature_store import (
    DomainInfo,
    EncoderInfo,
    FeatureSet,
    ZooManifest,
    build_feature_set,
    check_split,
    save_manifest,
    write_feature_blocks,
    write_json,
    write_labels,
)

CORE_SCALE = 1.8  # class-mean separation in the core block, in noise units
PATTERN_NORM = 3.0  # length of each spur class pattern
LEAKY_SLOPE = 0.2
# Rows are drawn and encoded in blocks of about BLOCK_DOUBLES float64 values
# (1 MiB, so a desk-width domain is one block), but of at least MIN_BLOCK_ROWS
# rows, so that each product's pass over a wide projection is shared by
# enough rows (240 rows keep a 2048-wide cell's buffers near 13 MB per
# worker, with two or more cells in flight at once). Blocks hold a multiple
# of ROW_ALIGN rows, the row cut that keeps every element of an OpenBLAS
# product's bits, and the last block also takes the remainder: a one-row
# block would go to the matrix-vector kernel and can change the last bit.
MIN_BLOCK_ROWS = 240


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
    rows = max(MIN_BLOCK_ROWS, BLOCK_DOUBLES // max(width, 1) // ROW_ALIGN * ROW_ALIGN)
    cuts = [i * rows for i in range(max(n // rows, 1))] + [n]
    return list(zip(cuts[:-1], cuts[1:]))


def _fill_noisy(
    rng: np.random.Generator,
    x: np.ndarray,
    cols: slice,
    labels: np.ndarray,
    centers: np.ndarray,
    sigma: float,
    buffers: tuple[np.ndarray, ...],
    signs: np.ndarray | None = None,
) -> None:
    """x[:, cols] = signs * centers[labels] + sigma * N(0, 1), one row block at a time.

    Each block is drawn and finished in the two float64 ``buffers``. The
    normals come in row order, so the stream is that of one whole-block
    ``rng.normal`` draw, whose values are 0.0 + 1.0 * z: ``b += 0.0`` gives
    their bits (it turns -0.0 into +0.0 and changes nothing else). IEEE
    addition commutes, so ``b *= sigma; b += c`` has the bits of
    ``c + sigma * b``, and a +/-1 sign multiplies exactly.
    """
    width = cols.stop - cols.start
    for lo, hi in _row_blocks(x.shape[0], width):
        b, c = (buf[: (hi - lo) * width].reshape(hi - lo, width) for buf in buffers[:2])
        rng.standard_normal(out=b)
        b += 0.0
        b *= sigma
        np.take(centers, labels[lo:hi], axis=0, out=c, mode="clip")
        if signs is not None:
            c *= signs[lo:hi, None]
        b += c
        x[lo:hi, cols] = b


def _balanced_labels(rng: np.random.Generator, n: int, n_classes: int) -> np.ndarray:
    reps = -(-n // n_classes)
    labels = np.tile(np.arange(n_classes), reps)[:n]
    rng.shuffle(labels)
    return labels


def _draw_domain(
    spec: SynthSpec,
    e: int,
    seed: np.random.SeedSequence,
    means: np.ndarray,
    patterns: np.ndarray,
    x: np.ndarray,
    buffers: tuple[np.ndarray, ...],
) -> np.ndarray:
    """Fill ``x`` with domain ``e``'s raw rows, drawn from its own seed
    stream through the float64 row-block ``buffers``, and return the rows'
    labels. A draw that overflows float32 is refused with a
    ``ValidationError`` naming the domain."""
    rng = np.random.default_rng(seed)
    n = spec.samples_per_domain
    labels = _balanced_labels(rng, n, spec.n_classes)
    core = slice(0, spec.dim_core)
    div = slice(core.stop, core.stop + spec.dim_div)
    spur = slice(div.stop, spec.dim_total)
    # the finite check below reports an overflow in place of numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.dim_core:
            _fill_noisy(rng, x, core, labels, means, spec.noise_sigma, buffers)
        if spec.dim_div:
            # every class is centred at the domain's offset
            centers = np.full((spec.n_classes, spec.dim_div), e * spec.div_offset)
            _fill_noisy(rng, x, div, labels, centers, spec.noise_sigma, buffers)
        if spec.dim_spur:
            # sign mixture: each row carries its own class pattern with
            # probability (1 + strength) / 2, otherwise the partner's.
            # E[spur | y] = strength * pattern[y], and the pooled marginal
            # over a +/- class pair is strength-free, so nothing leaks into
            # the diversity axis.
            own = rng.random(n) < 0.5 * (1.0 + spec.spur_strength[e])
            signs = np.where(own, 1.0, -1.0)
            _fill_noisy(rng, x, spur, labels, patterns, spec.noise_sigma, buffers, signs)
    _finite(x, f"domain 'domain{e}': the draw", spec)
    return labels


def _finite(x: np.ndarray, what: str, spec: SynthSpec) -> np.ndarray:
    """``x``, refused with a ``ValidationError`` saying that ``what``
    overflows float32 if a value of it is not finite: an overflow leaves an
    infinity, so an extreme is not finite, and unlike np.isfinite(x) this
    allocates nothing the size of x."""
    if not np.isfinite([x.min(), x.max()]).all():
        raise ValidationError(f"{what} overflows float32 (noise_sigma={spec.noise_sigma:g}, "
                              f"div_offset={spec.div_offset:g})")
    return x


def _domain_draws(spec: SynthSpec) -> tuple[list[np.ndarray], list[Callable[..., np.ndarray]]]:
    """Each domain's float32 matrix, allocated here, and its draw, which takes
    a set of ``_block_buffers``. Each draw has its own seed stream, so the
    draws are independent and any thread may run any of them."""
    ss = np.random.SeedSequence(spec.seed)
    ss_means, ss_patterns, *domain_seeds = ss.spawn(2 + spec.n_domains)
    means = _class_means(np.random.default_rng(ss_means), spec.n_classes, spec.dim_core)
    patterns = _spur_patterns(np.random.default_rng(ss_patterns), spec.n_classes, spec.dim_spur)
    xs = [
        np.empty((spec.samples_per_domain, spec.dim_total), dtype=np.float32)
        for _ in domain_seeds
    ]
    draws = [
        partial(_draw_domain, spec, e, dseed, means, patterns, x)
        for e, (dseed, x) in enumerate(zip(domain_seeds, xs))
    ]
    return xs, draws


def _ground_truth(spec: SynthSpec, dataset_name: str) -> dict:
    return {
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


def generate(
    spec: SynthSpec, split_ratio: float = 0.2, dataset_name: str = "synth"
) -> tuple[list[FeatureSet], dict]:
    """Raw-input-space domains plus a ground-truth card describing the shifts."""
    xs, draws = _domain_draws(spec)
    buffers = _block_buffers(spec.samples_per_domain, _block_widths(spec))
    sets = [
        build_feature_set(f"domain{e}", x, draw(buffers), dataset_name=dataset_name,
                          n_classes=spec.n_classes, split_ratio=split_ratio, seed=spec.seed)
        for e, (x, draw) in enumerate(zip(xs, draws))
    ]
    return sets, _ground_truth(spec, dataset_name)


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

        The Gaussian, the normals of one ``rng.normal(size=(d, d))`` draw, is
        drawn in row blocks of about ``BLOCK_DOUBLES`` values into one
        Fortran-ordered matrix, which LAPACK's ``dgeqrf`` and ``dorgqr`` (the
        routines and workspace sizes of ``np.linalg.qr``, so Q has its bits)
        overwrite with Q: the peak is one d x d matrix and one draw block.
        The QR runs on one OpenBLAS thread, since its bits can follow the
        thread count. Where ``lapack_routine`` finds no such routines, Q is
        ``np.linalg.qr``'s. The result is Fortran-ordered.
        """
        rng = np.random.default_rng(self.seed)
        d = self.dim
        rows = min(max(BLOCK_DOUBLES // d, 1), d)
        block, a = np.empty((rows, d)), None
        for lo in range(0, d, rows):
            b = block[: min(rows, d - lo)]
            rng.standard_normal(out=b)
            b += 0.0
            if a is None:
                a = np.empty((d, d), order="F")
            a[lo : lo + len(b)] = b
        del block, b
        geqrf, orgqr = lapack_routine("dgeqrf"), lapack_routine("dorgqr")
        with single_blas_thread():
            if geqrf is None or orgqr is None:
                a = np.asfortranarray(np.linalg.qr(a)[0])
            else:
                self._q_in_place(a, geqrf, orgqr)
        a *= rng.uniform(0.8, 1.25, size=d)  # scales column j of q by u[j]
        return a

    def _q_in_place(self, a: np.ndarray, geqrf, orgqr) -> None:
        """Overwrite the square Fortran-ordered ``a`` with the Q of its QR."""
        d = a.shape[0]
        tau = np.empty(d + 2)  # tau, then the two queried workspace sizes
        self._lapack_ok("dgeqrf workspace query", geqrf(d, d, a, d, tau, tau[d:], -1))
        self._lapack_ok("dorgqr workspace query", orgqr(d, d, d, a, d, tau, tau[d + 1 :], -1))
        sizes = int(tau[d]), int(tau[d + 1])
        work = np.empty(max(*sizes, 1))
        self._lapack_ok("dgeqrf", geqrf(d, d, a, d, tau, work, sizes[0]))
        self._lapack_ok("dorgqr", orgqr(d, d, d, a, d, tau, work, sizes[1]))

    def _lapack_ok(self, routine: str, info: int) -> None:
        if info != 0:
            raise NumericalError(
                f"LAPACK {routine} returned info={info} for the {self.dim}-wide projection "
                f"of encoder '{self.encoder_id}'"
            )

    def transform(self, x: np.ndarray) -> np.ndarray:
        """The float32 features that ``build_zoo`` stores for raw rows ``x``."""
        return _encode(x, self.coord_indices, self.projection())


def _block_widths(spec: SynthSpec, encoders: Iterable[SynthEncoder] = ()) -> list[int]:
    """The widths of the row blocks that drawing the spec's domains and
    encoding them with these encoders go through."""
    return [spec.dim_core, spec.dim_div, spec.dim_spur] + [enc.dim for enc in encoders]


def _block_buffers(n: int, widths: Iterable[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat float64, float64 and float32 buffers that hold the largest row
    block of n rows at any of these widths."""
    size = max(d * max(hi - lo for lo, hi in _row_blocks(n, d)) for d in widths)
    return np.empty(size), np.empty(size), np.empty(size, dtype=np.float32)


def _encoded_blocks(
    x: np.ndarray,
    coord_indices: tuple[int, ...],
    projection: np.ndarray,
    buffers: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> Iterator[np.ndarray]:
    """leaky(x[:, coord_indices] @ projection) as float32, one row block at a time.

    Each block's columns are gathered into the float32 buffer (rounding rows
    of any other dtype to float32, as ``build_zoo`` stores its draws),
    widened to float64, multiplied into the second float64 buffer, and
    rectified as max(z, slope * z), which has the bits of where(z > 0, z,
    slope * z) for every double, into the float32 buffer. Each yielded block
    is a view of that buffer, valid until the next one.
    """
    cols = np.asarray(coord_indices, dtype=np.intp)
    d = projection.shape[1]
    for lo, hi in _row_blocks(x.shape[0], d):
        # the projection is square, so one buffer holds the gathered block and then slope * z
        xr, zr, gr = (b[: (hi - lo) * d].reshape(hi - lo, d) for b in buffers)
        np.take(x[lo:hi], cols, axis=1, out=gr, mode="clip")
        np.copyto(xr, gr)
        np.matmul(xr, projection, out=zr)
        np.multiply(zr, LEAKY_SLOPE, out=xr)
        np.maximum(zr, xr, out=gr, casting="same_kind")
        yield gr


def _encode(x: np.ndarray, coord_indices: tuple[int, ...], projection: np.ndarray) -> np.ndarray:
    """The row blocks of ``_encoded_blocks`` collected into one float32 matrix."""
    n, d = x.shape[0], projection.shape[1]
    out = np.empty((n, d), dtype=np.float32)
    lo = 0
    for block in _encoded_blocks(x, coord_indices, projection, _block_buffers(n, [d])):
        out[lo : lo + block.shape[0]] = block
        lo += block.shape[0]
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
    counts wherever numpy links OpenBLAS.

    The work is independent tasks, run by ``blas_threads.run_tasks`` with
    numpy's OpenBLAS pinned to one thread. The encoders go in groups, in
    encoder order: each group's projection QRs (the first group's beside
    each domain's draw), then its (encoder, domain) cells. A zoo whose
    largest cell is under ``2 * SPLIT_MACS`` multiply-adds runs serially on
    the calling thread.

    Memory: the raw float32 domains, the float64 projections of one group
    (at most max(workers, raw-domain bytes // widest projection bytes)
    encoders, so they weigh no more than the raw domains or one widest
    projection per worker, whichever is more), and one set of row-block
    buffers per worker. Before anything is drawn, a ``MemoryError`` refuses
    a zoo whose raw domains and largest group's projections together exceed
    the physical memory.

    A domain's draw or a cell's encoding with a value out of float32's range
    is refused with a ``ValidationError`` that names it; of several such
    cells, the first in encoder-then-domain order, on any number of CPUs.
    The refused zoo leaves no file: a call that raises while it writes the
    cells removes each cell file it opened, then ``out_dir`` and each parent
    of it that the call created; a directory that was there keeps its other
    files.
    """
    if zoo_size < len(ZOO_ROLES):
        raise ValidationError(f"zoo_size must be >= {len(ZOO_ROLES)}, got {zoo_size}")
    n = spec.samples_per_domain
    check_split(n, split_ratio)
    encoders = _zoo_encoders(spec, zoo_size)
    widest = max(enc.dim for enc in encoders)
    workers = usable_cpus() if n * widest**2 >= 2 * SPLIT_MACS else 1
    raw = 4 * spec.n_domains * n * spec.dim_total
    group_size = max(workers, raw // (8 * widest**2))
    groups = [encoders[i : i + group_size] for i in range(0, len(encoders), group_size)]
    need = raw + max(sum(8 * enc.dim**2 for enc in group) for group in groups)
    check_memory("synth", need, f"raw domains and projections (at most {len(groups[0])} of "
                 f"its {len(encoders)} encoders' projections at a time)")
    out_dir = Path(out_dir)
    created = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    opened: list[Path] = []  # list.append is atomic, so pool threads share it
    # one set of row-block buffers per worker, allocated by this thread: a
    # pool thread's malloc arena would keep what it allocates after synth
    buffers: queue.SimpleQueue = queue.SimpleQueue()
    for _ in range(min(workers, spec.n_domains * len(encoders))):
        buffers.put(_block_buffers(n, _block_widths(spec, encoders)))

    def borrowing(task: Callable, *args):
        bufs = buffers.get()
        try:
            return task(*args, bufs)
        finally:
            buffers.put(bufs)

    xs, draws = _domain_draws(spec)
    domain_ids = [f"domain{e}" for e in range(spec.n_domains)]

    def write_cell(enc: SynthEncoder, projection: np.ndarray, e: int, bufs) -> None:
        cell = f"encoder '{enc.encoder_id}' on domain '{domain_ids[e]}': the encoding"
        blocks = _encoded_blocks(xs[e], enc.coord_indices, projection, bufs)
        path = out_dir / f"{enc.encoder_id}_{domain_ids[e]}.fzf"
        opened.append(path)
        # a value out of float32's range becomes an infinity, which _finite
        # refuses in place of numpy's warning
        with np.errstate(over="ignore"):
            write_feature_blocks(path, (n, enc.dim), (_finite(b, cell, spec) for b in blocks))

    with single_blas_thread():
        made = run_tasks(
            [enc.projection for enc in groups[0]] + [partial(borrowing, draw) for draw in draws],
            workers,
        )
        projections, labels = made[: len(groups[0])], made[len(groups[0]) :]
        del made
        out_dir.mkdir(parents=True, exist_ok=True)  # a refused draw leaves no directory
        try:
            for i, group in enumerate(groups):
                if i:
                    projections = run_tasks([enc.projection for enc in group], workers)
                run_tasks([partial(borrowing, write_cell, enc, q, e)
                           for enc, q in zip(group, projections) for e in range(len(xs))], workers)
                del projections  # before the next group's are made
        except BaseException:
            # run_tasks raises once its running tasks have ended: no cell is still being written
            for path in opened:
                path.unlink(missing_ok=True)
            for directory in created:  # out_dir first, then each parent this call made
                directory.rmdir()
            raise
    for domain_id, y in zip(domain_ids, labels):
        write_labels(out_dir / f"{domain_id}.fzl", y)
    manifest = ZooManifest(
        dataset_name=dataset_name,
        n_classes=spec.n_classes,
        split_ratio=split_ratio,
        domains=tuple(DomainInfo(d, n, f"{d}.fzl") for d in domain_ids),
        encoders=tuple(
            EncoderInfo(enc.encoder_id, enc.dim,
                        {d: f"{enc.encoder_id}_{d}.fzf" for d in domain_ids})
            for enc in encoders
        ),
        root=out_dir,
    )
    save_manifest(manifest, out_dir / "manifest.json")
    card = _ground_truth(spec, dataset_name)
    card["zoo_roles"] = {role: role for role in ZOO_ROLES}
    card["encoders"] = {e.encoder_id: sorted(e.coord_indices) for e in encoders}
    write_json(out_dir / "ground_truth.json", card)
    return manifest, encoders, card
