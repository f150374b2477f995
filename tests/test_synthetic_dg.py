"""Planted-shift generator: block semantics, zoo construction, determinism."""

import threading
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from oracle_utils import (
    benchmark_train_config,
    reference_encode,
    reference_generate,
    scipy_single_blas_thread,
    train_first,
)

from shiftzoo import blas_threads, synthetic_dg
from shiftzoo.correlation_profile import dataset_correlation
from shiftzoo.ensemble_train import TrainConfig
from shiftzoo.errors import NumericalError, ValidationError
from shiftzoo.feature_store import (
    FeatureSet,
    load_domain_features,
    load_manifest,
    write_features,
)
from shiftzoo.gaussian_profile import dataset_diversity
from shiftzoo.report import select_auxiliaries
from shiftzoo.synthetic_dg import (
    ZOO_ROLES,
    SynthEncoder,
    SynthSpec,
    _encode,
    _row_blocks,
    _spur_patterns,
    build_zoo,
    generate,
)


def _encoded(sets, coords, seed=99):
    enc = SynthEncoder("probe", tuple(coords), seed)
    return [
        FeatureSet(f.domain_id, enc.transform(f.features).astype(np.float32), f.labels, f.n_train)
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
        assert fa.n_train == fb.n_train


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
    assert z1.dtype == np.float32
    assert z1.tobytes() == z2.tobytes()
    assert z1.tobytes() == reference_encode(x, (0, 1, 2), enc.projection()).tobytes()
    assert (z1 < 0).any() and (z1 > 0).any()


def test_row_blocks_are_aligned_and_never_short():
    # a desk-width domain is one block; at width 2048 blocks hold 240 rows
    assert _row_blocks(2000, 16) == [(0, 2000)]
    assert _row_blocks(2000, 2048) == [(i, i + 240) for i in range(0, 1680, 240)] + [(1680, 2000)]
    for n in (1, 47, 48, 481, 1001, 4000):
        for width in (1, 12, 1032, 2048, 10**6):
            blocks = _row_blocks(n, width)
            assert blocks[0][0] == 0 and blocks[-1][1] == n
            assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
            # cuts on multiples of 48, and the remainder rides with the last
            # block, so no block but a whole domain is shorter than 48 rows
            assert all(lo % 48 == 0 for lo, _ in blocks)
            assert len(blocks) == 1 or min(hi - lo for lo, hi in blocks) >= 48


@pytest.mark.parametrize("block_rows", [None, 48, 96])
@pytest.mark.parametrize("width", [12, 192, 1032])
def test_blocked_encode_matches_whole_matrix_reference(monkeypatch, width, block_rows):
    if block_rows is not None:
        monkeypatch.setattr(synthetic_dg, "MIN_BLOCK_ROWS", 48)
        monkeypatch.setattr(synthetic_dg, "BLOCK_DOUBLES", block_rows * width)
        assert len(_row_blocks(1001, width)) > 1
    rng = np.random.default_rng(width)
    x = rng.normal(size=(1001, width + 9)).astype(np.float32)
    x[::17] = 0.0  # whole rows of exact +0
    x[3::17, ::2] = -0.0
    # a column set that is no one contiguous range
    cols = tuple(sorted(rng.choice(width + 9, size=width, replace=False).tolist()))
    assert cols != tuple(range(cols[0], cols[0] + width))
    projection = SynthEncoder("e", cols, 7).projection()
    z = _encode(x, cols, projection)
    assert z.dtype == np.float32 and z.shape == (1001, width)
    assert z.tobytes() == reference_encode(x, cols, projection).tobytes()


def test_encode_rectifier_keeps_the_bits_of_where_on_special_values():
    values = [0.0, -0.0, 1e-45, -1e-45, 1e-40, -1e-40, 1.5, -1.5, 3e38, -3e38,
              np.inf, -np.inf, np.nan]
    x = np.array(values, dtype=np.float32)[:, None]
    # 1e-300 makes subnormal doubles out of the small inputs
    for scale in (1.0, -1.0, 1e-300, -1e-300):
        projection = np.array([[scale]])
        z = _encode(x, (0,), projection)
        assert z.tobytes() == reference_encode(x, (0,), projection).tobytes()


def test_encode_allocates_its_output_and_a_few_row_blocks():
    rng = np.random.default_rng(0)
    n, d = 2000, 2048
    x = rng.standard_normal(size=(n, d), dtype=np.float32)
    projection = rng.normal(size=(d, d))
    cols = tuple(range(d))
    tracemalloc.start()
    try:
        z = _encode(x, cols, projection)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 16.4 MB of float32 output plus two float64 row-block buffers and the
    # float32 gather (about 23 MB); a whole-matrix float64 encode peaks near
    # 102 MB
    block_bytes = 8 * d * max(hi - lo for lo, hi in _row_blocks(n, d))
    assert peak <= z.nbytes + 3 * block_bytes


@pytest.mark.parametrize("block_rows", [None, 48])
@pytest.mark.parametrize(
    "spec",
    [
        SynthSpec(seed=8),
        SynthSpec(seed=3, n_classes=3, dim_core=5, dim_div=0, dim_spur=7, samples_per_domain=1001,
                  div_offset=1.3, noise_sigma=0.7, spur_strength=(0.5, -0.2, 1.0)),
    ],
)
def test_generate_matches_whole_domain_reference(monkeypatch, spec, block_rows):
    if block_rows is not None:
        monkeypatch.setattr(synthetic_dg, "MIN_BLOCK_ROWS", block_rows)
        monkeypatch.setattr(synthetic_dg, "BLOCK_DOUBLES", block_rows)
        assert len(_row_blocks(spec.samples_per_domain, spec.dim_spur)) > 1
    sets, _ = generate(spec)
    for fs, expected in zip(sets, reference_generate(spec), strict=True):
        assert fs.features.dtype == np.float32
        # the set stores the generated rows train-first
        expected = train_first(expected, "synth", fs.domain_id, 0.2, spec.seed)
        assert fs.features.tobytes() == expected.tobytes()


def test_buffered_draw_keeps_the_bits_of_normal_at_signed_zeros():
    """rng.normal(0, 1) returns 0.0 + 1.0 * z, so a z of -0.0 comes out +0.0;
    the buffered standard-normal draw must too, or a -0.0 center keeps its sign."""
    z = np.array([[-0.0, 0.0, 1.5], [-0.0, -2.0, 0.0]])

    class Draws:
        def standard_normal(self, out):
            out[...] = z

    centers = np.array([[-0.0, 1.0, -0.0], [-0.0, -0.0, -0.0]])
    labels = np.array([0, 1])
    x = np.empty((2, 3), dtype=np.float32)
    buffers = synthetic_dg._block_buffers(2, [3])
    synthetic_dg._fill_noisy(Draws(), x, slice(0, 3), labels, centers, 0.5, buffers)
    expected = (centers[labels] + 0.5 * (0.0 + 1.0 * z)).astype(np.float32)
    assert x.tobytes() == expected.tobytes()
    assert not np.signbit(x[0, 0])


@pytest.mark.parametrize("width", [5, 1024])
def test_projection_equals_dense_diagonal_product(width):
    enc = SynthEncoder("e", tuple(range(width)), 21 + width)
    rng = np.random.default_rng(enc.seed)
    q, _ = np.linalg.qr(rng.normal(size=(width, width)))
    dense = q @ np.diag(rng.uniform(0.8, 1.25, size=width))
    assert enc.projection().tobytes() == dense.tobytes()


@pytest.mark.parametrize("width", [1, 2, 5, 103, 446, 1032])
def test_projection_equals_scipy_economic_qr(width):
    """The in-place dgeqrf/dorgqr Q is scipy's economic-mode Q, through the same LAPACK."""
    enc = SynthEncoder("e", tuple(range(width)), 5 + width)
    rng = np.random.default_rng(enc.seed)
    with scipy_single_blas_thread():
        q = scipy.linalg.qr(rng.normal(size=(width, width)), mode="economic")[0]
    q *= rng.uniform(0.8, 1.25, size=width)
    assert enc.projection().tobytes() == q.tobytes()


def test_projection_holds_one_matrix_and_one_draw_block_at_its_peak():
    """The Gaussian is drawn block by block into the one Fortran-order matrix
    that Q overwrites, and no R is made."""
    d = 1024
    enc = SynthEncoder("e", tuple(range(d)), 3)
    enc.projection()  # first-call imports stay out of the measurement
    tracemalloc.start()
    try:
        q = enc.projection()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert q.shape == (d, d)
    block = 8 * synthetic_dg.BLOCK_DOUBLES  # 128 rows of 1024
    # a whole-matrix draw copied into Fortran order took two matrices, and
    # np.linalg.qr's copies and R about four
    assert d * d * 8 + block <= peak < d * d * 8 + block + (1 << 16)


def test_projection_reports_a_lapack_failure(monkeypatch):
    """An info the final dorgqr returns is raised."""
    real = synthetic_dg.lapack_routine
    if real("dorgqr") is None:
        pytest.skip("numpy links no OpenBLAS that exports dorgqr here")

    def lookup(name):
        routine = real(name)
        if name != "dorgqr":
            return routine

        def failing(*args):
            info = routine(*args)
            return info if args[-1] == -1 else -3  # lwork -1 is the workspace query

        return failing

    monkeypatch.setattr(synthetic_dg, "lapack_routine", lookup)
    with pytest.raises(NumericalError, match=r"LAPACK dorgqr returned info=-3 .*encoder 'e'"):
        SynthEncoder("e", (0, 1, 2), 1).projection()


def _wide_spec():
    # 1032-wide main_full, div_heavy and cor_heavy, whose QRs take other
    # last bits under two OpenBLAS threads; the raw domains (24.4 MB) weigh
    # two 1032-wide projections (8.5 MB each), so build_zoo holds two
    # projections at a time under one or two usable CPUs, and three under three
    return SynthSpec(dim_core=32, dim_div=1000, dim_spur=1000, samples_per_domain=1000)


def _usable_cpus(monkeypatch, cpus):
    """Patch the CPU count that sizes build_zoo's groups and the pool's helpers."""
    for module in (blas_threads, synthetic_dg):
        monkeypatch.setattr(module, "usable_cpus", lambda: cpus)


def test_build_zoo_bytes_do_not_depend_on_usable_cpus(tmp_path, monkeypatch, fresh_pool):
    """With one usable CPU the calling thread makes every projection; with two
    or three the worker pool makes some; the encoders go in two groups, whose
    second group's projections are made after the first group's cells are
    written; the files are the same bytes."""
    callers, events = {}, {}
    original, real_write = SynthEncoder.projection, synthetic_dg.write_feature_blocks

    def recording(self):
        callers.setdefault(cpus, []).append(threading.current_thread().name)
        events[cpus].append(("projection", self.encoder_id))
        return original(self)

    def writing(path, shape, blocks):
        events[cpus].append(("cell", path.name))
        real_write(path, shape, blocks)

    monkeypatch.setattr(SynthEncoder, "projection", recording)
    monkeypatch.setattr(synthetic_dg, "write_feature_blocks", writing)
    for cpus in (1, 2, 3):
        events[cpus] = []
        _usable_cpus(monkeypatch, cpus)
        fresh_pool()
        build_zoo(_wide_spec(), zoo_size=4, out_dir=tmp_path / str(cpus))
    me = threading.current_thread().name
    assert callers[1] == [me] * 4
    for cpus in (2, 3):
        assert len(callers[cpus]) == 4
        assert all(name == me or name.startswith("shiftzoo") for name in callers[cpus])
    second_group = {1: ["cor_heavy", "main_full"], 2: ["cor_heavy", "main_full"], 3: ["main_full"]}
    for cpus, sequence in events.items():
        first_cell = next(i for i, (kind, _) in enumerate(sequence) if kind == "cell")
        made_later = [name for kind, name in sequence[first_cell:] if kind == "projection"]
        assert made_later == second_group[cpus], cpus
    expected = _read_dir(tmp_path / "1")
    for cpus in (2, 3):
        assert _read_dir(tmp_path / str(cpus)) == expected, cpus


def test_build_zoo_holds_one_group_of_projections_at_a_time(tmp_path, monkeypatch, fresh_pool):
    """Under two usable CPUs the wide zoo goes in groups of two encoders: the
    raw domains, two projections, each worker's row-block buffers and the two
    QRs' draw blocks, with 1 MiB to spare. Holding every projection until the
    last cell, as one group, peaks above 70 MB here."""
    _usable_cpus(monkeypatch, 2)
    fresh_pool()
    spec = _wide_spec()
    encoders = synthetic_dg._zoo_encoders(spec, 4)
    build_zoo(spec, zoo_size=4, out_dir=tmp_path / "warm")  # first-call imports and the pool
    tracemalloc.start()
    try:
        build_zoo(spec, zoo_size=4, out_dir=tmp_path / "z")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    raw = 4 * spec.n_domains * spec.samples_per_domain * spec.dim_total
    projection = 8 * max(enc.dim for enc in encoders) ** 2
    buffers = sum(b.nbytes for b in synthetic_dg._block_buffers(
        spec.samples_per_domain, synthetic_dg._block_widths(spec, encoders)))
    draw_block = 8 * synthetic_dg.BLOCK_DOUBLES
    assert peak < raw + 2 * projection + 2 * buffers + 2 * draw_block + (1 << 20)
    assert _read_dir(tmp_path / "z") == _read_dir(tmp_path / "warm")


def _pooled_spec(**kw):
    # 4 domains x 600 rows, 192-wide encoders: 600 * 192^2 multiply-adds per
    # cell, above the size rule, so build_zoo hands its tasks to the pool
    return SynthSpec(n_domains=4, spur_strength=(0.9, 0.9, 0.9, -0.9), dim_core=128,
                     dim_div=64, dim_spur=64, samples_per_domain=600, **kw)


def test_an_error_in_a_pooled_projection_reaches_the_caller(tmp_path, monkeypatch):
    """A failed projection ends build_zoo, which waits for every started task
    and restores the BLAS thread counts."""
    original = SynthEncoder.projection

    def failing(self):
        if self.encoder_id == "clean":
            raise NumericalError("projection failed on purpose")
        return original(self)

    monkeypatch.setattr(SynthEncoder, "projection", failing)
    monkeypatch.setattr(blas_threads, "usable_cpus", lambda: 2)
    before = blas_threads.numpy_blas_threads()
    outcome = []

    def run():
        try:
            build_zoo(_pooled_spec(), zoo_size=5, out_dir=tmp_path)
        except NumericalError as exc:
            outcome.append(exc)

    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout=120)
    assert not caller.is_alive(), "build_zoo hung after a failed projection"
    assert [str(e) for e in outcome] == ["projection failed on purpose"]
    assert blas_threads.numpy_blas_threads() == before
    assert not (tmp_path / "manifest.json").exists()


def _read_dir(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_pooled_synth_bytes_do_not_depend_on_usable_cpus(tmp_path, monkeypatch, fresh_pool):
    cells = []
    real = synthetic_dg.write_feature_blocks

    def recording(path, shape, blocks):
        cells.append((cpus, threading.current_thread().name))
        real(path, shape, blocks)

    monkeypatch.setattr(synthetic_dg, "write_feature_blocks", recording)
    outs = {}
    for cpus in (1, 2, 3):
        monkeypatch.setattr(blas_threads, "usable_cpus", lambda c=cpus: c)
        fresh_pool()
        build_zoo(_pooled_spec(seed=2), zoo_size=6, out_dir=tmp_path / str(cpus))
        outs[cpus] = _read_dir(tmp_path / str(cpus))
    assert outs[1] == outs[2] == outs[3]
    me = threading.current_thread().name
    assert [name for c, name in cells if c == 1] == [me] * 24
    assert all(name == me or name.startswith("shiftzoo") for _, name in cells)


def test_a_desk_sized_synth_gives_the_pool_nothing(tmp_path, monkeypatch):
    def no_pool():
        raise AssertionError("a desk-sized synth used the worker pool")

    monkeypatch.setattr(blas_threads, "worker_pool", no_pool)
    monkeypatch.setattr(blas_threads, "usable_cpus", lambda: 4)
    # 2000 rows x 12 wide at most: far under 2 * SPLIT_MACS per cell
    build_zoo(SynthSpec(), zoo_size=6, out_dir=tmp_path)
    assert (tmp_path / "manifest.json").is_file()


@pytest.mark.parametrize("width", [12, 192, 1032])
def test_a_streamed_cell_equals_the_written_transform(tmp_path, width):
    n = 2001
    enc = SynthEncoder("e", tuple(range(1, width + 1)), 11)
    x = np.random.default_rng(width).normal(size=(n, width + 3)).astype(np.float32)
    # one block at desk width, several with a longer last one when wider
    assert (len(_row_blocks(n, width)) > 1) == (width > 12)
    synthetic_dg.write_feature_blocks(
        tmp_path / "streamed.fzf", (n, width),
        synthetic_dg._encoded_blocks(x, enc.coord_indices, enc.projection(),
                                     synthetic_dg._block_buffers(n, [width])),
    )
    write_features(tmp_path / "whole.fzf", enc.transform(x))
    assert (tmp_path / "streamed.fzf").read_bytes() == (tmp_path / "whole.fzf").read_bytes()


def test_a_failing_cell_reaches_the_caller_and_leaves_no_task_running(
    tmp_path, monkeypatch, fresh_pool
):
    monkeypatch.setattr(blas_threads, "usable_cpus", lambda: 2)
    real = synthetic_dg.write_feature_blocks
    lock, running, started = threading.Lock(), [0], []

    def tracked(path, shape, blocks):
        with lock:
            running[0] += 1
            started.append(path.name)
        try:
            if path.name == "div_heavy_domain1.fzf":
                raise OSError("cell failed on purpose")
            real(path, shape, blocks)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(synthetic_dg, "write_feature_blocks", tracked)
    outcome = []

    def run():
        try:
            build_zoo(_pooled_spec(), zoo_size=6, out_dir=tmp_path)
        except OSError as exc:
            outcome.append(exc)

    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout=120)
    assert not caller.is_alive(), "build_zoo hung after a failed cell"
    assert [str(e) for e in outcome] == ["cell failed on purpose"]
    assert running == [0]
    # cells run in encoder order; none far past the failed one was started
    assert len(started) < 24
    assert not (tmp_path / "manifest.json").exists()


def test_synth_larger_than_physical_memory_exits_1_naming_both_sizes(
    tmp_path, monkeypatch, capsys
):
    from shiftzoo.cli import main

    # 3 domains x 2000 rows x 16 columns of float32 (0.37 MiB) and six 8- to 12-wide projections
    monkeypatch.setattr(synthetic_dg, "_physical_memory", lambda: 1 << 18)
    assert main(["synth", "--out", str(tmp_path / "z")]) == 1
    err = capsys.readouterr().err
    assert err == (
        "error: out of memory: synth would hold 0.000362 GiB of raw domains and projections "
        "(at most 6 of its 6 encoders' projections at a time), "
        "more than the 0.000244 GiB of physical memory\n"
    )
    assert not (tmp_path / "z").exists()


def test_synth_counts_every_projection_against_physical_memory(tmp_path, monkeypatch, capsys):
    from shiftzoo.cli import main

    spec = SynthSpec()
    raw = 4 * spec.n_domains * spec.samples_per_domain * spec.dim_total
    projections = [8 * enc.dim**2 for enc in synthetic_dg._zoo_encoders(spec, 6)]
    # every projection is alive while the cells are written, so a memory that
    # holds the raw domains and the widest projection alone is too small
    have = raw + max(projections) + 8
    assert have < raw + sum(projections)
    monkeypatch.setattr(synthetic_dg, "_physical_memory", lambda: have)
    assert main(["synth", "--out", str(tmp_path / "z")]) == 1
    assert "of raw domains and projections" in capsys.readouterr().err
    assert not (tmp_path / "z").exists()


def test_synth_counts_only_its_largest_group_of_projections(tmp_path, monkeypatch, capsys):
    """A zoo whose projections outweigh its raw domains makes them one at a
    time, so a memory too small for all of them at once holds the zoo."""
    from shiftzoo.cli import main

    # 60 rows are under the size rule, so one worker whatever the CPU count
    flags = ["--samples", "60", "--dim-div", "200", "--dim-spur", "200", "--zoo-size", "4"]
    spec = SynthSpec(samples_per_domain=60, dim_div=200, dim_spur=200)
    raw = 4 * spec.n_domains * spec.samples_per_domain * spec.dim_total
    projections = [8 * enc.dim**2 for enc in synthetic_dg._zoo_encoders(spec, 4)]
    assert raw < max(projections)  # groups of one encoder
    need = raw + max(projections)
    monkeypatch.setattr(synthetic_dg, "_physical_memory", lambda: need - 1)
    assert main(["synth", "--out", str(tmp_path / "refused"), *flags]) == 1
    assert "(at most 1 of its 4 encoders' projections at a time)" in capsys.readouterr().err
    assert not (tmp_path / "refused").exists()
    have = (need + raw + sum(projections)) // 2
    assert need < have < raw + sum(projections)
    monkeypatch.setattr(synthetic_dg, "_physical_memory", lambda: have)
    assert main(["synth", "--out", str(tmp_path / "z"), *flags]) == 0
    assert (tmp_path / "z" / "manifest.json").is_file()


@pytest.mark.parametrize(
    "flags, domain",
    [(["--noise-sigma", "1e300"], "domain0"), (["--div-offset", "1e308"], "domain1")],
)
def test_synth_whose_draw_overflows_float32_exits_2_naming_the_domain(
    tmp_path, capsys, flags, domain
):
    from shiftzoo.cli import main

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warnings must not escape either
        assert main(["synth", "--out", str(tmp_path / "z"), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: domain '{domain}': the draw overflows float32")
    assert "Warning" not in captured.err
    assert not (tmp_path / "z").exists()


def test_generate_refuses_a_draw_that_overflows_float32():
    with pytest.raises(ValidationError, match="domain 'domain0': the draw overflows float32"):
        generate(SynthSpec(noise_sigma=1e300))


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
            assert stored.tobytes() == enc.transform(fs.features).tobytes()


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
