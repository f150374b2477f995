"""Head training: gradients, gating, reweighting, reductions, and selection."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shiftzoo
import shiftzoo.ensemble_train as et
import shiftzoo.feature_store as feature_store
from shiftzoo.blas_threads import numpy_openblas, single_blas_thread
from shiftzoo.ensemble_train import (
    MODES,
    P_FLOOR,
    WEIGHT_CLIP,
    AdamW,
    MlpHead,
    RewAuxiliary,
    TrainConfig,
    accuracy,
    apply_mode,
    batch_weights,
    class_prior,
    head_loss_and_grads,
    logit_feature_sets,
    logit_shift,
    rew_weights,
    softmax,
    train,
    train_on_sets,
    train_rew_auxiliary,
    train_step,
    weighted_cross_entropy,
)
from shiftzoo.errors import NumericalError, ValidationError
from shiftzoo.feature_store import build_feature_set, load_domain_features
from shiftzoo.report import select_auxiliaries
from shiftzoo.synthetic_dg import SynthSpec, build_zoo

from oracle_utils import (
    ListAdamW,
    float64_head,
    reference_head_loss_and_grads,
    reference_softmax,
    reference_train_on_sets,
    reference_weighted_cross_entropy,
)


def _sets(seed, n=300, d=6, n_classes=3, domains=2):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(domains):
        x = rng.normal(size=(n, d))
        w = rng.normal(size=(d, n_classes))
        y = (x @ w + 0.5 * rng.normal(size=(n, n_classes))).argmax(axis=1)
        out.append(
            build_feature_set(
                f"d{i}", x.astype(np.float32), y, dataset_name="tr", n_classes=n_classes,
                split_ratio=0.2, seed=7,
            )
        )
    return out


def _main_rows(sets):
    """The sets' rows, each set's train-first rows in turn, as ``train_on_sets`` takes them."""
    return np.concatenate([fs.features for fs in sets])


def _train_rows(sets):
    """The sets' training rows, each set's in turn, as ``train_on_sets`` takes an auxiliary's."""
    return np.concatenate([fs.train for fs in sets])


def test_config_validation_and_modes():
    cfg = TrainConfig()
    assert cfg.lam == 1.0 and cfg.temperature == 1.0
    assert cfg.n_warmup == 100 and cfg.n_anneal == 1000
    assert cfg.batch_size == 16
    assert cfg.hsic_active and cfg.rew_active
    erm = apply_mode(cfg, "erm")
    assert erm.lam == 0.0 and math.isinf(erm.temperature)
    assert not erm.hsic_active and not erm.rew_active
    rew = apply_mode(cfg, "rew")
    assert rew.lam == 0.0 and rew.temperature == 1.0
    hsic = apply_mode(cfg, "hsic")
    assert hsic.lam == 1.0 and math.isinf(hsic.temperature)
    assert apply_mode(cfg, "both") == cfg
    with pytest.raises(ValidationError):
        apply_mode(cfg, "banana")
    with pytest.raises(ValidationError):
        TrainConfig(lam=-1.0)
    with pytest.raises(ValidationError):
        TrainConfig(temperature=0.0)
    with pytest.raises(ValidationError, match="seed"):
        TrainConfig(seed=-1)  # numpy's generators take no negative seed


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "name", ["lam", "gamma1", "gamma2", "learning_rate", "weight_decay", "aux_lr"]
)
def test_config_rejects_non_finite_hyperparameters(name, value):
    with pytest.raises(ValidationError, match=f"{name} must be finite"):
        TrainConfig(**{name: value})


def test_head_shapes():
    head = MlpHead.for_input(100, 4, [0])
    assert head.dims == (100, 50, 256, 4)
    wide = MlpHead.for_input(2048, 7, [0])
    assert wide.dims == (2048, 1024, 512, 7)
    logits = head.predict_logits(np.zeros((5, 100)))
    assert logits.shape == (1, 5, 4)
    with pytest.raises(ValidationError):
        MlpHead([3], [0])
    with pytest.raises(ValidationError):
        head.predict_logits(np.zeros((5, 99)))


def test_head_params_are_one_flat_vector():
    # a stack of one head: its parameters are the one row of a (1, P) block
    head = MlpHead([5, 4, 3, 2], [0])
    assert head.params.shape == (1, 5 * 4 + 4 + 4 * 3 + 3 + 3 * 2 + 2)
    assert head.params.dtype == np.float32 and head.params.flags.c_contiguous
    for w, b in zip(head.weights, head.biases):
        assert np.shares_memory(w, head.params) and np.shares_memory(b, head.params)
    # layout: each layer's weight (row-major), then its bias
    pieces = [a.ravel() for w, b in zip(head.weights, head.biases) for a in (w, b)]
    assert np.array_equal(np.concatenate(pieces), head.params[0])
    # the same normals in the same order as per-layer draws, rounded to float32
    rng = np.random.default_rng(0)
    for w, b in zip(head.weights, head.biases):
        _, fan_in, fan_out = w.shape
        normals = rng.normal(0.0, math.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
        assert w[0].tobytes() == normals.astype(np.float32).tobytes()
        assert np.array_equal(b[0], np.zeros(fan_out))
    head.params[:] = 7.0
    assert (head.weights[1] == 7.0).all() and (head.biases[2] == 7.0).all()


def _fd_grads(head, x, y, weights, aux, lam, g1, g2, h=1e-5):
    """Central differences of a stack of one head's total loss."""
    p = head.params.reshape(-1)
    fd = np.zeros_like(p)
    for i in range(p.size):
        orig = p[i]
        p[i] = orig + h
        [up], _, _, _ = head_loss_and_grads(head, x, y, weights, aux, lam, g1, g2)
        p[i] = orig - h
        [dn], _, _, _ = head_loss_and_grads(head, x, y, weights, aux, lam, g1, g2)
        p[i] = orig
        fd[i] = (up - dn) / (2 * h)
    return fd


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_full_loss_gradcheck(seed):
    """The backprop of ``head_loss_and_grads``, which computes in its head's
    dtype, run on a float64 copy of a head so that finite differences resolve it."""
    rng = np.random.default_rng(seed)
    head = float64_head(MlpHead([2, 16, 8, 3], [rng]))
    m = 8
    # one batch for the stack's one head
    x = rng.normal(size=(1, m, 2))
    y = rng.integers(0, 3, size=(1, m))
    aux = rng.normal(size=(1, m, 4))
    weights = batch_weights(rng.uniform(0.2, 3.0, size=(1, m)))
    lam, g1, g2 = 0.7, 0.1, 0.5
    _, _, _, grad = head_loss_and_grads(head, x, y, weights, aux, lam, g1, g2)
    grad = grad.reshape(-1).copy()  # the finite differences overwrite the head's gradient buffer
    fd = _fd_grads(head, x, y, weights, aux, lam, g1, g2)
    num = math.sqrt(float(np.sum((grad - fd) ** 2)))
    den = max(math.sqrt(float(np.sum(fd ** 2))), 1e-12)
    assert num / den < 1e-6


def test_weighted_ce_reduces_to_plain_mean():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(10, 4))
    y = rng.integers(0, 4, size=10)
    ones = np.ones(10)
    # a stack of one batch
    [ce], _ = weighted_cross_entropy(logits[None], y[None], ones[None])
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    want = float(np.mean(-np.log(probs[np.arange(10), y])))
    assert ce == pytest.approx(want, rel=1e-12)


def test_weighted_cross_entropy_takes_stacks_only():
    logits, y = np.zeros((10, 4)), np.zeros(10, dtype=int)
    with pytest.raises(ValidationError, match=r"stack of \(F, m, classes\) logits"):
        weighted_cross_entropy(logits, y, None)


def _bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    m=st.sampled_from([2, 3, 32, 97]),
    n_classes=st.integers(2, 7),
    weighting=st.sampled_from(["uniform", "ones", "explicit"]),
    scale=st.sampled_from([1e-8, 1e-2, 1.0, 30.0, 1e3, 1e8, 1e300]),
    offset=st.sampled_from([0.0, 1e4, -1e4]),
    ties=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_weighted_cross_entropy_matches_reference_bitwise(
    m, n_classes, weighting, scale, offset, ties, seed
):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(m, n_classes)) * scale + offset
    if ties:
        # whole numbers: rows with several equal maxima
        logits = np.round(rng.normal(size=(m, n_classes)))
    labels = rng.integers(0, n_classes, size=m)
    weights = {
        "uniform": None,
        "ones": np.ones(m),
        "explicit": batch_weights(rng.uniform(0.01, 5.0, size=m)),
    }[weighting]
    # a stack of one batch
    [ce], [dlogits] = weighted_cross_entropy(
        logits[None], labels[None], None if weights is None else weights[None]
    )
    want_ce, want_d = reference_weighted_cross_entropy(
        logits, labels, np.ones(m) if weights is None else weights
    )
    assert _bits(ce) == _bits(want_ce)
    assert dlogits.tobytes() == want_d.tobytes()
    assert softmax(logits).tobytes() == reference_softmax(logits).tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    m=st.sampled_from([2, 3, 32, 97]),
    explicit=st.booleans(),
    lam=st.sampled_from([0.0, 20.0]),
    log10_scale=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_train_step_matches_reference_step_bitwise(m, explicit, lam, log10_scale, seed):
    """One step of the desk head against plain forward, reference CE/HSIC and backward."""
    rng = np.random.default_rng(seed)
    x = (rng.normal(size=(m, 12)) * 10.0**log10_scale).astype(np.float32)
    labels = rng.integers(0, 4, size=m)
    aux = rng.normal(size=(m, 5)).astype(np.float32)
    weights = batch_weights(rng.uniform(0.1, 3.0, size=m)) if explicit else None
    cfg = TrainConfig(lam=lam, n_warmup=0, weight_decay=0.01, learning_rate=1e-3)
    head, ref_head = (MlpHead.for_input(12, 4, [seed % 1000]) for _ in range(2))
    opt = AdamW(head.params, lr=1e-3, weight_decay=0.01)
    ref_opt = AdamW(ref_head.params, lr=1e-3, weight_decay=0.01)
    for step in range(3):
        # the stack's one head takes the batch as a stack of one
        got_ce, got_hsic = train_step(head, opt, x[None], labels[None], aux[None],
                                      None if weights is None else weights[None], cfg, step)
        ref_weights = np.ones(m) if weights is None else weights
        total, ce, hsic, grad = reference_head_loss_and_grads(
            ref_head, x, labels, ref_weights, aux, lam, cfg.gamma1, cfg.gamma2
        )
        ref_opt.step(grad)
        assert [_bits(v) for v in (got_ce, got_hsic)] == [_bits(v) for v in (ce, hsic)]
        assert _bits(got_ce + lam * got_hsic) == _bits(total)
        assert head.params.tobytes() == ref_head.params.tobytes()


def test_adamw_single_step_matches_hand_computation():
    p = np.array([1.0])
    g = np.array([0.5])
    opt = AdamW(p, lr=0.1, weight_decay=0.0)
    opt.step(g)
    # bias-corrected first step moves by lr * g/(|g| + eps) in the g direction
    assert p[0] == pytest.approx(1.0 - 0.1 * (0.5 / (0.5 + 1e-8)), rel=1e-9)


def test_adamw_decoupled_weight_decay():
    p = np.array([2.0])
    opt = AdamW(p, lr=0.1, weight_decay=0.5)
    opt.step(np.array([0.0]))
    # zero gradient: only the decay term acts, p -= lr*wd*p
    assert p[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_flat_adamw_matches_list_reference_bitwise(weight_decay, monkeypatch):
    rng = np.random.default_rng(10)
    # a head inside one chunk, and one spanning four chunks with a partial
    # tail; the CPU count sets the number of runs the chunks are split into,
    # also on a machine with fewer CPUs
    for workers, dims in itertools.product([1, 2, 3], ([7, 5, 4, 3], [AdamW.CHUNK // 16, 48, 3])):
        monkeypatch.setattr(et, "usable_cpus", lambda w=workers: w)
        head = MlpHead(dims, [rng])
        if dims[0] == AdamW.CHUNK // 16:
            assert head.params.size > 3 * AdamW.CHUNK and head.params.size % AdamW.CHUNK
        arrays = [a.copy() for w, b in zip(head.weights, head.biases) for a in (w, b)]
        opt = AdamW(head.params, lr=1e-2, weight_decay=weight_decay)
        n_chunks = -(-head.params.size // AdamW.CHUNK)
        assert len(opt._runs) == min(workers, n_chunks)
        ref = ListAdamW(arrays, lr=1e-2, weight_decay=weight_decay)
        for _ in range(25):
            grad = rng.normal(scale=rng.uniform(1e-3, 10.0), size=head.params.size)
            grad = grad.astype(head.params.dtype)
            grad[rng.random(grad.shape) < 0.1] = 0.0
            opt.step(grad)
            start = 0
            grads = []
            for a in arrays:
                grads.append(grad[start : start + a.size].reshape(a.shape))
                start += a.size
            ref.step(arrays, grads)
            assert np.array_equal(head.params[0], np.concatenate([a.ravel() for a in arrays]))
        assert opt.t == ref.t == 25


def test_adamw_scratch_is_one_chunk(monkeypatch):
    n = 10 * AdamW.CHUNK + 123
    params = np.zeros(n, dtype=np.float32)
    size = params.itemsize
    # 256 KiB per chunk-length array
    assert AdamW.CHUNK * size == 256 * 1024
    for workers in (1, 3):
        monkeypatch.setattr(et, "usable_cpus", lambda w=workers: w)
        tracemalloc.start()
        try:
            opt = AdamW(params, lr=1e-3)
            allocated, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # m and v are full size; each worker's two scratch vectors are one
        # chunk each (the rest is the per-chunk views, a few hundred bytes
        # per chunk)
        assert opt.m.size == opt.v.size == n
        assert opt.m.dtype == opt.v.dtype == np.float32
        assert len(opt._runs) == workers
        assert size * 2 * n <= allocated <= size * (2 * n + workers * 2 * AdamW.CHUNK) + 64 * 1024


def _with_blas_threads(count, body):
    lib = numpy_openblas()
    if lib is None:
        return body()
    before = lib.get_num_threads()
    lib.set_num_threads(count)
    try:
        return body()
    finally:
        lib.set_num_threads(before)


def _recording_run(monkeypatch):
    """Record the block count of every split product; the blocks still run."""
    blocks = []
    real = et.run_tasks

    def recording(tasks, workers):
        blocks.append(len(tasks))
        return real(tasks, workers)

    monkeypatch.setattr(et, "run_tasks", recording)
    return blocks


def _head_products(rng):
    """The products of one 2048 -> 1024 -> 512 step and of one evaluation pass,
    as 2-D operands; a head's pass multiplies them as stacks of one."""
    x, x_eval = rng.normal(size=(32, 2048)), rng.normal(size=(900, 2048))
    w0, w1 = rng.normal(size=(2048, 1024)), rng.normal(size=(1024, 512))
    h1 = np.maximum(x @ w0, 0.0)
    delta1, delta2 = rng.normal(size=(32, 1024)), rng.normal(size=(32, 512))
    return {
        "forward 2048": (x, w0),
        "forward 1024": (h1, w1),
        "acts.T @ delta 2048": (x.T, delta1),
        "acts.T @ delta 1024": (h1.T, delta2),
        "delta @ W.T 1024": (delta1, w0.T),
        "delta @ W.T 512": (delta2, w1.T),
        "evaluation pass": (x_eval, w0),
    }


@pytest.mark.parametrize("blas_threads", [1, 2])
@pytest.mark.parametrize("cpus", [2, 3])
def test_split_matmul_matches_numpy_bitwise(cpus, blas_threads, monkeypatch):
    monkeypatch.setattr(et, "usable_cpus", lambda: cpus)
    blocks = _recording_run(monkeypatch)
    products = _head_products(np.random.default_rng(cpus))
    for name, (a, b) in products.items():
        a, b = a[None], b[None]
        want = _with_blas_threads(blas_threads, lambda: np.matmul(a, b))
        got = _with_blas_threads(blas_threads, lambda: et._matmul(a, b))
        assert got.tobytes() == want.tobytes(), name
        out = np.empty_like(want)
        assert _with_blas_threads(blas_threads, lambda: et._matmul(a, b, out=out)) is out
        assert out.tobytes() == want.tobytes(), name
    # with OpenBLAS on one thread every product is split, one block per CPU,
    # with and without ``out``; with more OpenBLAS threads none is
    assert blocks == ([cpus] * 2 * len(products) if blas_threads == 1 else [])


@pytest.mark.parametrize("heads", [1, 3])
def test_float32_split_matmul_matches_numpy_bitwise(heads, monkeypatch):
    """The cuts keep sgemm's bits too: the wide head's float32 step products
    and evaluation passes of 1234, 1500 and 2000 rows, as stacks of F."""
    rng = np.random.default_rng(heads)
    f32 = lambda *shape: rng.normal(size=(heads, *shape)).astype(np.float32)
    w0, w1 = f32(2048, 1024), f32(1024, 512)
    x, delta1, delta2 = f32(32, 2048), f32(32, 1024), f32(32, 512)
    h1 = np.maximum(x @ w0, 0.0)
    products = {
        "forward 2048": (x, w0),
        "forward 1024": (h1, w1),
        "acts.T @ delta 2048": (np.swapaxes(x, 1, 2), delta1),
        "acts.T @ delta 1024": (np.swapaxes(h1, 1, 2), delta2),
        "delta @ W.T 1024": (delta1, np.swapaxes(w0, 1, 2)),
        "delta @ W.T 512": (delta2, np.swapaxes(w1, 1, 2)),
    }
    for rows in (1234, 1500, 2000):
        x_eval = f32(rows, 2048)
        products[f"evaluation pass {rows}"] = (x_eval, w0)
        products[f"evaluation pass {rows}, layer 2"] = (np.maximum(x_eval[:, :, :1024], 0.0), w1)
    for cpus in (2, 3):
        monkeypatch.setattr(et, "usable_cpus", lambda: cpus)
        blocks = _recording_run(monkeypatch)
        with single_blas_thread():
            for name, (a, b) in products.items():
                want = np.matmul(a, b)
                assert want.dtype == np.float32
                assert et._matmul(a, b).tobytes() == want.tobytes(), (cpus, name)
        # every product is cut, one block per CPU for each matrix of the stack
        assert blocks == [cpus * heads] * len(products)


def test_split_matmul_cuts_unevenly_at_the_alignment():
    # 3-way cuts: 2048 rows -> 672/672/704, 1024 columns -> 336/336/352, 900 rows -> 288/288/324
    assert et._cuts(2048, 3, 48) == [(0, 672), (672, 1344), (1344, 2048)]
    assert et._cuts(1024, 3, 16) == [(0, 336), (336, 672), (672, 1024)]
    assert et._cuts(900, 3, 48) == [(0, 288), (288, 576), (576, 900)]
    assert et._cuts(97, 2, 48) == [(0, 48), (48, 97)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    m=st.sampled_from([16, 32, 64, 97, 480, 1111, 2500]),
    k=st.integers(1, 1500),
    n=st.one_of(st.integers(1, 1500), st.integers(1, 90).map(lambda i: 16 * i)),
    cpus=st.integers(2, 5),
    a_fortran=st.booleans(),
    b_fortran=st.booleans(),
    dtype=st.sampled_from([np.float64, np.float32]),
)
def test_split_matmul_matches_numpy_on_any_shape(m, k, n, cpus, a_fortran, b_fortran, dtype):
    rng = np.random.default_rng(m * k + n)
    a, b = rng.normal(size=(m, k)).astype(dtype), rng.normal(size=(k, n)).astype(dtype)
    a, b = (np.asfortranarray(x)[None] if f else x[None]
            for x, f in ((a, a_fortran), (b, b_fortran)))
    real = et.usable_cpus
    et.usable_cpus = lambda: cpus
    try:
        with single_blas_thread():
            got, want = et._matmul(a, b), np.matmul(a, b)
    finally:
        et.usable_cpus = real
    assert got.tobytes() == want.tobytes()


def test_split_matmul_keeps_numpy_bits_under_two_openblas_threads():
    """Outside ``train``, with OpenBLAS on two threads, products are not cut.

    Cut products of these ragged shapes differ from ``np.matmul`` in the last
    bit under two OpenBLAS threads (63, 1117 and 142 entries with OpenBLAS
    0.3.31), so ``_matmul`` must hand them to numpy whole.
    """
    if numpy_openblas() is None:
        pytest.skip("numpy links no OpenBLAS here")
    script = (
        "import numpy as np\n"
        "import shiftzoo.ensemble_train as et\n"
        "from shiftzoo.blas_threads import numpy_blas_threads\n"
        "assert numpy_blas_threads() == 2, numpy_blas_threads()\n"
        "et.usable_cpus = lambda: 2\n"
        "rng = np.random.default_rng(0)\n"
        "for m, k, n in ((465, 1006, 495), (500, 1000, 333), (97, 1500, 1500)):\n"
        "    a, b = rng.normal(size=(1, m, k)), rng.normal(size=(1, k, n))\n"
        "    assert et._matmul(a, b).tobytes() == np.matmul(a, b).tobytes(), (m, k, n)\n"
    )
    src = str(Path(shiftzoo.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "OMP_NUM_THREADS"}
    env.update(OPENBLAS_NUM_THREADS="2", PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_small_heads_take_the_serial_code(monkeypatch):
    # the desk zoo's 12 -> 6 -> 256 -> 4 head: one chunk, and no product
    # of a step or of a 1200-row evaluation pass reaches two SPLIT_MACS blocks
    monkeypatch.setattr(et, "usable_cpus", lambda: 4)
    blocks = _recording_run(monkeypatch)
    head = MlpHead.for_input(12, 4, [0])
    opt = AdamW(head.params, lr=1e-3)
    assert len(opt._runs) == 1
    rng = np.random.default_rng(0)
    labels = np.arange(32)[None] % 4
    _, _, _, grad = head_loss_and_grads(head, rng.normal(size=(1, 32, 12)), labels, np.ones((1, 32)))
    opt.step(grad)
    head.predict_logits(rng.normal(size=(1200, 12)))
    assert blocks == []


@pytest.mark.parametrize("dims, rows", [((12, 6, 256, 4), 300), ((512, 256, 128, 4), 200)])
def test_predict_logits_equals_forward_bitwise(dims, rows, monkeypatch):
    monkeypatch.setattr(et, "usable_cpus", lambda: 3)
    blocks = _recording_run(monkeypatch)
    head = MlpHead(dims, [1])
    x = np.random.default_rng(2).normal(size=(rows, dims[0])).astype(np.float32)
    with single_blas_thread():
        want, _ = head.forward(x)
        got = head.predict_logits(x)
    assert got.tobytes() == want.tobytes()
    # the wide head's two hidden products, 200 * 512 * 256 and 200 * 256 * 128,
    # reach 2 * SPLIT_MACS, so each pass cuts both by rows
    if rows * dims[0] * dims[1] >= 2 * et.SPLIT_MACS:
        assert blocks == [3, 3] * 2
    else:
        assert blocks == []


def test_predict_logits_holds_the_input_and_one_hidden_layer():
    head = MlpHead((512, 256, 128, 4), [0])
    x = np.random.default_rng(0).normal(size=(500, 512)).astype(np.float32)
    hidden1, hidden2, logits = 500 * 256 * 4, 500 * 128 * 4, 500 * 4 * 4
    tracemalloc.start()
    try:
        head.predict_logits(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the stored float32 input is read as it is, with no copy: the two hidden
    # layers (0.77 MB), plus the logits and 64 KiB of small objects; keeping
    # every layer's input, as ``forward`` does, adds the first hidden layer's
    # place again
    assert hidden1 + hidden2 <= peak <= hidden1 + hidden2 + logits + 64 * 1024


def _fixed_aux(bias, prior):
    """A stack of one classifier with zero weights: every row's class
    probabilities are softmax(bias)."""
    head = MlpHead((1, len(bias)), [0])
    head.weights[0][...] = 0.0
    head.biases[0][...] = bias
    return RewAuxiliary(head=head, class_prior=np.asarray([prior], dtype=np.float64))


def test_rew_weight_examples():
    # weights are rescaled to mean 1, so the raw weight (p(y) / p_c(y))^(1/T)
    # of row 0 shows as its ratio to row 1, whose raw weight is 0.5/0.5 = 1
    aux = _fixed_aux(np.log([0.25, 0.5, 0.25]), [0.5, 0.5, 0.0])
    z, labels = np.zeros((1, 2, 1)), np.array([[0, 1]])
    [w] = rew_weights(aux, z, labels, temperature=1.0)
    assert w[0] / w[1] == pytest.approx(2.0)
    [w2] = rew_weights(aux, z, labels, temperature=2.0)
    assert w2[0] / w2[1] == pytest.approx(math.sqrt(2.0))
    assert np.array_equal(rew_weights(aux, z, labels, temperature=math.inf), np.ones((1, 2)))
    # p_c(y) = 0 is floored at P_FLOOR, which keeps the ratio finite; the
    # floored ratio 0.25 / P_FLOOR exceeds WEIGHT_CLIP, so the weight is clipped
    aux0 = _fixed_aux([math.log(0.5), math.log(0.5), -1e3], [0.25, 0.5, 0.25])
    assert aux0.predict_proba(z)[0, 0, 2] == 0.0
    assert 0.25 / P_FLOOR > WEIGHT_CLIP
    [w0] = rew_weights(aux0, z, np.array([[2, 1]]), temperature=1.0)
    assert np.isfinite(w0).all()
    assert w0[0] / w0[1] == pytest.approx(WEIGHT_CLIP)


def test_rew_weights_overflow_to_the_clip_warns_nothing():
    # a confident classifier: p(y) is exactly 1 or 0 (floored at P_FLOOR), so at
    # T = 0.01 a ruled-out label's raw weight (0.5 / P_FLOOR)^100 overflows to
    # inf and is clipped to WEIGHT_CLIP, while a sure label's is 0.5^100
    aux = _fixed_aux([0.0, -1e3], [0.5, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = rew_weights(aux, np.zeros((1, 3, 1)), np.array([[0, 1, 1]]), temperature=0.01)
    # 2^-100 * 3/200 and 100 * 3/200, bit for bit
    want = np.array([float.fromhex("0x1.eb851eb851eb8p-107"), 1.5, 1.5])
    assert w.tobytes() == want.tobytes()


def test_batch_weights_examples_and_properties():
    np.testing.assert_allclose(batch_weights(np.array([2.0, 2.0])), [1.0, 1.0])
    np.testing.assert_allclose(batch_weights(np.array([1.0, 3.0])), [0.5, 1.5])
    np.testing.assert_allclose(batch_weights(np.full(7, 123.4)), np.ones(7))
    rng = np.random.default_rng(5)
    raw = rng.uniform(0.1, 9.0, size=20)
    w = batch_weights(raw)
    assert w.mean() == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(w / w[0], raw / raw[0], rtol=1e-12)
    np.testing.assert_allclose(batch_weights(2 * raw), w, rtol=1e-12)
    with pytest.raises(ValidationError):
        batch_weights(np.array([1.0, -1.0]))


def test_class_prior_and_floor():
    # the prior is the pool's frequencies, unfloored: an absent class gets
    # exactly 0, which rew_weights never reads, since its labels come from
    # the pool the prior was counted on
    prior = class_prior(np.array([0, 1, 2, 3] * 5), 4)
    np.testing.assert_allclose(prior, [0.25] * 4)
    prior2 = class_prior(np.array([0, 0, 1]), 3)
    assert prior2.tolist() == [2 / 3, 1 / 3, 0.0]


def test_rew_auxiliary_learns_separable_data():
    rng = np.random.default_rng(6)
    n = 400
    x = rng.normal(size=(n, 4))
    y = (x[:, 0] > 0).astype(int)
    x[y == 1, 0] += 2.0  # margin 2 along the first coordinate
    aux = train_rew_auxiliary(x, y, 2, [0], [np.arange(n)], TrainConfig())
    acc = (aux.predict_proba(x)[0].argmax(axis=1) == y).mean()
    assert acc >= 0.95
    np.testing.assert_allclose(aux.class_prior, [np.bincount(y) / n])


def _reference_rew_auxiliary(z, y, n_classes, seed, steps, lr, batch_size):
    """The classifier's training loop over separate float32 [w, b] arrays with ``ListAdamW``."""
    z = z.astype(np.float32)  # the classifier's dtype; a mixed-dtype product may take another kernel
    w, b = np.zeros((z.shape[1], n_classes), np.float32), np.zeros(n_classes, np.float32)
    ref = ListAdamW([w, b], lr=lr)
    batch_rng = np.random.default_rng(seed)
    for _ in range(steps):
        idx = batch_rng.integers(0, len(y), size=batch_size)
        probs = softmax(z[idx] @ w + b)
        probs[np.arange(batch_size), y[idx]] -= 1.0
        probs *= 1.0 / batch_size  # as the head's cross-entropy scales its gradient
        ref.step([w, b], [z[idx].T @ probs, probs.sum(axis=0)])
    return w, b


def test_rew_auxiliary_matches_list_reference_bitwise():
    rng = np.random.default_rng(11)
    z = rng.normal(size=(60, 4))
    y = rng.integers(0, 3, size=60)
    aux = train_rew_auxiliary(z, y, 3, [2], [np.arange(60)],
                              TrainConfig(aux_steps=30, aux_lr=1e-2, aux_batch_size=8))
    w, b = _reference_rew_auxiliary(z, y, 3, seed=2, steps=30, lr=1e-2, batch_size=8)
    assert np.array_equal(aux.head.weights[0][0], w) and np.array_equal(aux.head.biases[0][0], b)


# The reference scales its float32 gradient by 1/m as the head does: dividing
# by m instead differs in the last bit when m is no power of two, and where an
# element cancels to about float32's epsilon (at zero init, a class with
# exactly 1/k of the batch), Adam's first step, lr * g / (|g| + 1e-8), turns
# that bit into a step of a sizeable share of lr (seen: dim 1, 3 classes,
# batch 3, seed 0, one step, a bias of -0.0075 against -0.0060).
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    dim=st.integers(1, 40),
    n_classes=st.integers(2, 6),
    steps=st.integers(1, 60),
    batch_size=st.sampled_from([1, 2, 3, 5, 8, 12, 16, 24, 32, 50, 64]),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**16),
)
def test_rew_auxiliary_matches_list_reference(dim, n_classes, steps, batch_size, dtype, seed):
    rng = np.random.default_rng(seed)
    n = 50
    z = rng.normal(size=(n, dim)).astype(dtype)
    y = rng.permutation(np.arange(n) % n_classes)
    aux = train_rew_auxiliary(z, y, n_classes, [seed], [np.arange(n)], TrainConfig(
        aux_steps=steps, aux_lr=1e-2, aux_batch_size=batch_size))
    w, b = _reference_rew_auxiliary(z, y, n_classes, seed, steps, 1e-2, batch_size)
    assert aux.head.params[0].tobytes() == np.concatenate([w.ravel(), b]).tobytes()


def test_rew_auxiliary_needs_two_classes():
    with pytest.raises(ValidationError, match="at least 2 classes"):
        train_rew_auxiliary(np.ones((5, 2)), np.zeros(5, dtype=int), 2, [0], [np.arange(5)],
                            TrainConfig())
    # in each classifier's own pool: rows 0 and 1 hold one class
    y = np.array([0, 0, 1, 1, 1])
    with pytest.raises(ValidationError, match="at least 2 classes"):
        train_rew_auxiliary(np.ones((5, 2)), y, 2, [0, 1], [np.arange(5), np.arange(2)],
                            TrainConfig())


def test_rew_weights_clip_and_inf_temperature():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(50, 3))
    y = rng.integers(0, 2, size=50)
    aux = train_rew_auxiliary(x, y, 2, [1], [np.arange(50)], TrainConfig(aux_steps=50, aux_lr=1e-2))
    w = rew_weights(aux, x[None], y[None], temperature=1.0)
    assert w.shape == (1, 50)
    assert w.mean() == pytest.approx(1.0)
    winf = rew_weights(aux, x[None], y[None], temperature=math.inf)
    assert np.array_equal(winf, np.ones((1, 50)))


def test_train_step_gating():
    """``train_step`` applies the weights and the penalty it gets, whatever the
    step; ``train_on_sets`` decides when they switch on (see
    ``test_train_on_sets_runs_and_logs``)."""
    rng = np.random.default_rng(8)
    # one batch of 8 rows for a stack of one head
    x = rng.normal(size=(1, 8, 4))
    y = rng.integers(0, 3, size=(1, 8))
    aux = rng.normal(size=(1, 8, 5))
    cfg = TrainConfig(lam=2.0, n_warmup=5, n_anneal=3, steps=10, batch_size=8)
    head = MlpHead.for_input(4, 3, [0])
    opt = AdamW(head.params, lr=1e-3)
    weights = batch_weights(rng.uniform(0.5, 2.0, size=(1, 8)))
    # no rew_batch and no aux_div: uniform weights and no HSIC term
    plain_ce, _ = weighted_cross_entropy(head.predict_logits(x), y, np.ones((1, 8)))
    ce, hsic = train_step(head, opt, x, y, None, None, cfg, step_index=6)
    assert hsic == 0.0 and ce == plain_ce
    # both given before n_warmup and n_anneal: both apply, as given
    weighted_ce, _ = weighted_cross_entropy(head.predict_logits(x), y, weights)
    total, _, _, _ = head_loss_and_grads(head, x, y, weights, aux, cfg.lam, cfg.gamma1, cfg.gamma2)
    ce, hsic = train_step(head, opt, x, y, aux, weights, cfg, step_index=0)
    assert ce == weighted_ce
    assert hsic > 0.0
    assert ce + cfg.lam * hsic == total
    # at lambda = 0 a given auxiliary adds no term
    plain_ce, _ = weighted_cross_entropy(head.predict_logits(x), y, None)
    ce, hsic = train_step(head, opt, x, y, aux, None, replace_cfg(cfg, lam=0.0), step_index=6)
    assert hsic == 0.0 and ce == plain_ce


def _blocks_of(monkeypatch, size):
    """Cut every training loop into blocks of ``size`` steps (None: the whole
    run), by setting the block budget to that many steps' bytes. Returns the
    list that each loop's blocks are appended to, as a list of ranges."""
    real, cuts = et._step_blocks, []

    def cut(steps, step_bytes, *switches):
        monkeypatch.setattr(et, "STEP_BLOCK_BYTES", (size or steps) * step_bytes)
        blocks = real(steps, step_bytes, *switches)
        cuts.append(blocks)
        return blocks

    monkeypatch.setattr(et, "_step_blocks", cut)
    return cuts


def test_rew_weights_run_only_from_n_anneal(monkeypatch):
    # blocks of 5 steps: a block ends at step 13, and the next computes weights for 13-17
    _blocks_of(monkeypatch, 5)
    batches = []

    def counting(aux, z, labels, temperature):
        batches.append(labels.shape[:-1])
        return rew_weights(aux, z, labels, temperature)

    monkeypatch.setattr(et, "rew_weights", counting)
    *sets, test = _sets(6, domains=3)
    cfg = TrainConfig(
        lam=0.0, temperature=1.0, n_anneal=13, steps=40, learning_rate=1e-3,
        eval_every=10, seed=3, aux_steps=20, aux_lr=1e-2,
    )
    [res] = train_on_sets(sets, _main_rows(sets), None, _train_rows(sets), 3, cfg, [test])
    # one weighted (step, fold) batch per step from n_anneal on, and no other
    assert sum(math.prod(shape) for shape in batches) == cfg.steps - cfg.n_anneal
    assert batches[0] == (5, 1)
    assert (res.log[: cfg.n_anneal, 2] == 1.0).all()


def test_train_step_erm_reduction_is_bitwise():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(1, 6, 4))
    y = rng.integers(0, 3, size=(1, 6))
    cfg = TrainConfig(lam=0.0, temperature=math.inf, steps=5, batch_size=6)
    head_a = MlpHead.for_input(4, 3, [123])
    head_b = MlpHead.for_input(4, 3, [123])
    opt_a = AdamW(head_a.params, lr=1e-3)
    opt_b = AdamW(head_b.params, lr=1e-3)
    train_step(head_a, opt_a, x, y, None, None, cfg, step_index=0)
    # plain ERM step by hand
    total, ce, h, grad = head_loss_and_grads(head_b, x, y, np.ones((1, 6)))
    opt_b.step(grad)
    assert np.array_equal(head_a.params, head_b.params)


def test_train_step_hsic_needs_two_rows():
    cfg = TrainConfig(lam=1.0, n_warmup=0, batch_size=2)
    head = MlpHead.for_input(3, 2, [0])
    opt = AdamW(head.params, lr=1e-3)
    with pytest.raises(ValidationError):
        train_step(
            head, opt, np.zeros((1, 1, 3)), np.zeros((1, 1), dtype=int), np.zeros((1, 1, 2)),
            None, cfg, step_index=0,
        )


def test_train_on_sets_runs_and_logs():
    sets = _sets(0)
    cfg = TrainConfig(
        lam=1.0, temperature=1.0, n_warmup=5, n_anneal=10, steps=40,
        learning_rate=1e-3, eval_every=10, seed=11, aux_steps=50, aux_lr=1e-2,
    )
    rows = _train_rows(sets)
    # a test domain, d2, that the head does not train on
    [res] = train_on_sets(sets, _main_rows(sets), rows, rows, 3, cfg, [_sets(1, domains=3)[2]])
    assert res.log.shape == (40, 3) and res.log.dtype == np.float64
    ce, hsic, mean_weight = res.log.T
    assert np.isfinite(ce + cfg.lam * hsic).all()
    # the penalty from n_warmup on, and the weights from n_anneal on
    assert ((hsic > 0.0) == (np.arange(40) >= cfg.n_warmup)).all()
    assert (mean_weight[: cfg.n_anneal] == 1.0).all()
    assert np.allclose(mean_weight[cfg.n_anneal :], 1.0, rtol=0, atol=1e-12)
    assert 0.0 <= res.final_val_accuracy <= 1.0
    assert res.best_val_accuracy >= res.final_val_accuracy - 1e-12
    assert 0.0 <= res.final_test_accuracy <= 1.0
    assert res.evals[-1].step == 39


@pytest.mark.parametrize("eval_every,best_step", [(5, 14), (100, 19)])
def test_test_accuracies_come_from_one_pass_per_checkpoint(monkeypatch, eval_every, best_step):
    """The final accuracy is the argmax of the returned float32 test logits,
    and a best checkpoint at the last step reuses it instead of a second pass."""
    sets, [test] = _sets(0), _sets(1, domains=3)[2:]
    cfg = TrainConfig(lam=0.0, temperature=math.inf, steps=20, learning_rate=1e-2,
                      eval_every=eval_every, seed=0)
    rows = []
    real = MlpHead.predict_logits
    monkeypatch.setattr(MlpHead, "predict_logits",
                        lambda self, x: rows.append(x.shape[0]) or real(self, x))
    [res] = train_on_sets(sets, _main_rows(sets), None, None, 3, cfg, [test])
    monkeypatch.undo()
    assert res.best_step == best_step
    n_val, n_test = sum(len(fs.val) for fs in sets), test.n_samples
    logits = res.test_logits
    assert logits.dtype == np.float32 and logits.shape == (n_test, 3)
    assert np.array_equal(logits, res.head.predict_logits(test.features)[0])
    assert res.final_test_accuracy == accuracy(res.head, test.features, test.labels)
    test_passes = 1 if best_step == cfg.steps - 1 else 2
    assert rows == [n_val] * len(res.evals) + [n_test] * test_passes
    # the earlier checkpoint's own pass scores otherwise
    assert (res.best_test_accuracy == res.final_test_accuracy) == (test_passes == 1)


def test_train_erm_equals_both_with_inactive_knobs():
    *sets, test = _sets(2, domains=3)
    base = TrainConfig(steps=30, learning_rate=1e-3, eval_every=10, seed=5)
    erm = apply_mode(base, "erm")
    both = apply_mode(replace_cfg(base, lam=0.0, temperature=math.inf), "both")
    [res_a] = train_on_sets(sets, _main_rows(sets), None, None, 3, erm, [test])
    [res_b] = train_on_sets(sets, _main_rows(sets), None, None, 3, both, [test])
    assert np.array_equal(res_a.head.params, res_b.head.params)
    assert res_a.log.tobytes() == res_b.log.tobytes()


def test_train_pools_stay_float32():
    """The main rows are held once, as stored, and the float32 head reads them as they are."""
    rng = np.random.default_rng(0)
    sets = [
        build_feature_set(
            f"d{i}", rng.normal(size=(6000, 128)).astype(np.float32), rng.integers(0, 3, 6000),
            dataset_name="mem", n_classes=3, split_ratio=0.05, seed=1,
        )
        for i in range(2)
    ]
    test = build_feature_set("d2", rng.normal(size=(600, 128)).astype(np.float32),
                             rng.integers(0, 3, 600), dataset_name="mem", n_classes=3,
                             split_ratio=0.05, seed=1)
    # train rows held three times (main, diversity, correlation), plus validation
    pools = sum(3 * fs.train.nbytes + fs.val.nbytes for fs in sets)
    cfg = TrainConfig(
        lam=1.0, temperature=1.0, n_warmup=0, n_anneal=0, steps=3, eval_every=1, batch_size=8,
        aux_steps=3, aux_batch_size=8, learning_rate=1e-3, aux_lr=1e-2,
    )
    tracemalloc.start()
    try:
        # one array of training rows per auxiliary, as ``train`` gathers them
        div_rows, cor_rows = _train_rows(sets), _train_rows(sets)
        train_on_sets(sets, _main_rows(sets), div_rows, cor_rows, 3, cfg, [test])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # float64 copies of the pools alone would take 2 * pools, and a pooled
    # copy of the main rows 1.33 * pools; the head, its optimizer and one
    # validation pass fit in the remaining quarter
    assert pools <= peak < 1.25 * pools


def test_train_on_sets_rejects_misshapen_main_rows():
    *sets, test = _sets(3, domains=3)
    cfg = apply_mode(TrainConfig(steps=5, eval_every=5), "erm")
    for main_rows in (_main_rows(sets)[:-1], _main_rows(sets)[:, :-1]):
        with pytest.raises(ValidationError, match=r"^main features have shape \(\d+, \d\), "
                                                  r"expected \(600, 6\)$"):
            train_on_sets(sets, main_rows, None, None, 3, cfg, [test])


def test_train_on_sets_rejects_misshapen_auxiliary_rows():
    *sets, test = _sets(3, domains=3)
    rows = _train_rows(sets)
    cfg = TrainConfig(lam=1.0, temperature=math.inf, steps=5, eval_every=5)
    with pytest.raises(ValidationError, match="diversity-auxiliary features have shape"):
        train_on_sets(sets, _main_rows(sets), rows[:-1], None, 3, cfg, [test])
    with pytest.raises(ValidationError, match="requires diversity-auxiliary features"):
        train_on_sets(sets, _main_rows(sets), None, None, 3, cfg, [test])


def replace_cfg(cfg, **kw):
    from dataclasses import replace

    return replace(cfg, **kw)


def test_logit_feature_sets_preserve_rows():
    sets = _sets(5, domains=1)
    head = MlpHead.for_input(6, 3, [0])
    out = logit_feature_sets(head, sets)
    assert out[0].features.shape == (sets[0].n_samples, 3)
    assert out[0].features.dtype == np.float32
    assert np.array_equal(out[0].labels, sets[0].labels)
    assert out[0].n_train == sets[0].n_train
    # row i of the logit set is the head's logits of row i of the feature set
    assert np.array_equal(out[0].train, head.predict_logits(sets[0].train)[0].astype(np.float32))


def test_train_loads_each_feature_set_once(tmp_path, monkeypatch):
    import shiftzoo.ensemble_train as et

    manifest, _, _ = build_zoo(SynthSpec(samples_per_domain=200, seed=4), zoo_size=4,
                               out_dir=tmp_path)
    cfg = TrainConfig(lam=1.0, n_warmup=5, n_anneal=10, steps=20, learning_rate=1e-3,
                      batch_size=16, eval_every=10, seed=2, aux_steps=20, aux_lr=1e-2)
    loads = []
    real_read = feature_store.read_features

    def counting(path, *args):
        loads.append(Path(path).stem)
        return real_read(path, *args)

    monkeypatch.setattr(feature_store, "read_features", counting)
    folds = train(manifest, "main_full", "div_heavy", "cor_heavy", cfg, manifest.domain_ids)
    assert sorted(loads) == sorted(set(loads))
    assert len(loads) == 3 * len(manifest.domain_ids)
    # one target: its auxiliary files are not read
    loads.clear()
    [one] = train(manifest, "main_full", "div_heavy", "cor_heavy", cfg, ["domain1"])
    assert "div_heavy_domain1" not in loads and "cor_heavy_domain1" not in loads
    assert len(loads) == 3 + 2 + 2

    # each fold equals a fold trained and profiled on its own
    monkeypatch.undo()
    assert [f.target_domain for f in folds] == manifest.domain_ids
    sets = {
        (e, d): load_domain_features(manifest, e, d, seed=cfg.seed)
        for e in ("main_full", "div_heavy", "cor_heavy") for d in manifest.domain_ids
    }
    for fold in folds + [one]:
        rest = [d for d in manifest.domain_ids if d != fold.target_domain]
        [alone] = train_on_sets(
            [sets["main_full", d] for d in rest],
            _main_rows([sets["main_full", d] for d in rest]),
            _train_rows([sets["div_heavy", d] for d in rest]),
            _train_rows([sets["cor_heavy", d] for d in rest]), manifest.n_classes, cfg,
            [sets["main_full", fold.target_domain]],
        )
        assert np.array_equal(fold.result.head.params, alone.head.params)
        assert fold.result.best_test_accuracy == alone.best_test_accuracy
        main_sets = [sets["main_full", d] for d in manifest.domain_ids]
        assert (fold.logit_f_div, fold.logit_f_cor) == logit_shift(
            logit_feature_sets(alone.head, main_sets), manifest.n_classes
        )


def test_train_requires_auxiliary_encoder_ids(tmp_path):
    manifest, _, _ = build_zoo(SynthSpec(samples_per_domain=100, seed=3), zoo_size=4,
                               out_dir=tmp_path)
    hsic = TrainConfig(lam=1.0, temperature=math.inf, steps=5, eval_every=5)
    rew = TrainConfig(lam=0.0, temperature=1.0, steps=5, eval_every=5)
    with pytest.raises(ValidationError, match="requires a diversity auxiliary encoder id"):
        train(manifest, "main_full", None, "cor_heavy", hsic, ["domain0"])
    with pytest.raises(ValidationError, match="requires a correlation auxiliary encoder id"):
        train(manifest, "main_full", "div_heavy", None, rew, ["domain0"])


def _held_at_fold_start(tmp_path, monkeypatch, div_aux, rew_aux):
    """Train a 4000-row zoo's fold on domain0 with these auxiliaries; return
    the traced bytes held when ``train_on_sets`` starts, the bytes of the
    main encoder's features and of one array of each distinct auxiliary's
    training rows, and the labels' bytes. Each auxiliary role must get the
    rows of its encoder, and one encoder in both roles one array."""
    spec = SynthSpec(samples_per_domain=4000, dim_core=16, dim_div=48, dim_spur=48, seed=1)
    manifest, _, _ = build_zoo(spec, zoo_size=4, out_dir=tmp_path)
    cfg = TrainConfig(lam=1.0, n_warmup=0, n_anneal=0, steps=3, eval_every=3, batch_size=8,
                      aux_steps=3, aux_batch_size=8, learning_rate=1e-3, aux_lr=1e-2)
    aux_ids = {div_aux, rew_aux}
    sets = {
        (e, d): load_domain_features(manifest, e, d)
        for e in ("main_full", *aux_ids) for d in manifest.domain_ids
    }
    rest = manifest.domain_ids[1:]
    main_bytes = sum(sets["main_full", d].features.nbytes for d in manifest.domain_ids)
    aux_rows = {e: _train_rows([sets[e, d] for d in rest]) for e in aux_ids}
    labels = sum(sets["main_full", d].labels.nbytes for d in manifest.domain_ids)
    del sets
    held = []
    real = et.train_on_sets

    def measuring(main_sets, main_rows, div_rows, cor_rows, *args):
        held.append(tracemalloc.get_traced_memory()[0])
        assert np.array_equal(div_rows, aux_rows[div_aux])
        assert np.array_equal(cor_rows, aux_rows[rew_aux])
        assert (div_rows is cor_rows) == (div_aux == rew_aux)
        return real(main_sets, main_rows, div_rows, cor_rows, *args)

    monkeypatch.setattr(et, "train_on_sets", measuring)
    tracemalloc.start()
    try:
        train(manifest, "main_full", div_aux, rew_aux, cfg, ["domain0"])
    finally:
        tracemalloc.stop()
    return held[0], main_bytes + sum(rows.nbytes for rows in aux_rows.values()), labels


def test_single_target_train_holds_auxiliary_training_rows_once(tmp_path, monkeypatch):
    held, once, labels = _held_at_fold_start(tmp_path, monkeypatch, "div_heavy", "cor_heavy")
    # when the fold starts, train holds the main encoder's features and each
    # auxiliary's training rows on the two training domains, once (6.3 MB);
    # holding the auxiliaries' whole FeatureSets instead would add their
    # validation rows and labels (1.1 MB)
    assert once <= held <= once + labels + 128 * 1024


def test_one_auxiliary_in_both_roles_is_held_once(tmp_path, monkeypatch):
    held, once, labels = _held_at_fold_start(tmp_path, monkeypatch, "cor_heavy", "cor_heavy")
    # the main encoder's features and one array of cor_heavy's training rows
    # (4.7 MB); a second array for the second role would add 1.6 MB
    assert once <= held <= once + labels + 128 * 1024


def test_one_auxiliary_in_both_roles_reads_each_file_once(tmp_path, monkeypatch):
    manifest, _, _ = build_zoo(SynthSpec(samples_per_domain=200, seed=4), zoo_size=4,
                               out_dir=tmp_path)
    cfg = TrainConfig(lam=1.0, n_warmup=5, n_anneal=10, steps=20, learning_rate=1e-3,
                      batch_size=16, eval_every=10, seed=2, aux_steps=20, aux_lr=1e-2)
    loads = []
    real_read = feature_store.read_features

    def counting(path, *args):
        loads.append(Path(path).stem)
        return real_read(path, *args)

    monkeypatch.setattr(feature_store, "read_features", counting)
    [fold] = train(manifest, "main_full", "cor_heavy", "cor_heavy", cfg, ["domain2"])
    assert sorted(loads) == ["cor_heavy_domain0", "cor_heavy_domain1", "main_full_domain0",
                             "main_full_domain1", "main_full_domain2"]

    # the shared array gives the fold the bits of two arrays of the same rows
    monkeypatch.undo()
    sets = {(e, d): load_domain_features(manifest, e, d, seed=cfg.seed)
            for e in ("main_full", "cor_heavy") for d in manifest.domain_ids}
    rest = ["domain0", "domain1"]
    [alone] = train_on_sets(
        [sets["main_full", d] for d in rest], _main_rows([sets["main_full", d] for d in rest]),
        _train_rows([sets["cor_heavy", d] for d in rest]),
        _train_rows([sets["cor_heavy", d] for d in rest]), manifest.n_classes, cfg,
        [sets["main_full", "domain2"]],
    )
    assert np.array_equal(fold.result.head.params, alone.head.params)
    assert np.array_equal(fold.result.log, alone.log)


def test_wide_train_holds_its_features_once_and_the_heads(tmp_path, monkeypatch):
    """A 1032-wide zoo of 3 domains x 1000 rows, one target: train holds the
    main encoder's three domains (12.4 MB), each auxiliary's training rows on
    the two training domains (6.6 MB each), the head's parameters, gradient,
    checkpoint and AdamW moments (five 2.7 MB blocks) and one block of steps,
    with 4 MiB to spare for AdamW's chunk scratch and a validation pass, its
    gathered rows and hidden layers (3.1 MB above the sum measured).
    Concatenated pools of the main training and validation rows, and each
    file loaded as bytes and copied twice, peaked 9.6 MB above it."""
    spec = SynthSpec(dim_core=32, dim_div=1000, dim_spur=1000, samples_per_domain=1000)
    manifest, _, _ = build_zoo(spec, zoo_size=4, out_dir=tmp_path)
    monkeypatch.setattr(et, "usable_cpus", lambda: 1)
    cfg = TrainConfig(lam=20.0, n_warmup=2, n_anneal=4, steps=10, eval_every=5, batch_size=32,
                      learning_rate=1e-3, weight_decay=0.01, aux_lr=1e-2, aux_steps=10)
    args = (manifest, "main_full", "div_heavy", "cor_heavy", cfg, ["domain2"])
    train(*args)  # first-call imports and caches
    tracemalloc.start()
    try:
        [fold] = train(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dim = manifest.encoder("main_full").dim
    main_bytes = 4 * 3 * 1000 * dim
    aux_bytes = 2 * 4 * 2 * 800 * dim
    heads = 5 * fold.result.head.params.nbytes
    assert peak < main_bytes + aux_bytes + heads + et.STEP_BLOCK_BYTES + (4 << 20)


def test_train_rejects_unknown_target(tmp_path):
    manifest, _, _ = build_zoo(SynthSpec(samples_per_domain=100), zoo_size=4, out_dir=tmp_path)
    cfg = apply_mode(TrainConfig(steps=5), "erm")
    with pytest.raises(ValidationError, match="unknown target domain 'ghost'"):
        train(manifest, "main_full", None, None, cfg, ["domain0", "ghost"])


def test_select_auxiliaries_rules():
    scores = {"A": (0.9, 0.1), "B": (0.2, 0.6)}
    assert select_auxiliaries(scores, "C") == ("A", "B")
    same = {"x": (0.5, 0.5), "y": (0.5, 0.5), "z": (0.5, 0.5)}
    assert select_auxiliaries(same, "w") == ("x", "x")
    # main encoder is excluded even when it is the extreme
    scores2 = {"A": (0.9, 0.9), "B": (0.2, 0.6), "C": (0.3, 0.1)}
    assert select_auxiliaries(scores2, "A") == ("C", "B")
    with pytest.raises(ValidationError):
        select_auxiliaries({"A": (1.0, 1.0)}, "A")


def _uneven_sets(seed, sizes=(150, 210, 270), d=6, n_classes=3, scale=1.0):
    """Domains d0, d1, ... of the given sizes, so each fold's pools differ in size."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(d, n_classes))
    out = []
    for i, n in enumerate(sizes):
        x = rng.normal(size=(n, d)) + 0.3 * i
        y = (x @ w + rng.normal(size=(n, n_classes))).argmax(axis=1)
        out.append(build_feature_set(
            f"d{i}", (scale * x).astype(np.float32), y, dataset_name="st", n_classes=n_classes,
            split_ratio=0.2, seed=7,
        ))
    return out


def _result_bits(res):
    """Everything a fold's result holds, with every float as its bits."""
    def bits(*values):
        return np.array(values, dtype=np.float64).tobytes()

    return (
        res.head.params.tobytes(),
        (res.log.dtype, res.log.shape, res.log.tobytes()),
        [(e.step, bits(e.val_accuracy)) for e in res.evals],
        res.best_step,
        bits(res.final_val_accuracy, res.best_val_accuracy),
        res.test_logits.tobytes(),
        bits(res.final_test_accuracy, res.best_test_accuracy),
    )


# F = 1 holding out d1, F = 2 with one head on every set (its test domain d3
# trains no head), F = 3 leave-one-domain-out
STACKS = {1: ("d1",), 2: ("d2", "d3"), 3: ("d0", "d1", "d2")}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n_heads", sorted(STACKS))
def test_stacked_folds_match_the_per_fold_reference_bitwise(mode, n_heads):
    *sets, d3 = _uneven_sets(0, sizes=(150, 210, 270, 90))
    by_id = {fs.domain_id: fs for fs in (*sets, d3)}
    test_sets = [by_id[t] for t in STACKS[n_heads]]
    rows = _train_rows(sets)
    div_rows, cor_rows = rows[:, ::-1].copy(), rows[:, :4] ** 2
    # 37 steps, evaluated every 10: the last evaluation is off the grid
    cfg = apply_mode(TrainConfig(
        lam=5.0, n_warmup=5, n_anneal=12, learning_rate=3e-2, weight_decay=0.01, batch_size=16,
        steps=37, eval_every=10, seed=3, aux_steps=15, aux_lr=1e-2, aux_batch_size=8,
    ), mode)
    got = train_on_sets(sets, _main_rows(sets), div_rows, cor_rows, 3, cfg, test_sets)
    want = reference_train_on_sets(sets, div_rows, cor_rows, 3, cfg, test_sets)
    assert len(got) == len(want) == n_heads
    for g, w in zip(got, want):
        assert _result_bits(g) == _result_bits(w)
    if n_heads == 3:
        # the best checkpoint comes before the last step for some fold
        assert any(r.best_step < cfg.steps - 1 for r in got)


def test_the_block_size_changes_no_bit(monkeypatch):
    """Blocks of 1 step, of 3 steps and of the whole run give the same bits.
    With blocks of 3, a block also ends where the penalty (step 5) and the
    weights (step 13) switch on, and the 37 steps and the classifier's 17
    end on a short block."""
    *sets, _ = _uneven_sets(0, sizes=(150, 210, 270, 90))
    rows = _train_rows(sets)
    div_rows, cor_rows = rows[:, ::-1].copy(), rows[:, :4] ** 2
    cfg = TrainConfig(
        lam=5.0, n_warmup=5, n_anneal=13, learning_rate=3e-2, weight_decay=0.01, batch_size=16,
        steps=37, eval_every=10, seed=3, aux_steps=17, aux_lr=1e-2, aux_batch_size=8,
    )
    runs = {}
    for size in (1, 3, None):
        cuts = _blocks_of(monkeypatch, size)
        results = train_on_sets(sets, _main_rows(sets), div_rows, cor_rows, 3, cfg, sets)
        monkeypatch.undo()
        # the classifier's loop, then the head's
        assert [[len(b) for b in blocks] for blocks in cuts] == {
            1: [[1] * 17, [1] * 37],
            3: [[3] * 5 + [2], [3, 2] + [3, 3, 2] + [3] * 8],
            None: [[17], [5, 8, 24]],
        }[size]
        runs[size] = [_result_bits(r) for r in results]
    assert runs[1] == runs[3] == runs[None]


def test_no_block_holds_steps_on_both_sides_of_a_switch(monkeypatch):
    """With blocks of 3 steps and the penalty and the weights switching on at
    steps 5 and 13, every block lies wholly before or after each switch, and
    computes its kernels and its weights for all of its steps or for none."""
    cuts = _blocks_of(monkeypatch, 3)
    kernel_steps, weight_steps = [], []
    real_kernel, real_weights = et.centred_kernel, et.rew_weights
    monkeypatch.setattr(et, "centred_kernel",
                        lambda z, spec: kernel_steps.append(len(z)) or real_kernel(z, spec))
    monkeypatch.setattr(et, "rew_weights", lambda aux, z, labels, t:
                        weight_steps.append(len(z)) or real_weights(aux, z, labels, t))
    *sets, _ = _uneven_sets(0, sizes=(150, 210, 270, 90))
    rows = _train_rows(sets)
    cfg = TrainConfig(lam=5.0, n_warmup=5, n_anneal=13, learning_rate=3e-2, batch_size=16,
                      steps=37, eval_every=10, seed=3, aux_steps=17, aux_lr=1e-2)
    train_on_sets(sets, _main_rows(sets), rows[:, ::-1].copy(), rows[:, :4] ** 2, 3, cfg, sets)
    blocks = cuts[-1]  # the head's loop
    assert [s for b in blocks for s in b] == list(range(cfg.steps))
    for block in blocks:
        for switch in (cfg.n_warmup, cfg.n_anneal):
            assert not block.start < switch < block.stop, (block, switch)
    assert kernel_steps == [len(b) for b in blocks if b.start >= cfg.n_warmup]
    assert weight_steps == [len(b) for b in blocks if b.start >= cfg.n_anneal]


def test_step_blocks_cut_at_each_switch_inside_the_run():
    assert et._step_blocks(10, et.STEP_BLOCK_BYTES // 4, (0, 3, 3, 10, 12)) == [
        range(0, 3), range(3, 7), range(7, 10)]
    assert et._step_blocks(1, et.STEP_BLOCK_BYTES, (0, 1)) == [range(0, 1)]


@pytest.mark.parametrize("pool", [1, 2, 7, 100, 4099, 2**31 + 11, 2**40 + 3])
@pytest.mark.parametrize("size", [1, 5, 32])
def test_one_draw_of_a_block_takes_what_its_steps_take(pool, size):
    """``integers`` with an (S, m) size gives the S draws of m that S calls
    give, and leaves the generator where they leave it."""
    block_rng, step_rng = np.random.default_rng(pool), np.random.default_rng(pool)
    block = block_rng.integers(0, pool, size=(6, size))
    steps = np.stack([step_rng.integers(0, pool, size=size) for _ in range(6)])
    assert np.array_equal(block, steps)
    assert block_rng.integers(0, 2**62) == step_rng.integers(0, 2**62)
    # the same for _draw, one pool and generator per head
    pools = [np.arange(pool % 1000 + 1) * 3, np.arange(5)]
    rngs = [[np.random.default_rng(s) for s in (pool, pool + 1)] for _ in range(2)]
    drawn = et._draw(rngs[0], pools, size, 6)
    assert drawn.shape == (6, 2, size)
    assert np.array_equal(drawn, np.concatenate([et._draw(rngs[1], pools, size, 1)
                                                 for _ in range(6)]))


@pytest.mark.parametrize("dim", [12, 192, 2048])
def test_a_block_of_weights_has_the_bits_of_each_step(dim):
    """The weights of S steps, (S, F, m, dim) rows, are each step's weights
    bit for bit: every batch is its own (m, dim) product."""
    rng = np.random.default_rng(dim)
    n, heads, m = 300, 3, 32
    z = rng.normal(size=(n, dim)).astype(np.float32)
    y = rng.integers(0, 4, size=n)
    pools = [np.arange(n), np.arange(0, n, 2), np.arange(100, n)]
    aux = train_rew_auxiliary(z, y, 4, [0, 1, 2], pools, TrainConfig(aux_steps=5, aux_lr=1e-2))
    idx = rng.integers(0, n, size=(5, heads, m))
    block = rew_weights(aux, z[idx], y[idx], 0.7)
    assert block.shape == (5, heads, m)
    for s in range(5):
        assert block[s].tobytes() == rew_weights(aux, z[idx[s]], y[idx[s]], 0.7).tobytes()


def test_weights_that_underflow_are_refused_at_their_own_step(monkeypatch):
    """One block computes the weights of steps 3 on before step 0. A batch
    whose weights underflow is refused at its step, after the steps before it
    ran, and a non-finite loss at an earlier step ends the run first."""
    _blocks_of(monkeypatch, None)
    steps = []
    real = et.train_step
    monkeypatch.setattr(et, "train_step", lambda *a: steps.append(a[7]) or real(*a))
    sets = _uneven_sets(2)
    # rows that give each label away: the classifier grows sure of it, and at
    # T = 0.001 a sure row's raw weight, (prior / p_y) ** 1000, underflows to 0
    labels = np.concatenate([fs.train_labels for fs in sets])
    cor_rows = 5 * np.eye(3, dtype=np.float32)[labels]
    cfg = TrainConfig(lam=0.0, temperature=0.001, n_anneal=3, steps=20, learning_rate=1e-3,
                      eval_every=5, seed=0, aux_steps=100, aux_lr=1e-1)
    refused = r"^temperature 0\.001 underflows reweighting weights to 0; raise the temperature$"
    with pytest.raises(ValidationError, match=refused):
        train_on_sets(sets, _main_rows(sets), None, cor_rows, 3, cfg, sets[1:2])
    assert steps == [0, 1, 2]
    with pytest.raises(ValidationError, match=refused):
        reference_train_on_sets(sets, None, cor_rows, 3, cfg, sets[1:2])
    # d0's rows 1e30 times the others: at a learning rate of 1e8 the loss of
    # step 1 is not finite, as in the erm run of the same sets
    sets[0] = _uneven_sets(2, scale=1e30)[0]
    steps.clear()
    with pytest.raises(NumericalError, match=r"^the fold on target 'd1' has a non-finite loss "
                                             r"at step 1 "):
        train_on_sets(sets, _main_rows(sets), None, cor_rows, 3,
                      replace_cfg(cfg, learning_rate=1e8), sets[1:2])
    assert steps == [0, 1]


def test_stacked_wide_folds_split_each_fold_product_bitwise(monkeypatch):
    """A 512 -> 256 -> 256 -> 4 stack: each fold's step products reach two
    SPLIT_MACS blocks and are cut as the one-fold product is."""
    monkeypatch.setattr(et, "usable_cpus", lambda: 3)
    blocks = _recording_run(monkeypatch)
    sets = _uneven_sets(1, sizes=(60, 80, 100), d=512)
    cfg = apply_mode(TrainConfig(learning_rate=1e-3, batch_size=32, steps=4, eval_every=2,
                                 seed=1), "erm")
    with single_blas_thread():
        got = train_on_sets(sets, _main_rows(sets), None, None, 3, cfg, sets[:2])
        # a step product of 32 * 512 * 256 = 2 * SPLIT_MACS: two blocks for each of two folds
        assert 4 in blocks
        want = reference_train_on_sets(sets, None, None, 3, cfg, sets[:2])
    for g, w in zip(got, want):
        assert _result_bits(g) == _result_bits(w)


def test_stacked_wide_head_folds_match_the_per_fold_reference_bitwise(monkeypatch):
    """The 2048 -> 1024 -> 512 -> 4 head, whose step products are 16 times
    2 * SPLIT_MACS: three folds as one stack, with HSIC and weights on, get
    the bits of each fold trained alone."""
    monkeypatch.setattr(et, "usable_cpus", lambda: 2)
    blocks = _recording_run(monkeypatch)
    sets = _uneven_sets(4, sizes=(60, 80, 100), d=2048, n_classes=4)
    rows = _train_rows(sets)
    div_rows, cor_rows = rows[:, :8].copy(), rows[:, 8:16].copy()
    cfg = TrainConfig(lam=5.0, n_warmup=1, n_anneal=2, learning_rate=1e-3, batch_size=32,
                      steps=4, eval_every=2, seed=2, aux_steps=3, aux_lr=1e-2)
    with single_blas_thread():
        got = train_on_sets(sets, _main_rows(sets), div_rows, cor_rows, 4, cfg, sets)
        # the first forward product, 32 * 2048 * 1024: two blocks for each of three folds
        assert blocks[0] == 6
        want = reference_train_on_sets(sets, div_rows, cor_rows, 4, cfg, sets)
    assert got[0].head.params.dtype == got[0].test_logits.dtype == np.float32
    for g, w in zip(got, want):
        assert _result_bits(g) == _result_bits(w)


def test_stacked_head_folds_are_views_of_one_block():
    head = MlpHead([5, 4, 3], [np.random.default_rng(s) for s in (0, 1, 2)])
    size = 5 * 4 + 4 + 4 * 3 + 3
    assert head.params.shape == (3, size) and head.params.flags.c_contiguous
    for w, b in zip(head.weights, head.biases):
        assert w.shape[0] == b.shape[0] == 3
        assert np.shares_memory(w, head.params) and np.shares_memory(b, head.params)
    for f in range(3):
        # fold f is the stack of one head that its own generator draws, on views into row f
        alone = MlpHead([5, 4, 3], [f])
        fold = head.fold(f)
        assert fold.params.shape == alone.params.shape == (1, size)
        assert fold.params.tobytes() == alone.params.tobytes()
        assert np.shares_memory(fold.params, head.params[f])
        assert np.shares_memory(fold.grad, head.grad[f])
    x = np.random.default_rng(3).normal(size=(3, 7, 5))
    stacked = head.predict_logits(x)
    # rows of shape (rows, width) are one matrix that every head reads
    shared = head.predict_logits(x[0])
    for f in range(3):
        assert stacked[f].tobytes() == head.fold(f).predict_logits(x[f]).tobytes()
        assert shared[f].tobytes() == head.fold(f).predict_logits(x[0]).tobytes()
    with pytest.raises(ValidationError, match="does not match head input"):
        head.predict_logits(x[:2])
    with pytest.raises(ValidationError, match="does not match head input"):
        head.predict_logits(x[..., :4])


def test_non_finite_loss_names_the_fold_of_its_target():
    # d0's rows are 1e30 times the others: after one step at a learning rate of
    # 1e8 the folds that train on it (targets d1 and d2) overflow float32 to a
    # non-finite loss, and the fold that holds it out (target d0) does not
    sets = _uneven_sets(2, scale=1.0)
    sets[0] = _uneven_sets(2, scale=1e30)[0]
    cfg = apply_mode(TrainConfig(learning_rate=1e8, steps=20, eval_every=5, seed=0), "erm")
    named = r"^the fold on target 'd1' has a non-finite loss at step 1 \(ce=nan, hsic=0\.0\); "
    with pytest.raises(NumericalError, match=named):
        train_on_sets(sets, _main_rows(sets), None, None, 3, cfg, sets)
    # held out alone, d0 trains to the end
    [res] = train_on_sets(sets, _main_rows(sets), None, None, 3, cfg, sets[:1])
    assert len(res.log) == cfg.steps


def test_train_refuses_empty_or_repeated_targets_before_reading(tmp_path, monkeypatch):
    manifest, _, _ = build_zoo(SynthSpec(samples_per_domain=100), zoo_size=4, out_dir=tmp_path)
    cfg = apply_mode(TrainConfig(steps=5), "erm")

    def refusing(*args, **kwargs):
        raise AssertionError("no feature file should be read")

    monkeypatch.setattr(feature_store, "read_features", refusing)
    with pytest.raises(ValidationError, match="need at least one target domain"):
        train(manifest, "main_full", None, None, cfg, [])
    with pytest.raises(ValidationError, match="target domain 'domain0' is given more than once"):
        train(manifest, "main_full", None, None, cfg, ["domain0", "domain1", "domain0"])
