"""Prediction-head training on frozen encoder features.

The trainable model is a three-layer MLP head over precomputed main-encoder
features. Its loss is a weighted mean cross-entropy plus an HSIC penalty that
discourages dependence between the head's logits and a frozen
diversity-auxiliary representation:

    loss = mean_i w_i * CE_i + lambda * HSIC_b(logits, z_div)

The HSIC term switches on after ``n_warmup`` steps. The weights w_i come from
a linear reweighting classifier trained on a frozen correlation-auxiliary
representation and stay at 1 until ``n_anneal`` steps have passed; with
temperature +inf they are identically 1 and the auxiliary is never trained,
which makes the reduction to plain ERM exact, bit for bit.

Every trainable parameter of a model lives in one contiguous float64 vector:
the head's weights and biases are reshaped views into ``MlpHead.params``,
backprop fills one gradient vector laid out the same way, and ``AdamW``
updates the vector in place, one cache-sized chunk at a time, with two
chunk-sized scratch vectors. All gradients are computed analytically (manual
backprop); parameters update with Adam plus decoupled weight decay.

Threads: ``train`` runs with OpenBLAS on one thread, and the calling thread
and the process's one worker pool (``blas_threads.run_tasks``) do the
parallel work instead. ``AdamW`` gives each worker one contiguous run of
chunks; the head's large GEMMs (``_matmul``) are cut into row or column
blocks, one per worker. With OpenBLAS on one thread both splits are bit for
bit the serial result, and small heads and GEMMs take the serial code.

Per-call cost: a desk-sized head (12 -> 6 -> 256 -> 4, batch 32) makes each
step a few dozen numpy calls on tiny arrays, so the step's time is call
overhead, not arithmetic. The step therefore makes each call once: the
cross-entropy shares one max, one ``exp`` and one row sum between its value
and its softmax gradient; uniform weights are ``None``, not an array of ones;
reductions call ``np.add.reduce`` directly instead of the ``mean``/``sum``
wrappers (the same reduction, so the same bits); and small products go
straight to ``np.matmul``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np

from .blas_threads import (
    ROW_ALIGN,
    SPLIT_MACS,
    numpy_blas_threads,
    run_tasks,
    single_blas_thread,
    usable_cpus,
)
from .correlation_profile import dataset_correlation
from .errors import NumericalError, ValidationError
from .feature_store import FeatureSet, ZooManifest, load_domain_features
from .gaussian_profile import dataset_diversity
from .hsic import KernelSpec, hsic_b_value_and_grad

P_FLOOR = 1e-6
WEIGHT_CLIP = 100.0

MODES = ("erm", "rew", "hsic", "both")

# A GEMM of `macs` multiply-adds is cut into at most macs // SPLIT_MACS
# blocks, so nothing under 2 * SPLIT_MACS = 2^22 is split. Row cuts fall on
# multiples of ROW_ALIGN = 48 rows; column cuts on multiples of 16 columns,
# and only in a product whose width is a multiple of 16. With these cuts
# every block runs the kernels of the uncut product, so every element keeps
# its bits. Cuts at other offsets, a ragged column tail in a narrow block, or
# blocks under about 2^20 multiply-adds can take other OpenBLAS kernels (seen
# with OpenBLAS 0.3.31 on AVX-512) and differ in the last bit.
_COL_ALIGN = 16


def _cuts(n: int, blocks: int, align: int) -> list[tuple[int, int]]:
    """``blocks`` spans of range(n), cut at multiples of ``align``; needs n >= blocks * align."""
    bounds = [i * n // (blocks * align) * align for i in range(blocks)] + [n]
    return list(zip(bounds[:-1], bounds[1:]))


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.matmul(a, b, out=out)`` for 2-D operands, the same bits.

    A product of at least two ``SPLIT_MACS`` blocks is cut, by rows when it
    has enough of them, else by columns, into one block per usable CPU, and
    the blocks run on the calling thread and the worker pool. It is cut only
    while OpenBLAS is on one thread, as ``train`` runs it: with more OpenBLAS
    threads, OpenBLAS cuts each block again, and a product of ragged shape can
    then differ from the uncut one in the last bit, so it runs uncut. Smaller
    products, every one of a desk-sized head, go straight to ``np.matmul``.
    """
    (m, k), n = a.shape, b.shape[1]
    macs = m * k * n
    if macs < 2 * SPLIT_MACS or numpy_blas_threads() > 1:
        return np.matmul(a, b, out=out)
    blocks = min(usable_cpus(), macs // SPLIT_MACS)
    if out is None:
        out = np.empty((m, n), dtype=np.result_type(a, b))
    if blocks >= 2 and m >= 2 * ROW_ALIGN:
        spans = _cuts(m, min(blocks, m // ROW_ALIGN), ROW_ALIGN)
        tasks = [partial(np.matmul, a[lo:hi], b, out=out[lo:hi]) for lo, hi in spans]
    elif blocks >= 2 and n % _COL_ALIGN == 0 and n >= 2 * _COL_ALIGN:
        spans = _cuts(n, min(blocks, n // _COL_ALIGN), _COL_ALIGN)
        tasks = [partial(np.matmul, a, b[:, lo:hi], out=out[:, lo:hi]) for lo, hi in spans]
    else:
        return np.matmul(a, b, out=out)
    run_tasks(tasks, len(tasks))
    return out


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for head training; defaults follow the reference setup."""

    lam: float = 1.0
    gamma1: float = 0.1
    gamma2: float = 0.5
    temperature: float = 1.0
    n_warmup: int = 100
    n_anneal: int = 1000
    learning_rate: float = 5e-5
    weight_decay: float = 0.0
    batch_size: int = 16
    steps: int = 5000
    seed: int = 0
    eval_every: int = 100
    aux_lr: float = 1e-5
    aux_steps: int = 1000
    aux_batch_size: int = 16

    def __post_init__(self) -> None:
        for name in ("lam", "gamma1", "gamma2", "learning_rate", "weight_decay", "aux_lr"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.lam < 0:
            raise ValidationError(f"lambda must be >= 0, got {self.lam}")
        if self.gamma1 <= 0 or self.gamma2 <= 0:
            raise ValidationError("kernel bandwidths gamma1/gamma2 must be positive")
        if not self.temperature > 0:
            raise ValidationError(f"temperature must be > 0 (or inf), got {self.temperature}")
        if self.n_warmup < 0 or self.n_anneal < 0:
            raise ValidationError("warm-up and annealing step counts must be >= 0")
        if self.learning_rate <= 0 or self.aux_lr <= 0:
            raise ValidationError("learning rates must be positive")
        if self.weight_decay < 0:
            raise ValidationError(f"weight decay must be >= 0, got {self.weight_decay}")
        if self.batch_size < 1 or self.aux_batch_size < 1:
            raise ValidationError("batch sizes must be >= 1")
        if self.steps < 1 or self.aux_steps < 1:
            raise ValidationError("step counts must be >= 1")
        if self.eval_every < 1:
            raise ValidationError("eval_every must be >= 1")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")

    @property
    def hsic_active(self) -> bool:
        return self.lam > 0

    @property
    def rew_active(self) -> bool:
        return math.isfinite(self.temperature)


def apply_mode(config: TrainConfig, mode: str) -> TrainConfig:
    """Map a named training mode onto (lambda, temperature) overrides.

    The returned config always runs through the same code path, so 'erm'
    is literally 'both' with lambda=0, temperature=inf.
    """
    if mode == "erm":
        return replace(config, lam=0.0, temperature=math.inf)
    if mode == "rew":
        return replace(config, lam=0.0)
    if mode == "hsic":
        return replace(config, temperature=math.inf)
    if mode == "both":
        return config
    raise ValidationError(f"unknown mode '{mode}', expected one of {MODES}")


class MlpHead:
    """Dense ReLU network trained by manual backprop.

    ``params`` holds every weight and bias in one float64 vector, layer by
    layer (weight, then bias); ``weights[i]`` and ``biases[i]`` are views into
    it. ``for_input`` builds the standard three-layer shape: input, half the
    input width, 256 (512 when the input is 2048-dimensional), classes.
    """

    def __init__(self, dims: Sequence[int], rng: np.random.Generator | int = 0):
        dims = [int(d) for d in dims]
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ValidationError(f"invalid layer dims {dims}")
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        self.dims = tuple(dims)
        self.params = np.zeros(sum(i * o + o for i, o in zip(dims[:-1], dims[1:])))
        self.grad = np.zeros_like(self.params)
        self.weights, self.biases = self._layer_views(self.params)
        self._grad_w, self._grad_b = self._layer_views(self.grad)
        for w in self.weights:
            w[...] = rng.normal(0.0, math.sqrt(2.0 / w.shape[0]), size=w.shape)

    def _layer_views(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        weights, biases, start = [], [], 0
        for fan_in, fan_out in zip(self.dims[:-1], self.dims[1:]):
            stop = start + fan_in * fan_out
            weights.append(flat[start:stop].reshape(fan_in, fan_out))
            biases.append(flat[stop : stop + fan_out])
            start = stop + fan_out
        return weights, biases

    @classmethod
    def for_input(cls, in_dim: int, n_classes: int, rng: np.random.Generator | int = 0) -> "MlpHead":
        if in_dim < 1 or n_classes < 2:
            raise ValidationError(f"bad head shape: in_dim={in_dim}, n_classes={n_classes}")
        hidden2 = 512 if in_dim == 2048 else 256
        return cls((in_dim, max(in_dim // 2, 1), hidden2, n_classes), rng)

    def _input(self, x: np.ndarray) -> np.ndarray:
        """``x`` as a float64 matrix of the head's input width (no copy if it is one)."""
        h = x if x.dtype == np.float64 else np.asarray(x, dtype=np.float64)
        if h.ndim != 2 or h.shape[1] != self.dims[0]:
            raise ValidationError(f"input shape {h.shape} does not match head input {self.dims[0]}")
        return h

    def _layers(self, x: np.ndarray, acts: list[np.ndarray] | None) -> np.ndarray:
        """The logits of ``x``; each hidden layer is rectified in place.

        With ``acts`` a list, each layer's input is appended to it: the
        float64 input, then every rectified hidden layer. Without, each
        hidden layer replaces the one before it.
        """
        h = self._input(x)
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if acts is not None:
                acts.append(h)
            h = _matmul(h, w)
            h += b
            if i < last:
                np.maximum(h, 0.0, out=h)
        return h

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """The logits of ``x`` and each layer's input, which ``backward`` reads."""
        acts: list[np.ndarray] = []
        return self._layers(x, acts), acts

    def backward(self, acts: list[np.ndarray], dlogits: np.ndarray) -> np.ndarray:
        """Fill ``grad``, laid out like ``params``, for the forward pass that kept ``acts``.

        A hidden unit passes gradient where its rectified output is positive,
        which is where its pre-activation was. Returns ``grad`` itself; the
        next call overwrites it.
        """
        delta = dlogits
        for i in range(len(self.weights) - 1, -1, -1):
            _matmul(acts[i].T, delta, out=self._grad_w[i])
            np.add.reduce(delta, 0, out=self._grad_b[i])
            if i == 0:
                break
            delta = _matmul(delta, self.weights[i].T)
            delta *= acts[i] > 0.0
        return self.grad

    def predict_logits(self, x: np.ndarray) -> np.ndarray:
        """``forward``'s logits, the same bits, keeping no activations.

        A pass holds at most two layers: at first the (float64) input and
        the first hidden layer.
        """
        return self._layers(x, None)


class AdamW:
    """Adam with bias correction and decoupled weight decay.

    Updates one flat float64 parameter vector in place, ``CHUNK`` doubles at a
    time: every op of the update runs over one chunk before the next chunk
    starts, so at head widths of 2048 the chunk's parameters, moments,
    gradient and scratch stay in cache instead of streaming from memory once
    per op. The chunks are split into one contiguous run per worker, up to
    the usable CPU count; each run has its own two chunk-length scratch
    vectors, and the runs are ``run_tasks`` tasks. The update is elementwise, so
    the split changes no bit. The moments are full size. The per-chunk views
    are built once, so a step allocates no arrays, and a vector that fits in
    one chunk is updated by the calling thread without slicing.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    CHUNK = 1 << 15  # 256 KiB per array; per-step time at d=2048 is flat over 2^14-2^15

    def __init__(self, params: np.ndarray, lr: float, weight_decay: float = 0.0):
        self.params, self.lr, self.weight_decay = params, lr, weight_decay
        self.m, self.v = np.zeros_like(params), np.zeros_like(params)
        n, c = params.size, self.CHUNK
        starts = range(0, n, c)
        workers = min(usable_cpus(), len(starts))
        # per worker, per chunk: gradient slice (None when one chunk is the
        # whole vector), p, m, v, s, u
        self._runs = []
        for w in range(workers):
            run = starts[len(starts) * w // workers : len(starts) * (w + 1) // workers]
            s, u = np.empty((2, min(n - run[0], c)))
            self._runs.append([
                (slice(a, a + c) if n > c else None, params[a : a + c], self.m[a : a + c],
                 self.v[a : a + c], s[: n - a], u[: n - a])
                for a in run
            ])
        self.t = 0

    def step(self, grad: np.ndarray) -> None:
        """One update from ``grad`` (laid out like ``params``), op for op:
        m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2;  p -= lr wd p;
        p -= lr (m / c1) / (sqrt(v / c2) + eps).
        """
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        if len(self._runs) == 1:
            self._update(self._runs[0], grad, c1, c2)
        else:
            run_tasks([partial(self._update, run, grad, c1, c2) for run in self._runs],
                      len(self._runs))

    def _update(self, run: list, grad: np.ndarray, c1: float, c2: float) -> None:
        b1, b2, lr = self.beta1, self.beta2, self.lr
        for sl, p, m, v, s, u in run:
            g = grad if sl is None else grad[sl]
            m *= b1
            np.multiply(g, 1.0 - b1, out=s)
            m += s
            v *= b2
            np.square(g, out=s)
            s *= 1.0 - b2
            v += s
            if self.weight_decay:
                np.multiply(p, lr * self.weight_decay, out=s)
                p -= s
            np.divide(m, c1, out=s)
            s *= lr
            np.divide(v, c2, out=u)
            np.sqrt(u, out=u)
            u += self.eps
            s /= u
            p -= s


def softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - np.maximum.reduce(logits, axis=1, keepdims=True))
    e /= np.add.reduce(e, axis=1, keepdims=True)
    return e


def weighted_cross_entropy(
    logits: np.ndarray, labels: np.ndarray, weights: np.ndarray | None
) -> tuple[float, np.ndarray]:
    """Weighted mean CE and its gradient with respect to the logits.

    ``weights`` None means uniform weights of 1. One max, one ``exp`` and one
    row sum serve both the log-sum-exp and the softmax, with the same bits
    as computing each on its own.
    """
    m = logits.shape[0]
    rows = np.arange(m)
    top = np.maximum.reduce(logits, axis=1, keepdims=True)
    e = np.exp(logits - top)
    sums = np.add.reduce(e, axis=1, keepdims=True)
    ce_rows = np.log(sums[:, 0]) + top[:, 0] - logits[rows, labels]
    e /= sums
    e[rows, labels] -= 1.0
    if weights is None:
        e *= 1.0 / m
    else:
        ce_rows *= weights
        e *= (weights / m)[:, None]
    return float(np.add.reduce(ce_rows) / m), e


@dataclass(frozen=True)
class RewAuxiliary:
    """Linear softmax classifier over frozen auxiliary features: a one-layer head."""

    head: MlpHead
    class_prior: np.ndarray
    prior_floored: bool

    def predict_proba(self, z: np.ndarray) -> np.ndarray:
        return softmax(self.head.predict_logits(np.atleast_2d(z)))


def class_prior(labels: np.ndarray, n_classes: int) -> tuple[np.ndarray, bool]:
    """Empirical label frequencies, floored and renormalised only when a class is absent."""
    counts = np.bincount(np.asarray(labels), minlength=n_classes).astype(np.float64)
    prior = counts / counts.sum()
    if (prior > 0).all():
        return prior, False
    prior = np.maximum(prior, P_FLOOR)
    return prior / prior.sum(), True


def train_rew_auxiliary(
    features: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    rng: np.random.Generator | int = 0,
    steps: int = 1000,
    lr: float = 1e-5,
    batch_size: int = 16,
) -> RewAuxiliary:
    """Train the reweighting classifier, a zero-initialized one-layer head, with AdamW."""
    z = np.asarray(features)
    y = np.asarray(labels)
    if z.ndim != 2 or z.shape[0] != y.shape[0] or z.shape[0] == 0:
        raise ValidationError("auxiliary features and labels must be non-empty and aligned")
    if np.unique(y).size < 2:
        raise ValidationError("reweighting classifier needs at least 2 classes present")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    prior, floored = class_prior(y, n_classes)
    head = MlpHead((z.shape[1], n_classes))
    head.params[...] = 0.0
    opt = AdamW(head.params, lr=lr)
    n = z.shape[0]
    for _ in range(steps):
        idx = rng.integers(0, n, size=batch_size)
        opt.step(head_loss_and_grads(head, z[idx], y[idx], None)[3])
    return RewAuxiliary(head=head, class_prior=prior, prior_floored=floored)


def batch_weights(raw: np.ndarray) -> np.ndarray:
    """Rescale positive weights to mean exactly 1, preserving ratios."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.size == 0:
        return raw
    if (raw <= 0).any():
        raise ValidationError("raw weights must be strictly positive")
    return raw * (raw.size / raw.sum())


def rew_weights(
    aux: RewAuxiliary, z: np.ndarray, labels: np.ndarray, temperature: float
) -> np.ndarray:
    """Per-sample weights for a batch: smoothed, clipped at 100, mean 1 (all 1 at T=inf)."""
    probs = aux.predict_proba(z)
    p_y = np.maximum(probs[np.arange(len(labels)), labels], P_FLOOR)
    # at a small temperature the power may overflow to inf; the clip below is meant for it
    with np.errstate(over="ignore"):
        raw = (aux.class_prior[labels] / p_y) ** (1.0 / temperature)
    try:
        return batch_weights(np.minimum(raw, WEIGHT_CLIP))
    except ValidationError:
        # prior and p_y are positive: a weight is 0 only when the power underflows
        raise ValidationError(
            f"temperature {temperature} underflows reweighting weights to 0; raise the temperature"
        ) from None


@dataclass(frozen=True)
class StepStats:
    step: int
    ce: float
    hsic: float
    total: float
    mean_weight: float
    lr: float


def head_loss_and_grads(
    head: MlpHead,
    x: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray | None,
    aux_div: np.ndarray | None = None,
    lam: float = 0.0,
    gamma1: float = 0.1,
    gamma2: float = 0.5,
) -> tuple[float, float, float, np.ndarray]:
    """Combined loss and parameter gradients for one batch.

    Returns (total, ce, hsic, grad) with total = ce + lam * hsic; ``grad`` is
    the head's gradient vector, overwritten by its next backward pass.
    ``weights`` None means uniform weights. An inactive penalty is lam = 0
    and aux_div = None; the HSIC gradient flows through the logits only, the
    auxiliary kernel is constant.
    """
    logits, acts = head.forward(x)
    ce, dlogits = weighted_cross_entropy(logits, labels, weights)
    hsic_val = 0.0
    if lam > 0 and aux_div is not None:
        hsic_val, hsic_grad = hsic_b_value_and_grad(
            logits, aux_div, KernelSpec(gamma1), KernelSpec(gamma2)
        )
        hsic_grad *= lam
        dlogits += hsic_grad
    total = ce + lam * hsic_val
    return total, ce, hsic_val, head.backward(acts, dlogits)


def train_step(
    head: MlpHead,
    optimizer: AdamW,
    x: np.ndarray,
    labels: np.ndarray,
    aux_div: np.ndarray | None,
    rew_batch: np.ndarray | None,
    config: TrainConfig,
    step_index: int,
) -> StepStats:
    """One optimisation step of the gated combined loss.

    ``rew_batch`` holds the batch's sample weights, or None for uniform
    weights. The HSIC penalty only applies once ``step_index`` reaches
    ``n_warmup`` and lambda is positive.
    """
    m = x.shape[0]
    use_hsic = config.hsic_active and step_index >= config.n_warmup
    if use_hsic and m < 2:
        raise ValidationError("HSIC penalty needs batch size >= 2")
    weights = None if rew_batch is None else np.asarray(rew_batch, dtype=np.float64)
    total, ce, hsic_val, grad = head_loss_and_grads(
        head, x, labels, weights, aux_div=aux_div if use_hsic else None,
        lam=config.lam if use_hsic else 0.0, gamma1=config.gamma1, gamma2=config.gamma2,
    )
    if not math.isfinite(total):
        raise NumericalError(
            f"non-finite loss at step {step_index} (ce={ce}, hsic={hsic_val}); "
            "try a lower learning rate"
        )
    optimizer.step(grad)
    mean_weight = 1.0 if weights is None else float(np.add.reduce(weights) / m)
    return StepStats(step_index, ce, hsic_val, total, mean_weight, config.learning_rate)


@dataclass(frozen=True)
class EvalRecord:
    step: int
    val_accuracy: float


@dataclass
class TrainResult:
    """Trained head plus the full step log and checkpoint metrics.

    ``head`` carries the final-step parameters; the ``best_*`` fields come
    from the checkpoint with the highest pooled validation accuracy.
    ``test_logits`` holds the final head's float64 logits on each test set.
    """

    head: MlpHead
    log: list[StepStats]
    evals: list[EvalRecord]
    final_val_accuracy: float
    best_val_accuracy: float
    best_step: int
    final_test_accuracy: float | None
    best_test_accuracy: float | None
    test_logits: list[np.ndarray] | None
    prior_floored: bool


def accuracy(head: MlpHead, x: np.ndarray, labels: np.ndarray) -> float:
    return _argmax_accuracy([head.predict_logits(x)], labels)


def _argmax_accuracy(logits: Sequence[np.ndarray], labels: np.ndarray) -> float:
    """Share of rows whose argmax logit is the label; ``logits`` are stacked row blocks."""
    if labels.size == 0:
        raise ValidationError("cannot evaluate accuracy on an empty set")
    return float((np.concatenate([z.argmax(axis=1) for z in logits]) == labels).mean())


def _aligned(main: FeatureSet, other: FeatureSet, name: str) -> FeatureSet:
    """``other``, checked to hold ``main``'s rows: the same domain, labels and split."""
    if main.domain_id != other.domain_id or main.n_samples != other.n_samples:
        raise ValidationError(f"{name} features misaligned on domain '{main.domain_id}'")
    if not np.array_equal(main.labels, other.labels) or not np.array_equal(
        main.split_mask, other.split_mask
    ):
        raise ValidationError(
            f"{name} features disagree with main encoder rows on domain '{main.domain_id}'"
        )
    return other


def _stack_rows(
    masks: Sequence[np.ndarray], dim: int, set_at: Callable[[int], FeatureSet]
) -> np.ndarray:
    """Rows ``masks[i]`` of ``set_at(i)`` for each i, stacked into one new float32 array.

    Each set's rows are copied straight into place, with no per-set copy, and
    a set that ``set_at`` loads is dropped as soon as its rows are in.
    """
    rows = [np.flatnonzero(mask) for mask in masks]
    out = np.empty((sum(r.size for r in rows), dim), dtype=np.float32)
    lo = 0
    for i, r in enumerate(rows):
        # mode "clip" writes straight into ``out``; "raise" would buffer the block
        np.take(set_at(i).features, r, axis=0, out=out[lo : lo + r.size], mode="clip")
        lo += r.size
    return out


def train_on_sets(
    main_sets: Sequence[FeatureSet],
    div_rows: np.ndarray | None,
    cor_rows: np.ndarray | None,
    n_classes: int,
    config: TrainConfig,
    test_sets: Sequence[FeatureSet] | None = None,
) -> TrainResult:
    """Train the head on the pooled training rows of ``main_sets``.

    ``div_rows`` and ``cor_rows`` are the diversity and correlation
    auxiliaries' features of those same rows, in the same order: each set's
    training rows in turn. Each is read only when its term is active and may
    otherwise be None.
    """
    if not main_sets:
        raise ValidationError("need at least one training domain")
    if config.hsic_active:
        if div_rows is None:
            raise ValidationError("HSIC penalty requires diversity-auxiliary features")
        if config.batch_size < 2:
            raise ValidationError("HSIC penalty needs batch size >= 2")
    if config.rew_active and cor_rows is None:
        raise ValidationError("reweighting requires correlation-auxiliary features")

    # The pools keep the stored float32 rows; batches and evaluation passes
    # convert to float64 (exactly), so no float64 copy of a pool is held.
    dim = main_sets[0].dim
    x_train = _stack_rows([~fs.split_mask for fs in main_sets], dim, main_sets.__getitem__)
    y_train = np.concatenate([fs.train_labels for fs in main_sets])
    x_val = _stack_rows([fs.split_mask for fs in main_sets], dim, main_sets.__getitem__)
    y_val = np.concatenate([fs.val_labels for fs in main_sets])
    if x_train.shape[0] == 0 or x_val.shape[0] == 0:
        raise ValidationError("training and validation pools must be non-empty")
    x_div = div_rows if config.hsic_active else None
    x_cor = cor_rows if config.rew_active else None
    n = x_train.shape[0]
    for name, rows in (("diversity-auxiliary", x_div), ("correlation-auxiliary", x_cor)):
        if rows is not None and (rows.ndim != 2 or rows.shape[0] != n):
            raise ValidationError(
                f"{name} features have shape {rows.shape}, expected one row per training row ({n})"
            )

    ss = np.random.SeedSequence(config.seed)
    ss_init, ss_batch, ss_aux = ss.spawn(3)
    head = MlpHead.for_input(dim, n_classes, rng=np.random.default_rng(ss_init))
    batch_rng = np.random.default_rng(ss_batch)

    aux = None
    prior_floored = False
    if config.rew_active:
        aux = train_rew_auxiliary(
            x_cor, y_train, n_classes, rng=np.random.default_rng(ss_aux),
            steps=config.aux_steps, lr=config.aux_lr, batch_size=config.aux_batch_size,
        )
        prior_floored = aux.prior_floored

    optimizer = AdamW(head.params, lr=config.learning_rate, weight_decay=config.weight_decay)
    log: list[StepStats] = []
    evals: list[EvalRecord] = []
    best_acc, best_step = -1.0, -1
    best_state = head.params.copy()
    for step in range(config.steps):
        idx = batch_rng.integers(0, n, size=config.batch_size)
        # reweighting switches on at n_anneal; before that the weights are uniform
        rew_batch = (
            rew_weights(aux, x_cor[idx], y_train[idx], config.temperature)
            if config.rew_active and step >= config.n_anneal
            else None
        )
        stats = train_step(
            head, optimizer, x_train[idx], y_train[idx],
            x_div[idx] if config.hsic_active else None, rew_batch, config, step,
        )
        log.append(stats)
        if (step + 1) % config.eval_every == 0 or step == config.steps - 1:
            val_acc = accuracy(head, x_val, y_val)
            evals.append(EvalRecord(step=step, val_accuracy=val_acc))
            if val_acc > best_acc:
                best_acc, best_step = val_acc, step
                best_state[...] = head.params

    # free the optimizer's moments and scratch and the main pools before the test passes
    del optimizer, x_train, x_val
    final_test = best_test = test_logits = None
    if test_sets:
        y_test = np.concatenate([fs.labels for fs in test_sets])
        test_logits = [head.predict_logits(fs.features) for fs in test_sets]
        final_test = best_test = _argmax_accuracy(test_logits, y_test)
        # a best checkpoint at the last step holds the final parameters
        if best_step != config.steps - 1:
            final_state = head.params.copy()
            head.params[...] = best_state
            best_logits = [head.predict_logits(fs.features) for fs in test_sets]
            best_test = _argmax_accuracy(best_logits, y_test)
            head.params[...] = final_state
    return TrainResult(
        head=head, log=log, evals=evals, final_val_accuracy=evals[-1].val_accuracy,
        best_val_accuracy=best_acc, best_step=best_step, final_test_accuracy=final_test,
        best_test_accuracy=best_test, test_logits=test_logits, prior_floored=prior_floored,
    )


@dataclass(frozen=True)
class Fold:
    """One leave-one-domain-out fold and the shifts of its head's logits."""

    target_domain: str
    result: TrainResult
    logit_f_div: float
    logit_f_cor: float


def train(
    manifest: ZooManifest,
    main_encoder_id: str,
    div_aux_id: str | None,
    rew_aux_id: str | None,
    config: TrainConfig,
    targets: Sequence[str],
) -> list[Fold]:
    """Leave-one-domain-out folds: for each target, train on all other domains.

    Each fold's head is then profiled at logit level over every domain. Each
    feature file the folds need is read once: the main encoder's whole, and
    each auxiliary's only for its training rows on the domains that train a
    fold, gathered into one array per auxiliary. A fold whose target is not
    among those domains trains on that array itself; any other fold on a copy
    of its domains' rows. The folds run with OpenBLAS on one thread, so their
    bytes do not depend on the BLAS thread count; the previous count is
    restored on return.
    """
    domains = manifest.domain_ids
    for target in targets:
        if target not in domains:
            raise ValidationError(f"unknown target domain '{target}'")
    if len(domains) < 2:
        raise ValidationError("need at least one training domain besides the target")
    if config.hsic_active and div_aux_id is None:
        raise ValidationError("HSIC penalty requires a diversity auxiliary encoder id")
    if config.rew_active and rew_aux_id is None:
        raise ValidationError("reweighting requires a correlation auxiliary encoder id")

    main = {
        d: load_domain_features(manifest, main_encoder_id, d, seed=config.seed) for d in domains
    }
    train_domains = [d for d in domains if any(d != t for t in targets)]
    masks = [~main[d].split_mask for d in train_domains]
    counts = [int(np.count_nonzero(mask)) for mask in masks]
    starts = np.cumsum([0] + counts).tolist()
    spans = {d: slice(a, a + c) for d, a, c in zip(train_domains, starts, counts)}

    def train_rows(encoder_id: str, name: str) -> np.ndarray:
        def checked(i: int) -> FeatureSet:
            d = train_domains[i]
            fs = load_domain_features(manifest, encoder_id, d, seed=config.seed)
            return _aligned(main[d], fs, name)

        return _stack_rows(masks, manifest.encoder(encoder_id).dim, checked)

    def fold_rows(rows: np.ndarray | None, target: str) -> np.ndarray | None:
        if rows is None or target not in spans:
            return rows
        return np.delete(rows, spans[target], axis=0)

    div = train_rows(div_aux_id, "diversity-auxiliary") if config.hsic_active else None
    cor = train_rows(rew_aux_id, "correlation-auxiliary") if config.rew_active else None
    folds = []
    # OpenBLAS stays on one thread: the worker pool does the parallel work, and
    # an idle OpenBLAS worker would spin on the pool's cores between GEMMs
    with single_blas_thread():
        for target in targets:
            result = train_on_sets(
                [fs for d, fs in main.items() if d != target],
                fold_rows(div, target), fold_rows(cor, target),
                manifest.n_classes, config, [main[target]],
            )
            f_div, f_cor = logit_shift(
                result.head, list(main.values()), manifest.n_classes,
                known={target: result.test_logits[0]},
            )
            folds.append(Fold(target, result, f_div, f_cor))
    return folds


def logit_feature_sets(
    head: MlpHead, sets: Sequence[FeatureSet], known: Mapping[str, np.ndarray] | None = None
) -> list[FeatureSet]:
    """Push each domain's features through the head; logits become features.

    Labels and split masks carry over, so the shift estimators can profile
    the trained representation exactly like any encoder. ``known`` maps a
    domain id to the float64 logits this head already gave for that domain's
    rows, which are used instead of a second pass.
    """
    out = []
    for fs in sets:
        logits = (known or {}).get(fs.domain_id)
        if logits is None:
            logits = head.predict_logits(fs.features)
        out.append(
            FeatureSet(
                domain_id=fs.domain_id,
                features=logits.astype(np.float32),
                labels=fs.labels,
                split_mask=fs.split_mask,
            )
        )
    return out


def logit_shift(
    head: MlpHead,
    sets: Sequence[FeatureSet],
    n_classes: int,
    known: Mapping[str, np.ndarray] | None = None,
) -> tuple[float, float]:
    """(f_div, f_cor) of the head's logits over ``sets``, profiled like an encoder.

    ``known`` is passed on to ``logit_feature_sets``.
    """
    logit_sets = logit_feature_sets(head, sets, known)
    f_div, div_pairs = dataset_diversity(logit_sets)
    f_cor, _ = dataset_correlation(logit_sets, div_pairs, n_classes)
    return f_div, f_cor
