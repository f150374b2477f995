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

Every head is a stack of F >= 1 heads of one shape (``MlpHead``), whose
parameters are the rows of one (F, P) float32 block: each head's weights and
biases are views into its row, backprop fills a gradient block laid out the
same way, and ``AdamW`` updates the block in place as one F * P vector, one
cache-sized chunk at a time, with two chunk-sized scratch vectors. All
gradients are computed analytically (manual backprop); parameters update
with Adam plus decoupled weight decay.

Precision: a head computes in float32, the dtype its feature rows are stored
in. Its parameters, moments, gradients, activations, logits and
cross-entropy are float32, and so is the reweighting classifier's stack. The
HSIC penalty (``hsic`` widens its inputs) and the reweighting weights are
float64; a batch's weights enter the cross-entropy as float32, and the HSIC
gradient is added to the float32 logit gradient. "Exact" here means
deterministic bytes and the oracle gates, not float64: every fold of a stack
still gets the bits it gets alone, and the bits do not follow the OpenBLAS
thread count.

``train`` trains the F leave-one-domain-out folds of one call as one stack:
each layer's forward and backward is one ``matmul`` over (F, rows, width)
stacks, and the cross-entropy, the HSIC penalty, the reweighting classifier
and AdamW each serve every fold with one call. Each fold keeps its own random
streams, batch draws (row indices into one array of training rows per
encoder), evaluations, best checkpoint and test pass, and gets the bits it
gets when trained alone, as a stack of one. The training and validation
pools concatenate the sets' ``train`` and ``val`` views; a test pass or a
logit profile reads a whole set, in its train-first row order. numpy's
overflow and invalid warnings are off while it trains, on every thread: a
non-finite loss or logit, or logits that cannot be profiled, end the run as
one ``NumericalError`` that names the fold.

Threads: ``train`` runs with OpenBLAS on one thread, and the calling thread
and the process's one worker pool (``blas_threads.run_tasks``) do the
parallel work instead. ``AdamW`` gives each worker one contiguous run of
chunks; the head's large GEMMs (``_matmul``) are cut into row or column
blocks, one per worker. With OpenBLAS on one thread both splits are bit for
bit the serial result, and small heads and GEMMs take the serial code.

Per-call cost: a desk-sized head (12 -> 6 -> 256 -> 4, batch 32) makes each
step about 40 numpy calls on tiny arrays, so the step's time is call
overhead, not arithmetic. The step therefore makes each call once, and once
for all folds: stacking F folds divides the calls per fold-step by F. On 2
vCPUs one step of three stacked desk folds took 0.25 ms against 0.50 ms for
three one-fold steps (0.39 against 0.85 ms with HSIC and weights).
What a step reads but its parameters do not touch (its batch draws, the
weights of the frozen reweighting classifier and the diversity auxiliary's
kernel) is computed for a block of steps at once (``train_on_sets``), and
each step indexes into the block: a step of three stacked desk folds with
HSIC and weights then took 0.31 ms against 0.36 ms when each step computed
them, and 0.16 against 0.18 ms without them, where only the draws are
blocked (best of 7 runs of 1000 steps, on the same host).
The cross-entropy shares one max, one ``exp`` and one row sum between its
value and its softmax gradient; uniform weights are ``None``, not an array
of ones; reductions call ``np.add.reduce`` directly instead of the
``mean``/``sum`` wrappers (the same reduction, so the same bits); and small
products go straight to ``np.matmul``, whose stacked product runs each
matrix as the 2-D product would.
"""

from __future__ import annotations

import copy
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
from .hsic import CentredKernel, KernelSpec, centred_kernel, hsic_b_value_and_grad

P_FLOOR = 1e-6
WEIGHT_CLIP = 100.0

MODES = ("erm", "rew", "hsic", "both")

# What one block of training steps may hold: its draws and labels, the
# reweighting weights and the diversity auxiliary's kernels of its batches,
# with their temporaries (see _row_bytes), 2^16 float64 elements.
STEP_BLOCK_BYTES = 1 << 19
# per batch row: the row index, the drawn position and the label
_DRAW_BYTES = 3 * 8

# A GEMM of `macs` multiply-adds is cut into at most macs // SPLIT_MACS
# blocks, so nothing under 2 * SPLIT_MACS = 2^22 is split. Row cuts fall on
# multiples of ROW_ALIGN = 48 rows; column cuts on multiples of 16 columns,
# and only in a product whose width is a multiple of 16. With these cuts
# every block runs the kernels of the uncut product, so every element keeps
# its bits, in float32 as in float64. Cuts at other offsets, a ragged column
# tail in a narrow block, or blocks under about 2^20 multiply-adds can take
# other OpenBLAS kernels (seen with OpenBLAS 0.3.31 on AVX-512) and differ in
# the last bit.
_COL_ALIGN = 16


def _cuts(n: int, blocks: int, align: int) -> list[tuple[int, int]]:
    """``blocks`` spans of range(n), cut at multiples of ``align``; needs n >= blocks * align."""
    bounds = [i * n // (blocks * align) * align for i in range(blocks)] + [n]
    return list(zip(bounds[:-1], bounds[1:]))


def _blocks(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> list[Callable[[], np.ndarray]]:
    """Tasks that fill ``out`` with the 2-D product ``a @ b``: one per row or
    column block, one block per usable CPU, or the whole product as one."""
    (m, k), n = a.shape, b.shape[1]
    blocks = min(usable_cpus(), m * k * n // SPLIT_MACS)
    if blocks >= 2 and m >= 2 * ROW_ALIGN:
        spans = _cuts(m, min(blocks, m // ROW_ALIGN), ROW_ALIGN)
        return [partial(np.matmul, a[lo:hi], b, out=out[lo:hi]) for lo, hi in spans]
    if blocks >= 2 and n % _COL_ALIGN == 0 and n >= 2 * _COL_ALIGN:
        spans = _cuts(n, min(blocks, n // _COL_ALIGN), _COL_ALIGN)
        return [partial(np.matmul, a, b[:, lo:hi], out=out[:, lo:hi]) for lo, hi in spans]
    return [partial(np.matmul, a, b, out=out)]


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.matmul(a, b, out=out)`` for stacks of matrices, (F, m, k) @ (F, k, n),
    the same bits. A deeper stack, (..., F, m, k), goes straight to numpy.

    A product of at least two ``SPLIT_MACS`` blocks per matrix is cut matrix
    by matrix, by rows when it has enough of them, else by columns, into one
    block per usable CPU. The blocks run on the calling thread and the worker
    pool. It is cut only while OpenBLAS is on one thread, as ``train`` runs
    it: with more OpenBLAS threads, OpenBLAS cuts each block again, and a
    product of ragged shape can then differ from the uncut one in the last
    bit, so it runs uncut. Smaller products, every one of a desk-sized head,
    go straight to ``np.matmul``, which runs each matrix of a stack as the
    2-D product.
    """
    (m, k), n = a.shape[-2:], b.shape[-1]
    if a.ndim != 3 or m * k * n < 2 * SPLIT_MACS or numpy_blas_threads() > 1:
        return np.matmul(a, b, out=out)
    if out is None:
        out = np.empty(a.shape[:-1] + (n,), dtype=np.result_type(a, b))
    tasks = [t for f in range(a.shape[0]) for t in _blocks(a[f], b[f], out[f])]
    if len(tasks) == 1:
        tasks[0]()
    else:
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
    """A stack of F >= 1 dense ReLU networks of one shape, trained by manual backprop.

    ``rngs`` holds one generator or seed per head, which draws that head's
    weights (float64 normals, rounded to float32). ``params`` is one (F, P)
    float32 block whose row f holds every weight and bias of head f, layer by
    layer (weight, then bias); ``weights[i]`` and ``biases[i]`` are (F, ...)
    views into it. A pass computes in the block's dtype. It takes (F, rows,
    width), one matrix per head, or (rows, width), which every head reads,
    and gives (F, rows, out): one ``matmul`` per layer for all F heads. A
    pass of ``predict_logits`` also takes a deeper stack, (..., F, rows,
    width), whose every (rows, width) matrix head f's layers multiply as
    they would alone.
    ``fold(f)`` is head f as a stack of one, on views into the stack.
    ``for_input`` builds the standard three-layer shape: input, half the
    input width, 256 (512 when the input is 2048-dimensional), classes.
    """

    def __init__(self, dims: Sequence[int], rngs: Sequence[np.random.Generator | int]):
        dims = [int(d) for d in dims]
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ValidationError(f"invalid layer dims {dims}")
        self.dims = tuple(dims)
        size = sum(i * o + o for i, o in zip(dims[:-1], dims[1:]))
        params = np.zeros((len(rngs), size), dtype=np.float32)
        self._bind(params, np.zeros_like(params))
        for f, rng in enumerate(rngs):
            rng = np.random.default_rng(rng)  # a generator is used as it is
            for w in self.weights:
                w[f] = rng.normal(0.0, math.sqrt(2.0 / w.shape[1]), size=w.shape[1:])

    def _bind(self, params: np.ndarray, grad: np.ndarray) -> None:
        self.params, self.grad = params, grad
        self.weights, self.biases = self._layer_views(params)
        self._grad_w, self._grad_b = self._layer_views(grad)
        # the views each pass reads: every bias as one row, every weight transposed
        self._bias_rows = [b[:, None, :] for b in self.biases]
        self._weights_t = [np.swapaxes(w, 1, 2) for w in self.weights]

    def _layer_views(self, block: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        weights, biases, start = [], [], 0
        for fan_in, fan_out in zip(self.dims[:-1], self.dims[1:]):
            stop = start + fan_in * fan_out
            weights.append(block[:, start:stop].reshape(len(block), fan_in, fan_out))
            biases.append(block[:, stop : stop + fan_out])
            start = stop + fan_out
        return weights, biases

    def _on(self, params: np.ndarray, grad: np.ndarray) -> "MlpHead":
        """This stack's shape on another (F, P) parameter and gradient block."""
        head = copy.copy(self)
        head._bind(params, grad)
        return head

    def fold(self, f: int) -> "MlpHead":
        """Head ``f`` as a stack of one: views into row f of the stack's
        parameters and gradient, so each sees the other's updates."""
        return self._on(self.params[f : f + 1], self.grad[f : f + 1])

    @classmethod
    def for_input(
        cls, in_dim: int, n_classes: int, rngs: Sequence[np.random.Generator | int]
    ) -> "MlpHead":
        if in_dim < 1 or n_classes < 2:
            raise ValidationError(f"bad head shape: in_dim={in_dim}, n_classes={n_classes}")
        hidden2 = 512 if in_dim == 2048 else 256
        return cls((in_dim, max(in_dim // 2, 1), hidden2, n_classes), rngs)

    def _input(self, x: np.ndarray) -> np.ndarray:
        """``x`` in the parameters' dtype as (..., F, rows, width), no copy if
        it is one (stored float32 rows are taken as they are); rows of shape
        (rows, width) become a broadcast view that every head reads."""
        dtype = self.params.dtype
        h = x if x.dtype == dtype else np.asarray(x, dtype=dtype)
        heads = len(self.params)
        if h.ndim == 2:
            h = np.broadcast_to(h, (heads, *h.shape))
        if h.ndim < 3 or h.shape[-3] != heads or h.shape[-1] != self.dims[0]:
            raise ValidationError(
                f"input shape {x.shape} does not match head input "
                f"(..., {heads}, rows, {self.dims[0]}) or (rows, {self.dims[0]})"
            )
        return h

    def _layers(self, x: np.ndarray, acts: list[np.ndarray] | None) -> np.ndarray:
        """The logits of ``x``; each hidden layer is rectified in place.

        With ``acts`` a list, each layer's input is appended to it: the
        input, then every rectified hidden layer. Without, each
        hidden layer replaces the one before it.
        """
        h = self._input(x)
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self._bias_rows)):
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
            _matmul(np.swapaxes(acts[i], -1, -2), delta, out=self._grad_w[i])
            np.add.reduce(delta, -2, out=self._grad_b[i])
            if i == 0:
                break
            delta = _matmul(delta, self._weights_t[i])
            delta *= acts[i] > 0.0
        return self.grad

    def predict_logits(self, x: np.ndarray) -> np.ndarray:
        """``forward``'s (F, rows, out) logits, the same bits, keeping no activations.

        A pass holds at most two layers: at first the input and the first
        hidden layer.
        """
        return self._layers(x, None)


class AdamW:
    """Adam with bias correction and decoupled weight decay.

    Updates a parameter array in place as one flat vector (a stack's (F, P)
    block is one F * P vector), ``CHUNK`` elements at a time: every op of the
    update runs over one chunk before the next chunk starts, so at head
    widths of 2048 the chunk's parameters, moments, gradient and scratch stay
    in cache instead of streaming from memory once per op. The moments and
    scratch take the parameters' dtype, so with a gradient of that dtype the
    update runs in it. The chunks
    are split into one contiguous run per worker, up to the usable CPU
    count; each run has its own two chunk-length scratch vectors, and the
    runs are ``run_tasks`` tasks. The update is elementwise, so the split
    changes no bit. The moments are full size. The per-chunk views
    are built once, so a step allocates no arrays, and a vector that fits in
    one chunk is updated by the calling thread without slicing.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    # 256 KiB per float32 array. One step on the 2.6 M-parameter 2048-wide
    # head, two workers on 2 vCPUs (AVX-512 Xeon), best of 5 x 50 steps:
    # 13.1 ms at 2^14, 7.5 ms at 2^15, 6.2 ms at 2^16, 6.1 ms at 2^17
    CHUNK = 1 << 16

    def __init__(self, params: np.ndarray, lr: float, weight_decay: float = 0.0):
        # a C-contiguous block of any shape, say a stack's (F, P), is one vector
        if not params.flags.c_contiguous:
            raise ValidationError("AdamW updates a C-contiguous parameter array in place")
        params = params.reshape(-1)
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
            s, u = np.empty((2, min(n - run[0], c)), dtype=params.dtype)
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
        grad = grad.reshape(-1)
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
    e = np.exp(logits - np.maximum.reduce(logits, axis=-1, keepdims=True))
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def weighted_cross_entropy(
    logits: np.ndarray, labels: np.ndarray, weights: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted mean CE of each batch of a stack, and its gradient with respect to the logits.

    ``logits`` is (F, m, classes), ``labels`` and ``weights`` (F, m); the CE
    is an array of F means, computed in the logits' dtype, and ``weights`` is
    cast to it. ``weights`` None means uniform weights of 1. One max, one
    ``exp`` and one row sum serve both the log-sum-exp and the softmax, with
    the same bits as computing each on its own.
    """
    if logits.ndim != 3:
        raise ValidationError(f"expected a stack of (F, m, classes) logits, got {logits.shape}")
    m, n_classes = logits.shape[1:]
    # each row's label entry, as an index into the flattened rows
    at = np.arange(0, logits.size, n_classes).reshape(labels.shape)
    at += labels
    top = np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(logits - top)
    sums = np.add.reduce(e, axis=-1, keepdims=True)
    ce_rows = np.log(sums[..., 0]) + top[..., 0] - np.take(logits, at)
    e /= sums
    e.reshape(-1)[at] -= 1.0
    if weights is None:
        e *= 1.0 / m
    else:
        weights = weights.astype(logits.dtype, copy=False)
        ce_rows *= weights
        e *= (weights / m)[..., None]
    return np.add.reduce(ce_rows, -1) / m, e


@dataclass(frozen=True)
class RewAuxiliary:
    """A stack of F linear softmax classifiers over frozen auxiliary features: a
    stack of one-layer heads, an (F, classes) class prior and F ``prior_floored`` flags."""

    head: MlpHead
    class_prior: np.ndarray
    prior_floored: np.ndarray

    def predict_proba(self, z: np.ndarray) -> np.ndarray:
        """(F, rows, classes) probabilities of (F, rows, dim) or (rows, dim) features."""
        return softmax(self.head.predict_logits(z))


def class_prior(labels: np.ndarray, n_classes: int) -> tuple[np.ndarray, bool]:
    """Empirical label frequencies, floored and renormalised only when a class is absent."""
    counts = np.bincount(np.asarray(labels), minlength=n_classes).astype(np.float64)
    prior = counts / counts.sum()
    if (prior > 0).all():
        return prior, False
    prior = np.maximum(prior, P_FLOOR)
    return prior / prior.sum(), True


def _step_blocks(steps: int, step_bytes: int) -> list[range]:
    """``range(steps)`` cut into consecutive blocks of as many steps as fit
    ``STEP_BLOCK_BYTES`` at ``step_bytes`` a step, and at least one."""
    size = max(1, STEP_BLOCK_BYTES // step_bytes)
    return [range(a, min(a + size, steps)) for a in range(0, steps, size)]


def _offset(first: int, block: range) -> int:
    """The offset in ``block`` of its first step at or after step ``first``;
    ``len(block)`` when it has none."""
    return min(max(first - block.start, 0), len(block))


def _draw(
    rngs: Sequence[np.random.Generator], pools: Sequence[np.ndarray], size: int, steps: int
) -> np.ndarray:
    """Row indices of ``steps`` batches per head, an (steps, F, size) array:
    head f draws its positions in its pool, the row indices ``pools[f]``,
    with ``rngs[f]``, in one call, which takes from the generator what
    ``steps`` calls of ``size`` each take."""
    out = np.empty((steps, len(rngs), size), dtype=np.intp)
    for f, (rng, rows) in enumerate(zip(rngs, pools)):
        out[:, f] = rows[rng.integers(0, rows.size, size=(steps, size))]
    return out


def train_rew_auxiliary(
    features: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    rngs: Sequence[np.random.Generator | int],
    pools: Sequence[np.ndarray],
    steps: int = 1000,
    lr: float = 1e-5,
    batch_size: int = 16,
) -> RewAuxiliary:
    """Train a stack of reweighting classifiers, zero-initialized one-layer
    heads, with one AdamW: classifier f draws its batches with ``rngs[f]``
    from its pool, the row indices ``pools[f]``, a block of steps at a time
    (see ``_draw``), and the block's labels are gathered at once."""
    z = np.asarray(features)
    y = np.asarray(labels)
    if z.ndim != 2 or z.shape[0] != y.shape[0] or z.shape[0] == 0:
        raise ValidationError("auxiliary features and labels must be non-empty and aligned")
    rngs = [np.random.default_rng(rng) for rng in rngs]
    pool_labels = [y[rows] for rows in pools]
    if any(np.unique(pool).size < 2 for pool in pool_labels):
        raise ValidationError("reweighting classifier needs at least 2 classes present")
    priors, floored = zip(*(class_prior(pool, n_classes) for pool in pool_labels))
    head = MlpHead((z.shape[1], n_classes), [0] * len(rngs))
    head.params[...] = 0.0
    opt = AdamW(head.params, lr=lr)
    for block in _step_blocks(steps, len(rngs) * batch_size * _DRAW_BYTES):
        idx = _draw(rngs, pools, batch_size, len(block))
        labels = y[idx]
        for i in range(len(block)):
            opt.step(head_loss_and_grads(head, z[idx[i]], labels[i], None)[3])
    return RewAuxiliary(head=head, class_prior=np.stack(priors), prior_floored=np.array(floored))


def batch_weights(raw: np.ndarray) -> np.ndarray:
    """Rescale positive weights to mean exactly 1, preserving ratios (each row of a stack)."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.size == 0:
        return raw
    if (raw <= 0).any():
        raise ValidationError("raw weights must be strictly positive")
    return raw * (raw.shape[-1] / np.add.reduce(raw, -1))[..., None]


def rew_weights(
    aux: RewAuxiliary, z: np.ndarray, labels: np.ndarray, temperature: float
) -> np.ndarray:
    """Per-sample weights of batch f by classifier f: smoothed, clipped at
    100, mean 1 (all 1 at T=inf).

    ``z`` and ``labels`` are (..., F, m, dim) features and (..., F, m)
    labels: one batch per head, or a block of them, (S, F, m, dim) for S
    steps. Each batch's logits are one (m, dim) product, as when it is
    alone, so its weights have the bits they have alone. A batch with a raw
    weight that underflows to 0 cannot be rescaled; its weights come back as
    zeros, which no rescaled batch has (its largest weight is about 1 or
    more), so that the caller can refuse it at the step that uses it.
    """
    probs = aux.predict_proba(z)
    p_y = np.maximum(np.take_along_axis(probs, labels[..., None], -1)[..., 0], P_FLOOR)
    prior = aux.class_prior[np.arange(len(aux.class_prior))[:, None], labels]
    # at a small temperature the power may overflow to inf; the clip below is meant for it
    with np.errstate(over="ignore"):
        raw = np.minimum((prior / p_y) ** (1.0 / temperature), WEIGHT_CLIP)
    # prior and p_y are positive: a raw weight is 0 only when the power underflows
    refused = (raw <= 0).any(-1)
    raw[refused] = 1.0
    weights = batch_weights(raw)
    weights[refused] = 0.0
    return weights


@dataclass(frozen=True)
class StepStats:
    """One step's statistics: one entry per head of the stack from ``train_step``
    (an array of F, or one number for all while a term is off), one head's
    floats in ``TrainResult.log``."""

    step: int
    ce: float
    hsic: float
    mean_weight: float
    lr: float


def head_loss_and_grads(
    head: MlpHead,
    x: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray | None,
    aux_div: np.ndarray | CentredKernel | None = None,
    lam: float = 0.0,
    gamma1: float = 0.1,
    gamma2: float = 0.5,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | float, np.ndarray]:
    """Combined loss and parameter gradients for one batch per head of the stack.

    ``x`` holds (F, m, width) rows. Returns (total, ce, hsic, grad), each
    loss an array of F (hsic 0.0 while off), with total = ce + lam * hsic;
    ``grad`` is the stack's gradient block, overwritten by its next backward
    pass. ``weights`` None means uniform weights. ``aux_div`` is the
    diversity auxiliary's (F, m, dim) rows of the batches, or their
    ``centred_kernel``, which gives the same bits. An inactive penalty is
    lam = 0 and aux_div = None; the HSIC gradient flows through the logits
    only, the auxiliary kernel is constant.
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
    aux_div: np.ndarray | CentredKernel | None,
    rew_batch: np.ndarray | None,
    config: TrainConfig,
    step_index: int,
    targets: Sequence[str] | None = None,
) -> StepStats:
    """One optimisation step of the gated combined loss for every head of the stack.

    ``rew_batch`` holds the batch's sample weights, or None for uniform
    weights; ``aux_div`` is as ``head_loss_and_grads`` takes it. The HSIC
    penalty only applies once ``step_index`` reaches ``n_warmup`` and lambda
    is positive. A non-finite loss raises ``NumericalError`` before the
    update; ``targets``, each head's target domain, names the first head
    whose loss it is, as the other errors of a fold begin: "the fold on
    target 'X' ...".
    """
    m = x.shape[-2]
    use_hsic = config.hsic_active and step_index >= config.n_warmup
    if use_hsic and m < 2:
        raise ValidationError("HSIC penalty needs batch size >= 2")
    weights = None if rew_batch is None else np.asarray(rew_batch, dtype=np.float64)
    total, ce, hsic_val, grad = head_loss_and_grads(
        head, x, labels, weights, aux_div=aux_div if use_hsic else None,
        lam=config.lam if use_hsic else 0.0, gamma1=config.gamma1, gamma2=config.gamma2,
    )
    finite = np.isfinite(total)
    if not finite.all():
        f = int(np.argmin(finite))
        head = "the head" if targets is None else f"the fold on target '{targets[f]}'"
        ce_f, hsic_f = (np.broadcast_to(v, finite.shape).flat[f] for v in (ce, hsic_val))
        raise NumericalError(
            f"{head} has a non-finite loss at step {step_index} (ce={ce_f}, hsic={hsic_f}); "
            "try a lower learning rate"
        )
    optimizer.step(grad)
    mean_weight = 1.0 if weights is None else np.add.reduce(weights, -1) / m
    return StepStats(step_index, ce, hsic_val, mean_weight, config.learning_rate)


def _row_bytes(
    batch: int, div_rows: np.ndarray | None, cor_rows: np.ndarray | None, n_classes: int
) -> int:
    """The bytes a block of training steps holds per batch row (one step of
    one fold), temporaries included: the draw and the label; with
    reweighting, the gathered correlation-auxiliary row, the classifier's
    float32 logits, shifted logits and softmax, and six float64 values (p_y,
    prior, ratio, raw and clipped weight, weight); with HSIC, the gathered
    diversity-auxiliary row in float32 and in float64 and its square, and a
    row of each of three (m, m) float64 matrices (the Gram product, the
    kernel and the centred kernel) with three float64 row statistics."""
    size = _DRAW_BYTES
    if cor_rows is not None:
        size += cor_rows.shape[1] * cor_rows.itemsize + 3 * 4 * n_classes + 6 * 8
    if div_rows is not None:
        size += div_rows.shape[1] * (div_rows.itemsize + 2 * 8) + 3 * 8 * batch + 3 * 8
    return size


@dataclass(frozen=True)
class EvalRecord:
    step: int
    val_accuracy: float


@dataclass
class TrainResult:
    """Trained head plus the full step log and checkpoint metrics.

    ``head`` is the head's fold of the trained stack, a stack of one with
    the final-step parameters; the ``best_*`` fields come from the
    checkpoint with the highest pooled validation accuracy.
    ``test_logits`` holds the final head's float32 (rows, classes) logits on
    the test set, its rows in the set's train-first order.
    """

    head: MlpHead
    log: list[StepStats]
    evals: list[EvalRecord]
    final_val_accuracy: float
    best_val_accuracy: float
    best_step: int
    final_test_accuracy: float
    best_test_accuracy: float
    test_logits: np.ndarray
    prior_floored: bool


def accuracy(head: MlpHead, x: np.ndarray, labels: np.ndarray) -> float:
    """The accuracy of a stack of one head on rows ``x``."""
    return _argmax_accuracy(head.predict_logits(x), labels)


def _argmax_accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Share of rows whose argmax logit is the label."""
    if labels.size == 0:
        raise ValidationError("cannot evaluate accuracy on an empty set")
    return float((logits.argmax(axis=-1) == labels).mean())


# numpy's warnings stay off while training: the loss and logit checks report a diverging run
_quiet_overflow = np.errstate(over="ignore", invalid="ignore")


@_quiet_overflow
def train_on_sets(
    main_sets: Sequence[FeatureSet],
    div_rows: np.ndarray | None,
    cor_rows: np.ndarray | None,
    n_classes: int,
    config: TrainConfig,
    test_sets: Sequence[FeatureSet],
) -> list[TrainResult]:
    """Train one head per entry of ``test_sets``, the F heads as one stack.

    Head f trains on the pooled training rows of every set of ``main_sets``
    whose domain is not that of ``test_sets[f]``, selects its checkpoint on
    their pooled validation rows, and is tested on ``test_sets[f]``.
    ``div_rows`` and ``cor_rows`` are the diversity and correlation
    auxiliaries' features of the training rows of ``main_sets``, in the same
    order: each set's training rows in turn. Each is read only when its term
    is active and may otherwise be None.

    Each head draws its initial weights, batches and reweighting classifier
    from its own generators, seeded as a head trained alone, and keeps its
    own evaluations, best checkpoint and test pass, so it gets the bits it
    gets when trained alone on its sets. The heads share one array of
    training rows and one of validation rows per encoder and read their rows
    by index.

    The steps run in blocks (``_step_blocks``) of as many steps as
    ``STEP_BLOCK_BYTES`` holds. What a step computes without reading the
    parameters is computed for the whole block before its first step: each
    head's batch draws, in one generator call, and their labels; the
    reweighting weights, since the classifier is frozen; and the diversity
    auxiliary's centred kernels. Each step then indexes into the block. The
    weights and kernels cover a block's steps from ``n_anneal`` and
    ``n_warmup`` on, and every batch keeps the bits it gets when its step
    computes it, so no bit depends on the block size. A batch whose weights
    underflow is refused at its own step, after the steps before it ran.
    """
    if not main_sets:
        raise ValidationError("need at least one training domain")
    if not test_sets:
        raise ValidationError("need at least one head to train")
    if config.hsic_active:
        if div_rows is None:
            raise ValidationError("HSIC penalty requires diversity-auxiliary features")
        if config.batch_size < 2:
            raise ValidationError("HSIC penalty needs batch size >= 2")
    if config.rew_active and cor_rows is None:
        raise ValidationError("reweighting requires correlation-auxiliary features")

    # The pools keep the stored float32 rows, which batches and evaluation
    # passes hand to the float32 head as they are: no copy of a pool is made.
    dim = main_sets[0].dim
    x_train = np.concatenate([fs.train for fs in main_sets])
    y_train = np.concatenate([fs.train_labels for fs in main_sets])
    x_val = np.concatenate([fs.val for fs in main_sets])
    y_val = np.concatenate([fs.val_labels for fs in main_sets])
    x_div = div_rows if config.hsic_active else None
    x_cor = cor_rows if config.rew_active else None
    n = x_train.shape[0]
    for name, rows in (("diversity-auxiliary", x_div), ("correlation-auxiliary", x_cor)):
        if rows is not None and (rows.ndim != 2 or rows.shape[0] != n):
            raise ValidationError(
                f"{name} features have shape {rows.shape}, expected one row per training row ({n})"
            )
    # each head's pools: the row indices of its sets; a slice where it
    # validates on every set, so that indexing makes no copy
    train_counts = [fs.n_train for fs in main_sets]
    val_counts = [len(fs.val) for fs in main_sets]
    keeps = [[fs.domain_id != t.domain_id for fs in main_sets] for t in test_sets]
    train_pools = [np.flatnonzero(np.repeat(keep, train_counts)) for keep in keeps]
    val_pools = [
        slice(None) if all(keep) else np.flatnonzero(np.repeat(keep, val_counts))
        for keep in keeps
    ]
    y_vals = [y_val[rows] for rows in val_pools]
    if min(rows.size for rows in train_pools) == 0 or min(y.size for y in y_vals) == 0:
        raise ValidationError("training and validation pools must be non-empty")

    heads_n = len(test_sets)
    streams = [np.random.SeedSequence(config.seed).spawn(3) for _ in range(heads_n)]
    stack = MlpHead.for_input(
        dim, n_classes, [np.random.default_rng(ss_init) for ss_init, _, _ in streams]
    )
    heads = [stack.fold(f) for f in range(heads_n)]
    batch_rngs = [np.random.default_rng(ss_batch) for _, ss_batch, _ in streams]
    targets = [t.domain_id for t in test_sets]

    aux = None
    prior_floored = [False] * heads_n
    if config.rew_active:
        aux = train_rew_auxiliary(
            x_cor, y_train, n_classes, [np.random.default_rng(ss) for _, _, ss in streams],
            train_pools, steps=config.aux_steps, lr=config.aux_lr,
            batch_size=config.aux_batch_size,
        )
        prior_floored = aux.prior_floored.tolist()

    optimizer = AdamW(stack.params, lr=config.learning_rate, weight_decay=config.weight_decay)
    # per step and head: ce, hsic, mean weight
    stats = np.empty((config.steps, 3, heads_n))
    evals: list[list[EvalRecord]] = [[] for _ in range(heads_n)]
    best_acc, best_step = [-1.0] * heads_n, [-1] * heads_n
    best_state = stack.params.copy()
    # reweighting switches on at n_anneal and HSIC at n_warmup: before, the
    # weights are uniform and no auxiliary kernel is read
    first_rew = config.n_anneal if config.rew_active else config.steps
    first_hsic = config.n_warmup if config.hsic_active else config.steps
    m = config.batch_size
    for block in _step_blocks(config.steps, heads_n * m * _row_bytes(m, x_div, x_cor, n_classes)):
        idx = _draw(batch_rngs, train_pools, m, len(block))
        labels = y_train[idx]
        rew_at, hsic_at = _offset(first_rew, block), _offset(first_hsic, block)
        if rew_at < len(block):
            weights = rew_weights(aux, x_cor[idx[rew_at:]], labels[rew_at:], config.temperature)
            usable = weights.any(-1).all(-1).tolist()
        if hsic_at < len(block):
            kernels = centred_kernel(x_div[idx[hsic_at:]], KernelSpec(config.gamma2))
        for i, step in enumerate(block):
            rew_batch = None
            if i >= rew_at:
                if not usable[i - rew_at]:
                    raise ValidationError(
                        f"temperature {config.temperature} underflows reweighting weights "
                        "to 0; raise the temperature"
                    )
                rew_batch = weights[i - rew_at]
            row = train_step(
                stack, optimizer, x_train[idx[i]], labels[i],
                kernels[i - hsic_at] if i >= hsic_at else None, rew_batch, config, step, targets,
            )
            stats[step, 0], stats[step, 1], stats[step, 2] = row.ce, row.hsic, row.mean_weight
            if (step + 1) % config.eval_every == 0 or step == config.steps - 1:
                for f, (head, rows) in enumerate(zip(heads, val_pools)):
                    val_acc = accuracy(head, x_val[rows], y_vals[f])
                    evals[f].append(EvalRecord(step=step, val_accuracy=val_acc))
                    if val_acc > best_acc[f]:
                        best_acc[f], best_step[f] = val_acc, step
                        best_state[f] = stack.params[f]

    # free the optimizer's moments and scratch and the main pools before the test passes
    del optimizer, x_train, x_val
    best = stack._on(best_state, stack.grad)  # read only: no pass of it writes a gradient
    results = []
    for f, (head, test_set) in enumerate(zip(heads, test_sets)):
        [test_logits] = head.predict_logits(test_set.features)
        final_test = best_test = _argmax_accuracy(test_logits, test_set.labels)
        # a best checkpoint at the last step holds the final parameters
        if best_step[f] != config.steps - 1:
            [best_logits] = best.fold(f).predict_logits(test_set.features)
            best_test = _argmax_accuracy(best_logits, test_set.labels)
        log = [
            StepStats(step, ce, hsic, mean_weight, config.learning_rate)
            for step, (ce, hsic, mean_weight) in enumerate(stats[:, :, f].tolist())
        ]
        results.append(TrainResult(
            head=head, log=log, evals=evals[f], final_val_accuracy=evals[f][-1].val_accuracy,
            best_val_accuracy=best_acc[f], best_step=best_step[f], final_test_accuracy=final_test,
            best_test_accuracy=best_test, test_logits=test_logits,
            prior_floored=prior_floored[f],
        ))
    return results


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

    The folds train as one stack (``train_on_sets``). Each fold's head is
    then profiled at logit level over every domain, once every fold's logits
    are known to be finite in float32. Each feature file the folds need is
    read once: the main encoder's whole, and each auxiliary's only for its
    training rows on the domains that train a fold, concatenated into one array
    per auxiliary that every fold reads by row index. The folds run with
    OpenBLAS on one thread, so their bytes do not depend on the BLAS thread
    count; the previous count is restored on return.
    """
    domains = manifest.domain_ids
    if not targets:
        raise ValidationError("need at least one target domain")
    for i, target in enumerate(targets):
        if target not in domains:
            raise ValidationError(f"unknown target domain '{target}'")
        if target in targets[:i]:
            raise ValidationError(f"target domain '{target}' is given more than once")
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

    def train_rows(encoder_id: str) -> np.ndarray:
        return np.concatenate([
            load_domain_features(manifest, encoder_id, d, seed=config.seed).train
            for d in train_domains
        ])

    div = train_rows(div_aux_id) if config.hsic_active else None
    cor = train_rows(rew_aux_id) if config.rew_active else None
    # OpenBLAS stays on one thread: the worker pool does the parallel work, and
    # an idle OpenBLAS worker would spin on the pool's cores between GEMMs
    with single_blas_thread():
        results = train_on_sets(
            [main[d] for d in train_domains], div, cor, manifest.n_classes, config,
            [main[t] for t in targets],
        )
        logit_sets = [
            logit_feature_sets(result.head, list(main.values()), {target: result.test_logits})
            for target, result in zip(targets, results)
        ]
        for target, sets in zip(targets, logit_sets):
            for fs in sets:
                if not np.isfinite(fs.features).all():
                    raise NumericalError(
                        f"the fold on target '{target}' gives non-finite float32 logits on "
                        f"domain '{fs.domain_id}'; try a lower learning rate"
                    )
        folds = []
        for target, result, sets in zip(targets, results, logit_sets):
            try:
                shifts = logit_shift(sets, manifest.n_classes)
            except NumericalError as exc:
                raise NumericalError(f"the fold on target '{target}': {exc}") from exc
            folds.append(Fold(target, result, *shifts))
        return folds


@_quiet_overflow
def logit_feature_sets(
    head: MlpHead, sets: Sequence[FeatureSet], known: Mapping[str, np.ndarray] | None = None
) -> list[FeatureSet]:
    """Push each domain's features through a stack of one head; logits become features.

    Labels and the split carry over: row i of a logit set is row i of its
    feature set, training rows first, so the shift estimators can profile the
    trained representation exactly like any encoder. ``known`` maps a
    domain id to the logits this head already gave for that domain's rows,
    which are used instead of a second pass. Logits past float32's range are
    inf, with no warning; ``train`` refuses them.
    """
    out = []
    for fs in sets:
        logits = (known or {}).get(fs.domain_id)
        if logits is None:
            [logits] = head.predict_logits(fs.features)
        out.append(FeatureSet(
            fs.domain_id, logits.astype(np.float32, copy=False), fs.labels, fs.n_train
        ))
    return out


def logit_shift(logit_sets: Sequence[FeatureSet], n_classes: int) -> tuple[float, float]:
    """(f_div, f_cor) of a head's logits (``logit_feature_sets``), profiled like an encoder."""
    f_div, div_pairs = dataset_diversity(logit_sets)
    f_cor, _ = dataset_correlation(logit_sets, div_pairs, n_classes)
    return f_div, f_cor
