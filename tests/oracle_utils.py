"""Independent reference implementations used to cross-check the library.

Everything here is written against the textbook matrix formulations (explicit
solves, slogdet, eigendecompositions) rather than the fast paths used by the
package, so agreement is meaningful. ``ListAdamW`` is the per-array optimizer
that the package's flat in-place ``AdamW`` must reproduce exactly;
``svd_logme_fit`` is the thin-SVD LogME fit that the package's Gram
eigendecomposition replaced, which it must match within round-off;
``loop_calibrate`` and ``loop_calibrator_apply`` are the class-by-bin loops
that the package's ``np.bincount`` calibration must reproduce bit for bit.
``hsic_b`` is the value-only form of the package's HSIC that acceptance C1
holds against the brute-force double sum. ``reference_weighted_cross_entropy``
and ``reference_hsic_b_value_and_grad`` are the straightforward CE and HSIC
value-and-gradient sequences (separate softmax, ``np.mean`` wrappers, each
kernel and row mean computed where it is used) that the package's trimmed
training step must reproduce bit for bit; ``hsic_from_kernels`` is their HSIC
value from two kernel matrices, and ``reference_head_loss_and_grads`` puts
them into a whole forward and backward pass. The CE, the pass and
``ListAdamW`` compute in the dtype of the logits or parameters they are
given: in float32 against the package's float32 heads, bit for bit, and in
float64 on ``float64_head``'s copy of a head, which acceptance C2 holds
against finite differences and bounds the package's float32 gradient by. ``reference_fit_class`` is the
MacKay fixed point for the LogME precisions, with its residual and weight
floors and its precision clamps, and ``reference_logme_fit`` runs it in the
Gram eigenbasis; the package's search over t = alpha / beta must never end
below its evidence. ``log_evidence`` is the per-sample evidence at a given
(alpha, beta) in that basis, the fixed point's objective.
``benchmark_train_config`` is the desk-scale training preset that the
planted-shift benchmark tests train with. ``reference_mahalanobis_sq`` is
the triangular solve with the Cholesky factor L that the package's product
with L^-1 must match within round-off, and ``gemm_mahalanobis_sq`` is the
whole-batch general product (x - mean) L^-T that the package's in-place,
row-blocked triangular product replaced. ``reference_encode`` is the
synthetic encoder as one whole-matrix float64 product and ``np.where``
rectifier, cast to the float32 that the zoo stores; the package's row-blocked
``_encode`` must reproduce it bit for bit, and ``reference_generate`` is the
generator's whole-domain float64 formula, concatenated and then cast, that
the package's in-place, row-blocked ``generate`` must reproduce bit for bit.
``scipy_single_blas_thread`` pins the OpenBLAS that scipy's own LAPACK calls,
which the package never pins, so a scipy oracle whose bits follow the thread
count can be held against the package's one-thread result.
``reference_train_on_sets`` is the per-fold trainer that the stacked
``train_on_sets`` replaced: one head after another, each on its own copies of
its pools, through the package's step on a stack of one head; the stack must
give every fold its bits.
``train_first`` reorders file-order rows the way a ``FeatureSet`` stores
them, and ``reference_pair_shifts`` scores every domain pair from file-order
rows with the split applied by mask gathers (``rows[~split_mask(...)]``),
again for each pair a domain is in; the package's ``train`` / ``val`` views
must give every pair the same bits.
"""

import ctypes
import math
from contextlib import contextmanager

import numpy as np
import scipy.linalg
import scipy.linalg._flapack

from shiftzoo.correlation_profile import (
    EvidenceModel,
    _fit_basis,
    calibrate,
    logme_fit,
    predict_tilde,
)
from shiftzoo.ensemble_train import (
    AdamW,
    EvalRecord,
    MlpHead,
    StepStats,
    TrainConfig,
    TrainResult,
    _argmax_accuracy,
    accuracy,
    rew_weights,
    train_rew_auxiliary,
    train_step,
)
from shiftzoo.errors import ValidationError
from shiftzoo.feature_store import split_mask
from shiftzoo.gaussian_profile import (
    DomainProfile,
    escape_mask,
    estimate_threshold,
    fit_gaussian,
    lower_inverse,
    mahalanobis_sq,
    regularize_and_factor,
)
from shiftzoo.hsic import KernelSpec, hsic_b_value_and_grad
from shiftzoo.synthetic_dg import (
    LEAKY_SLOPE,
    SynthSpec,
    _balanced_labels,
    _class_means,
    _spur_patterns,
)


@contextmanager
def scipy_single_blas_thread():
    """Run the body with scipy's OpenBLAS on one thread, then restore its count.

    Its thread symbols are looked up through scipy's LAPACK module, so they
    are those of the copy scipy calls; where it links no OpenBLAS, nothing
    changes.
    """
    lib = ctypes.CDLL(scipy.linalg._flapack.__file__)
    names = [f"{p}openblas_{{}}_num_threads{s}" for p in ("scipy_", "") for s in ("", "64_")]
    found = [name for name in names if hasattr(lib, name.format("get"))]
    if not found:
        yield
        return
    get_num_threads, set_num_threads = (getattr(lib, found[0].format(v)) for v in ("get", "set"))
    count = get_num_threads()
    set_num_threads(1)
    try:
        yield
    finally:
        set_num_threads(count)


def hsic_b(
    z_first: np.ndarray,
    z_second: np.ndarray,
    spec_first: KernelSpec,
    spec_second: KernelSpec,
) -> float:
    """Biased HSIC between two paired batches under Gaussian kernels, as a stack of one."""
    [value] = hsic_b_value_and_grad(z_first[None], z_second[None], spec_first, spec_second)[0]
    return float(value)


def hsic_from_kernels(k: np.ndarray, l: np.ndarray) -> float:
    """Biased HSIC estimate from two precomputed m x m kernel matrices."""
    k = np.asarray(k, dtype=np.float64)
    l = np.asarray(l, dtype=np.float64)
    if k.shape != l.shape or k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValidationError(f"kernel matrices must be square and same-shape, got {k.shape} and {l.shape}")
    m = k.shape[0]
    if m == 0:
        return 0.0
    term_cross = float(np.mean(k * l))
    term_marginal = float(np.mean(k)) * float(np.mean(l))
    term_row = 2.0 * float(np.mean(k.mean(axis=1) * l.mean(axis=1)))
    return term_cross + term_marginal - term_row


def reference_mahalanobis_sq(mean: np.ndarray, chol: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Squared Mahalanobis distances of the rows of ``x``: solve L y = (x - mean)^T."""
    diff = np.atleast_2d(x).astype(np.float64) - mean
    y = scipy.linalg.solve_triangular(chol, diff.T, lower=True)
    return np.sum(y * y, axis=0)


def gemm_mahalanobis_sq(mean: np.ndarray, inv_chol: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Squared Mahalanobis distances of the rows of ``x``: one product (x - mean) L^-T."""
    y = (np.atleast_2d(x).astype(np.float64) - mean) @ np.asarray(inv_chol).T
    return np.sum(y * y, axis=1)


def reference_gaussian_kernel(z: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * squared distances), diagonal distances set to 0 by ``fill_diagonal``."""
    sq = np.sum(z * z, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (z @ z.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return np.exp(-gamma * d2)


def reference_hsic_b_value_and_grad(
    z_first: np.ndarray, z_second: np.ndarray, spec_first: KernelSpec, spec_second: KernelSpec
) -> tuple[float, np.ndarray]:
    """HSIC value and gradient wrt ``z_first``, each term computed where it is used."""
    z_first = np.asarray(z_first, dtype=np.float64)
    z_second = np.asarray(z_second, dtype=np.float64)
    m = z_first.shape[0]
    gamma = spec_first.effective_gamma(z_first.shape[1])
    l = reference_gaussian_kernel(z_first, gamma)
    k = reference_gaussian_kernel(z_second, spec_second.effective_gamma(z_second.shape[1]))
    value = hsic_from_kernels(k, l)
    row = k.mean(axis=1)
    k_centered = k - row[:, None] - row[None, :] + k.mean()
    w = k_centered * l
    grad = (-4.0 * gamma / (m * m)) * (w.sum(axis=1)[:, None] * z_first - w @ z_first)
    return value, grad


def reference_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def reference_weighted_cross_entropy(
    logits: np.ndarray, labels: np.ndarray, weights: np.ndarray
) -> tuple[float, np.ndarray]:
    """Weighted mean CE and its logit gradient: log-sum-exp and softmax computed
    apart, in the logits' dtype, the weights cast to it."""
    m = logits.shape[0]
    weights = np.asarray(weights).astype(logits.dtype)
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1)) + logits.max(axis=1)
    ce_rows = lse - logits[np.arange(m), labels]
    ce = float(np.mean(weights * ce_rows))
    dlogits = reference_softmax(logits)
    dlogits[np.arange(m), labels] -= 1.0
    dlogits *= (weights / m)[:, None]
    return ce, dlogits


def reference_head_loss_and_grads(head, x, labels, weights, aux_div, lam, gamma1, gamma2):
    """(total, ce, hsic, flat grad) of a stack of one ``MlpHead`` on one 2-D
    batch: plain forward, the reference CE and HSIC, and backward with fresh
    temporaries, all in the dtype of the head's parameters (the HSIC in
    float64, its gradient added in float64 and rounded to that dtype)."""
    # the one head's layers: zip(*stack) gives each head's matrices
    [weights_2d], [biases_2d] = zip(*head.weights), zip(*head.biases)
    dtype = head.params.dtype
    acts, pre = [np.asarray(x, dtype=dtype)], []
    for w, b in zip(weights_2d[:-1], biases_2d[:-1]):
        pre.append(acts[-1] @ w + b)
        acts.append(np.maximum(pre[-1], 0.0))
    logits = acts[-1] @ weights_2d[-1] + biases_2d[-1]
    ce, dlogits = reference_weighted_cross_entropy(logits, labels, weights)
    hsic = 0.0
    if lam > 0:
        hsic, hsic_grad = reference_hsic_b_value_and_grad(
            logits, aux_div, KernelSpec(gamma1), KernelSpec(gamma2)
        )
        dlogits = (dlogits + lam * hsic_grad).astype(dtype)
    grads, delta = [], dlogits
    for i in range(len(head.weights) - 1, -1, -1):
        grads[:0] = [acts[i].T @ delta, delta.sum(axis=0)]
        if i > 0:
            delta = (delta @ weights_2d[i].T) * (pre[i - 1] > 0.0)
    return ce + lam * hsic, ce, hsic, np.concatenate([g.ravel() for g in grads])


def float64_head(head):
    """A float64 copy of a stack of ``MlpHead``: its own parameter and gradient
    blocks, the same layout."""
    params = head.params.astype(np.float64)
    return head._on(params, np.zeros_like(params))


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


def direct_log_evidence(phi: np.ndarray, y: np.ndarray, alpha: float, beta: float) -> float:
    """Per-sample Bayesian ridge log evidence from explicit matrices."""
    n, d = phi.shape
    a_mat = alpha * np.eye(d) + beta * (phi.T @ phi)
    m = beta * np.linalg.solve(a_mat, phi.T @ y)
    res = max(float(np.sum((phi @ m - y) ** 2)), 1e-12)
    _, logdet = np.linalg.slogdet(a_mat)
    total = 0.5 * (
        n * math.log(beta)
        + d * math.log(alpha)
        - n * math.log(2.0 * math.pi)
        - beta * res
        - alpha * float(m @ m)
        - logdet
    )
    return total / n


RESIDUAL_FLOOR = 1e-12
PRECISION_RANGE = (1e-12, 1e12)


def _reference_evidence_terms(
    s: np.ndarray, btilde: np.ndarray, y_sq: float, alpha: float, beta: float
) -> tuple[np.ndarray, float, float, float]:
    denom = alpha + beta * s
    m_tilde = beta * btilde / denom
    res = y_sq - 2.0 * float(m_tilde @ btilde) + float(s @ (m_tilde * m_tilde))
    m_sq = float(m_tilde @ m_tilde)
    gamma = float(np.sum(beta * s / denom))
    return m_tilde, res, m_sq, gamma


def log_evidence(
    s: np.ndarray, btilde: np.ndarray, y_sq: float, n: int, d: int, alpha: float, beta: float
) -> float:
    """Per-sample log evidence of a Bayesian ridge model in the eigenbasis of Phi^T Phi.

    ``s`` holds the eigenvalues; a basis with fewer than ``d`` of them counts
    each missing one as 0. The residual is floored at ``RESIDUAL_FLOOR``.
    """
    _, res, m_sq, _ = _reference_evidence_terms(s, btilde, y_sq, alpha, beta)
    res = max(res, RESIDUAL_FLOOR)
    log_det = float(np.sum(np.log(alpha + beta * s))) + (d - s.size) * math.log(alpha)
    total = 0.5 * (
        n * math.log(beta)
        + d * math.log(alpha)
        - n * math.log(2.0 * math.pi)
        - beta * res
        - alpha * m_sq
        - log_det
    )
    return total / n


def reference_fit_class(
    s: np.ndarray,
    btilde: np.ndarray,
    y_sq: float,
    n: int,
    d: int,
    max_iters: int,
    tol: float,
) -> tuple[float, float, np.ndarray, float, int, bool, tuple[float, ...]]:
    """The LogME fixed point with its evidence terms recomputed at each use."""
    lo, hi = PRECISION_RANGE
    alpha = beta = 1.0
    clamped = False
    trace = [log_evidence(s, btilde, y_sq, n, d, alpha, beta)]
    iters = 0
    for iters in range(1, max_iters + 1):
        _, res, m_sq, gamma = _reference_evidence_terms(s, btilde, y_sq, alpha, beta)
        if res < RESIDUAL_FLOOR:
            res, clamped = RESIDUAL_FLOOR, True
        if m_sq < RESIDUAL_FLOOR:
            m_sq, clamped = RESIDUAL_FLOOR, True
        new_alpha = min(max(gamma / m_sq, lo), hi)
        new_beta = min(max((n - gamma) / res, lo), hi)
        if new_alpha in (lo, hi) or new_beta in (lo, hi):
            clamped = True
        ev = log_evidence(s, btilde, y_sq, n, d, new_alpha, new_beta)
        if ev < trace[-1] - 1e-12:
            iters -= 1
            break
        trace.append(ev)
        moved = max(
            abs(new_alpha - alpha) / max(abs(alpha), RESIDUAL_FLOOR),
            abs(new_beta - beta) / max(abs(beta), RESIDUAL_FLOOR),
        )
        alpha, beta = new_alpha, new_beta
        if moved < tol:
            break
    m_tilde, _, _, _ = _reference_evidence_terms(s, btilde, y_sq, alpha, beta)
    return alpha, beta, m_tilde, trace[-1], iters, clamped, tuple(trace)


def _grid_evidence_surface(
    phi: np.ndarray, y: np.ndarray, log10_lo=-4.0, log10_hi=4.0, step=0.05
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample evidence on an (alpha, beta) log10 grid.

    Uses an eigendecomposition of phi^T phi, a different matrix route from
    ``direct_log_evidence`` and a two-dimensional grid search instead of the
    package's search over alpha / beta. Returns the grid values and the
    (alpha-index, beta-index) evidence surface.
    """
    n, d = phi.shape
    w, q = np.linalg.eigh(phi.T @ phi)
    w = np.maximum(w, 0.0)
    b = q.T @ (phi.T @ y)
    y_sq = float(y @ y)
    grid = 10.0 ** np.arange(log10_lo, log10_hi + step / 2, step)
    surface = np.empty((grid.size, grid.size))
    for i, alpha in enumerate(grid):
        denom = alpha + np.outer(grid, w)  # (G, d)
        m = grid[:, None] * b[None, :] / denom
        res = np.maximum(y_sq - 2.0 * (m @ b) + (m * m) @ w, 1e-12)
        m_sq = np.sum(m * m, axis=1)
        logdet = np.sum(np.log(denom), axis=1)
        surface[i] = 0.5 * (
            n * np.log(grid)
            + d * math.log(alpha)
            - n * math.log(2.0 * math.pi)
            - grid * res
            - alpha * m_sq
            - logdet
        ) / n
    return grid, surface


def grid_argmax_evidence(
    phi: np.ndarray, y: np.ndarray, log10_lo=-4.0, log10_hi=4.0, step=0.05
) -> tuple[float, float, float]:
    """Brute-force (evidence, alpha, beta) maximising on a log10 grid."""
    grid, surface = _grid_evidence_surface(phi, y, log10_lo, log10_hi, step)
    i, j = np.unravel_index(int(np.argmax(surface)), surface.shape)
    return float(surface[i, j]), float(grid[i]), float(grid[j])


def grid_argmax_ties(
    phi: np.ndarray,
    y: np.ndarray,
    tie_tol: float = 1e-9,
    log10_lo=-4.0,
    log10_hi=4.0,
    step=0.05,
) -> list[tuple[float, float]]:
    """All grid points whose evidence ties the grid maximum within tie_tol.

    Flat ridges make the literal argmax arbitrary among near-equal cells;
    a fit is considered grid-confirmed when it lands within a cell
    of any tied point.
    """
    grid, surface = _grid_evidence_surface(phi, y, log10_lo, log10_hi, step)
    best = float(surface.max())
    rows, cols = np.nonzero(surface >= best - tie_tol)
    return [(float(grid[i]), float(grid[j])) for i, j in zip(rows, cols)]


def quadratic_hsic(z1: np.ndarray, z2: np.ndarray, g1: float, g2: float) -> float:
    """O(m^2) scalar-loop HSIC via the three-term population expansion."""
    m = z1.shape[0]
    k = np.zeros((m, m))
    l = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            dl = z1[i] - z1[j]
            dk = z2[i] - z2[j]
            l[i, j] = math.exp(-g1 * float(dl @ dl))
            k[i, j] = math.exp(-g2 * float(dk @ dk))
    t1 = sum(k[i, j] * l[i, j] for i in range(m) for j in range(m)) / (m * m)
    t2 = (k.sum() / (m * m)) * (l.sum() / (m * m))
    t3 = 2.0 * sum(k[i].sum() * l[i].sum() for i in range(m)) / (m ** 3)
    return t1 + t2 - t3


class ListAdamW:
    """Adam with bias correction and decoupled weight decay over a list of arrays.

    Plain per-array numpy expressions with fresh temporaries, one array at a
    time, in the dtype of each array and its gradient.
    """

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params, grads):
        assert len(params) == len(grads) == len(self.m)
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            if self.weight_decay:
                p -= self.lr * self.weight_decay * p
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def svd_logme_fit(features: np.ndarray, labels: np.ndarray, n_classes: int) -> EvidenceModel:
    """LogME fit in the thin-SVD basis of the feature matrix.

    The basis comes from ``np.linalg.svd(phi, full_matrices=False)``: min(n, d)
    squared singular values and right singular vectors. The rank rule and the
    per-class search are the package's.
    """
    phi = np.asarray(features, dtype=np.float64)
    _, sv, vt = np.linalg.svd(phi, full_matrices=False)
    return _fit_basis(phi, np.asarray(labels), n_classes, sv * sv, vt)


def reference_logme_fit(
    features: np.ndarray, labels: np.ndarray, n_classes: int
) -> list[tuple[float, float, np.ndarray, float, int, bool, tuple[float, ...]]]:
    """``reference_fit_class`` for each one-vs-rest target, in the Gram eigenbasis,
    with at most 100 iterations and a relative step tolerance of 1e-6.

    The top min(n, d) eigenvalues of Phi^T Phi are kept, round-off below 0
    clipped; a kept eigenvalue of 0 is harmless to the fixed point, which
    never divides by one.
    """
    phi = np.asarray(features, dtype=np.float64)
    n, d = phi.shape
    eigvals, eigvecs = np.linalg.eigh(phi.T @ phi)
    keep = min(n, d)
    s = np.maximum(eigvals[::-1][:keep], 0.0)
    vt = eigvecs[:, ::-1][:, :keep].T
    fits = []
    for k in range(n_classes):
        y = (np.asarray(labels) == k).astype(np.float64)
        fits.append(
            reference_fit_class(s, vt @ (phi.T @ y), float(y @ y), n, d, 100, 1e-6)
        )
    return fits


def loop_calibrate(probs: np.ndarray, labels: np.ndarray, n_classes: int, n_bins: int) -> np.ndarray:
    """Accuracy per (class, equal-width bin) by looping over classes and bins; NaN if empty."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    acc = np.full((n_classes, n_bins), np.nan)
    if probs.shape[0] == 0:
        return acc
    idx = np.clip((probs * n_bins).astype(int), 0, n_bins - 1)
    for k in range(n_classes):
        hits = labels == k
        for b in range(n_bins):
            in_bin = idx[:, k] == b
            if in_bin.any():
                acc[k, b] = float(hits[in_bin].mean())
    return acc


def loop_calibrator_apply(bin_accuracy: np.ndarray, n_bins: int, probs: np.ndarray) -> np.ndarray:
    """Each class column replaced by its bin's accuracy, one class at a time; empty bins keep it."""
    probs = np.asarray(probs, dtype=np.float64)
    idx = np.clip((probs * n_bins).astype(int), 0, n_bins - 1)
    out = probs.copy()
    for k in range(bin_accuracy.shape[0]):
        acc = bin_accuracy[k, idx[:, k]]
        hit = ~np.isnan(acc)
        out[hit, k] = acc[hit]
    return out


def reference_encode(x: np.ndarray, coord_indices, projection: np.ndarray) -> np.ndarray:
    """leaky(x[:, coord_indices] @ projection) over the whole matrix, as float32."""
    z = np.asarray(x, dtype=np.float64)[:, list(coord_indices)] @ projection
    return np.where(z > 0, z, LEAKY_SLOPE * z).astype(np.float32)


def reference_generate(spec: SynthSpec) -> list[np.ndarray]:
    """Each domain's raw float32 features, every block drawn whole in float64."""
    ss = np.random.SeedSequence(spec.seed)
    ss_means, ss_patterns, *domain_seeds = ss.spawn(2 + spec.n_domains)
    means = _class_means(np.random.default_rng(ss_means), spec.n_classes, spec.dim_core)
    patterns = _spur_patterns(np.random.default_rng(ss_patterns), spec.n_classes, spec.dim_spur)
    out = []
    for e, dseed in enumerate(domain_seeds):
        rng = np.random.default_rng(dseed)
        n = spec.samples_per_domain
        labels = _balanced_labels(rng, n, spec.n_classes)
        blocks = []
        if spec.dim_core:
            blocks.append(means[labels] + spec.noise_sigma * rng.normal(size=(n, spec.dim_core)))
        if spec.dim_div:
            blocks.append(e * spec.div_offset + spec.noise_sigma * rng.normal(size=(n, spec.dim_div)))
        if spec.dim_spur:
            own = rng.random(n) < 0.5 * (1.0 + spec.spur_strength[e])
            signs = np.where(own, 1.0, -1.0)[:, None]
            blocks.append(
                signs * patterns[labels] + spec.noise_sigma * rng.normal(size=(n, spec.dim_spur))
            )
        out.append(np.concatenate(blocks, axis=1).astype(np.float32))
    return out


def reference_train_on_sets(main_sets, div_rows, cor_rows, n_classes, config, test_sets):
    """``train_on_sets`` one fold at a time: fold f trains alone on the sets of
    ``main_sets`` outside the domain of ``test_sets[f]``, with its own copies of
    their main and auxiliary rows."""
    counts = [fs.n_train for fs in main_sets]
    starts = np.cumsum([0] + counts)
    results = []
    for test_set in test_sets:
        keep = [i for i, fs in enumerate(main_sets) if fs.domain_id != test_set.domain_id]

        def own(rows):
            if rows is None:
                return None
            return np.concatenate([rows[starts[i]:starts[i + 1]] for i in keep])

        results.append(_reference_fold(
            [main_sets[i] for i in keep], own(div_rows), own(cor_rows), n_classes, config, test_set
        ))
    return results


def _reference_fold(main_sets, div_rows, cor_rows, n_classes, config, test_set):
    x_train = np.concatenate([fs.train for fs in main_sets])
    y_train = np.concatenate([fs.train_labels for fs in main_sets])
    x_val = np.concatenate([fs.val for fs in main_sets])
    y_val = np.concatenate([fs.val_labels for fs in main_sets])
    x_div = div_rows if config.hsic_active else None
    x_cor = cor_rows if config.rew_active else None
    n = x_train.shape[0]

    ss_init, ss_batch, ss_aux = np.random.SeedSequence(config.seed).spawn(3)
    head = MlpHead.for_input(main_sets[0].dim, n_classes, [np.random.default_rng(ss_init)])
    batch_rng = np.random.default_rng(ss_batch)
    aux = None
    prior_floored = False
    if config.rew_active:
        aux = train_rew_auxiliary(
            x_cor, y_train, n_classes, [np.random.default_rng(ss_aux)], [np.arange(n)],
            steps=config.aux_steps, lr=config.aux_lr, batch_size=config.aux_batch_size,
        )
        [prior_floored] = aux.prior_floored.tolist()

    optimizer = AdamW(head.params, lr=config.learning_rate, weight_decay=config.weight_decay)
    log, evals = [], []
    best_acc, best_step = -1.0, -1
    best_state = head.params.copy()
    for step in range(config.steps):
        # the batch of the one head, as a stack of one
        idx = batch_rng.integers(0, n, size=(1, config.batch_size))
        rew_batch = (
            rew_weights(aux, x_cor[idx], y_train[idx], config.temperature)
            if config.rew_active and step >= config.n_anneal
            else None
        )
        # a batch whose raw weights underflow comes back as zeros, refused here
        if rew_batch is not None and not rew_batch.any():
            raise ValidationError(
                f"temperature {config.temperature} underflows reweighting weights to 0; "
                "raise the temperature"
            )
        stats = train_step(
            head, optimizer, x_train[idx], y_train[idx],
            x_div[idx] if config.hsic_active else None, rew_batch, config, step,
        )
        # each term is one head's entry, or one number while it is off
        ce, hsic, mean_weight = (np.ravel(v)[0] for v in (stats.ce, stats.hsic, stats.mean_weight))
        log.append(StepStats(step, float(ce), float(hsic), float(mean_weight), stats.lr))
        if (step + 1) % config.eval_every == 0 or step == config.steps - 1:
            val_acc = accuracy(head, x_val, y_val)
            evals.append(EvalRecord(step=step, val_accuracy=val_acc))
            if val_acc > best_acc:
                best_acc, best_step = val_acc, step
                best_state[...] = head.params

    [test_logits] = head.predict_logits(test_set.features)
    final_test = best_test = _argmax_accuracy(test_logits, test_set.labels)
    if best_step != config.steps - 1:
        final_state = head.params.copy()
        head.params[...] = best_state
        best_test = _argmax_accuracy(head.predict_logits(test_set.features), test_set.labels)
        head.params[...] = final_state
    return TrainResult(
        head=head, log=log, evals=evals, final_val_accuracy=evals[-1].val_accuracy,
        best_val_accuracy=best_acc, best_step=best_step, final_test_accuracy=final_test,
        best_test_accuracy=best_test, test_logits=test_logits, prior_floored=prior_floored,
    )


def train_first(rows, dataset_name, domain_id, ratio, seed):
    """File-order ``rows`` as a ``FeatureSet`` stores them: the rows ``split_mask``
    leaves in training, then its validation rows, each side in file order."""
    mask = split_mask(dataset_name, domain_id, len(rows), ratio, seed)
    return rows[np.concatenate([np.flatnonzero(~mask), np.flatnonzero(mask)])]


def reference_pair_shifts(domains, dataset_name, n_classes, ratio, seed):
    """Each unordered domain pair's (escape_a, escape_b, f_div, f_cor, n_overlap_a,
    n_overlap_b), at the default shrinkage, quantile and bins, for ``domains``,
    (domain_id, file-order float32 rows, labels) triples.

    A domain's training and validation rows are gathered from its file rows by
    its ``split_mask``, once for its fit and again for every pair it is in.
    """
    masks = {d: split_mask(dataset_name, d, len(x), ratio, seed) for d, x, _ in domains}

    def fit(domain_id, rows):
        mask = masks[domain_id]
        mean, cov = fit_gaussian(rows[~mask])
        inv_chol = lower_inverse(regularize_and_factor(cov))
        threshold = estimate_threshold(mahalanobis_sq(mean, inv_chol, rows[mask]))
        return DomainProfile(domain_id, mean, inv_chol, threshold)

    profiles = {d: fit(d, x) for d, x, _ in domains}
    out = {}
    for i, (id_a, x_a, y_a) in enumerate(domains):
        for id_b, x_b, y_b in domains[i + 1 :]:
            train_a, labels_a = x_a[~masks[id_a]], y_a[~masks[id_a]]
            train_b, labels_b = x_b[~masks[id_b]], y_b[~masks[id_b]]
            escape_a = escape_mask(profiles[id_b], train_a)
            escape_b = escape_mask(profiles[id_a], train_b)
            f_div = 0.5 * (float(escape_a.mean()) + float(escape_b.mean()))
            keep_a, keep_b = ~escape_a, ~escape_b
            f_cor = 0.0
            if keep_a.any() or keep_b.any():
                model_a = logme_fit(train_a, labels_a, n_classes)
                model_b = logme_fit(train_b, labels_b, n_classes)
                overlap_a = train_a[keep_a].astype(np.float64)
                overlap_b = train_b[keep_b].astype(np.float64)
                cal_a = calibrate(predict_tilde(model_a, overlap_a), labels_a[keep_a], n_classes)
                cal_b = calibrate(predict_tilde(model_b, overlap_b), labels_b[keep_b], n_classes)
                pooled = np.concatenate([overlap_a, overlap_b])
                p_a = cal_a.apply(predict_tilde(model_a, pooled))
                p_b = cal_b.apply(predict_tilde(model_b, pooled))
                f_cor = min(max(0.5 * float(np.abs(p_a - p_b).sum(axis=1).mean()), 0.0), 1.0)
            out[(id_a, id_b)] = (
                escape_a, escape_b, f_div, f_cor, int(keep_a.sum()), int(keep_b.sum())
            )
    return out
