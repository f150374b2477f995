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

All gradients are computed analytically (manual backprop); parameters update
with Adam plus decoupled weight decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .feature_store import FeatureSet, ZooManifest, load_domain_features
from .hsic import KernelSpec, hsic_b_value_and_grad

P_FLOOR = 1e-6
WEIGHT_CLIP = 100.0

MODES = ("erm", "rew", "hsic", "both")


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
    dropout: float = 0.0
    seed: int = 0
    eval_every: int = 100
    aux_lr: float = 1e-5
    aux_steps: int = 1000
    aux_batch_size: int = 16

    def __post_init__(self) -> None:
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
        if not 0.0 <= self.dropout < 1.0:
            raise ValidationError(f"dropout must be in [0,1), got {self.dropout}")
        if self.eval_every < 1:
            raise ValidationError("eval_every must be >= 1")

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

    ``for_input`` builds the standard three-layer shape: input, half the
    input width, 256 (512 when the input is 2048-dimensional), classes.
    """

    def __init__(self, dims: Sequence[int], rng: np.random.Generator | int = 0, dropout: float = 0.0):
        dims = [int(d) for d in dims]
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ValidationError(f"invalid layer dims {dims}")
        if not 0.0 <= dropout < 1.0:
            raise ValidationError(f"dropout must be in [0,1), got {dropout}")
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        self.dims = tuple(dims)
        self.dropout = float(dropout)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            scale = math.sqrt(2.0 / fan_in)
            self.weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))

    @classmethod
    def for_input(
        cls,
        in_dim: int,
        n_classes: int,
        rng: np.random.Generator | int = 0,
        dropout: float = 0.0,
    ) -> "MlpHead":
        if in_dim < 1 or n_classes < 2:
            raise ValidationError(f"bad head shape: in_dim={in_dim}, n_classes={n_classes}")
        hidden2 = 512 if in_dim == 2048 else 256
        return cls((in_dim, max(in_dim // 2, 1), hidden2, n_classes), rng, dropout)

    def parameters(self) -> list[np.ndarray]:
        params: list[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            params.extend((w, b))
        return params

    def get_state(self) -> list[np.ndarray]:
        return [p.copy() for p in self.parameters()]

    def set_state(self, state: Sequence[np.ndarray]) -> None:
        params = self.parameters()
        if len(state) != len(params):
            raise ValidationError("parameter state has the wrong length")
        for p, s in zip(params, state):
            p[...] = s

    def forward(
        self, x: np.ndarray, dropout_rng: np.random.Generator | None = None
    ) -> tuple[np.ndarray, dict]:
        h = np.asarray(x, dtype=np.float64)
        if h.ndim != 2 or h.shape[1] != self.dims[0]:
            raise ValidationError(f"input shape {h.shape} does not match head input {self.dims[0]}")
        acts = [h]
        pre = []
        masks: list[np.ndarray | None] = []
        keep = 1.0 - self.dropout
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w + b
            if i == len(self.weights) - 1:
                logits = z
                break
            pre.append(z)
            h = np.maximum(z, 0.0)
            if self.dropout > 0.0 and dropout_rng is not None:
                mask = dropout_rng.random(h.shape) >= self.dropout
                h = h * mask / keep
                masks.append(mask)
            else:
                masks.append(None)
            acts.append(h)
        return logits, {"acts": acts, "pre": pre, "masks": masks}

    def backward(self, cache: dict, dlogits: np.ndarray) -> list[np.ndarray]:
        """Gradients aligned with ``parameters()`` for the cached forward pass."""
        acts, pre, masks = cache["acts"], cache["pre"], cache["masks"]
        keep = 1.0 - self.dropout
        n_layers = len(self.weights)
        grads_w = [np.empty(0)] * n_layers
        grads_b = [np.empty(0)] * n_layers
        delta = dlogits
        for i in range(n_layers - 1, -1, -1):
            grads_w[i] = acts[i].T @ delta
            grads_b[i] = delta.sum(axis=0)
            if i == 0:
                break
            da = delta @ self.weights[i].T
            if masks[i - 1] is not None:
                da = da * masks[i - 1] / keep
            delta = da * (pre[i - 1] > 0.0)
        out: list[np.ndarray] = []
        for gw, gb in zip(grads_w, grads_b):
            out.extend((gw, gb))
        return out

    def predict_logits(self, x: np.ndarray) -> np.ndarray:
        logits, _ = self.forward(x, dropout_rng=None)
        return logits


class AdamW:
    """Adam with bias correction and decoupled weight decay."""

    def __init__(
        self,
        params: Sequence[np.ndarray],
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params: Sequence[np.ndarray], grads: Sequence[np.ndarray]) -> None:
        if len(params) != len(self.m) or len(grads) != len(self.m):
            raise ValidationError("optimizer state does not match parameter list")
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


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def weighted_cross_entropy(
    logits: np.ndarray, labels: np.ndarray, weights: np.ndarray
) -> tuple[float, np.ndarray]:
    """Weighted mean CE and its gradient with respect to the logits."""
    m = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1)) + logits.max(axis=1)
    ce_rows = lse - logits[np.arange(m), labels]
    ce = float(np.mean(weights * ce_rows))
    dlogits = softmax(logits)
    dlogits[np.arange(m), labels] -= 1.0
    dlogits *= (weights / m)[:, None]
    return ce, dlogits


@dataclass(frozen=True)
class RewAuxiliary:
    """Linear softmax classifier over frozen auxiliary features."""

    weights: np.ndarray  # (dim, n_classes)
    bias: np.ndarray
    class_prior: np.ndarray
    prior_floored: bool

    def predict_proba(self, z: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(np.asarray(z, dtype=np.float64))
        return softmax(z @ self.weights + self.bias)


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
    """Train the reweighting classifier by cross-entropy with Adam."""
    z = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    if z.ndim != 2 or z.shape[0] != y.shape[0] or z.shape[0] == 0:
        raise ValidationError("auxiliary features and labels must be non-empty and aligned")
    if np.unique(y).size < 2:
        raise ValidationError("reweighting classifier needs at least 2 classes present")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    prior, floored = class_prior(y, n_classes)
    w = np.zeros((z.shape[1], n_classes))
    b = np.zeros(n_classes)
    opt = AdamW([w, b], lr=lr)
    n = z.shape[0]
    for _ in range(steps):
        idx = rng.integers(0, n, size=batch_size)
        zb, yb = z[idx], y[idx]
        probs = softmax(zb @ w + b)
        probs[np.arange(len(idx)), yb] -= 1.0
        probs /= len(idx)
        opt.step([w, b], [zb.T @ probs, probs.sum(axis=0)])
    return RewAuxiliary(weights=w, bias=b, class_prior=prior, prior_floored=floored)


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
    """Per-sample weights for a batch: smoothed, clipped at 100, mean 1."""
    if math.isinf(temperature):
        return np.ones(len(labels))
    probs = aux.predict_proba(z)
    p_y = np.maximum(probs[np.arange(len(labels)), labels], P_FLOOR)
    raw = (aux.class_prior[labels] / p_y) ** (1.0 / temperature)
    return batch_weights(np.minimum(raw, WEIGHT_CLIP))


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
    weights: np.ndarray,
    aux_div: np.ndarray | None = None,
    lam: float = 0.0,
    gamma1: float = 0.1,
    gamma2: float = 0.5,
    dropout_rng: np.random.Generator | None = None,
) -> tuple[float, float, float, list[np.ndarray]]:
    """Combined loss and parameter gradients for one batch.

    Returns (total, ce, hsic, grads) with total = ce + lam * hsic. An
    inactive penalty is lam = 0 and aux_div = None; the HSIC gradient flows
    through the logits only, the auxiliary kernel is constant.
    """
    logits, cache = head.forward(x, dropout_rng=dropout_rng)
    ce, dlogits = weighted_cross_entropy(logits, labels, weights)
    hsic_val = 0.0
    if lam > 0 and aux_div is not None:
        hsic_val, hsic_grad = hsic_b_value_and_grad(
            logits, aux_div, KernelSpec(gamma1), KernelSpec(gamma2)
        )
        dlogits = dlogits + lam * hsic_grad
    total = ce + lam * hsic_val
    return total, ce, hsic_val, head.backward(cache, dlogits)


def train_step(
    head: MlpHead,
    optimizer: AdamW,
    x: np.ndarray,
    labels: np.ndarray,
    aux_div: np.ndarray | None,
    rew_batch: np.ndarray | None,
    config: TrainConfig,
    step_index: int,
    dropout_rng: np.random.Generator | None = None,
) -> StepStats:
    """One optimisation step of the gated combined loss.

    ``rew_batch`` holds candidate sample weights; they only apply once
    ``step_index`` reaches ``n_anneal``. The HSIC penalty only applies once
    ``step_index`` reaches ``n_warmup`` and lambda is positive.
    """
    m = x.shape[0]
    use_hsic = config.hsic_active and step_index >= config.n_warmup
    if use_hsic and m < 2:
        raise ValidationError("HSIC penalty needs batch size >= 2")
    if rew_batch is not None and step_index >= config.n_anneal:
        weights = np.asarray(rew_batch, dtype=np.float64)
    else:
        weights = np.ones(m)
    total, ce, hsic_val, grads = head_loss_and_grads(
        head,
        x,
        labels,
        weights,
        aux_div=aux_div if use_hsic else None,
        lam=config.lam if use_hsic else 0.0,
        gamma1=config.gamma1,
        gamma2=config.gamma2,
        dropout_rng=dropout_rng,
    )
    if not math.isfinite(total):
        raise NumericalError(
            f"non-finite loss at step {step_index} (ce={ce}, hsic={hsic_val}); "
            "try a lower learning rate"
        )
    optimizer.step(head.parameters(), grads)
    return StepStats(
        step=step_index,
        ce=ce,
        hsic=hsic_val,
        total=total,
        mean_weight=float(weights.mean()),
        lr=config.learning_rate,
    )


@dataclass(frozen=True)
class EvalRecord:
    step: int
    val_accuracy: float


@dataclass
class TrainResult:
    """Trained head plus the full step log and checkpoint metrics.

    ``head`` carries the final-step parameters; ``best_state`` is the
    parameter snapshot with the highest pooled validation accuracy.
    """

    head: MlpHead
    best_state: list[np.ndarray]
    log: list[StepStats]
    evals: list[EvalRecord]
    final_val_accuracy: float
    best_val_accuracy: float
    best_step: int
    final_test_accuracy: float | None
    best_test_accuracy: float | None
    prior_floored: bool
    config: TrainConfig


def accuracy(head: MlpHead, x: np.ndarray, labels: np.ndarray) -> float:
    if x.shape[0] == 0:
        raise ValidationError("cannot evaluate accuracy on an empty set")
    return float((head.predict_logits(x).argmax(axis=1) == labels).mean())


def _check_aligned(main: Sequence[FeatureSet], other: Sequence[FeatureSet], name: str) -> None:
    if len(main) != len(other):
        raise ValidationError(f"{name} features cover {len(other)} domains, expected {len(main)}")
    for a, b in zip(main, other):
        if a.domain_id != b.domain_id or a.n_samples != b.n_samples:
            raise ValidationError(f"{name} features misaligned on domain '{a.domain_id}'")
        if not np.array_equal(a.labels, b.labels) or not np.array_equal(a.split_mask, b.split_mask):
            raise ValidationError(
                f"{name} features disagree with main encoder rows on domain '{a.domain_id}'"
            )


def train_on_sets(
    main_sets: Sequence[FeatureSet],
    div_sets: Sequence[FeatureSet] | None,
    cor_sets: Sequence[FeatureSet] | None,
    n_classes: int,
    config: TrainConfig,
    test_sets: Sequence[FeatureSet] | None = None,
) -> TrainResult:
    """Train the head on pooled training-domain rows of aligned feature views."""
    if not main_sets:
        raise ValidationError("need at least one training domain")
    if config.hsic_active:
        if div_sets is None:
            raise ValidationError("HSIC penalty requires diversity-auxiliary features")
        _check_aligned(main_sets, div_sets, "diversity-auxiliary")
        if config.batch_size < 2:
            raise ValidationError("HSIC penalty needs batch size >= 2")
    if config.rew_active:
        if cor_sets is None:
            raise ValidationError("reweighting requires correlation-auxiliary features")
        _check_aligned(main_sets, cor_sets, "correlation-auxiliary")

    x_train = np.concatenate([fs.train_features for fs in main_sets], axis=0)
    y_train = np.concatenate([fs.train_labels for fs in main_sets])
    x_val = np.concatenate([fs.val_features for fs in main_sets], axis=0)
    y_val = np.concatenate([fs.val_labels for fs in main_sets])
    if x_train.shape[0] == 0 or x_val.shape[0] == 0:
        raise ValidationError("training and validation pools must be non-empty")
    x_div = (
        np.concatenate([fs.train_features for fs in div_sets], axis=0)
        if config.hsic_active
        else None
    )
    x_cor = (
        np.concatenate([fs.train_features for fs in cor_sets], axis=0)
        if config.rew_active
        else None
    )

    ss = np.random.SeedSequence(config.seed)
    ss_init, ss_batch, ss_aux, ss_drop = ss.spawn(4)
    head = MlpHead.for_input(
        x_train.shape[1], n_classes, rng=np.random.default_rng(ss_init), dropout=config.dropout
    )
    dropout_rng = np.random.default_rng(ss_drop) if config.dropout > 0 else None
    batch_rng = np.random.default_rng(ss_batch)

    aux = None
    prior_floored = False
    if config.rew_active:
        aux = train_rew_auxiliary(
            x_cor,
            y_train,
            n_classes,
            rng=np.random.default_rng(ss_aux),
            steps=config.aux_steps,
            lr=config.aux_lr,
            batch_size=config.aux_batch_size,
        )
        prior_floored = aux.prior_floored

    optimizer = AdamW(head.parameters(), lr=config.learning_rate, weight_decay=config.weight_decay)
    n = x_train.shape[0]
    log: list[StepStats] = []
    evals: list[EvalRecord] = []
    best_acc, best_step = -1.0, -1
    best_state = head.get_state()
    for step in range(config.steps):
        idx = batch_rng.integers(0, n, size=config.batch_size)
        candidate = (
            rew_weights(aux, x_cor[idx], y_train[idx], config.temperature)
            if config.rew_active
            else None
        )
        stats = train_step(
            head,
            optimizer,
            x_train[idx],
            y_train[idx],
            x_div[idx] if config.hsic_active else None,
            candidate,
            config,
            step,
            dropout_rng=dropout_rng,
        )
        log.append(stats)
        if (step + 1) % config.eval_every == 0 or step == config.steps - 1:
            val_acc = accuracy(head, x_val, y_val)
            evals.append(EvalRecord(step=step, val_accuracy=val_acc))
            if val_acc > best_acc:
                best_acc, best_step = val_acc, step
                best_state = head.get_state()

    final_val = evals[-1].val_accuracy
    final_test = best_test = None
    if test_sets:
        x_test = np.concatenate(
            [fs.features.astype(np.float64) for fs in test_sets], axis=0
        )
        y_test = np.concatenate([fs.labels for fs in test_sets])
        final_test = accuracy(head, x_test, y_test)
        best = MlpHead(head.dims, rng=0, dropout=head.dropout)
        best.set_state(best_state)
        best_test = accuracy(best, x_test, y_test)
    return TrainResult(
        head=head,
        best_state=best_state,
        log=log,
        evals=evals,
        final_val_accuracy=final_val,
        best_val_accuracy=best_acc,
        best_step=best_step,
        final_test_accuracy=final_test,
        best_test_accuracy=best_test,
        prior_floored=prior_floored,
        config=config,
    )


def train(
    manifest: ZooManifest,
    main_encoder_id: str,
    div_aux_id: str | None,
    rew_aux_id: str | None,
    config: TrainConfig,
    target_domain: str,
) -> TrainResult:
    """Leave-one-domain-out fold: train on all domains except the target."""
    if target_domain not in manifest.domain_ids:
        raise ValidationError(f"unknown target domain '{target_domain}'")
    train_domains = [d for d in manifest.domain_ids if d != target_domain]
    if not train_domains:
        raise ValidationError("need at least one training domain besides the target")
    if config.hsic_active and div_aux_id is None:
        raise ValidationError("HSIC penalty requires a diversity auxiliary encoder id")
    if config.rew_active and rew_aux_id is None:
        raise ValidationError("reweighting requires a correlation auxiliary encoder id")

    def sets_for(encoder_id: str, domains: Sequence[str]) -> list[FeatureSet]:
        return [
            load_domain_features(manifest, encoder_id, dom, seed=config.seed) for dom in domains
        ]

    main_sets = sets_for(main_encoder_id, train_domains)
    div_sets = sets_for(div_aux_id, train_domains) if config.hsic_active else None
    cor_sets = sets_for(rew_aux_id, train_domains) if config.rew_active else None
    test_sets = sets_for(main_encoder_id, [target_domain])
    return train_on_sets(main_sets, div_sets, cor_sets, manifest.n_classes, config, test_sets)


def logit_feature_sets(head: MlpHead, sets: Sequence[FeatureSet]) -> list[FeatureSet]:
    """Push each domain's features through the head; logits become features.

    Labels and split masks carry over, so the shift estimators can profile
    the trained representation exactly like any encoder.
    """
    out = []
    for fs in sets:
        logits = head.predict_logits(fs.features.astype(np.float64))
        out.append(
            FeatureSet(
                domain_id=fs.domain_id,
                features=logits.astype(np.float32),
                labels=fs.labels,
                split_mask=fs.split_mask,
            )
        )
    return out
