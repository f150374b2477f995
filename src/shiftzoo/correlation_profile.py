"""Correlation shift: evidence-maximised linear readouts compared on overlap rows.

For each domain a one-vs-rest Bayesian linear regression is fit per class by
maximising the log evidence over the prior/noise precisions (alpha, beta)
with MacKay fixed-point updates, run in the eigenbasis of the Gram matrix
Phi^T Phi (the right singular vectors of the feature matrix Phi). Each point
of the iteration is evaluated once: one pass gives its evidence, its
posterior mean and the terms of the next update.
Raw per-class outputs are clamped at zero and L1-normalised into pseudo
probabilities, then recalibrated with equal-width accuracy bins built on the
domain's own overlap rows. The correlation shift between domains a and b is

    F_cor(a, b) = 0.5 * mean_{x in overlap(a) + overlap(b)}
                  sum_y | p_a(y|x) - p_b(y|x) |

clamped into [0, 1]. Overlap rows are the training rows that do not escape
the other domain's Gaussian fit; with no overlap at all the estimate is 0 and
flagged. ``dataset_correlation`` fits each domain at most once per call, and
only when one of its pairs has overlap rows; a pair only calibrates and
compares the two fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .feature_store import FeatureSet
from .gaussian_profile import PairDiversity

DEFAULT_BINS = 10
RESIDUAL_FLOOR = 1e-12
PRECISION_RANGE = (1e-12, 1e12)


@dataclass(frozen=True)
class ClassRegression:
    """Evidence-maximised ridge regression for one one-vs-rest target."""

    weights: np.ndarray
    alpha: float
    beta: float
    evidence: float  # log evidence per sample at (alpha, beta)
    n_iters: int
    clamped: bool
    evidence_trace: tuple[float, ...]


@dataclass(frozen=True)
class EvidenceModel:
    """Per-class regressions sharing the eigenbasis of one Gram matrix Phi^T Phi."""

    n_classes: int
    dim: int
    regressions: tuple[ClassRegression, ...]

    @property
    def weight_matrix(self) -> np.ndarray:
        return np.stack([r.weights for r in self.regressions], axis=1)


def _evidence(
    s: np.ndarray, btilde: np.ndarray, y_sq: float, n: int, d: int, alpha: float, beta: float
) -> tuple[float, np.ndarray, float, float, float]:
    """Per-sample log evidence at (alpha, beta), the posterior mean in the
    eigenbasis, the residual before its floor, the weight norm and the dof.

    ``s`` holds the eigenvalues (squared singular values of Phi); a basis with
    fewer than ``d`` of them counts each missing one as 0.
    """
    denom = alpha + beta * s
    m_tilde = beta * btilde / denom
    res = y_sq - 2.0 * float(m_tilde @ btilde) + float(s @ (m_tilde * m_tilde))
    m_sq = float(m_tilde @ m_tilde)
    gamma = float(np.sum(beta * s / denom))
    log_det = float(np.sum(np.log(denom))) + (d - s.size) * math.log(alpha)
    total = 0.5 * (
        n * math.log(beta)
        + d * math.log(alpha)
        - n * math.log(2.0 * math.pi)
        - beta * max(res, RESIDUAL_FLOOR)
        - alpha * m_sq
        - log_det
    )
    return total / n, m_tilde, res, m_sq, gamma


def log_evidence(
    s: np.ndarray, btilde: np.ndarray, y_sq: float, n: int, d: int, alpha: float, beta: float
) -> float:
    """Per-sample log evidence of a Bayesian ridge model in the eigenbasis of Phi^T Phi."""
    return _evidence(s, btilde, y_sq, n, d, alpha, beta)[0]


def _fit_class(
    s: np.ndarray,
    btilde: np.ndarray,
    y_sq: float,
    n: int,
    d: int,
    max_iters: int,
    tol: float,
) -> tuple[float, float, np.ndarray, float, int, bool, tuple[float, ...]]:
    """MacKay fixed point from alpha = beta = 1; each point is evaluated once."""
    lo, hi = PRECISION_RANGE
    alpha = beta = 1.0
    clamped = False
    ev, m_tilde, res, m_sq, gamma = _evidence(s, btilde, y_sq, n, d, alpha, beta)
    trace = [ev]
    iters = 0
    for iters in range(1, max_iters + 1):
        if res < RESIDUAL_FLOOR:
            res, clamped = RESIDUAL_FLOOR, True
        if m_sq < RESIDUAL_FLOOR:
            m_sq, clamped = RESIDUAL_FLOOR, True
        new_alpha = min(max(gamma / m_sq, lo), hi)
        new_beta = min(max((n - gamma) / res, lo), hi)
        if new_alpha in (lo, hi) or new_beta in (lo, hi):
            clamped = True
        point = _evidence(s, btilde, y_sq, n, d, new_alpha, new_beta)
        if point[0] < trace[-1] - 1e-12:
            # fixed point overshot numerically; keep the best point seen
            iters -= 1
            break
        ev, m_tilde, res, m_sq, gamma = point
        trace.append(ev)
        moved = max(
            abs(new_alpha - alpha) / max(abs(alpha), RESIDUAL_FLOOR),
            abs(new_beta - beta) / max(abs(beta), RESIDUAL_FLOOR),
        )
        alpha, beta = new_alpha, new_beta
        if moved < tol:
            break
    return alpha, beta, m_tilde, trace[-1], iters, clamped, tuple(trace)


def logme_fit(
    features: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    max_iters: int = 100,
    tol: float = 1e-6,
) -> EvidenceModel:
    """Fit per-class one-vs-rest evidence-maximised regressions.

    The eigendecomposition of the Gram matrix Phi^T Phi is computed once and
    shared by all classes.
    """
    phi = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if phi.ndim != 2 or phi.shape[0] == 0:
        raise ValidationError(f"need a non-empty 2-D feature matrix, got shape {phi.shape}")
    if labels.shape != (phi.shape[0],):
        raise ValidationError("labels must align with feature rows")
    if n_classes < 2:
        raise ValidationError(f"need at least 2 classes, got {n_classes}")
    n, d = phi.shape
    # The squared singular values and right singular vectors of Phi are the
    # eigenpairs of the d x d Gram matrix: sorted descending, round-off below
    # 0 clipped. Phi has rank <= n, so when d > n only the top n are kept, as
    # in a thin SVD: the other d - n are 0 up to round-off of either sign, and
    # a positive one would push the effective dof past n (a negative beta
    # update). log_evidence counts each dropped eigenvalue as exactly 0.
    eigvals, eigvecs = np.linalg.eigh(phi.T @ phi)
    keep = min(n, d)
    s = np.maximum(eigvals[::-1][:keep], 0.0)
    vt = eigvecs[:, ::-1][:, :keep].T
    regressions = []
    for k in range(n_classes):
        y = (labels == k).astype(np.float64)
        btilde = vt @ (phi.T @ y)
        alpha, beta, m_tilde, ev, iters, clamped, trace = _fit_class(
            s, btilde, float(y @ y), n, d, max_iters, tol
        )
        weights = vt.T @ m_tilde
        regressions.append(
            ClassRegression(
                weights=weights,
                alpha=alpha,
                beta=beta,
                evidence=ev,
                n_iters=iters,
                clamped=clamped,
                evidence_trace=trace,
            )
        )
    return EvidenceModel(n_classes=n_classes, dim=d, regressions=tuple(regressions))


def predict_tilde(model: EvidenceModel, features: np.ndarray) -> np.ndarray:
    """Pseudo probabilities: clamp raw outputs at 0, L1-normalise each row.

    Rows whose outputs are all clamped fall back to the uniform distribution.
    """
    phi = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if phi.shape[1] != model.dim:
        raise ValidationError(f"feature dim {phi.shape[1]} does not match model dim {model.dim}")
    raw = np.maximum(phi @ model.weight_matrix, 0.0)
    sums = raw.sum(axis=1, keepdims=True)
    out = np.full_like(raw, 1.0 / model.n_classes)
    ok = sums[:, 0] > RESIDUAL_FLOOR
    out[ok] = raw[ok] / sums[ok]
    return out


@dataclass(frozen=True)
class Calibrator:
    """Equal-width accuracy bins over [0, 1], one row of bins per class."""

    n_bins: int
    bin_accuracy: np.ndarray  # (n_classes, n_bins), NaN marks empty bins

    def apply(self, probs: np.ndarray) -> np.ndarray:
        """Replace each probability by its bin's accuracy; empty bins keep it."""
        probs = np.asarray(probs, dtype=np.float64)
        n_classes = self.bin_accuracy.shape[0]
        idx = np.clip((probs * self.n_bins).astype(int), 0, self.n_bins - 1)
        acc = self.bin_accuracy[np.arange(n_classes), idx]
        return np.where(np.isnan(acc), probs, acc)


def _check_bins(n_bins: int) -> None:
    if n_bins < 1:
        raise ValidationError(f"need at least one calibration bin, got {n_bins}")


def calibrate(
    probs: np.ndarray, labels: np.ndarray, n_classes: int, n_bins: int = DEFAULT_BINS
) -> Calibrator:
    """Build the accuracy-bin map from held-in rows; empty bins stay NaN."""
    _check_bins(n_bins)
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    acc = np.full(n_classes * n_bins, np.nan)
    if probs.shape[0] == 0:
        return Calibrator(n_bins=n_bins, bin_accuracy=acc.reshape(n_classes, n_bins))
    if probs.ndim != 2 or probs.shape[1] != n_classes or labels.shape != probs.shape[:1]:
        raise ValidationError(
            f"expected {n_classes} probability columns and one label per row, got "
            f"probabilities {probs.shape} and labels {labels.shape}"
        )
    # one flat (class, bin) cell per entry; counts and hits are whole numbers,
    # so hits / count is the exact mean of the 0/1 hits in the cell
    idx = np.clip((probs * n_bins).astype(int), 0, n_bins - 1)
    cells = (idx + n_bins * np.arange(n_classes)).ravel()
    hits = (labels[:, None] == np.arange(n_classes)).ravel()
    counts = np.bincount(cells, minlength=n_classes * n_bins)
    hit_counts = np.bincount(cells, weights=hits, minlength=n_classes * n_bins)
    np.divide(hit_counts, counts, out=acc, where=counts > 0)
    return Calibrator(n_bins=n_bins, bin_accuracy=acc.reshape(n_classes, n_bins))


@dataclass(frozen=True)
class PairCorrelation:
    """Correlation shift for one unordered domain pair."""

    domain_a: str
    domain_b: str
    f_cor: float
    n_overlap_a: int
    n_overlap_b: int
    empty_overlap: bool


def correlation_shift(
    fs_a: FeatureSet,
    fs_b: FeatureSet,
    pair: PairDiversity,
    model_a: EvidenceModel | None,
    model_b: EvidenceModel | None,
    n_bins: int = DEFAULT_BINS,
) -> PairCorrelation:
    """Mean calibrated-probability gap over the two domains' overlap rows.

    ``model_a``/``model_b`` are the domains' ``logme_fit`` models. They are
    not read when the overlap is empty, so an unfitted domain may pass None.
    """
    if (pair.domain_a, pair.domain_b) != (fs_a.domain_id, fs_b.domain_id):
        raise ValidationError("diversity pair does not match the given feature sets")
    keep_a = ~pair.escape_a
    keep_b = ~pair.escape_b
    n_a, n_b = int(keep_a.sum()), int(keep_b.sum())
    if n_a + n_b == 0:
        return PairCorrelation(
            domain_a=fs_a.domain_id,
            domain_b=fs_b.domain_id,
            f_cor=0.0,
            n_overlap_a=0,
            n_overlap_b=0,
            empty_overlap=True,
        )
    n_classes = model_a.n_classes
    # select the overlap rows before the (exact) float32 -> float64 conversion
    overlap_a = fs_a.features[~fs_a.split_mask][keep_a].astype(np.float64)
    overlap_b = fs_b.features[~fs_b.split_mask][keep_b].astype(np.float64)
    cal_a = calibrate(
        predict_tilde(model_a, overlap_a), fs_a.train_labels[keep_a], n_classes, n_bins
    )
    cal_b = calibrate(
        predict_tilde(model_b, overlap_b), fs_b.train_labels[keep_b], n_classes, n_bins
    )
    pooled = np.concatenate([overlap_a, overlap_b], axis=0)
    p_a = cal_a.apply(predict_tilde(model_a, pooled))
    p_b = cal_b.apply(predict_tilde(model_b, pooled))
    f_cor = 0.5 * float(np.abs(p_a - p_b).sum(axis=1).mean())
    f_cor = min(max(f_cor, 0.0), 1.0)
    return PairCorrelation(
        domain_a=fs_a.domain_id,
        domain_b=fs_b.domain_id,
        f_cor=f_cor,
        n_overlap_a=n_a,
        n_overlap_b=n_b,
        empty_overlap=False,
    )


def dataset_correlation(
    feature_sets: Sequence[FeatureSet],
    pair_diversities: dict[tuple[str, str], PairDiversity],
    n_classes: int,
    n_bins: int = DEFAULT_BINS,
) -> tuple[float, dict[tuple[str, str], PairCorrelation]]:
    """Mean correlation shift over all unordered domain pairs, plus detail."""
    _check_bins(n_bins)
    with_overlap = {
        domain_id
        for key, pdiv in pair_diversities.items()
        if not (pdiv.escape_a.all() and pdiv.escape_b.all())
        for domain_id in key
    }
    models = {
        fs.domain_id: logme_fit(fs.features[~fs.split_mask], fs.train_labels, n_classes)
        for fs in feature_sets
        if fs.domain_id in with_overlap
    }
    by_id = {fs.domain_id: fs for fs in feature_sets}
    pairs: dict[tuple[str, str], PairCorrelation] = {}
    for (ida, idb), pdiv in pair_diversities.items():
        pairs[(ida, idb)] = correlation_shift(
            by_id[ida], by_id[idb], pdiv, models.get(ida), models.get(idb), n_bins
        )
    if not pairs:
        raise ValidationError("need at least one domain pair for correlation shift")
    value = float(np.mean([p.f_cor for p in pairs.values()]))
    return value, pairs
