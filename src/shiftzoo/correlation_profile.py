"""Correlation shift: evidence-maximised linear readouts compared on overlap rows.

For each domain a one-vs-rest Bayesian linear regression is fit per class by
maximising the log evidence over the prior/noise precisions (alpha, beta), in
the eigenbasis of the Gram matrix Phi^T Phi (the right singular vectors of
the feature matrix Phi). With t = alpha / beta the optimal noise precision is
beta*(t) = n / q(t), which leaves one scalar problem in log t: a log-spaced
grid brackets each local maximum of the profiled evidence, a root of its
slope pins it down, and the highest wins.
Raw per-class outputs are clamped at zero and L1-normalised into pseudo
probabilities, then recalibrated with equal-width accuracy bins built on the
domain's own overlap rows. The correlation shift between domains a and b is

    F_cor(a, b) = 0.5 * mean_{x in overlap(a) + overlap(b)}
                  sum_y | p_a(y|x) - p_b(y|x) |

clamped into [0, 1]. Overlap rows are the training rows that do not escape
the other domain's Gaussian fit; with no overlap at all the estimate is 0 and
flagged. ``dataset_correlation`` fits each domain at most once per call, and
only when one of its pairs has overlap rows; a pair only calibrates and
compares the two fits. Fits and overlap rows come from a set's ``train`` view
and ``train_labels``, whose rows are the ones the escape flags are in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .feature_store import FeatureSet
from .gaussian_profile import PairDiversity

DEFAULT_BINS = 10
GRID_STEP = 0.4 * math.log(10.0)  # spacing in log t of the grid that brackets the maxima
ROOT_TOL = 1e-12  # width in log t at which a bracketed root of the slope is taken
EMPTY_CLASS_BETA = 1e12  # noise precision reported for a class without training rows
_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class ClassRegression:
    """Evidence-maximised ridge regression for one one-vs-rest target."""

    weights: np.ndarray
    alpha: float
    beta: float
    evidence: float  # log evidence per sample at (alpha, beta)
    n_iters: int  # rounds that refined roots of the slope in log(alpha / beta)


@dataclass(frozen=True)
class EvidenceModel:
    """Per-class regressions sharing the eigenbasis of one Gram matrix Phi^T Phi."""

    n_classes: int
    dim: int
    regressions: tuple[ClassRegression, ...]

    @property
    def weight_matrix(self) -> np.ndarray:
        return np.stack([r.weights for r in self.regressions], axis=1)


def _evidence(log_t: np.ndarray, s: np.ndarray, v: np.ndarray, r0: float, n: int) -> np.ndarray:
    """Profiled evidence per sample at each log t. With tau = t / (t + s) and
    v = btilde^2 / s, res + t |m|^2 is q = r0 + sum(v tau), beta*(t) = n / q,
    and 2n times the evidence is n log(n / q) - n - n log(2 pi) + sum(log tau).
    """
    tau = 1.0 / (1.0 + s / np.exp(log_t)[:, None])
    return 0.5 * (np.log(n / (r0 + tau @ v)) - 1.0 - _LOG_2PI + np.log(tau).sum(axis=1) / n)


def _slope(log_t: np.ndarray, s: np.ndarray, v: np.ndarray, r0: float, n: int) -> np.ndarray:
    """2n times the derivative of ``_evidence`` in log t at each log t.

    That is gamma - alpha |m|^2 = sum(rho) - n sum(v tau rho) / q, with
    rho = 1 - tau, or equally n (r0 + sum(v tau^2)) / q - (n - k) - sum(tau).
    Each t takes the form whose sums are small, so neither cancels where the
    evidence is flat.
    """
    t = np.exp(log_t)[:, None]
    tau, rho = t / (t + s), s / (t + s)
    q = r0 + tau @ v
    above, below = rho.sum(axis=1), tau.sum(axis=1)
    return np.where(
        above < below,
        above - n * ((tau * rho) @ v) / q,
        n * (r0 + (tau * tau) @ v) / q - (n - s.size) - below,
    )


def _fit_class(
    s: np.ndarray, btilde: np.ndarray, r0: float, n: int, grid: np.ndarray
) -> tuple[float, int]:
    """The t = alpha / beta of highest evidence for one target, and the rounds
    spent refining roots of the slope. The local maxima on the ``grid`` of
    log t are the ends where the slope points outward and the cells where it
    turns from positive to not, each cut into 16 parts round after round
    until the part that holds the turn is ROOT_TOL wide.
    """
    v = btilde * btilde / s
    rising = _slope(grid, s, v, r0, n) > 0
    peaks = [(grid[0], 0)] if not rising[0] else []
    for j in np.flatnonzero(rising[:-1] & ~rising[1:]):
        lo, hi, rounds = grid[j], grid[j + 1], 0
        while hi - lo > ROOT_TOL:
            u = np.linspace(lo, hi, 17)
            turn = 1 + int(np.argmin(_slope(u[1:], s, v, r0, n) > 0))
            lo, hi, rounds = u[turn - 1], u[turn], rounds + 1
        peaks.append((0.5 * (lo + hi), rounds))
    if rising[-1]:
        peaks.append((grid[-1], 0))
    evidence = _evidence(np.array([u for u, _ in peaks]), s, v, r0, n)
    return math.exp(peaks[int(np.argmax(evidence))][0]), sum(rounds for _, rounds in peaks)


def _fit_basis(
    phi: np.ndarray, labels: np.ndarray, n_classes: int, s: np.ndarray, vt: np.ndarray
) -> EvidenceModel:
    """Per-class fits in an eigenbasis of Phi^T Phi: eigenvalues ``s`` in
    descending order, eigenvectors in the rows of ``vt``.

    One rank rule serves the Gram matrix and an SVD of Phi alike: at most n
    eigenvalues, each above max(n, d) * eps * s[0], so round-off is never
    divided by. t runs from eps * s[k-1] to s[0] / eps, past which the
    evidence no longer moves in double precision.
    """
    n, d = phi.shape
    eps = np.finfo(np.float64).eps
    k = min(n, d, int(np.count_nonzero(s > s[0] * max(n, d) * eps)))
    if k == 0:
        raise NumericalError("features have no nonzero entry, so LogME has no direction to fit")
    s, vt = s[:k, None], vt[:k]
    lo, hi = math.log(eps * s[-1, 0]), math.log(s[0, 0] / eps)
    grid = np.linspace(lo, hi, 1 + math.ceil((hi - lo) / GRID_STEP))
    targets = (labels[:, None] == np.arange(n_classes)).astype(np.float64)
    btilde = vt @ (phi.T @ targets)

    def outside(coef: np.ndarray) -> np.ndarray:  # |y - Phi V coef|^2 for each target
        return np.sum((targets - phi @ (vt.T @ coef)) ** 2, axis=0)

    # r0: the part of y outside the span, exactly 0 when k = n. With btilde = 0
    # the evidence only rises with t, to the top of the range; y = 0 also has
    # q = 0 there and an evidence unbounded in beta, so beta = EMPTY_CLASS_BETA.
    r0 = outside(btilde / s) if k < n else np.zeros(n_classes)
    fits = [
        _fit_class(s[:, 0], col, r, n, grid) if col.any() else (math.exp(hi), 0)
        for col, r in zip(btilde.T, r0)
    ]
    t = np.array([t_c for t_c, _ in fits])
    # q = res + t |m|^2 at t, with y's share along the directions below t
    # from the residual, not from btilde^2 / s, which a small s holds badly
    above = s >= t
    q = np.where(above, btilde**2 * t / (s * (t + s)), -(btilde**2) / (t + s)).sum(axis=0)
    if k < n or not above.all():
        q += outside(np.where(above, btilde / s, 0.0))
    beta = np.divide(n, q, out=np.full(n_classes, EMPTY_CLASS_BETA), where=q > 0)
    evidence = 0.5 * (np.log(beta) - beta * q / n - _LOG_2PI + np.log(t / (t + s)).sum(axis=0) / n)
    weights = (vt.T @ (btilde / (t + s))).T
    regressions = [
        ClassRegression(w, float(a), float(b), float(e), rounds)
        for w, a, b, e, (_, rounds) in zip(weights, t * beta, beta, evidence, fits)
    ]
    return EvidenceModel(n_classes=n_classes, dim=d, regressions=tuple(regressions))


def logme_fit(features: np.ndarray, labels: np.ndarray, n_classes: int) -> EvidenceModel:
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
    eigvals, eigvecs = np.linalg.eigh(phi.T @ phi)
    return _fit_basis(phi, labels, n_classes, eigvals[::-1], eigvecs[:, ::-1].T)


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
    ok = sums[:, 0] > 1e-12
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
    f_cor = 0.0
    if n_a + n_b:
        n_classes = model_a.n_classes
        # select the overlap rows before the (exact) float32 -> float64 conversion
        overlap_a = fs_a.train[keep_a].astype(np.float64)
        overlap_b = fs_b.train[keep_b].astype(np.float64)
        cal_a = calibrate(
            predict_tilde(model_a, overlap_a), fs_a.train_labels[keep_a], n_classes, n_bins
        )
        cal_b = calibrate(
            predict_tilde(model_b, overlap_b), fs_b.train_labels[keep_b], n_classes, n_bins
        )
        pooled = np.concatenate([overlap_a, overlap_b], axis=0)
        p_a = cal_a.apply(predict_tilde(model_a, pooled))
        p_b = cal_b.apply(predict_tilde(model_b, pooled))
        f_cor = min(max(0.5 * float(np.abs(p_a - p_b).sum(axis=1).mean()), 0.0), 1.0)
    return PairCorrelation(
        fs_a.domain_id, fs_b.domain_id, f_cor, n_a, n_b, empty_overlap=n_a + n_b == 0
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
        fs.domain_id: logme_fit(fs.train, fs.train_labels, n_classes)
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
