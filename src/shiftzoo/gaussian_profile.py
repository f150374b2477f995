"""Diversity shift: per-domain Gaussian fits and escape-probability estimation.

Each domain's training features are summarised by a Gaussian (mean plus
1/n-normalised covariance). A point "escapes" a domain when its squared
Mahalanobis distance exceeds that domain's threshold, which is calibrated as
the empirical 99th percentile of distances on the domain's own validation
split. The diversity shift between two domains is the symmetrised escape
fraction of their training rows under each other's fit:

    F_div(a, b) = 0.5 * ( P[train_a escapes b] + P[train_b escapes a] )

``dataset_diversity`` fits each domain once per call; a pair only scores
each side's training rows against the other side's fit.

Distances are taken against the lower Cholesky factor L of the regularised
covariance. The threshold comes from a triangular solve with L. Escape flags
take a fast path: one matrix product with the precomputed inverse factor
L^-1, whose distances differ from the solve's only by round-off. A guard band
of 64 * d * eps * kappa * threshold (kappa = ||L||_F * ||L^-1||_F) bounds
that round-off. If any row's distance falls inside the band around the
threshold, the whole batch is solved with L instead, so every flag is the
one the triangular solve gives. The fallback must solve the whole batch:
OpenBLAS's solve of a row depends on the batch the row is solved in.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np
import scipy.linalg

from .errors import NumericalError, ValidationError
from .feature_store import FeatureSet

DEFAULT_SHRINKAGE = 1e-3
DEFAULT_QUANTILE = 0.99


@dataclass(frozen=True)
class DomainProfile:
    """Gaussian summary of one domain plus its calibrated escape threshold."""

    domain_id: str
    mean: np.ndarray
    chol: np.ndarray
    threshold: float
    inv_chol: np.ndarray
    band: float  # distances closer than this to the threshold take the exact solve


@dataclass(frozen=True)
class PairDiversity:
    """Diversity shift for one unordered domain pair.

    ``escape_a`` flags train rows of ``a`` escaping ``b``'s fit (and vice
    versa); the complements form the overlap set used downstream.
    """

    domain_a: str
    domain_b: str
    f_div: float
    escape_a: np.ndarray
    escape_b: np.ndarray


def fit_gaussian(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column mean and 1/n-normalised covariance of the rows of ``x``."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValidationError(f"expected a 2-D matrix, got shape {x.shape}")
    if x.shape[0] < 2:
        raise ValidationError(f"need at least 2 rows to fit a Gaussian, got {x.shape[0]}")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / x.shape[0]
    return mean, cov


def regularize_and_factor(cov: np.ndarray, shrinkage: float = DEFAULT_SHRINKAGE) -> np.ndarray:
    """Lower Cholesky factor of cov + shrinkage * (trace(cov)/d) * I."""
    cov = np.asarray(cov, dtype=np.float64)
    if shrinkage < 0:
        raise ValidationError(f"shrinkage must be >= 0, got {shrinkage}")
    d = cov.shape[0]
    ridge = shrinkage * (float(np.trace(cov)) / d)
    regularized = cov + ridge * np.eye(d)
    try:
        return np.linalg.cholesky(regularized)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "covariance is not positive definite even after regularisation; "
            "features may be degenerate (try a larger shrinkage)"
        ) from exc


def mahalanobis_sq(mean: np.ndarray, chol: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Squared Mahalanobis distances of rows of ``x`` via triangular solve."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    diff = x - mean
    # solve L y = diff^T, then d^2 = ||y||^2 columnwise
    y = scipy.linalg.solve_triangular(chol, diff.T, lower=True, check_finite=False)
    return np.sum(y * y, axis=0)


def estimate_threshold(distances: np.ndarray, quantile: float = DEFAULT_QUANTILE) -> float:
    """Empirical quantile as an order statistic, ties resolved upward.

    With k = ceil((1-quantile) * n), returns the (k+1)-th largest value, so
    exactly the k largest distances sit strictly above the threshold when
    values are distinct (e.g. 1..100 at 0.99 gives 99).
    """
    distances = np.asarray(distances, dtype=np.float64).ravel()
    n = distances.shape[0]
    if n == 0:
        raise ValidationError("cannot estimate a threshold from zero distances")
    if not 0.0 < quantile < 1.0:
        raise ValidationError(f"quantile must be in (0,1), got {quantile}")
    # epsilon guards against float noise in (1-q)*n pushing ceil one step up
    k = max(1, int(np.ceil((1.0 - quantile) * n - 1e-9)))
    idx = max(n - k - 1, 0)
    return float(np.sort(distances)[idx])


def fit_profile(
    fs: FeatureSet,
    shrinkage: float = DEFAULT_SHRINKAGE,
    quantile: float = DEFAULT_QUANTILE,
) -> DomainProfile:
    """Fit the Gaussian on the train split, calibrate the threshold on validation."""
    train = fs.train_features
    val = fs.val_features
    if val.shape[0] == 0:
        raise ValidationError(
            f"domain '{fs.domain_id}' has an empty validation split; cannot calibrate threshold"
        )
    mean, cov = fit_gaussian(train)
    if np.trace(cov) == 0.0:
        # the ridge scales with the trace, so no shrinkage makes this factorable
        raise NumericalError(
            f"features of domain '{fs.domain_id}' have zero variance (every training row "
            "is the same), so no Gaussian can be fitted; for a trained head's logits "
            "this means training collapsed (try a lower learning rate)"
        )
    chol = regularize_and_factor(cov, shrinkage)
    threshold = estimate_threshold(mahalanobis_sq(mean, chol, val), quantile)
    d = chol.shape[0]
    inv_chol = scipy.linalg.solve_triangular(chol, np.eye(d), lower=True, check_finite=False)
    kappa = float(np.linalg.norm(chol)) * float(np.linalg.norm(inv_chol))
    band = 64.0 * d * float(np.finfo(np.float64).eps) * kappa * threshold
    return DomainProfile(
        domain_id=fs.domain_id,
        mean=mean,
        chol=chol,
        threshold=threshold,
        inv_chol=inv_chol,
        band=band,
    )


def escape_mask(profile: DomainProfile, x: np.ndarray) -> np.ndarray:
    """True where a row's squared distance strictly exceeds the threshold.

    Equal, flag for flag, to ``mahalanobis_sq(mean, chol, x) > threshold``
    on the whole batch ``x``. Float32 rows are widened (exactly) inside the
    subtraction of the mean, so no float64 copy of ``x`` is made.
    """
    x = np.atleast_2d(x)
    y = np.subtract(x, profile.mean, dtype=np.float64) @ profile.inv_chol.T
    d2 = np.einsum("ij,ij->i", y, y)
    # written so that a NaN distance or an infinite band also falls back
    if (np.abs(d2 - profile.threshold) > profile.band).all():
        return d2 > profile.threshold
    return mahalanobis_sq(profile.mean, profile.chol, x) > profile.threshold


def diversity_shift(
    fs_a: FeatureSet,
    fs_b: FeatureSet,
    profile_a: DomainProfile,
    profile_b: DomainProfile,
) -> PairDiversity:
    """Symmetrised escape fraction between two fitted domains of one encoder."""
    if fs_a.dim != fs_b.dim:
        raise ValidationError(
            f"domains '{fs_a.domain_id}' and '{fs_b.domain_id}' have different dims "
            f"({fs_a.dim} vs {fs_b.dim})"
        )
    if (profile_a.domain_id, profile_b.domain_id) != (fs_a.domain_id, fs_b.domain_id):
        raise ValidationError("domain profiles do not match the given feature sets")
    # the stored float32 rows: escape_mask widens them to float64 as it centres them
    escape_a = escape_mask(profile_b, fs_a.features[~fs_a.split_mask])
    escape_b = escape_mask(profile_a, fs_b.features[~fs_b.split_mask])
    f_div = 0.5 * (float(escape_a.mean()) + float(escape_b.mean()))
    return PairDiversity(
        domain_a=fs_a.domain_id,
        domain_b=fs_b.domain_id,
        f_div=f_div,
        escape_a=escape_a,
        escape_b=escape_b,
    )


def dataset_diversity(
    feature_sets: Sequence[FeatureSet],
    shrinkage: float = DEFAULT_SHRINKAGE,
    quantile: float = DEFAULT_QUANTILE,
) -> tuple[float, dict[tuple[str, str], PairDiversity]]:
    """Mean diversity shift over all unordered domain pairs, plus pair detail."""
    if len(feature_sets) < 2:
        raise ValidationError("need at least two domains to estimate diversity shift")
    fitted = [(fs, fit_profile(fs, shrinkage, quantile)) for fs in feature_sets]
    pairs: dict[tuple[str, str], PairDiversity] = {}
    for (fs_a, profile_a), (fs_b, profile_b) in combinations(fitted, 2):
        pair = diversity_shift(fs_a, fs_b, profile_a, profile_b)
        pairs[(fs_a.domain_id, fs_b.domain_id)] = pair
    value = float(np.mean([p.f_div for p in pairs.values()]))
    return value, pairs
