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

Distances are taken against the inverse L^-1 of the lower Cholesky factor L
of the regularised covariance: one matrix product and a row-wise sum of
squares. The threshold and the escape flags come from that same product, so a
validation row that sets the threshold sits exactly on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .blas_threads import lapack_routine
from .errors import NumericalError, ValidationError
from .feature_store import FeatureSet

DEFAULT_SHRINKAGE = 1e-3
DEFAULT_QUANTILE = 0.99


@dataclass(frozen=True)
class DomainProfile:
    """Gaussian summary of one domain plus its calibrated escape threshold."""

    domain_id: str
    mean: np.ndarray
    inv_chol: np.ndarray
    threshold: float


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
    """Column mean and 1/n-normalised covariance of the rows of ``x``.

    Float32 rows are widened inside the mean and the centring, not copied;
    for C-ordered rows the bits equal those of widening first.
    """
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValidationError(f"expected a 2-D matrix, got shape {x.shape}")
    if x.shape[0] < 2:
        raise ValidationError(f"need at least 2 rows to fit a Gaussian, got {x.shape[0]}")
    mean = x.mean(axis=0, dtype=np.float64)
    centered = np.subtract(x, mean, dtype=np.float64)
    cov = centered.T @ centered / x.shape[0]
    return mean, cov


def regularize_and_factor(cov: np.ndarray, shrinkage: float = DEFAULT_SHRINKAGE) -> np.ndarray:
    """Lower Cholesky factor of cov + shrinkage * (trace(cov)/d) * I."""
    cov = np.asarray(cov, dtype=np.float64)
    if not 0 <= shrinkage < np.inf:
        raise ValidationError(f"shrinkage must be finite and >= 0, got {shrinkage}")
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


def lower_inverse(chol: np.ndarray) -> np.ndarray:
    """L^-1 of a lower triangular L, Fortran-ordered.

    LAPACK's ``dtrtrs`` on numpy's own OpenBLAS overwrites an identity with
    the solution X of L X = I, reading C-ordered L as the upper triangle of
    its Fortran-ordered transpose: the call, and so the bits, of
    ``scipy.linalg.solve_triangular(chol, eye, lower=True)``. The call
    releases the GIL. Where ``lapack_routine`` finds no ``dtrtrs``, numpy's
    general solve gives X, its upper triangle zeroed. An exact zero on L's
    diagonal raises ``NumericalError`` naming it.
    """
    chol = np.ascontiguousarray(chol, dtype=np.float64)
    if chol.ndim != 2 or chol.shape[0] != chol.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {chol.shape}")
    d = chol.shape[0]
    dtrtrs = lapack_routine("dtrtrs")
    if dtrtrs is None:
        zeros = np.flatnonzero(np.diagonal(chol) == 0.0)
        if zeros.size:  # dtrtrs's test; a general solve need not see it
            raise NumericalError(
                f"the {d}-wide Cholesky factor is singular at diagonal {zeros[0] + 1}"
            )
        return np.asfortranarray(np.tril(np.linalg.solve(chol, np.eye(d))))
    inv = np.eye(d, order="F")
    info = dtrtrs(b"U", b"T", b"N", d, d, chol, d, inv, d)
    if info != 0:
        raise NumericalError(
            f"LAPACK dtrtrs returned info={info} for the {d}-wide Cholesky factor"
            + (f": it is singular at diagonal {info}" if info > 0 else "")
        )
    return inv


def mahalanobis_sq(mean: np.ndarray, inv_chol: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Squared Mahalanobis distances ||(x - mean) L^-T||^2 of the rows of ``x``.

    Float32 rows are widened (exactly) inside the subtraction of the mean, so
    no float64 copy of ``x`` is made.
    """
    y = np.subtract(np.atleast_2d(x), mean, dtype=np.float64) @ inv_chol.T
    return np.einsum("ij,ij->i", y, y)


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
    # the stored float32 rows: fit_gaussian and mahalanobis_sq widen them
    train = fs.features[~fs.split_mask]
    val = fs.features[fs.split_mask]
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
    inv_chol = lower_inverse(regularize_and_factor(cov, shrinkage))
    threshold = estimate_threshold(mahalanobis_sq(mean, inv_chol, val), quantile)
    return DomainProfile(domain_id=fs.domain_id, mean=mean, inv_chol=inv_chol, threshold=threshold)


def escape_mask(profile: DomainProfile, x: np.ndarray) -> np.ndarray:
    """True where a row's squared distance strictly exceeds the threshold."""
    return mahalanobis_sq(profile.mean, profile.inv_chol, x) > profile.threshold


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
    # the stored float32 rows: mahalanobis_sq widens them to float64 as it centres them
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
