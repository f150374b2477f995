"""Diversity shift: per-domain Gaussian fits and escape-probability estimation.

Each domain's training features are summarised by a Gaussian (mean plus
1/n-normalised covariance). A point "escapes" a domain when its squared
Mahalanobis distance exceeds that domain's threshold, which is calibrated as
the empirical 99th percentile of distances on the domain's own validation
split. The diversity shift between two domains is the symmetrised escape
fraction of their training rows under each other's fit:

    F_div(a, b) = 0.5 * ( P[train_a escapes b] + P[train_b escapes a] )

``dataset_diversity`` fits each domain once per call; a pair only scores
each side's training rows against the other side's fit. Every fit, threshold
and score reads a set's ``train`` / ``val`` views, its stored float32 rows,
which the distances widen to float64 as they centre them.

Distances are taken against the inverse L^-1 of the lower Cholesky factor L
of the regularised covariance: a triangular product and a row-wise sum of
squares. Rows go through in blocks of about 1 MiB, each centred into one
float64 scratch block and multiplied by L^-1 in place with BLAS ``dtrmm``
(numpy's own OpenBLAS, through ctypes, which releases the GIL while profile
workers score their encoders), so a call's memory does not grow with its row
count. Without that routine, numpy's matrix product with L^-T is used. The
threshold and the escape flags come from that same product, so a validation
row that sets the threshold sits exactly on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .blas_threads import BLOCK_DOUBLES, ROW_ALIGN, lapack_routine
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

    ``inv_chol`` is L^-1, lower triangular: its upper triangle is not read.
    The rows go in blocks of about ``BLOCK_DOUBLES`` values, cut at multiples
    of ``ROW_ALIGN`` rows, which on one OpenBLAS thread keep the bits of one
    whole-batch ``dtrmm``. Each block is copied into the call's one float64
    scratch block (float32 rows widen exactly, and no float64 copy of ``x``
    is made), centred there, multiplied in place by L^-1 with BLAS ``dtrmm``
    on numpy's own OpenBLAS, and summed row by row into the output. So a call
    allocates one block and the output, whatever its row count; each call has
    its own scratch, as profile workers call at once. Where ``lapack_routine``
    finds no ``dtrmm``, numpy's product with L^-T scores all rows at once;
    its distances may differ from ``dtrmm``'s in the last bit.
    """
    x = np.atleast_2d(x)
    n, d = x.shape
    if np.shape(inv_chol) != (d, d):
        raise ValidationError(f"L^-1 of shape {np.shape(inv_chol)} does not fit {d}-wide rows")
    dtrmm = lapack_routine("dtrmm")
    if dtrmm is None:
        y = np.subtract(x, mean, dtype=np.float64) @ inv_chol.T
        return np.einsum("ij,ij->i", y, y)
    inv_chol = np.asfortranarray(inv_chol, dtype=np.float64)
    ld = max(d, 1)  # BLAS refuses a leading dimension of 0
    rows = max(ROW_ALIGN, BLOCK_DOUBLES // ld // ROW_ALIGN * ROW_ALIGN)
    scratch = np.empty((min(rows, n), d))
    out = np.empty(n)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        block = scratch[: stop - start]
        block[...] = x[start:stop]  # a widening copy, then a same-dtype subtract: one
        block -= mean  # ufunc buffer, where a mixed-dtype subtract takes two
        dtrmm(b"L", b"L", b"N", b"N", d, stop - start, 1.0, inv_chol, ld, block, ld)
        np.einsum("ij,ij->i", block, block, out=out[start:stop])
    return out


def _tail_count(n: int, quantile: float) -> int:
    """k = max(1, ceil((1-quantile) * n)): how many of n distances sit above the threshold."""
    if not 0.0 < quantile < 1.0:
        raise ValidationError(f"quantile must be in (0,1), got {quantile}")
    # epsilon guards against float noise in (1-q)*n pushing ceil one step up
    return max(1, int(np.ceil((1.0 - quantile) * n - 1e-9)))


def estimate_threshold(distances: np.ndarray, quantile: float = DEFAULT_QUANTILE) -> float:
    """Empirical quantile as an order statistic, ties resolved upward.

    With k = ceil((1-quantile) * n), returns the (k+1)-th largest value, so
    exactly the k largest distances sit strictly above the threshold when
    values are distinct (e.g. 1..100 at 0.99 gives 99). Needs n > k.
    """
    distances = np.asarray(distances, dtype=np.float64).ravel()
    n = distances.shape[0]
    k = _tail_count(n, quantile)
    if n <= k:
        raise ValidationError(f"{n} distances have no ({k}+1)-th largest; need more than {k}")
    return float(np.sort(distances)[n - k - 1])


def fit_profile(
    fs: FeatureSet,
    shrinkage: float = DEFAULT_SHRINKAGE,
    quantile: float = DEFAULT_QUANTILE,
) -> DomainProfile:
    """Fit the Gaussian on the train split, calibrate the threshold on validation."""
    n_val, k = len(fs.val), _tail_count(len(fs.val), quantile)
    if n_val <= k:
        raise ValidationError(
            f"domain '{fs.domain_id}' has {n_val} validation rows; calibrating its threshold "
            f"at quantile {quantile} needs more than {k}"
        )
    mean, cov = fit_gaussian(fs.train)
    if np.trace(cov) == 0.0:
        # the ridge scales with the trace, so no shrinkage makes this factorable
        raise NumericalError(
            f"features of domain '{fs.domain_id}' have zero variance (every training row "
            "is the same), so no Gaussian can be fitted"
        )
    inv_chol = lower_inverse(regularize_and_factor(cov, shrinkage))
    threshold = estimate_threshold(mahalanobis_sq(mean, inv_chol, fs.val), quantile)
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
    escape_a = escape_mask(profile_b, fs_a.train)
    escape_b = escape_mask(profile_a, fs_b.train)
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
