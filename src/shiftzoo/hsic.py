"""Biased HSIC estimator with Gaussian kernels, plus its analytic gradient.

HSIC_b(K, L) = (1/m^2) trace(K H L H) with H = I - (1/m) 11^T. Everything is
computed in float64 via the expanded identity

    mean(K*L) + mean(K) * mean(L) - 2 * mean_i( rowmean(K)_i * rowmean(L)_i )

which avoids materialising the centering matrix. The gradient is taken with
respect to the first argument's inputs only; the second kernel matrix is
treated as a constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian kernel k(z, z') = exp(-gamma_eff * ||z - z'||^2).

    With ``rescale_dim`` the bandwidth parameter is divided by the feature
    dimension, keeping kernel values in a usable range as width varies.
    """

    gamma: float
    rescale_dim: bool = True

    def effective_gamma(self, dim: int) -> float:
        if self.gamma <= 0:
            raise ValidationError(f"kernel gamma must be positive, got {self.gamma}")
        if self.rescale_dim:
            if dim < 1:
                raise ValidationError("cannot rescale kernel bandwidth for dim < 1")
            return self.gamma / dim
        return self.gamma


def _sq_dists(z: np.ndarray) -> np.ndarray:
    sq = np.sum(z * z, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (z @ z.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


def gaussian_kernel_matrix(z: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Pairwise Gaussian kernel matrix of the rows of ``z``."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise ValidationError(f"kernel input must be 2-D, got shape {z.shape}")
    gamma = spec.effective_gamma(z.shape[1])
    return np.exp(-gamma * _sq_dists(z))


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


def hsic_b_value_and_grad(
    z_first: np.ndarray,
    z_second: np.ndarray,
    spec_first: KernelSpec,
    spec_second: KernelSpec,
    need_grad: bool = True,
) -> tuple[float, np.ndarray]:
    """HSIC value and (optionally) its gradient wrt ``z_first`` in one pass."""
    z_first = np.asarray(z_first, dtype=np.float64)
    z_second = np.asarray(z_second, dtype=np.float64)
    if z_first.ndim != 2 or z_second.ndim != 2:
        raise ValidationError("HSIC inputs must be 2-D matrices")
    if z_first.shape[0] != z_second.shape[0]:
        raise ValidationError(
            f"HSIC inputs must be paired: {z_first.shape[0]} vs {z_second.shape[0]} rows"
        )
    m = z_first.shape[0]
    if m == 0:
        return 0.0, np.zeros_like(z_first)

    l = gaussian_kernel_matrix(z_first, spec_first)
    k = gaussian_kernel_matrix(z_second, spec_second)
    value = hsic_from_kernels(k, l)
    if not need_grad:
        return value, np.zeros_like(z_first)

    # trace(KHLH) = sum((HKH) * L); centering K once gives both the value
    # identity and the weight matrix for the gradient.
    row = k.mean(axis=1)
    k_centered = k - row[:, None] - row[None, :] + k.mean()
    w = k_centered * l
    gamma = spec_first.effective_gamma(z_first.shape[1])
    grad = (-4.0 * gamma / (m * m)) * (
        w.sum(axis=1)[:, None] * z_first - w @ z_first
    )
    return value, grad
