"""Biased HSIC estimator with Gaussian kernels, plus its analytic gradient.

HSIC_b(K, L) = (1/m^2) trace(K H L H) with H = I - (1/m) 11^T. Everything is
computed in float64 via the expanded identity

    mean(K*L) + mean(K) * mean(L) - 2 * mean_i( rowmean(K)_i * rowmean(L)_i )

which avoids materialising the centering matrix. The gradient is taken with
respect to the first argument's inputs only; the second kernel matrix is
treated as a constant.

``hsic_b_value_and_grad`` runs once per training step on a batch of a few
dozen rows, so its cost is the number of numpy calls, not arithmetic: each
kernel is built once, in place, and the means and row means the value needs
are the ones the gradient's centred kernel reuses. The reductions call
``np.add.reduce``, the reduction that ``mean`` and ``sum`` run, so the bits
are those of computing each term on its own with ``np.mean``.
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


def gaussian_kernel_matrix(z: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Pairwise Gaussian kernel matrix of the rows of ``z``.

    The squared distances (clamped at 0, exactly 0 on the diagonal), their
    scaling and the ``exp`` are computed in place in one m x m buffer.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise ValidationError(f"kernel input must be 2-D, got shape {z.shape}")
    gamma = spec.effective_gamma(z.shape[1])
    sq = np.add.reduce(z * z, axis=1)
    gram = z @ z.T
    gram *= 2.0
    k = sq[:, None] + sq[None, :]
    k -= gram
    np.maximum(k, 0.0, out=k)
    k.flat[:: z.shape[0] + 1] = 0.0
    k *= -gamma
    return np.exp(k, out=k)


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
    mm = m * m
    k_mean = np.add.reduce(k, None) / mm
    k_row = np.add.reduce(k, 1) / m
    row_term = np.add.reduce(k_row * (np.add.reduce(l, 1) / m)) / m
    value = (
        float(np.add.reduce(k * l, None) / mm)
        + float(k_mean) * float(np.add.reduce(l, None) / mm)
        - 2.0 * float(row_term)
    )
    if not need_grad:
        return value, np.zeros_like(z_first)

    # trace(KHLH) = sum((HKH) * L); K centred with the row means and mean of
    # the value is the weight matrix of the gradient.
    w = k - k_row[:, None]
    w -= k_row
    w += k_mean
    w *= l
    grad = np.add.reduce(w, 1)[:, None] * z_first
    grad -= w @ z_first
    grad *= -4.0 * spec_first.effective_gamma(z_first.shape[1]) / mm
    return value, grad
