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

Every function also takes a stack of batches, shape (F, m, d): one batch per
head of a stack that trains F heads at once. Every numpy call then serves
all F batches, and each batch gets the bits it gets on its own. The second
argument's kernel reads nothing the gradient moves, so ``centred_kernel``
builds it, with the statistics the value and gradient read of it, for a
stack of any depth at once, say (S, F, m, d) for S training steps; each
step then hands its (F, m, m) part to ``hsic_b_value_and_grad`` in place of
the rows, with the bits the rows give.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian kernel k(z, z') = exp(-(gamma / dim) * ||z - z'||^2).

    The bandwidth parameter is divided by the feature dimension, keeping
    kernel values in a usable range as width varies.
    """

    gamma: float

    def effective_gamma(self, dim: int) -> float:
        if self.gamma <= 0:
            raise ValidationError(f"kernel gamma must be positive, got {self.gamma}")
        if dim < 1:
            raise ValidationError("cannot rescale kernel bandwidth for dim < 1")
        return self.gamma / dim


def gaussian_kernel_matrix(z: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Pairwise Gaussian kernel matrix of the rows of ``z``, or of each matrix of a stack.

    The squared distances (clamped at 0, exactly 0 on the diagonal), their
    scaling and the ``exp`` are computed in place in one m x m buffer per
    matrix.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim < 2:
        raise ValidationError(f"kernel input must be 2-D or a stack of 2-D, got shape {z.shape}")
    m = z.shape[-2]
    gamma = spec.effective_gamma(z.shape[-1])
    sq = np.add.reduce(z * z, axis=-1)
    gram = z @ np.swapaxes(z, -1, -2)
    gram *= 2.0
    k = sq[..., :, None] + sq[..., None, :]
    k -= gram
    np.maximum(k, 0.0, out=k)
    k.reshape(*k.shape[:-2], m * m)[..., :: m + 1] = 0.0
    k *= -gamma
    return np.exp(k, out=k)


@dataclass(frozen=True)
class CentredKernel:
    """A Gaussian kernel K of a batch, or of each batch of a stack, with what
    HSIC reads of it: its mean, its row means and K centred with both,
    K_ij - row_i - row_j + mean. Indexing takes the same part of each."""

    matrix: np.ndarray
    mean: np.ndarray
    row_mean: np.ndarray
    centred: np.ndarray

    def __getitem__(self, index) -> "CentredKernel":
        return CentredKernel(
            self.matrix[index], self.mean[index], self.row_mean[index], self.centred[index]
        )


def centred_kernel(z: np.ndarray, spec: KernelSpec) -> CentredKernel:
    """The ``CentredKernel`` of the rows of ``z``, (..., m, d), for each of its
    (m, d) batches."""
    k = gaussian_kernel_matrix(z, spec)
    lead, m = k.shape[:-2], k.shape[-1]
    mean = np.add.reduce(k.reshape(*lead, m * m), -1) / (m * m)
    row_mean = np.add.reduce(k, -1) / m
    centred = k - row_mean[..., :, None]
    centred -= row_mean[..., None, :]
    centred += mean[..., None, None]
    return CentredKernel(k, mean, row_mean, centred)


def hsic_b_value_and_grad(
    z_first: np.ndarray,
    z_second: np.ndarray | CentredKernel,
    spec_first: KernelSpec,
    spec_second: KernelSpec,
) -> tuple[float | np.ndarray, np.ndarray]:
    """HSIC value and its gradient wrt ``z_first`` in one pass.

    For stacks of paired batches, (F, m, d1) and (F, m, d2), the value is an
    array of F values and the gradient a stack of F gradients. ``z_second``
    is either the rows, whose kernel is built with ``spec_second``, or the
    ``centred_kernel`` of such rows, (F, m, m), which a caller may build for
    many steps at once; ``spec_second`` is then not read. Either gives the
    same bits.
    """
    z_first = np.asarray(z_first, dtype=np.float64)
    if isinstance(z_second, CentredKernel):
        k, paired = z_second, z_second.row_mean.shape
    else:
        z_second = np.asarray(z_second, dtype=np.float64)
        k, paired = None, z_second.shape[:-1]
    if z_first.ndim < 2 or len(paired) != z_first.ndim - 1:
        raise ValidationError("HSIC inputs must be 2-D matrices or stacks of them")
    if z_first.shape[:-1] != paired:
        raise ValidationError(
            f"HSIC inputs must be paired: {z_first.shape[:-1]} vs {paired} rows"
        )
    lead, m = z_first.shape[:-2], z_first.shape[-2]
    if m == 0:
        return np.zeros(lead)[()], np.zeros_like(z_first)

    l = gaussian_kernel_matrix(z_first, spec_first)
    if k is None:
        k = centred_kernel(z_second, spec_second)
    mm = m * m
    # each matrix flattened: a reduction over it is one reduction over mm values
    k_all, l_all = k.matrix.reshape(*lead, mm), l.reshape(*lead, mm)
    row_term = np.add.reduce(k.row_mean * (np.add.reduce(l, -1) / m), -1) / m
    value = (
        np.add.reduce(k_all * l_all, -1) / mm
        + k.mean * (np.add.reduce(l_all, -1) / mm)
        - 2.0 * row_term
    )

    # trace(KHLH) = sum((HKH) * L): the centred kernel times L, in L's place,
    # is the weight matrix of the gradient
    w = np.multiply(k.centred, l, out=l)
    grad = np.add.reduce(w, -1)[..., None] * z_first
    grad -= w @ z_first
    grad *= -4.0 * spec_first.effective_gamma(z_first.shape[-1]) / mm
    return value, grad
