"""Biased HSIC estimator with Gaussian kernels, plus its analytic gradient.

HSIC_b(K, L) = (1/m^2) trace(K H L H) with H = I - (1/m) 11^T. Since H is
symmetric and idempotent, trace(K H L H) = sum((H K H) * L), so everything
reads one matrix, the centred kernel H K H, computed in float64 as

    K_ij - rowmean(K)_i - rowmean(K)_j + mean(K)

without materialising H. Its elementwise product with L is the weight
matrix of the gradient, and the value is that matrix's sum over m^2. The
gradient is taken with respect to the first argument's inputs only; the
second kernel is a constant.

A training step's batch is a few dozen rows, so the cost is the number of
numpy calls: each kernel is built and centred in place. Reductions call
``np.add.reduce``, which ``mean`` and ``sum`` run, so the bits are those of
``np.mean`` and ``np.sum``.

Every function also takes a stack of batches, (F, m, d), one per head of a
stack, and each batch gets the bits it gets on its own. ``centred_kernel``
builds the second argument's kernel for a stack of any depth at once, say
(S, F, m, d) for S steps; each step hands its (F, m, m) part to
``hsic_b_value_and_grad`` in place of the rows, with the bits the rows give.
HSIC_b is linear in the centred kernel, so penalties against several second
arguments add up to one against the sum of their centred kernels.
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

    The squared distances are clamped at 0 and exactly 0 on the diagonal;
    they, their scaling and the ``exp`` share one m x m buffer per matrix.
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
    """The centred Gaussian kernel H K H of a batch, or of each batch of a
    stack, (..., m, m). Indexing takes the same part of it."""

    centred: np.ndarray

    def __getitem__(self, index) -> "CentredKernel":
        return CentredKernel(self.centred[index])


def centred_kernel(z: np.ndarray, spec: KernelSpec) -> CentredKernel:
    """The ``CentredKernel`` of the rows of ``z``, (..., m, d), for each of its
    (m, d) batches: the Gaussian kernel, centred in place."""
    k = gaussian_kernel_matrix(z, spec)
    lead, m = k.shape[:-2], k.shape[-1]
    mean = np.add.reduce(k.reshape(*lead, m * m), -1) / (m * m)
    row_mean = np.add.reduce(k, -1) / m
    k -= row_mean[..., :, None]
    k -= row_mean[..., None, :]
    k += mean[..., None, None]
    return CentredKernel(k)


def hsic_b_value_and_grad(
    z_first: np.ndarray,
    z_second: np.ndarray | CentredKernel,
    spec_first: KernelSpec,
    spec_second: KernelSpec,
) -> tuple[float | np.ndarray, np.ndarray]:
    """HSIC value and its gradient wrt ``z_first`` in one pass.

    For stacks of paired batches, (F, m, d1) and (F, m, d2), the value is an
    array of F values and the gradient a stack of F gradients. ``z_second``
    is the rows, whose kernel is built with ``spec_second``, or their
    ``centred_kernel``, (F, m, m), with the same bits; ``spec_second`` is
    then not read. Unpaired or misshapen inputs raise ``ValidationError``.
    """
    z_first = np.asarray(z_first, dtype=np.float64)
    if isinstance(z_second, CentredKernel):
        k, paired = z_second, z_second.centred.shape[:-1]
    else:
        k, paired = None, np.shape(z_second)[:-1]
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
    # trace(KHLH) = sum((HKH) * L): the centred kernel times L, in L's place,
    # is the weight matrix of the gradient, and its sum is m^2 times the value
    w = np.multiply(k.centred, l, out=l)
    value = np.add.reduce(w.reshape(*lead, mm), -1) / mm
    grad = np.add.reduce(w, -1)[..., None] * z_first
    grad -= w @ z_first
    grad *= -4.0 * spec_first.effective_gamma(z_first.shape[-1]) / mm
    return value, grad
