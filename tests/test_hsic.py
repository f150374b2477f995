"""HSIC estimator against naive oracles, plus gradient finite-difference checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_utils import (
    hsic_b,
    hsic_from_kernels,
    reference_gaussian_kernel,
    reference_hsic_b_value_and_grad,
)

from shiftzoo.errors import ValidationError
from shiftzoo.hsic import (
    KernelSpec,
    centred_kernel,
    gaussian_kernel_matrix,
    hsic_b_value_and_grad,
)


def naive_kernel(z: np.ndarray, gamma_eff: float) -> np.ndarray:
    m = z.shape[0]
    k = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            diff = z[i] - z[j]
            k[i, j] = math.exp(-gamma_eff * float(diff @ diff))
    return k


def naive_hsic(z1: np.ndarray, z2: np.ndarray, g1: float, g2: float) -> float:
    # Textbook form: (1/m^2) trace(K H L H) with H materialised explicitly.
    m = z1.shape[0]
    l = naive_kernel(z1, g1)
    k = naive_kernel(z2, g2)
    h = np.eye(m) - np.full((m, m), 1.0 / m)
    return float(np.trace(k @ h @ l @ h)) / (m * m)


@pytest.mark.parametrize("m,d1,d2,seed", [(2, 1, 1, 0), (5, 3, 2, 1), (16, 4, 4, 2), (33, 2, 7, 3)])
def test_hsic_matches_explicit_trace(m, d1, d2, seed):
    rng = np.random.default_rng(seed)
    z1 = rng.normal(size=(m, d1))
    z2 = rng.normal(size=(m, d2))
    s1, s2 = KernelSpec(0.1), KernelSpec(0.5)
    got = hsic_b(z1, z2, s1, s2)
    want = naive_hsic(z1, z2, 0.1 / d1, 0.5 / d2)
    assert abs(got - want) < 1e-12


def test_kernel_matrix_matches_naive():
    rng = np.random.default_rng(4)
    z = rng.normal(size=(9, 3))
    [got] = gaussian_kernel_matrix(z[None], KernelSpec(2.1))
    want = naive_kernel(z, 2.1 / 3)
    np.testing.assert_allclose(got, want, atol=1e-13)
    assert np.allclose(np.diag(got), 1.0)


def test_rescale_dim_divides_gamma():
    rng = np.random.default_rng(5)
    z = rng.normal(size=(6, 4))
    [a] = gaussian_kernel_matrix(z[None], KernelSpec(2.0))
    np.testing.assert_allclose(a, reference_gaussian_kernel(z, 0.5), atol=1e-15)


def test_hsic_nonnegative_and_zero_for_constant():
    rng = np.random.default_rng(6)
    z1 = rng.normal(size=(20, 3))
    z2 = np.ones((20, 2))
    # constant input has a constant kernel; centering kills it exactly
    assert hsic_b(z1, z2, KernelSpec(0.1), KernelSpec(0.5)) == pytest.approx(0.0, abs=1e-15)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        v = hsic_b(
            rng.normal(size=(15, 2)), rng.normal(size=(15, 3)), KernelSpec(0.1), KernelSpec(0.5)
        )
        assert v >= -1e-14


def test_hsic_detects_dependence():
    rng = np.random.default_rng(7)
    z = rng.normal(size=(40, 3))
    dependent = hsic_b(z, z.copy(), KernelSpec(0.1), KernelSpec(0.5))
    independent = hsic_b(z, rng.normal(size=(40, 3)), KernelSpec(0.1), KernelSpec(0.5))
    assert dependent > independent > -1e-14
    assert dependent > 1e-3


def test_hsic_joint_permutation_invariance():
    rng = np.random.default_rng(8)
    z1 = rng.normal(size=(25, 2))
    z2 = rng.normal(size=(25, 4))
    perm = rng.permutation(25)
    s1, s2 = KernelSpec(0.1), KernelSpec(0.5)
    assert hsic_b(z1, z2, s1, s2) == pytest.approx(hsic_b(z1[perm], z2[perm], s1, s2), abs=1e-14)


def test_hsic_tiny_batches():
    z = np.array([[1.0, 2.0]])
    assert hsic_b(z, z, KernelSpec(0.1), KernelSpec(0.5)) == pytest.approx(0.0, abs=1e-15)
    empty = np.zeros((0, 2))
    assert hsic_b(empty, empty, KernelSpec(0.1), KernelSpec(0.5)) == 0.0


def test_hsic_rejects_mismatched_rows():
    with pytest.raises(ValidationError):
        hsic_b(np.zeros((3, 2)), np.zeros((4, 2)), KernelSpec(0.1), KernelSpec(0.5))
    with pytest.raises(ValidationError):
        hsic_from_kernels(np.zeros((3, 3)), np.zeros((4, 4)))
    with pytest.raises(ValidationError):
        gaussian_kernel_matrix(np.zeros((1, 4, 2)), KernelSpec(0.0))


@pytest.mark.parametrize("m,d1,d2,seed", [(4, 2, 3, 0), (10, 3, 2, 1), (12, 5, 5, 2)])
def test_hsic_gradient_matches_finite_differences(m, d1, d2, seed):
    rng = np.random.default_rng(seed)
    z1 = rng.normal(size=(m, d1))
    z2 = rng.normal(size=(m, d2))
    s1, s2 = KernelSpec(0.1), KernelSpec(0.5)
    _, [grad] = hsic_b_value_and_grad(z1[None], z2[None], s1, s2)
    h = 1e-6
    fd = np.zeros_like(z1)
    for i in range(m):
        for j in range(d1):
            zp, zm = z1.copy(), z1.copy()
            zp[i, j] += h
            zm[i, j] -= h
            fd[i, j] = (hsic_b(zp, z2, s1, s2) - hsic_b(zm, z2, s1, s2)) / (2 * h)
    denom = max(np.linalg.norm(fd), 1e-12)
    assert np.linalg.norm(grad - fd) / denom < 1e-6


def test_value_and_grad_consistent_with_separate_calls():
    rng = np.random.default_rng(11)
    z1 = rng.normal(size=(8, 3))
    z2 = rng.normal(size=(8, 2))
    s1, s2 = KernelSpec(0.1), KernelSpec(0.5)
    [v], [g] = hsic_b_value_and_grad(z1[None], z2[None], s1, s2)
    assert v == pytest.approx(hsic_b(z1, z2, s1, s2), abs=1e-15)
    # a repeat call returns the same gradient
    np.testing.assert_allclose(g, hsic_b_value_and_grad(z1[None], z2[None], s1, s2)[1][0],
                               atol=1e-15)


def test_one_pair_of_batches_is_a_stack_of_one():
    rng = np.random.default_rng(12)
    z1, z2 = rng.normal(size=(8, 3)), rng.normal(size=(8, 2))
    s1, s2 = KernelSpec(0.1), KernelSpec(0.5)
    value, grad = hsic_b_value_and_grad(z1, z2, s1, s2)
    [stack_value], [stack_grad] = hsic_b_value_and_grad(z1[None], z2[None], s1, s2)
    assert np.float64(value).tobytes() == np.float64(stack_value).tobytes()
    assert grad.tobytes() == stack_grad.tobytes()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    m=st.sampled_from([2, 3, 32, 97]),
    d1=st.integers(1, 6),
    d2=st.integers(1, 16),
    log10_scale=st.floats(-4.0, 3.0),
    gammas=st.sampled_from([(0.1, 0.5), (1.0, 1.0), (5.0, 0.01)]),
    second_float32=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_value_and_grad_match_reference_bitwise(
    m, d1, d2, log10_scale, gammas, second_float32, seed
):
    rng = np.random.default_rng(seed)
    z1 = rng.normal(size=(m, d1)) * 10.0**log10_scale
    z2 = rng.normal(size=(m, d2))
    if second_float32:
        z2 = z2.astype(np.float32)  # a training batch of stored auxiliary rows
    s1, s2 = KernelSpec(gammas[0]), KernelSpec(gammas[1])
    # a stack of one pair of batches
    [value], [grad] = hsic_b_value_and_grad(z1[None], z2[None], s1, s2)
    want_value, want_grad = reference_hsic_b_value_and_grad(z1, z2, s1, s2)
    assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
    assert grad.tobytes() == want_grad.tobytes()
    assert hsic_b(z1, z2, s1, s2) == value
    [kernel] = gaussian_kernel_matrix(z1[None], s1)
    assert kernel.tobytes() == reference_gaussian_kernel(z1, s1.effective_gamma(d1)).tobytes()


@pytest.mark.parametrize("m", [2, 3, 32, 97])
def test_a_block_of_centred_kernels_gives_each_step_the_bits_of_its_rows(m):
    """Kernels built for S steps of F batches at once, (S, F, m, d), give each
    step's value and gradient the bits that step's rows give."""
    rng = np.random.default_rng(m)
    steps, heads = 5, 3
    logits = rng.normal(size=(steps, heads, m, 4)).astype(np.float32)
    rows = rng.normal(size=(steps, heads, m, 12)).astype(np.float32)
    s1, s2 = KernelSpec(0.1), KernelSpec(0.5)
    block = centred_kernel(rows, s2)
    assert block.matrix.shape == block.centred.shape == (steps, heads, m, m)
    assert block.row_mean.shape == (steps, heads, m) and block.mean.shape == (steps, heads)
    for s in range(steps):
        value, grad = hsic_b_value_and_grad(logits[s], block[s], s1, s2)
        want_value, want_grad = hsic_b_value_and_grad(logits[s], rows[s], s1, s2)
        assert value.tobytes() == want_value.tobytes()
        assert grad.tobytes() == want_grad.tobytes()


def test_a_centred_kernel_must_pair_with_the_first_rows():
    s1, s2 = KernelSpec(0.1), KernelSpec(0.5)
    kernel = centred_kernel(np.zeros((2, 5, 3)), s2)
    with pytest.raises(ValidationError, match="must be paired"):
        hsic_b_value_and_grad(np.zeros((2, 4, 3)), kernel, s1, s2)
    with pytest.raises(ValidationError, match="2-D matrices or stacks"):
        hsic_b_value_and_grad(np.zeros((5, 3)), kernel, s1, s2)
