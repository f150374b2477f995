"""Gaussian fitting, Mahalanobis distances, thresholds, and diversity shift."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.stats import chi2

from oracle_utils import gemm_mahalanobis_sq, reference_mahalanobis_sq
from shiftzoo import gaussian_profile
from shiftzoo.blas_threads import BLOCK_DOUBLES, ROW_ALIGN, single_blas_thread
from shiftzoo.errors import NumericalError, ValidationError
from shiftzoo.feature_store import build_feature_set
from shiftzoo.gaussian_profile import (
    DomainProfile,
    dataset_diversity,
    diversity_shift,
    escape_mask,
    estimate_threshold,
    fit_gaussian,
    fit_profile,
    lower_inverse,
    mahalanobis_sq,
    regularize_and_factor,
)


def _make_set(domain_id, x, y, n_classes=2, seed=0, ratio=0.2):
    return build_feature_set(
        domain_id, x, y, dataset_name="t", n_classes=n_classes, split_ratio=ratio, seed=seed
    )


def _pair(fa, fb):
    return diversity_shift(fa, fb, fit_profile(fa), fit_profile(fb))


def _fit(x, shrinkage):
    """Mean and inverse Cholesky factor L^-1 of the rows of ``x``."""
    mean, cov = fit_gaussian(x)
    return mean, np.linalg.inv(regularize_and_factor(cov, shrinkage))


def test_fit_gaussian_matches_numpy_biased_cov():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(50, 4))
    mean, cov = fit_gaussian(x)
    np.testing.assert_allclose(mean, x.mean(axis=0), atol=1e-14)
    np.testing.assert_allclose(cov, np.cov(x.T, bias=True), atol=1e-13)


def test_fit_gaussian_rejects_tiny_input():
    with pytest.raises(ValidationError):
        fit_gaussian(np.zeros((1, 3)))


def test_regularization_is_trace_scaled():
    cov = np.diag([1.0, 3.0])
    chol = regularize_and_factor(cov, shrinkage=0.5)
    # ridge = 0.5 * (4/2) = 1, so the factor is chol(diag(2, 4))
    np.testing.assert_allclose(chol, np.diag([np.sqrt(2.0), 2.0]), atol=1e-15)


def test_degenerate_covariance_raises_numerical_error():
    with pytest.raises(NumericalError):
        regularize_and_factor(np.zeros((3, 3)), shrinkage=1e-3)


def test_zero_variance_domain_is_named():
    rng = np.random.default_rng(3)
    flat = _make_set("flat", np.full((100, 3), 2.5), rng.integers(0, 2, size=100))
    live = _make_set("live", rng.normal(size=(100, 3)), rng.integers(0, 2, size=100))
    # trace 0 makes the trace-scaled ridge 0, whatever the shrinkage
    for call in (lambda: fit_profile(flat, shrinkage=10.0), lambda: dataset_diversity([live, flat])):
        with pytest.raises(NumericalError, match="domain 'flat' have zero variance"):
            call()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    row=st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        min_size=1, max_size=6,
    ),
    n=st.integers(5, 300),
    val_noise=st.sampled_from([0.0, 1e-30, 1.0, 1e30]),
)
def test_identical_training_rows_end_in_the_zero_variance_error(row, n, val_noise):
    """Any all-identical training split is named, never a traceback or a NaN."""
    rng = np.random.default_rng(n)
    x = np.tile(np.asarray(row, dtype=np.float32), (n, 1))
    flat = _make_set("flat", x, rng.integers(0, 2, size=n))
    # two validation rows, the fewest a threshold needs (also for ``live``)
    assume(flat.n_train >= 2 and len(flat.val) >= 2)
    # validation rows may differ from the training rows
    noisy = flat.features.copy()
    noisy[flat.n_train :] += (val_noise * rng.normal(size=flat.val.shape)).astype(np.float32)
    flat = replace(flat, features=noisy)
    assume(np.isfinite(flat.features).all())
    live = _make_set("live", rng.normal(size=(n, len(row))), rng.integers(0, 2, size=n))
    for call in (lambda: fit_profile(flat), lambda: dataset_diversity([live, flat])):
        with pytest.raises(NumericalError, match="domain 'flat' have zero variance"):
            call()


def test_mahalanobis_matches_explicit_inverse():
    rng = np.random.default_rng(1)
    fs = _make_set("a", rng.normal(size=(200, 5)), rng.integers(0, 2, size=200))
    profile = fit_profile(fs, shrinkage=1e-3)
    mean, cov = fit_gaussian(fs.train)
    # the profile's L^-1 inverts the Cholesky factor of the regularised covariance
    chol = regularize_and_factor(cov, shrinkage=1e-3)
    np.testing.assert_allclose(profile.inv_chol @ chol, np.eye(5), atol=1e-12)
    reg = cov + 1e-3 * (np.trace(cov) / 5) * np.eye(5)
    inv = np.linalg.inv(reg)
    q = rng.normal(size=(30, 5))
    diff = q - mean
    want = np.einsum("ij,jk,ik->i", diff, inv, diff)
    got = mahalanobis_sq(profile.mean, profile.inv_chol, q)
    np.testing.assert_allclose(got, want, rtol=1e-10)


@pytest.mark.parametrize("width", [1, 4, 12, 103, 192, 256])
def test_lower_inverse_has_the_bits_of_solve_triangular(width):
    rng = np.random.default_rng(width)
    x = rng.normal(size=(width + 8, width))
    chol = regularize_and_factor(x.T @ x / (width + 8))
    want = solve_triangular(chol, np.eye(width), lower=True, check_finite=False)
    got = lower_inverse(chol)
    assert got.flags.f_contiguous
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [1, 3, 7])
def test_lower_inverse_names_the_zero_diagonal(k):
    """dtrtrs reports an exact zero at diagonal k as info=k."""
    if gaussian_profile.lapack_routine("dtrtrs") is None:
        pytest.skip("numpy links no OpenBLAS that exports dtrtrs here")
    chol = np.tril(np.random.default_rng(k).normal(size=(7, 7))) + 4 * np.eye(7)
    chol[k - 1, k - 1] = 0.0
    with pytest.raises(NumericalError, match=rf"LAPACK dtrtrs returned info={k} .*diagonal {k}"):
        lower_inverse(chol)


@pytest.mark.parametrize("k", [1, 3, 7])
def test_lower_inverse_without_lapack_names_the_zero_diagonal(k, monkeypatch):
    monkeypatch.setattr(gaussian_profile, "lapack_routine", lambda name: None)
    chol = np.tril(np.random.default_rng(k).normal(size=(7, 7))) + 4 * np.eye(7)
    chol[k - 1, k - 1] = 0.0
    with pytest.raises(NumericalError, match=rf"singular at diagonal {k}$"):
        lower_inverse(chol)


@pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 2, 2)])
def test_lower_inverse_rejects_a_non_square_factor(shape):
    with pytest.raises(ValidationError, match="square"):
        lower_inverse(np.ones(shape))


def test_mahalanobis_accepts_single_row():
    mean = np.zeros(2)
    chol = np.eye(2)
    d = mahalanobis_sq(mean, chol, np.array([3.0, 4.0]))
    assert d.shape == (1,)
    assert d[0] == pytest.approx(25.0)


def _block_rows(width):
    """Rows per block of ``mahalanobis_sq``: about BLOCK_DOUBLES values, a multiple of ROW_ALIGN."""
    return max(ROW_ALIGN, BLOCK_DOUBLES // width // ROW_ALIGN * ROW_ALIGN)


def _mean_and_inverse_factor(width, seed):
    """A fitted mean and L^-1, as ``fit_profile`` makes them, of 2 * width + 8 normal rows."""
    mean, cov = fit_gaussian(np.random.default_rng(seed).normal(size=(2 * width + 8, width)))
    return mean, lower_inverse(regularize_and_factor(cov))


@pytest.mark.parametrize("width", [1, 4, 17, 31, 100, 512, 700])
def test_distances_match_the_whole_batch_product_on_either_side_of_a_block(width):
    block = _block_rows(width)
    mean, inv_chol = _mean_and_inverse_factor(width, width)
    rng = np.random.default_rng(width + 1)
    for n in (1, block - 1, block, block + 1, 3 * block + 5):
        x = (rng.normal(size=(n, width)) + 0.5).astype(np.float32)
        got = mahalanobis_sq(mean, inv_chol, x)
        np.testing.assert_allclose(got, gemm_mahalanobis_sq(mean, inv_chol, x), rtol=1e-13)


@pytest.mark.parametrize("width", [17, 100, 700])
def test_the_block_size_does_not_change_a_distance_on_one_blas_thread(width, monkeypatch):
    """Cuts at multiples of ROW_ALIGN keep the bits of one whole-batch product."""
    mean, inv_chol = _mean_and_inverse_factor(width, width)
    x = np.random.default_rng(width + 2).normal(size=(3001, width)).astype(np.float32)
    with single_blas_thread():
        want = mahalanobis_sq(mean, inv_chol, x)
        # 100 and 250 rows round down to multiples of ROW_ALIGN
        for block_rows in (ROW_ALIGN, 100, 250, len(x)):
            monkeypatch.setattr(gaussian_profile, "BLOCK_DOUBLES", block_rows * width)
            assert mahalanobis_sq(mean, inv_chol, x).tobytes() == want.tobytes(), block_rows


@pytest.mark.parametrize("layout", ["C", "strided"])
def test_a_hand_built_profile_scores_with_any_layout_of_its_inverse_factor(layout):
    width = 37
    mean, inv_chol = _mean_and_inverse_factor(width, 9)
    if layout == "C":
        hand = np.ascontiguousarray(inv_chol)
    else:
        rows = np.zeros((2 * width, width))
        rows[::2] = inv_chol
        hand = rows[::2]
    assert not hand.flags.f_contiguous
    x = np.random.default_rng(10).normal(size=(500, width)).astype(np.float32)
    want = gemm_mahalanobis_sq(mean, inv_chol, x)
    threshold = float(np.median(want))
    profile = DomainProfile(domain_id="a", mean=mean, inv_chol=hand, threshold=threshold)
    got = mahalanobis_sq(profile.mean, profile.inv_chol, x)
    np.testing.assert_allclose(got, want, rtol=1e-13)
    assert got.tobytes() == mahalanobis_sq(mean, inv_chol, x).tobytes()
    np.testing.assert_array_equal(escape_mask(profile, x), got > threshold)


def test_a_batch_allocates_one_row_block_and_the_output():
    """The whole-batch product held two 3200 x 192 float64 arrays, 4.9 MB each."""
    if gaussian_profile.lapack_routine("dtrmm") is None:
        pytest.skip("numpy links no OpenBLAS that exports dtrmm here")
    n, width = 3200, 192
    mean, inv_chol = _mean_and_inverse_factor(width, 3)
    x = np.random.default_rng(4).normal(size=(n, width)).astype(np.float32)
    mahalanobis_sq(mean, inv_chol, x)  # binds dtrmm and sets its argument types
    tracemalloc.start()
    try:
        mahalanobis_sq(mean, inv_chol, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block, out = 8 * _block_rows(width) * width, 8 * n
    assert _block_rows(width) < n
    # besides: numpy's one ufunc buffer (getbufsize() doubles), a few Python objects
    assert peak <= block + out + 8 * np.getbufsize() + 4096, peak


def test_an_inverse_factor_of_another_width_is_refused():
    with pytest.raises(ValidationError, match=r"L\^-1 of shape \(4, 4\) does not fit 3-wide rows"):
        mahalanobis_sq(np.zeros(3), np.eye(4), np.ones((5, 3)))


def test_threshold_on_distinct_integers():
    assert estimate_threshold(np.arange(1.0, 101.0)) == 99.0


def test_threshold_small_samples_and_ties():
    # one distance has no second-largest, so no threshold leaves one row above it
    with pytest.raises(ValidationError, match=r"no \(1\+1\)-th largest; need more than 1"):
        estimate_threshold(np.array([5.0]))
    assert estimate_threshold(np.array([5.0, 3.0])) == 3.0
    assert estimate_threshold(np.full(100, 7.0)) == 7.0
    # k = ceil(0.01*5) = 1, so the second-largest value
    assert estimate_threshold(np.array([1.0, 2.0, 3.0, 4.0, 100.0])) == 4.0
    with pytest.raises(ValidationError):
        estimate_threshold(np.array([]))
    with pytest.raises(ValidationError):
        estimate_threshold(np.array([1.0]), quantile=1.0)


@pytest.mark.parametrize("n, n_val", [(5, 1), (4, 0)])
def test_fit_profile_names_the_domain_with_too_few_validation_rows(n, n_val):
    rng = np.random.default_rng(0)
    fs = _make_set("dom", rng.normal(size=(n, 2)), np.zeros(n, dtype=int))
    assert len(fs.val) == n_val
    with pytest.raises(ValidationError, match=f"domain 'dom' has {n_val} validation rows"):
        fit_profile(fs)


def test_threshold_quantile_parameter():
    vals = np.arange(1.0, 101.0)
    # k = ceil(0.5*100) = 50 -> index 49 -> value 50
    assert estimate_threshold(vals, quantile=0.5) == 50.0


def test_mahalanobis_affine_invariance():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(300, 4))
    q = rng.normal(size=(50, 4))
    base = mahalanobis_sq(*_fit(x, 0.0), q)
    for seed in range(5):
        rng2 = np.random.default_rng(100 + seed)
        qmat, _ = np.linalg.qr(rng2.normal(size=(4, 4)))
        a = qmat @ np.diag(rng2.uniform(0.5, 2.0, size=4))
        b = rng2.normal(size=4)
        xt, qt = x @ a.T + b, q @ a.T + b
        np.testing.assert_allclose(mahalanobis_sq(*_fit(xt, 0.0), qt), base, rtol=1e-8)


def test_threshold_tracks_chi_square_quantile():
    # For well-specified Gaussian data the calibrated threshold should sit
    # near the chi^2_d 0.99 quantile.
    d = 4
    target = chi2.ppf(0.99, d)
    vals = []
    for seed in range(8):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(5000, d)).astype(np.float32)
        y = rng.integers(0, 2, size=5000)
        fs = _make_set("d0", x, y, seed=seed)
        vals.append(fit_profile(fs).threshold)
    assert abs(float(np.mean(vals)) - target) < 0.8


def test_iid_domains_have_baseline_diversity():
    for seed in range(3):
        rng = np.random.default_rng(seed)
        xa = rng.normal(size=(2000, 6)).astype(np.float32)
        xb = rng.normal(size=(2000, 6)).astype(np.float32)
        y = rng.integers(0, 2, size=2000)
        pair = _pair(_make_set("a", xa, y, seed=seed), _make_set("b", xb, y, seed=seed))
        assert 0.0 <= pair.f_div <= 0.03


def test_separated_domains_have_full_diversity():
    rng = np.random.default_rng(3)
    xa = rng.normal(size=(1000, 4)).astype(np.float32)
    xb = (rng.normal(size=(1000, 4)) + 50.0).astype(np.float32)
    y = rng.integers(0, 2, size=1000)
    pair = _pair(_make_set("a", xa, y), _make_set("b", xb, y))
    assert pair.f_div >= 0.999


def test_escape_masks_align_with_train_rows():
    rng = np.random.default_rng(4)
    xa = rng.normal(size=(500, 3)).astype(np.float32)
    xb = rng.normal(size=(500, 3)).astype(np.float32)
    y = rng.integers(0, 2, size=500)
    fa, fb = _make_set("a", xa, y), _make_set("b", xb, y)
    profile_a, profile_b = fit_profile(fa), fit_profile(fb)
    pair = diversity_shift(fa, fb, profile_a, profile_b)
    assert pair.escape_a.shape == (fa.train_features.shape[0],)
    assert pair.escape_b.shape == (fb.train_features.shape[0],)
    assert pair.f_div == pytest.approx(
        0.5 * (pair.escape_a.mean() + pair.escape_b.mean())
    )
    # escape_mask agrees with the fitted profiles
    np.testing.assert_array_equal(
        pair.escape_a, escape_mask(profile_b, fa.train_features)
    )
    np.testing.assert_array_equal(
        pair.escape_b, escape_mask(profile_a, fb.train_features)
    )


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(40, 240),
    d=st.integers(1, 16),
    shrinkage=st.sampled_from([0.0, 1e-3]),
    collinear=st.sampled_from([None, 1e-5, 1e-3]),
    log10_scale=st.floats(0.0, 4.0),
    offset=st.floats(0.0, 3.0),
)
def test_escape_mask_equals_the_full_batch_solve(
    seed, n, d, shrinkage, collinear, log10_scale, offset
):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-log10_scale, log10_scale, size=d)
    xa = rng.normal(size=(n, d))
    xb = rng.normal(size=(n, d)) + offset
    if collinear is not None and d > 1:
        # column 1 repeats column 0 up to noise of relative size `collinear`
        xa[:, 1] = xa[:, 0] + collinear * rng.normal(size=n)
        xb[:, 1] = xb[:, 0] + collinear * rng.normal(size=n)
    y = rng.integers(0, 2, size=n)
    fa = _make_set("a", (xa * scale).astype(np.float32), y, seed=seed % 97)
    fb = _make_set("b", (xb * scale).astype(np.float32), y, seed=seed % 89)
    try:
        profile = fit_profile(fa, shrinkage=shrinkage)
    except NumericalError:
        assume(False)
    chol = regularize_and_factor(fit_gaussian(fa.train)[1], shrinkage)
    val = fa.val_features
    for x in (fb.train_features, fa.train_features, val):
        got = mahalanobis_sq(profile.mean, profile.inv_chol, x)
        solved = reference_mahalanobis_sq(profile.mean, chol, x)
        np.testing.assert_allclose(got, solved, rtol=1e-9)
        # wherever round-off cannot move a distance across the threshold,
        # the flags are the solve's
        clear = np.abs(solved - profile.threshold) > 2e-9 * profile.threshold
        np.testing.assert_array_equal(
            escape_mask(profile, x)[clear], (solved > profile.threshold)[clear]
        )
    # the threshold is one of the validation rows' own distances, so at most
    # k = ceil(0.01 * n_val) of them escape, and exactly k when they are distinct
    k = int(np.ceil(0.01 * len(val) - 1e-9))
    flags = escape_mask(profile, val)
    assert flags.sum() <= k
    d2 = mahalanobis_sq(profile.mean, profile.inv_chol, val)
    if np.unique(d2).size == d2.size:
        assert flags.sum() == k


def test_escape_flags_come_from_the_stored_float32_rows(monkeypatch):
    rng = np.random.default_rng(13)
    y = rng.integers(0, 2, size=400)
    fa = _make_set("a", rng.normal(size=(400, 5)).astype(np.float32), y)
    fb = _make_set("b", (rng.normal(size=(400, 5)) + 0.5).astype(np.float32), y)
    profile_a, profile_b = fit_profile(fa), fit_profile(fb)
    # float32 rows give the float64 rows' flags
    for profile, fs in ((profile_b, fa), (profile_a, fb)):
        rows = fs.train
        assert rows.dtype == np.float32
        np.testing.assert_array_equal(
            escape_mask(profile, rows), escape_mask(profile, fs.train_features)
        )
    # scoring a pair makes no float64 copy of either domain's training rows
    copies = []
    real = type(fa).train_features

    def counting(fs):
        copies.append(fs.domain_id)
        return real.fget(fs)

    monkeypatch.setattr(type(fa), "train_features", property(counting))
    pair = diversity_shift(fa, fb, profile_a, profile_b)
    assert copies == []
    assert pair.escape_a.shape == (fa.n_train,)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 3000),
    d=st.integers(1, 40),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    offset=st.sampled_from([0.0, -50.0, 1e4]),
    seed=st.integers(0, 2**32 - 1),
)
def test_float32_rows_widened_inside_the_fit_and_the_distances(n, d, scale, offset, seed):
    """Mean, covariance and distances of float32 rows equal those of their float64 copy.

    The rows are C-ordered, as the feature store keeps them and masks them.
    """
    rng = np.random.default_rng(seed)
    x = (scale * rng.normal(size=(n, d)) + offset).astype(np.float32)
    wide = x.astype(np.float64)
    mean, cov = fit_gaussian(x)
    mean64, cov64 = fit_gaussian(wide)
    assert mean.tobytes() == mean64.tobytes() and cov.tobytes() == cov64.tobytes()
    chol = regularize_and_factor(cov64, 1e-3)
    assert mahalanobis_sq(mean, chol, x).tobytes() == mahalanobis_sq(mean, chol, wide).tobytes()


@pytest.mark.parametrize("shrinkage", [-1e-3, np.nan, np.inf, -np.inf])
def test_shrinkage_must_be_finite_and_non_negative(shrinkage):
    with pytest.raises(ValidationError, match="shrinkage must be finite and >= 0"):
        regularize_and_factor(np.eye(3), shrinkage)


def test_diversity_rejects_dim_mismatch():
    rng = np.random.default_rng(5)
    y = rng.integers(0, 2, size=50)
    fa = _make_set("a", rng.normal(size=(50, 3)).astype(np.float32), y)
    fb = _make_set("b", rng.normal(size=(50, 4)).astype(np.float32), y)
    with pytest.raises(ValidationError):
        _pair(fa, fb)
    with pytest.raises(ValidationError):
        dataset_diversity([fa, fb])


def test_diversity_rejects_profiles_of_other_domains():
    rng = np.random.default_rng(5)
    y = rng.integers(0, 2, size=50)
    fa = _make_set("a", rng.normal(size=(50, 3)).astype(np.float32), y)
    fb = _make_set("b", rng.normal(size=(50, 3)).astype(np.float32), y)
    with pytest.raises(ValidationError):
        diversity_shift(fa, fb, fit_profile(fb), fit_profile(fa))


def test_dataset_diversity_averages_pairs():
    rng = np.random.default_rng(6)
    y = rng.integers(0, 2, size=400)
    sets = [
        _make_set(f"d{i}", (rng.normal(size=(400, 3)) + 10.0 * i).astype(np.float32), y)
        for i in range(3)
    ]
    value, pairs = dataset_diversity(sets)
    assert len(pairs) == 3
    assert value == pytest.approx(np.mean([p.f_div for p in pairs.values()]))
    with pytest.raises(ValidationError):
        dataset_diversity(sets[:1])


def test_dataset_diversity_fits_each_domain_once(monkeypatch):
    rng = np.random.default_rng(7)
    y = rng.integers(0, 2, size=300)
    sets = [
        _make_set(f"d{i}", (rng.normal(size=(300, 3)) + 3.0 * i).astype(np.float32), y)
        for i in range(4)
    ]
    fitted = []
    real_fit = gaussian_profile.fit_profile

    def counting_fit(fs, *args, **kwargs):
        fitted.append(fs.domain_id)
        return real_fit(fs, *args, **kwargs)

    monkeypatch.setattr(gaussian_profile, "fit_profile", counting_fit)
    _, pairs = dataset_diversity(sets)
    assert fitted == ["d0", "d1", "d2", "d3"]
    assert len(pairs) == 6
