"""Evidence maximisation, pseudo-probability calibration, and correlation shift."""

from itertools import combinations
from unittest import mock

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracle_utils import (
    direct_log_evidence,
    grid_argmax_evidence,
    log_evidence,
    loop_calibrate,
    loop_calibrator_apply,
    reference_logme_fit,
    svd_logme_fit,
)

from shiftzoo import correlation_profile
from shiftzoo.correlation_profile import (
    Calibrator,
    ClassRegression,
    EvidenceModel,
    calibrate,
    correlation_shift,
    dataset_correlation,
    logme_fit,
    predict_tilde,
)
from shiftzoo.errors import NumericalError, ValidationError
from shiftzoo.feature_store import build_feature_set
from shiftzoo.gaussian_profile import dataset_diversity, diversity_shift, fit_profile


def _svd_stats(phi, y):
    _, sv, vt = np.linalg.svd(phi, full_matrices=False)
    return sv * sv, vt @ (phi.T @ y), float(y @ y)


def test_log_evidence_matches_direct_matrices():
    rng = np.random.default_rng(0)
    for trial in range(10):
        n, d = int(rng.integers(5, 60)), int(rng.integers(1, 8))
        phi = rng.normal(size=(n, d))
        y = (rng.integers(0, 2, size=n)).astype(np.float64)
        s, btilde, y_sq = _svd_stats(phi, y)
        for alpha, beta in [(1.0, 1.0), (0.1, 5.0), (30.0, 0.01), (2.5, 100.0)]:
            got = log_evidence(s, btilde, y_sq, n, d, alpha, beta)
            want = direct_log_evidence(phi, y, alpha, beta)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_fit_evidence_is_the_evidence_at_its_precisions():
    """The profiled evidence equals the textbook one at the fitted (alpha, beta)."""
    rng = np.random.default_rng(6)
    for trial in range(6):
        n, d = int(rng.integers(20, 100)), int(rng.integers(2, 12))
        phi = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0)
        labels = rng.integers(0, 3, size=n)
        for k, reg in enumerate(logme_fit(phi, labels, 3).regressions):
            y = (labels == k).astype(np.float64)
            want = direct_log_evidence(phi, y, reg.alpha, reg.beta)
            assert reg.evidence == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_logme_lands_on_grid_argmax():
    rng = np.random.default_rng(1)
    for trial in range(6):
        n, d = int(rng.integers(20, 100)), int(rng.integers(2, 8))
        phi = rng.normal(size=(n, d))
        w_true = rng.normal(size=d)
        y = (phi @ w_true + 0.3 * rng.normal(size=n) > 0).astype(np.float64)
        model = logme_fit(phi, y.astype(int), 2)
        reg = model.regressions[1]
        _, g_alpha, g_beta = grid_argmax_evidence(phi, y)
        assert abs(np.log10(reg.alpha) - np.log10(g_alpha)) <= 0.05 + 1e-9
        assert abs(np.log10(reg.beta) - np.log10(g_beta)) <= 0.05 + 1e-9


def test_logme_recovers_clean_linear_map():
    rng = np.random.default_rng(3)
    phi = rng.normal(size=(200, 5))
    w_true = np.array([2.0, -1.0, 0.5, 0.0, 1.5])
    scores = phi @ w_true
    labels = (scores > 0).astype(int)
    model = logme_fit(phi, labels, 2)
    probs = predict_tilde(model, phi)
    assert (probs.argmax(axis=1) == labels).mean() > 0.95


def test_logme_handles_absent_class():
    rng = np.random.default_rng(4)
    phi = rng.normal(size=(40, 3))
    labels = np.zeros(40, dtype=int)  # class 1 never appears
    model = logme_fit(phi, labels, 2)
    probs = predict_tilde(model, phi)
    assert probs.shape == (40, 2)
    assert np.isfinite(probs).all()


def test_logme_validation():
    with pytest.raises(ValidationError):
        logme_fit(np.zeros((0, 3)), np.zeros(0, dtype=int), 2)
    with pytest.raises(ValidationError):
        logme_fit(np.zeros((5, 3)), np.zeros(4, dtype=int), 2)
    with pytest.raises(ValidationError):
        logme_fit(np.zeros((5, 3)), np.zeros(5, dtype=int), 1)


# Gram eigenpairs against the thin SVD: eigenvalues agree to ~1e-15 of the
# largest, so every fitted quantity agrees far inside this relative tolerance.
ORACLE_RTOL = 1e-9


def _assert_matches_svd_fit(phi, labels, n_classes):
    got = logme_fit(phi, labels, n_classes)
    want = svd_logme_fit(phi, labels, n_classes)
    assert got.dim == want.dim == phi.shape[1]
    for g, w in zip(got.regressions, want.regressions, strict=True):
        np.testing.assert_allclose(
            g.weights, w.weights, rtol=ORACLE_RTOL, atol=ORACLE_RTOL * np.abs(w.weights).max()
        )
        assert g.alpha == pytest.approx(w.alpha, rel=ORACLE_RTOL)
        assert g.beta == pytest.approx(w.beta, rel=ORACLE_RTOL)
        assert g.evidence == pytest.approx(w.evidence, rel=ORACLE_RTOL)


def test_logme_matches_svd_reference_with_more_rows_than_dims():
    for seed in range(3):
        rng = np.random.default_rng(seed)
        phi = rng.normal(size=(300, 24)) @ rng.normal(size=(24, 24))
        labels = np.argmax(phi @ rng.normal(size=(24, 3)) + 2.0 * rng.normal(size=(300, 3)), axis=1)
        _assert_matches_svd_fit(phi, labels, 3)


def test_logme_matches_svd_reference_with_more_dims_than_rows():
    # rank-deficient Gram matrix: 120 - 40 eigenvalues are 0 up to round-off.
    # Labels independent of the features keep the evidence optimum away from
    # interpolation, where the residual (and so beta) is pure round-off in
    # either basis.
    for seed in range(3):
        rng = np.random.default_rng(seed)
        phi = rng.normal(size=(40, 120))
        labels = rng.integers(0, 3, size=40)
        _assert_matches_svd_fit(phi, labels, 3)


def test_logme_keeps_no_more_eigenvalues_than_rows(monkeypatch):
    """Round-off eigenvalues past rank n must not push the effective dof past n."""
    seen = []
    real = correlation_profile._fit_class
    monkeypatch.setattr(
        correlation_profile, "_fit_class", lambda s, *a: seen.append(s.size) or real(s, *a)
    )
    rng = np.random.default_rng(27)
    phi = 80.0 * rng.normal(size=(64, 256)) @ rng.normal(size=(256, 256))
    labels = np.argmax(phi @ rng.normal(size=(256, 4)) + rng.normal(size=(64, 4)), axis=1)
    model = logme_fit(phi, labels, 4)
    assert seen == [64] * 4
    want = svd_logme_fit(phi, labels, 4)
    for g, w in zip(model.regressions, want.regressions):
        # both interpolate, where the evidence is flat in t; it still agrees
        assert g.evidence == pytest.approx(w.evidence, rel=1e-3)


LABEL_KINDS = ("random", "linear", "one_class")


def _logme_case(seed, n, d, scale, kind):
    """Features and labels for 3 classes: independent, a noisy linear map, or one class."""
    rng = np.random.default_rng(seed)
    phi = scale * rng.normal(size=(n, d))
    if kind == "random":
        labels = rng.integers(0, 3, size=n)
    elif kind == "linear":
        labels = np.argmax(phi @ rng.normal(size=(d, 3)) + scale * rng.normal(size=(n, 3)), axis=1)
    else:  # class 0 covers every row: its target is all ones, the others all zeros
        labels = np.zeros(n, dtype=int)
    return phi, labels


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 60),
    d=st.integers(1, 80),
    scale=st.sampled_from([1e-4, 1.0, 1e4]),
    kind=st.sampled_from(LABEL_KINDS),
    seed=st.integers(0, 2**32 - 1),
)
def test_evidence_is_never_below_the_fixed_points(n, d, scale, kind, seed):
    """Each class's fit is finite and its evidence at least the fixed point's.

    The cases cover n > d and n < d (interpolating), a target of all ones or
    all zeros, and feature scales far from 1.
    """
    phi, labels = _logme_case(seed, n, d, scale, kind)
    model = logme_fit(phi, labels, 3)
    reference = reference_logme_fit(phi, labels, 3)
    for reg, (_, _, _, ref_evidence, _, _, _) in zip(model.regressions, reference, strict=True):
        assert np.isfinite(reg.weights).all()
        assert all(math.isfinite(v) and v > 0 for v in (reg.alpha, reg.beta))
        assert math.isfinite(reg.evidence)
        assert reg.evidence >= ref_evidence - 1e-12


def test_fit_beats_a_fixed_point_stopped_at_max_iters():
    """d > n with noisy-linear labels: the fixed point is still moving after
    100 iterations, and the search ends strictly above it."""
    rng = np.random.default_rng(0)
    n, d = 40, 120
    phi = rng.normal(size=(n, d))
    scores = phi @ rng.normal(size=(d, 4)) / np.sqrt(d) + 0.5 * rng.normal(size=(n, 4))
    labels = np.argmax(scores, axis=1)
    reg = logme_fit(phi, labels, 4).regressions[3]
    _, _, _, ref_evidence, ref_iters, ref_clamped, _ = reference_logme_fit(phi, labels, 4)[3]
    assert ref_iters == 100 and not ref_clamped
    assert reg.evidence > ref_evidence


@pytest.mark.parametrize(
    "duplicate,n,d",
    [("columns", 60, 20), ("columns", 30, 30), ("rows", 40, 120), ("rows", 30, 30),
     ("both", 30, 30)],
)
def test_rank_deficient_features_share_one_rank_rule(monkeypatch, duplicate, n, d):
    """Duplicated columns or rows: both bases keep the rank of Phi, never a
    round-off eigenvalue, and give the same finite fit."""
    rng = np.random.default_rng(5)
    phi = rng.normal(size=(n, d))
    if duplicate in ("columns", "both"):
        phi[:, d // 2 :] = phi[:, : d - d // 2]
    if duplicate in ("rows", "both"):
        phi[n // 2 :] = phi[: n - n // 2]
    labels = np.argmax(phi @ rng.normal(size=(d, 3)) + rng.normal(size=(n, 3)), axis=1)
    kept = []
    real = correlation_profile._fit_class
    monkeypatch.setattr(
        correlation_profile, "_fit_class", lambda s, *a: kept.append(s.copy()) or real(s, *a)
    )
    _assert_matches_svd_fit(phi, labels, 3)
    rank = np.linalg.matrix_rank(phi)
    assert rank < min(n, d)
    assert [s.size for s in kept] == [rank] * 6
    assert all((s > 0).all() for s in kept)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(4, 16),
    extra=st.integers(1, 40),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_more_dims_than_training_rows_ends_finite_or_in_a_clear_error(n, extra, scale, seed):
    """d > n_train: finite fits and shifts, or a ValidationError/NumericalError."""
    rng = np.random.default_rng(seed)
    d = n + extra
    phi = scale * rng.normal(size=(n, d))
    labels = rng.integers(0, 3, size=n)
    try:
        model = logme_fit(phi, labels, 3)
    except (ValidationError, NumericalError):
        pass
    else:
        assert np.isfinite(model.weight_matrix).all()
        for reg in model.regressions:
            assert all(math.isfinite(v) for v in (reg.alpha, reg.beta, reg.evidence))
    sets = [
        build_feature_set(
            f"d{i}", (scale * rng.normal(size=(n, d)) + i).astype(np.float32),
            rng.integers(0, 3, size=n), dataset_name="wide", n_classes=3,
            split_ratio=0.2, seed=i,
        )
        for i in range(3)
    ]
    assert all(fs.train_features.shape[0] < d for fs in sets)
    try:
        f_div, pairs = dataset_diversity(sets)
        f_cor, _ = dataset_correlation(sets, pairs, 3)
    except (ValidationError, NumericalError):
        return
    assert 0.0 <= f_div <= 1.0 and 0.0 <= f_cor <= 1.0


def _manual_model(weights: np.ndarray) -> EvidenceModel:
    d, k = weights.shape
    regs = tuple(
        ClassRegression(
            weights=weights[:, i],
            alpha=1.0,
            beta=1.0,
            evidence=0.0,
            n_iters=0,
        )
        for i in range(k)
    )
    return EvidenceModel(n_classes=k, dim=d, regressions=regs)


def test_predict_tilde_normalisation():
    model = _manual_model(np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]]))
    phi = np.array([[2.0, 1.0], [-1.0, 0.0], [0.0, 0.0]])
    probs = predict_tilde(model, phi)
    # row 0: raw (2, 0, 1) -> (2/3, 0, 1/3)
    np.testing.assert_allclose(probs[0], [2 / 3, 0.0, 1 / 3])
    # row 1: raw (-1, 1, 0) clamps to (0, 1, 0)
    np.testing.assert_allclose(probs[1], [0.0, 1.0, 0.0])
    # row 2: everything clamped -> uniform
    np.testing.assert_allclose(probs[2], [1 / 3, 1 / 3, 1 / 3])
    assert np.all(probs >= 0) and np.allclose(probs.sum(axis=1), 1.0)


def test_calibrator_bins_and_fallback():
    probs = np.array([[0.95, 0.05], [0.85, 0.15], [0.12, 0.88], [0.93, 0.07]])
    labels = np.array([0, 1, 1, 0])
    cal = calibrate(probs, labels, 2, n_bins=10)
    # class-0 bin 9 holds rows 0 and 3, both truly class 0
    assert cal.bin_accuracy[0, 9] == 1.0
    # class-0 bin 8 holds row 1, truly class 1
    assert cal.bin_accuracy[0, 8] == 0.0
    out = cal.apply(np.array([[0.97, 0.03], [0.55, 0.45]]))
    assert out[0, 0] == 1.0  # hits populated bin 9
    assert out[1, 0] == 0.55  # bin 5 empty, raw value kept
    # probability exactly 1.0 falls in the top bin, not out of range
    top = cal.apply(np.array([[1.0, 0.0]]))
    assert top[0, 0] == 1.0


def test_calibrate_rejects_misshapen_input():
    probs = np.array([[0.9, 0.1], [0.2, 0.8]])
    with pytest.raises(ValidationError, match="probability columns"):
        calibrate(probs, np.array([0, 1]), 3)
    with pytest.raises(ValidationError, match="one label per row"):
        calibrate(probs, np.array([0, 1, 1]), 2)


# bin edges, exact 0 and 1, and values between them
_probability = st.one_of(
    st.sampled_from([0.0, 1.0, 0.1, 0.25, 0.5, 0.7, 0.9, 1.0 - 2.0**-53]),
    st.floats(0.0, 1.0),
)


def _assert_calibration_matches_loops(probs, labels, n_classes, n_bins, queries):
    cal = calibrate(probs, labels, n_classes, n_bins)
    want = loop_calibrate(probs, labels, n_classes, n_bins)
    # NaN marks the empty bins in both; bytes compare those as well
    assert cal.bin_accuracy.shape == want.shape
    assert cal.bin_accuracy.tobytes() == want.tobytes()
    for batch in (queries, probs):
        got = cal.apply(batch)
        assert got.tobytes() == loop_calibrator_apply(want, n_bins, batch).tobytes()


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    n_rows=st.integers(0, 40),
    n_classes=st.integers(2, 5),
    n_bins=st.integers(1, 12),
    data=st.data(),
)
def test_vectorised_calibration_is_bit_identical_to_the_loops(n_rows, n_classes, n_bins, data):
    probs = data.draw(hnp.arrays(np.float64, (n_rows, n_classes), elements=_probability))
    labels = data.draw(hnp.arrays(np.int64, n_rows, elements=st.integers(0, n_classes - 1)))
    queries = data.draw(
        hnp.arrays(np.float64, (data.draw(st.integers(0, 8)), n_classes), elements=_probability)
    )
    _assert_calibration_matches_loops(probs, labels, n_classes, n_bins, queries)


@pytest.mark.parametrize(
    "probs,labels",
    [
        (np.zeros((0, 3)), np.zeros(0, dtype=np.int64)),  # zero rows: every bin empty
        (np.array([[1.0, 0.0, 0.0]]), np.array([0])),  # one row, exact 1.0 and 0
        (np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]), np.array([1, 1, 2])),
    ],
)
def test_calibration_corner_cases_are_bit_identical_to_the_loops(probs, labels):
    queries = np.array([[0.0, 0.5, 1.0], [1.0, 0.0, 0.05], [0.95, 0.999, 0.0]])
    _assert_calibration_matches_loops(probs, labels, 3, 10, queries)


def test_calibrate_empty_input_gives_identity():
    cal = calibrate(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
    probs = np.array([[0.3, 0.7]])
    np.testing.assert_allclose(cal.apply(probs), probs)
    with pytest.raises(ValidationError):
        calibrate(np.zeros((0, 2)), np.zeros(0, dtype=int), 2, n_bins=0)


def _domain(domain_id, n, seed, flip=False, shift=0.0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 6))
    y = (x[:, 0] > 0).astype(int)
    if flip:
        y = 1 - y
    x = x + shift
    return build_feature_set(
        domain_id, x.astype(np.float32), y, dataset_name="cor", n_classes=2,
        split_ratio=0.2, seed=seed,
    )


def _shift(fa, fb):
    """One pair on its own: fit both domains, then compare them."""
    pair = diversity_shift(fa, fb, fit_profile(fa), fit_profile(fb))
    models = [logme_fit(fs.train_features, fs.train_labels, 2) for fs in (fa, fb)]
    return pair, correlation_shift(fa, fb, pair, *models)


def _four_domains():
    """a and b share their conditionals, c flips them, far overlaps no one."""
    return [
        _domain("a", 600, 70),
        _domain("b", 600, 71),
        _domain("c", 600, 72, flip=True),
        _domain("far", 600, 73, shift=60.0),
    ]


def test_identical_conditionals_give_low_shift():
    for seed in range(3):
        fa = _domain("a", 1500, 10 + seed)
        fb = _domain("b", 1500, 200 + seed)
        _, cor = _shift(fa, fb)
        assert not cor.empty_overlap
        assert cor.f_cor <= 0.05


def test_flipped_labels_give_high_shift():
    for seed in range(3):
        fa = _domain("a", 1500, 20 + seed)
        fb = _domain("b", 1500, 300 + seed, flip=True)
        _, cor = _shift(fa, fb)
        assert cor.f_cor >= 0.9


def test_disjoint_domains_flag_empty_overlap():
    fa = _domain("a", 400, 30)
    fb = _domain("b", 400, 31, shift=60.0)
    pair = diversity_shift(fa, fb, fit_profile(fa), fit_profile(fb))
    # with no overlap rows the regressions are never read, so none is fitted
    cor = correlation_shift(fa, fb, pair, None, None)
    assert cor.empty_overlap and cor.f_cor == 0.0
    assert cor.n_overlap_a == 0 and cor.n_overlap_b == 0


def test_dataset_correlation_averages_pairs():
    sets = [_domain("a", 600, 40), _domain("b", 600, 41), _domain("c", 600, 42, flip=True)]
    _, pair_div = dataset_diversity(sets)
    value, pairs = dataset_correlation(sets, pair_div, n_classes=2)
    assert len(pairs) == 3
    assert value == pytest.approx(np.mean([p.f_cor for p in pairs.values()]))
    # the flipped domain's pairs dominate the average
    assert pairs[("a", "c")].f_cor > pairs[("a", "b")].f_cor


def test_correlation_shift_bounds():
    for seed in range(4):
        fa = _domain("a", 500, 50 + seed)
        fb = _domain("b", 500, 60 + seed, flip=bool(seed % 2))
        _, cor = _shift(fa, fb)
        assert 0.0 <= cor.f_cor <= 1.0


def test_dataset_correlation_fits_each_domain_at_most_once(monkeypatch):
    sets = _four_domains()
    _, pair_div = dataset_diversity(sets)
    fitted = []
    real_fit = correlation_profile.logme_fit

    def counting_fit(features, labels, n_classes, *args, **kwargs):
        fitted.extend(fs.domain_id for fs in sets if np.array_equal(fs.train_features, features))
        return real_fit(features, labels, n_classes, *args, **kwargs)

    monkeypatch.setattr(correlation_profile, "logme_fit", counting_fit)
    _, pairs = dataset_correlation(sets, pair_div, n_classes=2)
    # every pair of "far" has empty overlap, so it is never fitted
    assert all(pairs[(d, "far")].empty_overlap for d in ("a", "b", "c"))
    assert not any(pairs[key].empty_overlap for key in (("a", "b"), ("a", "c"), ("b", "c")))
    assert fitted == ["a", "b", "c"]


def test_each_fit_predicts_a_pairs_overlap_rows_once(monkeypatch):
    sets = _four_domains()
    _, pair_div = dataset_diversity(sets)
    predicted = []
    real_predict = correlation_profile.predict_tilde

    def counting_predict(model, features):
        predicted.append(len(features))
        return real_predict(model, features)

    monkeypatch.setattr(correlation_profile, "predict_tilde", counting_predict)
    _, pairs = dataset_correlation(sets, pair_div, n_classes=2)
    # two calls per pair with overlap rows, each on all of its pooled rows;
    # the three pairs of "far" have none and make no call
    pooled = [p.n_overlap_a + p.n_overlap_b for p in pairs.values() if not p.empty_overlap]
    assert len(pooled) == 3
    assert predicted == [n for n in pooled for _ in range(2)]


@pytest.mark.parametrize("n_bins", [0, -5])
@pytest.mark.parametrize("far", [False, True])
def test_dataset_correlation_rejects_bins_before_fitting(monkeypatch, n_bins, far):
    # with far=True no pair overlaps, so no calibration would ever see n_bins
    sets = [_domain("a", 300, 80), _domain("b", 300, 81, shift=60.0 if far else 0.0)]
    _, pair_div = dataset_diversity(sets)
    monkeypatch.setattr(correlation_profile, "logme_fit", mock.Mock(side_effect=AssertionError))
    with pytest.raises(ValidationError, match="need at least one calibration bin"):
        dataset_correlation(sets, pair_div, n_classes=2, n_bins=n_bins)


def test_dataset_pairs_equal_each_pair_alone():
    sets = _four_domains()
    _, pair_div = dataset_diversity(sets)
    _, pair_cor = dataset_correlation(sets, pair_div, n_classes=2)
    assert len(pair_div) == len(pair_cor) == 6
    for fa, fb in combinations(sets, 2):
        key = (fa.domain_id, fb.domain_id)
        div, cor = _shift(fa, fb)
        assert pair_div[key].f_div == div.f_div
        np.testing.assert_array_equal(pair_div[key].escape_a, div.escape_a)
        np.testing.assert_array_equal(pair_div[key].escape_b, div.escape_b)
        assert pair_cor[key].f_cor == cor.f_cor
        assert (pair_cor[key].n_overlap_a, pair_cor[key].n_overlap_b) == (
            cor.n_overlap_a,
            cor.n_overlap_b,
        )
        assert pair_cor[key].empty_overlap == cor.empty_overlap
