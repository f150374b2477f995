"""Head training: gradients, gating, reweighting, reductions, and selection."""

import math

import numpy as np
import pytest

from shiftzoo.ensemble_train import (
    P_FLOOR,
    WEIGHT_CLIP,
    AdamW,
    MlpHead,
    RewAuxiliary,
    TrainConfig,
    apply_mode,
    batch_weights,
    class_prior,
    head_loss_and_grads,
    logit_feature_sets,
    logit_shift,
    rew_weights,
    softmax,
    train,
    train_on_sets,
    train_rew_auxiliary,
    train_step,
    weighted_cross_entropy,
)
from shiftzoo.errors import ValidationError
from shiftzoo.feature_store import build_feature_set, load_domain_features
from shiftzoo.report import select_auxiliaries
from shiftzoo.synthetic_dg import SynthSpec, build_zoo

from oracle_utils import ListAdamW


def _sets(seed, n=300, d=6, n_classes=3, domains=2):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(domains):
        x = rng.normal(size=(n, d))
        w = rng.normal(size=(d, n_classes))
        y = (x @ w + 0.5 * rng.normal(size=(n, n_classes))).argmax(axis=1)
        out.append(
            build_feature_set(
                f"d{i}", x.astype(np.float32), y, dataset_name="tr", n_classes=n_classes,
                split_ratio=0.2, seed=7,
            )
        )
    return out


def test_config_validation_and_modes():
    cfg = TrainConfig()
    assert cfg.lam == 1.0 and cfg.temperature == 1.0
    assert cfg.n_warmup == 100 and cfg.n_anneal == 1000
    assert cfg.batch_size == 16 and cfg.dropout == 0.0
    assert cfg.hsic_active and cfg.rew_active
    erm = apply_mode(cfg, "erm")
    assert erm.lam == 0.0 and math.isinf(erm.temperature)
    assert not erm.hsic_active and not erm.rew_active
    rew = apply_mode(cfg, "rew")
    assert rew.lam == 0.0 and rew.temperature == 1.0
    hsic = apply_mode(cfg, "hsic")
    assert hsic.lam == 1.0 and math.isinf(hsic.temperature)
    assert apply_mode(cfg, "both") == cfg
    with pytest.raises(ValidationError):
        apply_mode(cfg, "banana")
    with pytest.raises(ValidationError):
        TrainConfig(lam=-1.0)
    with pytest.raises(ValidationError):
        TrainConfig(temperature=0.0)
    with pytest.raises(ValidationError):
        TrainConfig(dropout=1.0)


def test_head_shapes():
    head = MlpHead.for_input(100, 4, rng=0)
    assert head.dims == (100, 50, 256, 4)
    wide = MlpHead.for_input(2048, 7, rng=0)
    assert wide.dims == (2048, 1024, 512, 7)
    logits = head.predict_logits(np.zeros((5, 100)))
    assert logits.shape == (5, 4)
    with pytest.raises(ValidationError):
        MlpHead([3], rng=0)
    with pytest.raises(ValidationError):
        head.predict_logits(np.zeros((5, 99)))


def test_head_params_are_one_flat_vector():
    head = MlpHead([5, 4, 3, 2], rng=0)
    assert head.params.shape == (5 * 4 + 4 + 4 * 3 + 3 + 3 * 2 + 2,)
    assert head.params.dtype == np.float64 and head.params.flags.c_contiguous
    for w, b in zip(head.weights, head.biases):
        assert np.shares_memory(w, head.params) and np.shares_memory(b, head.params)
    # layout: each layer's weight (row-major), then its bias
    pieces = [a.ravel() for w, b in zip(head.weights, head.biases) for a in (w, b)]
    assert np.array_equal(np.concatenate(pieces), head.params)
    # the same normals in the same order as per-layer draws
    rng = np.random.default_rng(0)
    for w, b in zip(head.weights, head.biases):
        fan_in, fan_out = w.shape
        assert np.array_equal(w, rng.normal(0.0, math.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))
        assert np.array_equal(b, np.zeros(fan_out))
    head.params[:] = 7.0
    assert (head.weights[1] == 7.0).all() and (head.biases[2] == 7.0).all()


def _fd_grads(head, x, y, weights, aux, lam, g1, g2, h=1e-5):
    p = head.params
    fd = np.zeros_like(p)
    for i in range(p.size):
        orig = p[i]
        p[i] = orig + h
        up, _, _, _ = head_loss_and_grads(head, x, y, weights, aux, lam, g1, g2)
        p[i] = orig - h
        dn, _, _, _ = head_loss_and_grads(head, x, y, weights, aux, lam, g1, g2)
        p[i] = orig
        fd[i] = (up - dn) / (2 * h)
    return fd


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_full_loss_gradcheck(seed):
    rng = np.random.default_rng(seed)
    head = MlpHead([2, 16, 8, 3], rng=rng)
    m = 8
    x = rng.normal(size=(m, 2))
    y = rng.integers(0, 3, size=m)
    aux = rng.normal(size=(m, 4))
    weights = batch_weights(rng.uniform(0.2, 3.0, size=m))
    lam, g1, g2 = 0.7, 0.1, 0.5
    _, _, _, grad = head_loss_and_grads(head, x, y, weights, aux, lam, g1, g2)
    grad = grad.copy()  # the finite differences overwrite the head's gradient buffer
    fd = _fd_grads(head, x, y, weights, aux, lam, g1, g2)
    num = math.sqrt(float(np.sum((grad - fd) ** 2)))
    den = max(math.sqrt(float(np.sum(fd ** 2))), 1e-12)
    assert num / den < 1e-6


def test_gradcheck_with_dropout_fixed_mask():
    rng = np.random.default_rng(3)
    head = MlpHead([2, 16, 8, 3], rng=rng, dropout=0.3)
    m = 6
    x = rng.normal(size=(m, 2))
    y = rng.integers(0, 3, size=m)
    weights = np.ones(m)

    def loss_at():
        # recreating the rng fixes the dropout masks across evaluations
        total, _, _, grad = head_loss_and_grads(
            head, x, y, weights, dropout_rng=np.random.default_rng(42)
        )
        return total, grad.copy()

    _, grad = loss_at()
    h = 1e-5
    p = head.params
    fd = np.zeros_like(p)
    for i in range(p.size):
        orig = p[i]
        p[i] = orig + h
        up, _ = loss_at()
        p[i] = orig - h
        dn, _ = loss_at()
        p[i] = orig
        fd[i] = (up - dn) / (2 * h)
    assert float(np.max(np.abs(fd - grad))) < 1e-6


def test_weighted_ce_reduces_to_plain_mean():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(10, 4))
    y = rng.integers(0, 4, size=10)
    ones = np.ones(10)
    ce, _ = weighted_cross_entropy(logits, y, ones)
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    want = float(np.mean(-np.log(probs[np.arange(10), y])))
    assert ce == pytest.approx(want, rel=1e-12)


def test_adamw_single_step_matches_hand_computation():
    p = np.array([1.0])
    g = np.array([0.5])
    opt = AdamW(p, lr=0.1, weight_decay=0.0)
    opt.step(g)
    # bias-corrected first step moves by lr * g/(|g| + eps) in the g direction
    assert p[0] == pytest.approx(1.0 - 0.1 * (0.5 / (0.5 + 1e-8)), rel=1e-9)


def test_adamw_decoupled_weight_decay():
    p = np.array([2.0])
    opt = AdamW(p, lr=0.1, weight_decay=0.5)
    opt.step(np.array([0.0]))
    # zero gradient: only the decay term acts, p -= lr*wd*p
    assert p[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_flat_adamw_matches_list_reference_bitwise(weight_decay):
    rng = np.random.default_rng(10)
    head = MlpHead([7, 5, 4, 3], rng=rng)
    arrays = [a.copy() for w, b in zip(head.weights, head.biases) for a in (w, b)]
    opt = AdamW(head.params, lr=1e-2, weight_decay=weight_decay)
    ref = ListAdamW(arrays, lr=1e-2, weight_decay=weight_decay)
    for _ in range(25):
        grad = rng.normal(scale=rng.uniform(1e-3, 10.0), size=head.params.shape)
        grad[rng.random(grad.shape) < 0.1] = 0.0
        opt.step(grad)
        start = 0
        grads = []
        for a in arrays:
            grads.append(grad[start : start + a.size].reshape(a.shape))
            start += a.size
        ref.step(arrays, grads)
        assert np.array_equal(head.params, np.concatenate([a.ravel() for a in arrays]))
    assert opt.t == ref.t == 25


def _fixed_aux(bias, prior):
    # zero weights: every row's class probabilities are softmax(bias)
    return RewAuxiliary(
        weights=np.zeros((1, len(bias))),
        bias=np.asarray(bias, dtype=np.float64),
        class_prior=np.asarray(prior, dtype=np.float64),
        prior_floored=False,
    )


def test_rew_weight_examples():
    # weights are rescaled to mean 1, so the raw weight (p(y) / p_c(y))^(1/T)
    # of row 0 shows as its ratio to row 1, whose raw weight is 0.5/0.5 = 1
    aux = _fixed_aux(np.log([0.25, 0.5, 0.25]), [0.5, 0.5, 0.0])
    z, labels = np.zeros((2, 1)), np.array([0, 1])
    w = rew_weights(aux, z, labels, temperature=1.0)
    assert w[0] / w[1] == pytest.approx(2.0)
    w2 = rew_weights(aux, z, labels, temperature=2.0)
    assert w2[0] / w2[1] == pytest.approx(math.sqrt(2.0))
    assert np.array_equal(rew_weights(aux, z, labels, temperature=math.inf), np.ones(2))
    # p_c(y) = 0 is floored at P_FLOOR, which keeps the ratio finite; the
    # floored ratio 0.25 / P_FLOOR exceeds WEIGHT_CLIP, so the weight is clipped
    aux0 = _fixed_aux([math.log(0.5), math.log(0.5), -1e3], [0.25, 0.5, 0.25])
    assert aux0.predict_proba(z)[0, 2] == 0.0
    assert 0.25 / P_FLOOR > WEIGHT_CLIP
    w0 = rew_weights(aux0, z, np.array([2, 1]), temperature=1.0)
    assert np.isfinite(w0).all()
    assert w0[0] / w0[1] == pytest.approx(WEIGHT_CLIP)


def test_batch_weights_examples_and_properties():
    np.testing.assert_allclose(batch_weights(np.array([2.0, 2.0])), [1.0, 1.0])
    np.testing.assert_allclose(batch_weights(np.array([1.0, 3.0])), [0.5, 1.5])
    np.testing.assert_allclose(batch_weights(np.full(7, 123.4)), np.ones(7))
    rng = np.random.default_rng(5)
    raw = rng.uniform(0.1, 9.0, size=20)
    w = batch_weights(raw)
    assert w.mean() == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(w / w[0], raw / raw[0], rtol=1e-12)
    np.testing.assert_allclose(batch_weights(2 * raw), w, rtol=1e-12)
    with pytest.raises(ValidationError):
        batch_weights(np.array([1.0, -1.0]))


def test_class_prior_and_floor():
    prior, floored = class_prior(np.array([0, 1, 2, 3] * 5), 4)
    np.testing.assert_allclose(prior, [0.25] * 4)
    assert not floored
    prior2, floored2 = class_prior(np.array([0, 0, 1]), 3)
    assert floored2
    assert prior2[2] > 0 and prior2.sum() == pytest.approx(1.0)


def test_rew_auxiliary_learns_separable_data():
    rng = np.random.default_rng(6)
    n = 400
    x = rng.normal(size=(n, 4))
    y = (x[:, 0] > 0).astype(int)
    x[y == 1, 0] += 2.0  # margin 2 along the first coordinate
    aux = train_rew_auxiliary(x, y, 2, rng=0, steps=1000, lr=1e-5, batch_size=16)
    acc = (aux.predict_proba(x).argmax(axis=1) == y).mean()
    assert acc >= 0.95
    np.testing.assert_allclose(aux.class_prior, np.bincount(y) / n)


def test_rew_auxiliary_matches_list_reference_bitwise():
    rng = np.random.default_rng(11)
    z = rng.normal(size=(60, 4))
    y = rng.integers(0, 3, size=60)
    aux = train_rew_auxiliary(z, y, 3, rng=2, steps=30, lr=1e-2, batch_size=8)
    # the same loop over separate [w, b] arrays with the per-array reference
    w, b = np.zeros((4, 3)), np.zeros(3)
    ref = ListAdamW([w, b], lr=1e-2)
    batch_rng = np.random.default_rng(2)
    for _ in range(30):
        idx = batch_rng.integers(0, 60, size=8)
        probs = softmax(z[idx] @ w + b)
        probs[np.arange(8), y[idx]] -= 1.0
        probs /= 8
        ref.step([w, b], [z[idx].T @ probs, probs.sum(axis=0)])
    assert np.array_equal(aux.weights, w) and np.array_equal(aux.bias, b)


def test_rew_auxiliary_needs_two_classes():
    with pytest.raises(ValidationError):
        train_rew_auxiliary(np.ones((5, 2)), np.zeros(5, dtype=int), 2)


def test_rew_weights_clip_and_inf_temperature():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(50, 3))
    y = rng.integers(0, 2, size=50)
    aux = train_rew_auxiliary(x, y, 2, rng=1, steps=50, lr=1e-2)
    w = rew_weights(aux, x, y, temperature=1.0)
    assert w.shape == (50,)
    assert w.mean() == pytest.approx(1.0)
    winf = rew_weights(aux, x, y, temperature=math.inf)
    assert np.array_equal(winf, np.ones(50))


def test_train_step_gating():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(8, 4))
    y = rng.integers(0, 3, size=8)
    aux = rng.normal(size=(8, 5))
    cfg = TrainConfig(lam=2.0, n_warmup=5, n_anneal=3, steps=10, batch_size=8)
    head = MlpHead.for_input(4, 3, rng=0)
    opt = AdamW(head.params, lr=1e-3)
    weights = batch_weights(rng.uniform(0.5, 2.0, size=8))
    # no rew_batch: uniform weights; before n_warmup: no HSIC term
    plain_ce, _ = weighted_cross_entropy(head.predict_logits(x), y, np.ones(8))
    pre = train_step(head, opt, x, y, aux, None, cfg, step_index=2)
    assert pre.hsic == 0.0 and pre.total == pre.ce == plain_ce
    assert pre.mean_weight == 1.0
    # a rew_batch applies as given; from n_warmup on the HSIC term is active
    weighted_ce, _ = weighted_cross_entropy(head.predict_logits(x), y, weights)
    post = train_step(head, opt, x, y, aux, weights, cfg, step_index=6)
    assert post.ce == weighted_ce
    assert post.hsic > 0.0
    assert post.total == pytest.approx(post.ce + cfg.lam * post.hsic, abs=1e-12)


def test_rew_weights_run_only_from_n_anneal(monkeypatch):
    import shiftzoo.ensemble_train as et

    calls = []

    def counting(aux, z, labels, temperature):
        calls.append(len(labels))
        return rew_weights(aux, z, labels, temperature)

    monkeypatch.setattr(et, "rew_weights", counting)
    sets = _sets(6)
    cfg = TrainConfig(
        lam=0.0, temperature=1.0, n_anneal=13, steps=40, learning_rate=1e-3,
        eval_every=10, seed=3, aux_steps=20, aux_lr=1e-2,
    )
    res = train_on_sets(sets, None, sets, 3, cfg)
    assert len(calls) == cfg.steps - cfg.n_anneal
    assert all(s.mean_weight == 1.0 for s in res.log[: cfg.n_anneal])


def test_train_step_erm_reduction_is_bitwise():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(6, 4))
    y = rng.integers(0, 3, size=6)
    cfg = TrainConfig(lam=0.0, temperature=math.inf, steps=5, batch_size=6)
    head_a = MlpHead.for_input(4, 3, rng=123)
    head_b = MlpHead.for_input(4, 3, rng=123)
    opt_a = AdamW(head_a.params, lr=1e-3)
    opt_b = AdamW(head_b.params, lr=1e-3)
    train_step(head_a, opt_a, x, y, None, None, cfg, step_index=0)
    # plain ERM step by hand
    total, ce, h, grad = head_loss_and_grads(head_b, x, y, np.ones(6))
    opt_b.step(grad)
    assert np.array_equal(head_a.params, head_b.params)


def test_train_step_hsic_needs_two_rows():
    cfg = TrainConfig(lam=1.0, n_warmup=0, batch_size=2)
    head = MlpHead.for_input(3, 2, rng=0)
    opt = AdamW(head.params, lr=1e-3)
    with pytest.raises(ValidationError):
        train_step(
            head, opt, np.zeros((1, 3)), np.zeros(1, dtype=int), np.zeros((1, 2)),
            None, cfg, step_index=0,
        )


def test_train_on_sets_runs_and_logs():
    sets = _sets(0)
    cfg = TrainConfig(
        lam=1.0, temperature=1.0, n_warmup=5, n_anneal=10, steps=40,
        learning_rate=1e-3, eval_every=10, seed=11, aux_steps=50, aux_lr=1e-2,
    )
    res = train_on_sets(sets, sets, sets, 3, cfg, test_sets=_sets(1, domains=1))
    assert len(res.log) == 40
    for rec in res.log:
        lam_term = cfg.lam * rec.hsic
        assert rec.total == pytest.approx(rec.ce + lam_term, abs=1e-12)
    assert 0.0 <= res.final_val_accuracy <= 1.0
    assert res.best_val_accuracy >= res.final_val_accuracy - 1e-12
    assert res.final_test_accuracy is not None
    assert res.evals[-1].step == 39


def test_train_erm_equals_both_with_inactive_knobs():
    sets = _sets(2)
    base = TrainConfig(steps=30, learning_rate=1e-3, eval_every=10, seed=5)
    erm = apply_mode(base, "erm")
    both = apply_mode(replace_cfg(base, lam=0.0, temperature=math.inf), "both")
    res_a = train_on_sets(sets, None, None, 3, erm)
    res_b = train_on_sets(sets, None, None, 3, both)
    assert np.array_equal(res_a.head.params, res_b.head.params)
    assert res_a.log == res_b.log


def replace_cfg(cfg, **kw):
    from dataclasses import replace

    return replace(cfg, **kw)


def test_train_requires_aligned_auxiliaries():
    sets = _sets(3)
    other = _sets(4)  # different labels/rows
    cfg = TrainConfig(lam=1.0, temperature=math.inf, steps=5, eval_every=5)
    with pytest.raises(ValidationError):
        train_on_sets(sets, other, None, 3, cfg)
    with pytest.raises(ValidationError):
        train_on_sets(sets, None, None, 3, cfg)


def test_logit_feature_sets_preserve_rows():
    sets = _sets(5, domains=1)
    head = MlpHead.for_input(6, 3, rng=0)
    out = logit_feature_sets(head, sets)
    assert out[0].features.shape == (sets[0].n_samples, 3)
    assert out[0].features.dtype == np.float32
    assert np.array_equal(out[0].labels, sets[0].labels)
    assert np.array_equal(out[0].split_mask, sets[0].split_mask)


def test_train_loads_each_feature_set_once(tmp_path, monkeypatch):
    import shiftzoo.ensemble_train as et

    manifest, _, _ = build_zoo(SynthSpec(samples_per_domain=200, seed=4), zoo_size=4,
                               out_dir=tmp_path)
    cfg = TrainConfig(lam=1.0, n_warmup=5, n_anneal=10, steps=20, learning_rate=1e-3,
                      batch_size=16, eval_every=10, seed=2, aux_steps=20, aux_lr=1e-2)
    loads = []

    def counting(manifest, encoder_id, domain_id, seed=0):
        loads.append((encoder_id, domain_id))
        return load_domain_features(manifest, encoder_id, domain_id, seed=seed)

    monkeypatch.setattr(et, "load_domain_features", counting)
    folds = train(manifest, "main_full", "div_heavy", "cor_heavy", cfg, manifest.domain_ids)
    assert sorted(loads) == sorted(set(loads))
    assert len(loads) == 3 * len(manifest.domain_ids)
    # one target: its auxiliary sets are not needed
    loads.clear()
    [one] = train(manifest, "main_full", "div_heavy", "cor_heavy", cfg, ["domain1"])
    assert ("div_heavy", "domain1") not in loads and ("cor_heavy", "domain1") not in loads
    assert len(loads) == 3 + 2 + 2

    # each fold equals a fold trained and profiled on its own
    monkeypatch.undo()
    assert [f.target_domain for f in folds] == manifest.domain_ids
    sets = {
        (e, d): load_domain_features(manifest, e, d, seed=cfg.seed)
        for e in ("main_full", "div_heavy", "cor_heavy") for d in manifest.domain_ids
    }
    for fold in folds + [one]:
        rest = [d for d in manifest.domain_ids if d != fold.target_domain]
        alone = train_on_sets(
            [sets["main_full", d] for d in rest], [sets["div_heavy", d] for d in rest],
            [sets["cor_heavy", d] for d in rest], manifest.n_classes, cfg,
            [sets["main_full", fold.target_domain]],
        )
        assert np.array_equal(fold.result.head.params, alone.head.params)
        assert fold.result.best_test_accuracy == alone.best_test_accuracy
        main_sets = [sets["main_full", d] for d in manifest.domain_ids]
        assert (fold.logit_f_div, fold.logit_f_cor) == logit_shift(
            alone.head, main_sets, manifest.n_classes
        )


def test_train_rejects_unknown_target(tmp_path):
    manifest, _, _ = build_zoo(SynthSpec(samples_per_domain=100), zoo_size=4, out_dir=tmp_path)
    cfg = apply_mode(TrainConfig(steps=5), "erm")
    with pytest.raises(ValidationError, match="unknown target domain 'ghost'"):
        train(manifest, "main_full", None, None, cfg, ["domain0", "ghost"])


def test_select_auxiliaries_rules():
    scores = {"A": (0.9, 0.1), "B": (0.2, 0.6)}
    assert select_auxiliaries(scores, "C") == ("A", "B")
    same = {"x": (0.5, 0.5), "y": (0.5, 0.5), "z": (0.5, 0.5)}
    assert select_auxiliaries(same, "w") == ("x", "x")
    # main encoder is excluded even when it is the extreme
    scores2 = {"A": (0.9, 0.9), "B": (0.2, 0.6), "C": (0.3, 0.1)}
    assert select_auxiliaries(scores2, "A") == ("C", "B")
    with pytest.raises(ValidationError):
        select_auxiliaries({"A": (1.0, 1.0)}, "A")
