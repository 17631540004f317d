import numpy as np
import pytest

from unlearnlab import datagen, seeds, unlearn
from unlearnlab.contrastive import (
    ContrastiveConfig,
    PairWorkspace,
    batch_chunks,
    info_nce_batch,
    info_nce_loss_fn,
    info_nce_with_grads,
    pretrain,
    pretrain_on_ids,
    steps_per_epoch,
)
from unlearnlab.datagen import AugmentorConfig, gen_synthetic, paired_views_for_ids, split
from unlearnlab.diffcore import (
    DenseLayer,
    EncoderNet,
    FactoredGrad,
    cosine_lr,
    encoder_forward,
    finite_diff_check,
    OptState,
    init_encoder,
    loss_and_grads,
    sgd_momentum_step,
)
from unlearnlab.errors import ConfigurationError, NumericError
from unlearnlab.evalsuite import ProbeConfig
from unlearnlab.unlearn import (
    ACConfig,
    ac_stack_loss_fn,
    neggrad_stack_loss_fn,
    retain_loss,
    retain_stack_loss_fn,
    retrain,
    run_ac,
    unlearn_loss,
    unlearn_stack_loss_fn,
)

R2 = np.sqrt(0.5)
X_VIEWS = np.array([[1.0, 0.0], [0.0, 1.0]])
Y_VIEWS = np.array([[R2, R2], [-1.0, 0.0]])


def jitter_biases(net, seed):
    # fresh nets have zero biases; a row whose hidden units all die would
    # then emit the exact zero vector, where the norm floor makes the true
    # gradient too stiff for finite differences to resolve
    rng = np.random.default_rng(seed)
    for la in net.layers:
        la.b += rng.uniform(0.05, 0.2, size=la.b.shape)
    return net


def identity_encoder(dim):
    # unit-norm inputs pass through unchanged (norm floor vanishes at 1.0)
    return EncoderNet([DenseLayer(np.eye(dim), np.zeros(dim))], normalize_output=True)


def tiny_problem(n=40, unlearn_frac=0.2, seed=0):
    data = gen_synthetic(3, 6, n, 5.0, seed=seed)
    splits = split(data, unlearn_frac, 0.0, 0.0, seed=seed)
    return data, splits


class TestRetainLoss:
    def test_pool_equal_to_batch_reduces_to_infonce(self):
        enc = identity_encoder(2)
        pool = np.vstack([X_VIEWS, Y_VIEWS])
        got = retain_loss(enc, X_VIEWS, Y_VIEWS, pool, temperature=0.5)
        want = info_nce_batch(pool, 0.5)
        assert got == pytest.approx(want, abs=1e-13)

    def test_external_pool_hand_value(self):
        # frozen scalar oracle: batch views + 2 extra unit vectors in pool
        enc = identity_encoder(2)
        pool = np.vstack([X_VIEWS, Y_VIEWS, [[0.6, 0.8], [0.0, -1.0]]])
        got = retain_loss(enc, X_VIEWS, Y_VIEWS, pool, temperature=0.5)
        assert got == pytest.approx(1.4003924598706115, abs=1e-14)

    def test_singleton_batch_against_rich_pool(self):
        enc = identity_encoder(2)
        pool = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        val = retain_loss(enc, np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), pool, 0.5)
        assert np.isfinite(val)

    def test_empty_pool_rejected(self):
        enc = identity_encoder(2)
        with pytest.raises(ConfigurationError):
            retain_loss(enc, X_VIEWS, Y_VIEWS, np.zeros((0, 2)), 0.5)


class TestUnlearnLoss:
    def test_hand_values_and_coefficients(self):
        enc = identity_encoder(2)
        pool = np.vstack([X_VIEWS, Y_VIEWS])
        cfg = ACConfig(negpair_weight=1, forget_weight=1, preserve_weight=1)
        got = unlearn_loss(enc, X_VIEWS, Y_VIEWS, pool, cfg)
        assert got == pytest.approx(2.0850193260362264, abs=1e-14)
        cfg2 = ACConfig(negpair_weight=2, forget_weight=0.5, preserve_weight=3)
        got2 = unlearn_loss(enc, X_VIEWS, Y_VIEWS, pool, cfg2)
        assert got2 == pytest.approx(5.1211745016254948, abs=1e-14)

    def test_term_isolation(self):
        # negpair term alone: -mean raw cosine over cross-sample view pairs
        enc = identity_encoder(2)
        pool = np.vstack([X_VIEWS, Y_VIEWS])
        only_neg = unlearn_loss(
            enc, X_VIEWS, Y_VIEWS, pool,
            ACConfig(negpair_weight=1, forget_weight=0, preserve_weight=0),
        )
        assert only_neg == pytest.approx(0.25, abs=1e-14)  # -(-0.25)... sign check below
        only_pos = unlearn_loss(
            enc, X_VIEWS, Y_VIEWS, pool,
            ACConfig(negpair_weight=0, forget_weight=1, preserve_weight=0),
        )
        assert only_pos == pytest.approx(0.35355339059327379, abs=1e-14)

    def test_additivity_in_coefficients(self):
        rng = np.random.default_rng(8)
        enc = init_encoder([5, 4], seed=2)
        for trial in range(20):
            u = int(rng.integers(2, 5))
            ux = rng.normal(size=(u, 5))
            uy = rng.normal(size=(u, 5))
            pool = rng.normal(size=(int(rng.integers(2, 7)), 5))
            a, b, c = rng.uniform(0.1, 5.0, size=3)
            parts = [
                unlearn_loss(enc, ux, uy, pool, ACConfig(negpair_weight=a, forget_weight=0, preserve_weight=0)),
                unlearn_loss(enc, ux, uy, pool, ACConfig(negpair_weight=0, forget_weight=b, preserve_weight=0)),
                unlearn_loss(enc, ux, uy, pool, ACConfig(negpair_weight=0, forget_weight=0, preserve_weight=c)),
            ]
            total = unlearn_loss(enc, ux, uy, pool, ACConfig(negpair_weight=a, forget_weight=b, preserve_weight=c))
            assert abs(total - sum(parts)) <= 1e-12

    def test_scaling_linearity(self):
        enc = identity_encoder(2)
        pool = np.vstack([X_VIEWS, Y_VIEWS])
        base = unlearn_loss(enc, X_VIEWS, Y_VIEWS, pool, ACConfig(negpair_weight=1, forget_weight=0, preserve_weight=0))
        doubled = unlearn_loss(enc, X_VIEWS, Y_VIEWS, pool, ACConfig(negpair_weight=2, forget_weight=0, preserve_weight=0))
        assert doubled == pytest.approx(2 * base, abs=1e-13)

    def test_single_sample_batch_warns(self):
        enc = identity_encoder(2)
        pool = np.vstack([X_VIEWS, Y_VIEWS])
        with pytest.warns(UserWarning, match="cross-sample"):
            val = unlearn_loss(
                enc, X_VIEWS[:1], Y_VIEWS[:1], pool,
                ACConfig(negpair_weight=1, forget_weight=0, preserve_weight=0),
            )
        assert val == 0.0

    def test_identical_views_forget_term_is_one(self):
        enc = identity_encoder(3)
        v = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        cfg = ACConfig(negpair_weight=0, forget_weight=1, preserve_weight=0)
        val = unlearn_loss(enc, v, v.copy(), np.vstack([v, v]), cfg)
        assert val == pytest.approx(1.0, abs=1e-14)


class TestACTotal:
    def test_composition(self):
        """The training loss over a stack [rx; ry; ux; uy] is retain_loss
        plus unlearn_scale * unlearn_loss, each against the whole stack."""
        enc = identity_encoder(2)
        theta = np.linspace(0.1, 5.9, 8)
        stack = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        rx, ry, ux, uy = stack[0:2], stack[2:4], stack[4:6], stack[6:8]
        z = encoder_forward(enc, stack)
        for scale in (0.0, 0.25, 1.0, 1.0 / 9.0):
            cfg = ACConfig(unlearn_scale=scale)
            total = ac_stack_loss_fn(2, 2, cfg, scale)(z)[0]
            r = retain_loss(enc, rx, ry, stack, cfg.temperature)
            u = unlearn_loss(enc, ux, uy, stack, cfg)
            assert total == pytest.approx(r + scale * u, abs=1e-13)


class TestGradients:
    def test_retain_stack_loss_matches_fd(self):
        rng = np.random.default_rng(3)
        net = jitter_biases(init_encoder([4, 5, 3], seed=7), 30)
        stack = rng.normal(size=(2 * 3 + 4, 4))  # 3 pairs + 4 pool rows
        fn = retain_stack_loss_fn(3, 4, temperature=0.5)
        assert finite_diff_check(net, stack, fn) < 1e-5

    def test_unlearn_stack_loss_matches_fd_all_patterns(self):
        rng = np.random.default_rng(4)
        net = jitter_biases(init_encoder([4, 5, 3], seed=9), 31)
        stack = rng.normal(size=(2 * 3 + 3, 4))
        for a, b, c in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1.0, 4.0, 1.0)]:
            fn = unlearn_stack_loss_fn(3, 3, a, b, c, temperature=0.5)
            assert finite_diff_check(net, stack, fn) < 1e-5

    def test_ac_stack_loss_matches_fd(self):
        rng = np.random.default_rng(5)
        net = jitter_biases(init_encoder([4, 6, 3], seed=11), 32)
        cfg = ACConfig(negpair_weight=1, forget_weight=4, preserve_weight=1)
        stack = rng.normal(size=(2 * 3 + 2 * 2, 4))
        fn = ac_stack_loss_fn(3, 2, cfg, unlearn_scale=1.0 / 9.0)
        assert finite_diff_check(net, stack, fn) < 1e-5

    def test_neggrad_stack_loss_matches_fd(self):
        rng = np.random.default_rng(6)
        net = jitter_biases(init_encoder([4, 6, 3], seed=13), 33)
        stack = rng.normal(size=(2 * 3 + 2 * 2, 4))
        fn = neggrad_stack_loss_fn(3, 2, ACConfig(method="neggrad", ascent_weight=0.7))
        assert finite_diff_check(net, stack, fn) < 1e-5

    def test_neggrad_stack_loss_is_the_difference_of_two_infonce(self):
        """Over [rx; ry; ux; uy], InfoNCE(retain) - w * InfoNCE(unlearn),
        each half computed apart."""
        rng = np.random.default_rng(7)
        z = rng.normal(size=(2 * 5 + 2 * 3, 4))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        cfg = ACConfig(method="neggrad", ascent_weight=0.7, temperature=0.3)
        value, dz = neggrad_stack_loss_fn(5, 3, cfg)(z)
        loss_r, dz_r = info_nce_with_grads(z[:10], 0.3)
        loss_u, dz_u = info_nce_with_grads(z[10:], 0.3)
        assert value == pytest.approx(loss_r - 0.7 * loss_u, abs=1e-12)
        np.testing.assert_allclose(dz, np.vstack([dz_r, -0.7 * dz_u]), rtol=0, atol=1e-12)


class TestRuns:
    def _pretrained(self, data, splits, seed=0):
        cfg = ContrastiveConfig(epochs=3, seed=seed, batch_size=16)
        return pretrain(data, splits, cfg, [6, 8, 4], AugmentorConfig())

    def test_zero_epochs_returns_untouched_copy(self):
        data, splits = tiny_problem()
        enc = self._pretrained(data, splits)
        out = run_ac(enc, data, splits, ACConfig(epochs=0), AugmentorConfig())
        assert out is not enc
        for la, lb in zip(out.layers, enc.layers):
            assert np.array_equal(la.w, lb.w)

    @staticmethod
    def _poisoned_run(monkeypatch, enc, data, splits, aug, factored):
        """run_ac with an inf put into the second step's first-layer weight
        gradient, in whichever form it has."""
        real, calls = unlearn.loss_and_grads, []

        def poisoned(*args):
            loss, grads = real(*args)
            calls.append(1)
            if len(calls) == 2:  # epoch 0, step 1
                w = grads.weights[0]
                assert isinstance(w, FactoredGrad) == factored
                if factored:
                    w.delta[0, 0] = np.inf  # the layer's output gradient
                else:
                    w[0, 0] = np.inf
            return loss, grads

        monkeypatch.setattr(unlearn, "loss_and_grads", poisoned)
        cfg = ACConfig(epochs=1, retain_batch=8, unlearn_batch=4)
        with pytest.raises(NumericError, match=r"non-finite loss/grads at epoch 0 step 1$"):
            run_ac(enc, data, splits, cfg, aug)

    def test_non_finite_gradient_step_named(self, monkeypatch):
        data, splits = tiny_problem()
        self._poisoned_run(monkeypatch, self._pretrained(data, splits), data, splits,
                           AugmentorConfig(), factored=False)

    def test_non_finite_factored_gradient_step_named(self, monkeypatch):
        # a 3072-wide first layer over 24-row stacks keeps its gradient factored
        data, splits, aug = _image_problem()
        self._poisoned_run(monkeypatch, init_encoder([3072, 64, 4], seed=1), data, splits,
                           aug, factored=True)

    @pytest.mark.parametrize("factored", [False, True])
    def test_infinite_l1_raises_before_any_write(self, monkeypatch, factored):
        if factored:  # a 3072-wide first layer over 16-row stacks
            data, splits, aug = _image_problem()
            enc = init_encoder([3072, 64, 4], seed=1)
        else:
            data, splits = tiny_problem()
            enc, aug = self._pretrained(data, splits), AugmentorConfig()
        nets, real = [], unlearn.sgd_epochs

        def spy(net, *args, **kwargs):
            nets.append(net)
            return real(net, *args, **kwargs)

        monkeypatch.setattr(unlearn, "sgd_epochs", spy)
        cfg = ACConfig(method="l1sparsity", l1_coeff=np.inf, epochs=1, retain_batch=8)
        with np.errstate(invalid="ignore"), pytest.raises(
                NumericError, match=r"non-finite loss/grads at epoch 0 step 0$"):
            run_ac(enc, data, splits, cfg, aug)
        assert [a.tobytes() for a in nets[0].param_arrays()] == [
            a.tobytes() for a in enc.param_arrays()]

    def test_input_encoder_never_mutated(self):
        data, splits = tiny_problem()
        enc = self._pretrained(data, splits)
        before = [a.copy() for a in enc.param_arrays()]
        run_ac(enc, data, splits, ACConfig(epochs=2, retain_batch=16, unlearn_batch=4), AugmentorConfig())
        for a, b in zip(enc.param_arrays(), before):
            assert np.array_equal(a, b)

    def test_scale_zero_is_bitwise_finetune(self):
        data, splits = tiny_problem()
        enc = self._pretrained(data, splits)
        shared = dict(epochs=2, lr=0.02, retain_batch=16, unlearn_batch=4, seed=5)
        ac = run_ac(enc, data, splits, ACConfig(unlearn_scale=0.0, **shared), AugmentorConfig())
        ft = run_ac(
            enc, data, splits, ACConfig(method="finetune", **shared), AugmentorConfig()
        )
        for la, lb in zip(ac.layers, ft.layers):
            assert np.array_equal(la.w, lb.w)
            assert np.array_equal(la.b, lb.b)

    def test_l1_zero_is_bitwise_finetune(self):
        data, splits = tiny_problem()
        enc = self._pretrained(data, splits)
        shared = dict(epochs=2, lr=0.02, retain_batch=16, unlearn_batch=4, seed=5)
        l1 = run_ac(
            enc, data, splits, ACConfig(method="l1sparsity", l1_coeff=0.0, **shared),
            AugmentorConfig(),
        )
        ft = run_ac(
            enc, data, splits, ACConfig(method="finetune", **shared), AugmentorConfig()
        )
        for la, lb in zip(l1.layers, ft.layers):
            assert np.array_equal(la.w, lb.w)

    def test_l1_positive_changes_trajectory_and_shrinks_weights(self):
        data, splits = tiny_problem()
        enc = self._pretrained(data, splits)
        shared = dict(epochs=3, lr=0.02, retain_batch=16, unlearn_batch=4, seed=5)
        ft = run_ac(enc, data, splits, ACConfig(method="finetune", **shared), AugmentorConfig())
        l1 = run_ac(
            enc, data, splits, ACConfig(method="l1sparsity", l1_coeff=0.01, **shared),
            AugmentorConfig(),
        )
        norm = lambda net: sum(float(np.abs(a).sum()) for a in net.param_arrays())
        assert norm(l1) < norm(ft)

    def test_gradascent_single_step_hand_check(self):
        data, splits = tiny_problem()
        enc = self._pretrained(data, splits)
        m = ACConfig(method="gradascent", epochs=1, lr=0.05, momentum=0.0, weight_decay=0.0,
                     unlearn_batch=64, seed=3)
        out = run_ac(enc, data, splits, m, AugmentorConfig())
        # replicate: one ascent step over the whole unlearn set
        perm = seeds.stream_rng(3, seeds.SHUFFLE_MAIN, 0).permutation(splits.unlearn)
        ux, uy = paired_views_for_ids(data, perm, AugmentorConfig(), 3, 0)
        _, grads = loss_and_grads(enc, np.vstack([ux, uy]), info_nce_loss_fn(0.5))
        lr0 = cosine_lr(0, 1, 0.05)
        for la, gw, la_out in zip(enc.layers, grads.weights, out.layers):
            np.testing.assert_allclose(la_out.w, la.w + lr0 * gw, atol=1e-14)

    def test_neggrad_single_step_hand_check(self):
        data, splits = tiny_problem()
        enc = self._pretrained(data, splits)
        m = ACConfig(method="neggrad", epochs=1, lr=0.05, momentum=0.0, weight_decay=0.0,
                     retain_batch=64, unlearn_batch=4, ascent_weight=0.7, seed=4)
        out = run_ac(enc, data, splits, m, AugmentorConfig())
        rperm = seeds.stream_rng(4, seeds.SHUFFLE_MAIN, 0).permutation(splits.retain)
        uperm = seeds.stream_rng(4, seeds.SHUFFLE_SIDE, 0).permutation(splits.unlearn)
        rx, ry = paired_views_for_ids(data, rperm, AugmentorConfig(), 4, 0)
        ux, uy = paired_views_for_ids(data, uperm[:4], AugmentorConfig(), 4, 0)
        nce = info_nce_loss_fn(0.5)
        _, gr = loss_and_grads(enc, np.vstack([rx, ry]), nce)
        _, gu = loss_and_grads(enc, np.vstack([ux, uy]), nce)
        lr0 = cosine_lr(0, 1, 0.05)
        for la, w_r, w_u, la_out in zip(enc.layers, gr.weights, gu.weights, out.layers):
            np.testing.assert_allclose(la_out.w, la.w - lr0 * (w_r - 0.7 * w_u), atol=1e-14)

    def test_run_ac_deterministic(self):
        data, splits = tiny_problem()
        enc = self._pretrained(data, splits)
        cfg = ACConfig(epochs=2, retain_batch=16, unlearn_batch=4, seed=1)
        a = run_ac(enc, data, splits, cfg, AugmentorConfig())
        b = run_ac(enc, data, splits, cfg, AugmentorConfig())
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.w, lb.w)

    def test_ac_draws_one_view_block_per_epoch(self, monkeypatch):
        data, splits = tiny_problem()
        enc = self._pretrained(data, splits)
        draws = []

        def counting(*args):
            draws.append(args[3])
            return draw(*args)

        draw = datagen.draw_view_block
        monkeypatch.setattr(datagen, "draw_view_block", counting)
        monkeypatch.setattr(unlearn, "draw_view_block", counting)
        cfg = ACConfig(epochs=2, retain_batch=8, unlearn_batch=4, seed=1)
        run_ac(enc, data, splits, cfg, AugmentorConfig())
        assert draws == [0, 1]

    def test_retrain_matches_pretrain_on_retain(self):
        from unlearnlab.contrastive import pretrain_on_ids

        data, splits = tiny_problem()
        cfg = ContrastiveConfig(epochs=2, seed=6, batch_size=16)
        a = retrain(data, splits, cfg, [6, 8, 4], AugmentorConfig())
        b = pretrain_on_ids(data, splits.retain, cfg, [6, 8, 4], AugmentorConfig())
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.w, lb.w)
        # and it must differ from pretraining on the full train split
        c = pretrain(data, splits, cfg, [6, 8, 4], AugmentorConfig())
        assert not np.array_equal(a.layers[0].w, c.layers[0].w)

    def test_method_validation(self):
        with pytest.raises(ConfigurationError, match="retrain"):
            ACConfig(method="retrain")
        with pytest.raises(ConfigurationError):
            ACConfig(method="bogus")
        with pytest.raises(ConfigurationError):
            ACConfig(negpair_weight=-1.0)
        with pytest.raises(ConfigurationError):
            ACConfig(unlearn_scale=-0.5)


@pytest.mark.parametrize("cls,kwargs", [
    (ACConfig, {"lr": np.nan}),
    (ACConfig, {"l1_coeff": np.nan}),
    (ACConfig, {"ascent_weight": np.nan}),
    (ACConfig, {"forget_weight": np.nan}),
    (ACConfig, {"unlearn_scale": np.nan}),
    (ACConfig, {"temperature": np.nan}),
    (ACConfig, {"epochs": 0, "momentum": 1.0}),
    (ACConfig, {"epochs": 0, "weight_decay": -1.0}),
    (ContrastiveConfig, {"temperature": np.nan}),
    (ContrastiveConfig, {"epochs": 0, "momentum": 1.0}),
    (ProbeConfig, {"epochs": 0, "momentum": np.nan}),
    (ProbeConfig, {"epochs": 0, "weight_decay": -1.0}),
    (OptState, {"base_lr": np.nan}),
    (AugmentorConfig, {"noise_sigma": np.nan}),
])
def test_bad_setting_rejected_when_built(cls, kwargs):
    """NaN fails every range check, and the SGD settings are checked even
    when no step will run."""
    with pytest.raises(ConfigurationError):
        cls(**kwargs)


def _image_problem():
    rng = np.random.default_rng(8)
    data = datagen.LabeledDataset(rng.random((30, 3072)), np.arange(30) % 3,
                                  rng.permutation(np.arange(100, 130)))
    return data, split(data, 0.2, 0.0, 0.0, seed=2), AugmentorConfig(image_mode=True)


def _reference_views(data, ids, aug, seed, epoch):
    """The stack [xs; ys] as the training loops once built it."""
    return np.vstack(paired_views_for_ids(data, ids, aug, seed, epoch))


def _dense(grads):
    """grads with a factored first-layer weight gradient replaced by the
    whole product, as the dense backward pass computes it."""
    w = grads.weights[0]
    if isinstance(w, FactoredGrad):
        grads.weights[0] = w.x.T @ w.delta
    return grads


def _reference_pretrain(data, ids, cfg, arch, aug):
    net = init_encoder(arch, seed=(cfg.seed, seeds.NET_INIT))
    opt = OptState(base_lr=cfg.base_lr, momentum=cfg.momentum, weight_decay=cfg.weight_decay,
                   total_steps=cfg.epochs * steps_per_epoch(len(ids), cfg.batch_size))
    nce = info_nce_loss_fn(cfg.temperature)
    for epoch in range(cfg.epochs):
        perm = seeds.stream_rng(cfg.seed, seeds.SHUFFLE_MAIN, epoch).permutation(ids)
        for chunk in batch_chunks(perm, cfg.batch_size):
            _, grads = loss_and_grads(net, _reference_views(data, chunk, aug, cfg.seed, epoch), nce)
            sgd_momentum_step(net, _dense(grads), opt)
    return net


def _reference_unlearn(start, data, splits, aug, cfg, method, coeff=None):
    """Plain-loop unlearning by `method`: AC at scale `coeff`, neggrad with
    ascent weight `coeff` (one loss over the stack of both halves, as AC),
    l1sparsity with L1 coefficient `coeff`,
    gradascent, which steps up the InfoNCE gradient of the unlearn set, or
    finetune, which steps down the retain set's. Every step's gradients are
    fresh dense arrays, each first-layer weight gradient one whole product."""
    net = start.copy()
    ascent_only = method == "gradascent"
    drive, batch = ((splits.unlearn, cfg.unlearn_batch) if ascent_only
                    else (splits.retain, cfg.retain_batch))
    width = min(cfg.unlearn_batch, len(splits.unlearn))
    opt = OptState(base_lr=cfg.lr, momentum=cfg.momentum, weight_decay=cfg.weight_decay,
                   total_steps=cfg.epochs * steps_per_epoch(len(drive), batch))
    nce = info_nce_loss_fn(cfg.temperature)
    for epoch in range(cfg.epochs):
        views = lambda ids: _reference_views(data, ids, aug, cfg.seed, epoch)
        perm = seeds.stream_rng(cfg.seed, seeds.SHUFFLE_MAIN, epoch).permutation(drive)
        chunks = batch_chunks(perm, batch)
        sideperm = seeds.stream_rng(cfg.seed, seeds.SHUFFLE_SIDE, epoch).permutation(splits.unlearn)
        for chunk, side in zip(chunks, unlearn._tile_ids(sideperm, len(chunks), width)):
            if method in ("ac", "neggrad"):
                fn = (ac_stack_loss_fn(len(chunk), width, cfg, coeff, PairWorkspace())
                      if method == "ac" else neggrad_stack_loss_fn(len(chunk), width, cfg))
                _, grads = loss_and_grads(net, np.vstack([views(chunk), views(side)]), fn)
            else:
                grads = _dense(loss_and_grads(net, views(chunk), nce)[1])
                if ascent_only:
                    for a in grads.arrays():
                        a *= -1.0
                elif method == "l1sparsity":
                    for p, g in zip(net.param_arrays(), grads.arrays()):
                        g += coeff * np.sign(p)
            sgd_momentum_step(net, _dense(grads), opt)
    return net


class TestImageModeTraining:
    """The loops fill each step's stack in place; the trained encoders
    equal loops that vstack freshly built views, bit for bit."""

    @staticmethod
    def _same(a, b):
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a.param_arrays(), b.param_arrays()))

    def test_pretrain_on_ids(self):
        data, splits, aug = _image_problem()
        cfg = ContrastiveConfig(epochs=2, batch_size=8, seed=3)
        got = pretrain_on_ids(data, splits.train, cfg, [3072, 8, 4], aug)
        self._same(got, _reference_pretrain(data, splits.train, cfg, [3072, 8, 4], aug))

    def test_run_ac_and_neggrad(self):
        data, splits, aug = _image_problem()
        start = init_encoder([3072, 8, 4], seed=(1, seeds.NET_INIT))
        cfg = ACConfig(epochs=2, lr=0.05, retain_batch=8, unlearn_batch=4,
                       unlearn_scale=0.5, seed=4)
        self._same(run_ac(start, data, splits, cfg, aug),
                   _reference_unlearn(start, data, splits, aug, cfg, "ac", 0.5))
        m = ACConfig(method="neggrad", epochs=2, lr=0.05, retain_batch=8, unlearn_batch=4,
                     ascent_weight=0.7, seed=4)
        self._same(run_ac(start, data, splits, m, aug),
                   _reference_unlearn(start, data, splits, aug, m, "neggrad", 0.7))

    @pytest.mark.parametrize("name,coeff", [("gradascent", None), ("l1sparsity", 1e-3)])
    def test_gradascent_and_l1sparsity(self, name, coeff):
        # 6 unlearn ids in batches of 4 and 24 retain ids in batches of 8:
        # every epoch takes at least 2 steps
        data, splits, aug = _image_problem()
        start = init_encoder([3072, 8, 4], seed=(1, seeds.NET_INIT))
        m = ACConfig(method=name, epochs=2, lr=0.05, retain_batch=8, unlearn_batch=4,
                     l1_coeff=coeff or 0.0, seed=4)
        got = run_ac(start, data, splits, m, aug)
        assert got.layers[0].w.tobytes() != start.layers[0].w.tobytes()
        self._same(got, _reference_unlearn(start, data, splits, aug, m, name, coeff))

    def test_finetune(self):
        data, splits, aug = _image_problem()
        start = init_encoder([3072, 8, 4], seed=(1, seeds.NET_INIT))
        m = ACConfig(method="finetune", epochs=2, lr=0.05, retain_batch=8, unlearn_batch=4,
                     seed=4)
        got = run_ac(start, data, splits, m, aug)
        assert got.layers[0].w.tobytes() != start.layers[0].w.tobytes()
        self._same(got, _reference_unlearn(start, data, splits, aug, m, "finetune"))


def _vector_problem():
    """48 samples of dim 512: 12 unlearn, 24 retain and 12 test ids."""
    data = gen_synthetic(3, 512, 48, 4.0, seed=0)
    return data, split(data, 1 / 3, 0.25, 0.0, seed=0), AugmentorConfig()


# (problem, arch): first layers that keep their gradient factored over the
# training stacks below, which have 8 to 24 rows
FACTORED = [(_image_problem, [3072, 64, 4]), (_vector_problem, [512, 1024, 64])]
# method -> the reference's coefficient (see _reference_unlearn)
COEFFS = {"ac": 0.5, "finetune": None, "gradascent": None, "neggrad": 0.7, "l1sparsity": 1e-3}


@pytest.fixture
def factored_grads(monkeypatch):
    """The number of FactoredGrads built so far."""
    count = [0]
    init = FactoredGrad.__init__

    def counted(self, *args):
        count[0] += 1
        init(self, *args)

    monkeypatch.setattr(FactoredGrad, "__init__", counted)
    return count


class TestFactoredTraining:
    """With the first layer's weight gradient kept as its factors and formed
    block by block in the optimizer, training equals the loops that step on
    whole dense gradients, bit for bit."""

    _same = staticmethod(TestImageModeTraining._same)

    @pytest.mark.parametrize("problem,arch", FACTORED)
    def test_pretrain_on_ids(self, factored_grads, problem, arch):
        data, splits, aug = problem()
        cfg = ContrastiveConfig(epochs=2, batch_size=8, seed=3)
        got = pretrain_on_ids(data, splits.train, cfg, arch, aug)
        assert factored_grads[0] > 0
        self._same(got, _reference_pretrain(data, splits.train, cfg, arch, aug))

    @pytest.mark.parametrize("problem,arch", FACTORED)
    @pytest.mark.parametrize("method", unlearn.METHODS)
    def test_run_ac(self, factored_grads, problem, arch, method):
        data, splits, aug = problem()
        start = init_encoder(arch, seed=(1, seeds.NET_INIT))
        coeff = COEFFS[method]
        m = ACConfig(method=method, epochs=2, lr=0.05, retain_batch=8, unlearn_batch=4,
                     unlearn_scale=coeff if method == "ac" else None,
                     ascent_weight=coeff if method == "neggrad" else 1.0,
                     l1_coeff=coeff if method == "l1sparsity" else 0.0, seed=4)
        got = run_ac(start, data, splits, m, aug)
        assert factored_grads[0] > 0
        assert got.layers[0].w.tobytes() != start.layers[0].w.tobytes()
        self._same(got, _reference_unlearn(start, data, splits, aug, m, method, coeff))
