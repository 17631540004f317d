import tracemalloc

import numpy as np
import pytest

from unlearnlab import contrastive, datagen
from unlearnlab.contrastive import (
    ContrastiveConfig,
    PairTerms,
    PairWorkspace,
    batch_chunks,
    info_nce_batch,
    info_nce_loss_fn,
    info_nce_with_grads,
    pretrain,
    steps_per_epoch,
)
from unlearnlab.datagen import AugmentorConfig, gen_synthetic, split
from unlearnlab.diffcore import encoder_forward, finite_diff_check, init_encoder
from unlearnlab.errors import ConfigurationError, NumericError


def unit_rows(a):
    a = np.asarray(a, float)
    return a / np.linalg.norm(a, axis=1, keepdims=True)


class TestInfoNCE:
    def test_hand_computed_batch_of_two(self):
        # frozen scalar-loop oracle: stack [x0, x1, y0, y1], tau = 0.5
        z = np.array(
            [[1.0, 0.0], [0.0, 1.0], [np.sqrt(0.5), np.sqrt(0.5)], [-1.0, 0.0]]
        )
        loss, dz = info_nce_with_grads(z, temperature=0.5)
        assert loss == pytest.approx(0.774359154256405, abs=1e-14)
        expect = np.array(
            [
                [-0.32031118829615102, -0.081275743001649248],
                [1.1421259347985404, 0.40958789529013151],
                [-0.46786942738475995, 0.5792447565031551],
                [0.13448672814109142, -0.48298013769642723],
            ]
        )
        np.testing.assert_allclose(dz, expect, rtol=0, atol=1e-14)

    def test_singleton_pair_is_zero_loss(self):
        z = unit_rows([[1.0, 2.0], [0.5, -1.0]])
        assert info_nce_batch(z, 0.5) == 0.0
        loss, dz = info_nce_with_grads(z, 0.5)
        assert loss == 0.0
        np.testing.assert_allclose(dz, 0.0, atol=1e-15)

    def test_odd_stack_rejected(self):
        with pytest.raises(ConfigurationError):
            info_nce_batch(np.ones((3, 2)), 0.5)

    def test_bad_temperature_rejected(self):
        z = unit_rows(np.random.default_rng(0).normal(size=(6, 3)))
        with pytest.raises(ConfigurationError):
            info_nce_batch(z, 0.0)

    def test_pair_permutation_invariance(self):
        rng = np.random.default_rng(1)
        b = 5
        x = unit_rows(rng.normal(size=(b, 4)))
        y = unit_rows(rng.normal(size=(b, 4)))
        base = info_nce_batch(np.vstack([x, y]), 0.5)
        perm = rng.permutation(b)
        shuffled = info_nce_batch(np.vstack([x[perm], y[perm]]), 0.5)
        assert shuffled == pytest.approx(base, abs=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(2)
        z = unit_rows(rng.normal(size=(8, 5)))
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        assert info_nce_batch(z @ q, 0.5) == pytest.approx(
            info_nce_batch(z, 0.5), abs=1e-10
        )

    def test_monotone_in_positive_similarity(self):
        # pair 1 fixed in a subspace orthogonal to pair 0, so only the
        # positive similarity of pair 0 moves with theta
        losses = []
        for theta in np.linspace(0.1, np.pi - 0.1, 9):
            x0 = np.array([1.0, 0.0, 0.0, 0.0])
            y0 = np.array([np.cos(theta), np.sin(theta), 0.0, 0.0])
            x1 = y1 = np.array([0.0, 0.0, 1.0, 0.0])
            losses.append(info_nce_batch(np.stack([x0, x1, y0, y1]), 0.5))
        assert all(a < b for a, b in zip(losses, losses[1:]))  # sim falls as theta grows

    def test_lower_temperature_sharpens(self):
        rng = np.random.default_rng(3)
        z = unit_rows(rng.normal(size=(12, 6)))
        # no required ordering, just sanity: both finite and different
        a, b = info_nce_batch(z, 0.2), info_nce_batch(z, 1.0)
        assert np.isfinite(a) and np.isfinite(b) and a != b

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        net = init_encoder([5, 7, 4], seed=11)
        x = rng.normal(size=(8, 5))
        assert finite_diff_check(net, x, info_nce_loss_fn(0.5)) < 1e-5


class TestPairTerms:
    def test_pair_mean_with_duplicates_accumulates(self):
        z = unit_rows([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        acc = PairTerms(z)
        acc.add_pair_mean([0, 0], [1, 1], coeff=2.0)
        val, dz = acc.result()
        assert val == pytest.approx(2.0 * z[0] @ z[1], abs=1e-15)

    def test_empty_pool_rejected(self):
        z = unit_rows([[1.0, 0.0], [0.0, 1.0]])
        acc = PairTerms(z)
        with pytest.raises(ConfigurationError):
            acc.add_log_sum_exp(slice(0, 1), slice(0, 1), coeff=1.0, tau=0.5,
                                exclude_pool_pos=[0])


def _reference_lse(s, anchors, keep):
    """mean over anchors of log sum_k exp(s[a, k]) over the kept k, and its
    derivative with respect to s; keep is an explicit boolean mask."""
    rows = s[anchors]
    masked = np.where(keep, rows, -np.inf)
    m = masked.max(axis=1, keepdims=True)
    w = np.where(keep, np.exp(rows - m), 0.0)
    tot = w.sum(axis=1, keepdims=True)
    d = np.zeros_like(s)
    d[anchors] = w / tot / len(anchors)
    return float(np.mean(m[:, 0] + np.log(tot[:, 0]))), d


def _reference_pair_mean(n, pairs):
    """The derivative of the mean of P over the (i, j) pairs."""
    d = np.zeros((n, n))
    for i, j in pairs:
        d[i, j] += 1.0 / len(pairs)
    return d


def _reference_info_nce(z, tau):
    """InfoNCE over the stack [x; y], as a value and dL/dz: each row's
    partner is the other view of its sample, and its pool is every other
    row."""
    n = len(z)
    b = n // 2
    p = z @ z.T
    partners = [(a, (a + b) % n) for a in range(n)]
    lse, d_lse = _reference_lse(p / tau, np.arange(n), ~np.eye(n, dtype=bool))
    value = -np.mean([p[a, k] for a, k in partners]) / tau + lse
    dp = -_reference_pair_mean(n, partners) / tau + d_lse / tau
    return value, (dp + dp.T) @ z


def _reference_ac(z, n_r, n_u, cfg, scale):
    """The AC loss over the stack [rx; ry; ux; uy] and dL/dz: InfoNCE of the
    retain rows against the whole stack, minus negpair_weight times the mean
    similarity of unlearn views of different samples, plus forget_weight
    times the mean positive-pair similarity, plus preserve_weight times the
    unlearn rows' log-sum-exp against the whole stack; every pool drops the
    anchor's own row, and the unlearn terms are scaled by scale."""
    n = len(z)
    tau = cfg.temperature
    p = z @ z.T
    not_self = ~np.eye(n, dtype=bool)
    r_rows = np.arange(2 * n_r)
    u_rows = 2 * n_r + np.arange(2 * n_u)
    partners = [(a, (a + n_r) % (2 * n_r)) for a in r_rows]
    negpairs = [(u_rows[i], u_rows[j]) for i in range(2 * n_u) for j in range(i + 1, 2 * n_u)
                if i % n_u != j % n_u]
    forget = [(u_rows[i], u_rows[n_u + i]) for i in range(n_u)]
    r_lse, d_r = _reference_lse(p / tau, r_rows, not_self[r_rows])
    u_lse, d_u = _reference_lse(p / tau, u_rows, not_self[u_rows])

    def mean_p(pairs):
        return np.mean([p[i, j] for i, j in pairs])

    value = (-mean_p(partners) / tau + r_lse
             + scale * (-cfg.negpair_weight * mean_p(negpairs)
                        + cfg.forget_weight * mean_p(forget)
                        + cfg.preserve_weight * u_lse))
    dp = (-_reference_pair_mean(n, partners) / tau + d_r / tau
          + scale * (-cfg.negpair_weight * _reference_pair_mean(n, negpairs)
                     + cfg.forget_weight * _reference_pair_mean(n, forget)
                     + cfg.preserve_weight * d_u / tau))
    return value, (dp + dp.T) @ z


class TestLossReference:
    """The loss layer against a plain numpy reference with explicit masks."""

    @staticmethod
    def _assert_close(got, want):
        (value, grad), (ref_value, ref_grad) = got, want
        assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
        assert np.linalg.norm(grad - ref_grad) <= 1e-12 * np.linalg.norm(ref_grad)

    @pytest.mark.parametrize("b", [2, 9, 64])
    def test_info_nce(self, b):
        z = np.random.default_rng(b).normal(size=(2 * b, 5))
        self._assert_close(info_nce_with_grads(z, 0.5), _reference_info_nce(z, 0.5))

    @pytest.mark.parametrize("scale", [0.0, 0.3])
    def test_ac_stack(self, scale):
        from unlearnlab.unlearn import ACConfig, ac_stack_loss_fn

        cfg = ACConfig(negpair_weight=1.5, forget_weight=4.0, preserve_weight=0.5,
                       temperature=0.4)
        z = np.random.default_rng(7).normal(size=(2 * 12 + 2 * 4, 5))
        self._assert_close(ac_stack_loss_fn(12, 4, cfg, scale)(z),
                           _reference_ac(z, 12, 4, cfg, scale))


def unit_stack(rng, n, d=16):
    return unit_rows(rng.normal(size=(n, d)))


class TestPairWorkspace:
    def test_views_reuse_one_buffer(self):
        work = PairWorkspace()
        big = work.matrices(8)
        small = work.matrices(5)
        for m in big + small:
            assert m.flags.c_contiguous and m.dtype == np.float64
        assert [m.shape for m in small] == [(5, 5)] * 3
        assert all(m.base is big[0].base for m in big + small)  # no new buffer
        for views in (big, small):
            assert not any(np.shares_memory(a, b) for a, b in zip(views, views[1:]))

    def test_matrices_and_gradient_lifetime(self):
        rng = np.random.default_rng(2)
        work = PairWorkspace()
        z = unit_stack(rng, 10)
        acc = PairTerms(z, work)
        assert np.array_equal(acc.p, z @ z.T)
        _, grad = info_nce_with_grads(z, 0.5, work=work)
        kept = grad.copy()
        info_nce_with_grads(unit_stack(rng, 10), 0.5, work=work)
        assert not any(np.shares_memory(grad, m) for m in work.matrices(10))
        assert np.array_equal(grad, kept)

    # the InfoNCE stacks of a 128 batch and of a short last batch of 21; the
    # AC stack of 128 retain and 32 unlearn pairs. A gemm against a copy of
    # z^T rounds like syrk only at some n, and at some others its P is not
    # even symmetric.
    @pytest.mark.parametrize("n", [256, 42, 320])
    def test_p_is_bitwise_z_zt(self, n):
        z = unit_stack(np.random.default_rng(n), n)
        p = PairTerms(z).p
        assert p.tobytes() == (z @ z.T).tobytes()
        assert np.array_equal(p, p.T)

    def test_reused_info_nce_closure_is_bitwise_fresh(self):
        rng = np.random.default_rng(3)
        fn = info_nce_loss_fn(0.5)
        for b in (64, 64, 21, 64, 100, 2):  # full, shorter last chunk, larger
            z = unit_stack(rng, 2 * b)
            value, grad = fn(z)
            ref_value, ref_grad = info_nce_with_grads(z, 0.5)
            assert value == ref_value
            assert np.array_equal(grad, ref_grad)

    def test_reused_ac_closures_are_bitwise_fresh(self):
        from unlearnlab.unlearn import ACConfig, ac_stack_loss_fn

        rng = np.random.default_rng(4)
        cfg = ACConfig(temperature=0.4)
        work = PairWorkspace()
        fns = {}
        for r in (48, 48, 13, 48, 80):  # full, shorter last chunk, larger
            if r not in fns:
                fns[r] = ac_stack_loss_fn(r, 8, cfg, 0.3, work)
            z = unit_stack(rng, 2 * r + 16)
            value, grad = fns[r](z)
            ref_value, ref_grad = ac_stack_loss_fn(r, 8, cfg, 0.3)(z)
            assert value == ref_value
            assert np.array_equal(grad, ref_grad)


class TestNoPairMatrixPerCall:
    """Once warm, a loss closure allocates no n x n matrix: numpy reports
    its buffers to tracemalloc, so the traced peak would show one."""

    MATRIX_BYTES = 256 * 256 * 8

    @staticmethod
    def _peak_of_second_call(fn, z) -> int:
        fn(z)
        tracemalloc.start()
        try:
            fn(z)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_info_nce(self):
        z = unit_stack(np.random.default_rng(5), 256)
        assert self._peak_of_second_call(info_nce_loss_fn(0.5), z) < self.MATRIX_BYTES

    def test_ac_stack(self):
        from unlearnlab.unlearn import ACConfig, ac_stack_loss_fn

        z = unit_stack(np.random.default_rng(6), 256)  # [rx; ry; ux; uy], 96 + 32 pairs
        fn = ac_stack_loss_fn(96, 32, ACConfig(), 0.25)
        assert self._peak_of_second_call(fn, z) < self.MATRIX_BYTES


class TestBatching:
    def test_chunks_drop_single_trailing(self):
        order = np.arange(7)
        chunks = batch_chunks(order, 3)
        assert [len(c) for c in chunks] == [3, 3]
        chunks = batch_chunks(np.arange(8), 3)
        assert [len(c) for c in chunks] == [3, 3, 2]
        assert steps_per_epoch(7, 3) == 2

    def test_batch_larger_than_data(self):
        assert [len(c) for c in batch_chunks(np.arange(5), 64)] == [5]


class TestPretrain:
    def _tiny(self):
        data = gen_synthetic(3, 6, 60, 5.0, seed=0)
        splits = split(data, 0.2, 0.1, 0.1, seed=0)
        return data, splits

    def test_zero_epochs_returns_fresh_init(self):
        data, splits = self._tiny()
        cfg = ContrastiveConfig(epochs=0, seed=3, batch_size=16)
        net = pretrain(data, splits, cfg, [6, 8, 4], AugmentorConfig())
        ref = init_encoder([6, 8, 4], seed=(3, 5))  # NET_INIT stream tag
        for la, lb in zip(net.layers, ref.layers):
            assert np.array_equal(la.w, lb.w)

    def test_training_changes_weights_deterministically(self):
        data, splits = self._tiny()
        cfg = ContrastiveConfig(epochs=3, seed=1, batch_size=16)
        aug = AugmentorConfig()
        a = pretrain(data, splits, cfg, [6, 8, 4], aug)
        b = pretrain(data, splits, cfg, [6, 8, 4], aug)
        fresh = init_encoder([6, 8, 4], seed=(1, 5))
        assert not np.array_equal(a.layers[0].w, fresh.layers[0].w)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.w, lb.w)
            assert np.array_equal(la.b, lb.b)

    def test_seed_changes_trajectory(self):
        data, splits = self._tiny()
        aug = AugmentorConfig()
        a = pretrain(data, splits, ContrastiveConfig(epochs=2, seed=1, batch_size=16), [6, 8, 4], aug)
        b = pretrain(data, splits, ContrastiveConfig(epochs=2, seed=2, batch_size=16), [6, 8, 4], aug)
        assert not np.array_equal(a.layers[0].w, b.layers[0].w)

    def test_one_view_block_per_epoch(self, monkeypatch):
        data, splits = self._tiny()
        draws = []

        def counting(*args):
            draws.append(args[3])
            return draw(*args)

        draw = datagen.draw_view_block
        monkeypatch.setattr(datagen, "draw_view_block", counting)
        monkeypatch.setattr(contrastive, "draw_view_block", counting)
        cfg = ContrastiveConfig(epochs=3, seed=1, batch_size=8)
        assert steps_per_epoch(len(splits.train), 8) > 1
        pretrain(data, splits, cfg, [6, 8, 4], AugmentorConfig())
        assert draws == [0, 1, 2]

    @pytest.mark.parametrize("poison", ["gradient", "loss"])
    def test_non_finite_step_named(self, monkeypatch, poison):
        data, splits = self._tiny()
        spe = steps_per_epoch(len(splits.train), 16)
        real, calls = contrastive.loss_and_grads, []

        def poisoned(*args):
            loss, grads = real(*args)
            calls.append(1)
            if len(calls) == spe + 2:  # epoch 1, step 1
                if poison == "gradient":
                    grads.biases[-1][-1] = np.nan
                else:
                    loss = np.inf
            return loss, grads

        monkeypatch.setattr(contrastive, "loss_and_grads", poisoned)
        cfg = ContrastiveConfig(epochs=2, seed=1, batch_size=16)
        with pytest.raises(NumericError, match=r"non-finite loss/grads at epoch 1 step 1$"):
            pretrain(data, splits, cfg, [6, 8, 4], AugmentorConfig())

    def test_arch_mismatch_rejected(self):
        data, splits = self._tiny()
        with pytest.raises(ConfigurationError):
            pretrain(data, splits, ContrastiveConfig(epochs=1), [5, 4], AugmentorConfig())

    def test_identity_augmentation_warns(self):
        data, splits = self._tiny()
        cfg = ContrastiveConfig(epochs=1, batch_size=16)
        with pytest.warns(UserWarning, match="identity augmentation"):
            pretrain(data, splits, cfg, [6, 4], AugmentorConfig.identity())

    def test_features_unit_norm_after_training(self):
        data, splits = self._tiny()
        cfg = ContrastiveConfig(epochs=2, seed=0, batch_size=16)
        net = pretrain(data, splits, cfg, [6, 8, 4], AugmentorConfig())
        z = encoder_forward(net, data.samples[:10])
        np.testing.assert_allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-9)
