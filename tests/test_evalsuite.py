import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp_special
from scipy import stats as sp_stats

from unlearnlab import evalsuite, seeds
from unlearnlab.cli import main as cli_main
from unlearnlab.contrastive import ContrastiveConfig, pretrain
from unlearnlab.datagen import AugmentorConfig, gen_synthetic, load_dataset, load_splits, split
from unlearnlab.diffcore import DenseLayer, EncoderNet, encoder_forward, init_encoder
from unlearnlab.errors import ConfigurationError, NumericError
from unlearnlab.evalsuite import (
    AlignmentGapMatrix,
    AlignmentMatrix,
    EvalReport,
    ProbeConfig,
    SummaryStats,
    alignment_gap,
    alignment_matrix,
    classifier_metrics,
    cmia_efficacy,
    confidence_scores,
    encoder_mi_efficacy,
    evaluate,
    fit_threshold,
    forgetting_score,
    forgetting_score_from_features,
    gap_report,
    linear_probe,
    mi_alignment_scores,
    neg_alignment_stats,
    paired_unlearn_views,
    probe_logits,
    reg_inc_beta,
    softmax_xent_loss_fn,
    welch_ttest,
)
from unlearnlab.persist import load_encoder


def unit_rows(a):
    a = np.asarray(a, float)
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def identity_encoder(dim):
    return EncoderNet([DenseLayer(np.eye(dim), np.zeros(dim))], normalize_output=True)


def probe_on(enc, data, ids, num_classes, cfg):
    """linear_probe on enc's features of ids."""
    return linear_probe(encoder_forward(enc, data.samples_for(ids)), data.labels_for(ids),
                        num_classes, cfg)


class TestAlignment:
    def test_hand_matrix(self):
        fx = np.array([[1.0, 0.0], [0.0, 1.0]])
        fy = unit_rows([[1.0, 1.0], [-1.0, 0.0]])
        am = alignment_matrix(fx, fy, row_ids=[7, 8], col_ids=[7, 8])
        r2 = np.sqrt(0.5)
        np.testing.assert_allclose(am.values, [[r2, -1.0], [r2, 0.0]], atol=1e-15)

    def test_requires_unit_rows(self):
        with pytest.raises(ConfigurationError, match="unit"):
            alignment_matrix(np.array([[2.0, 0.0]]), np.array([[1.0, 0.0]]))

    def test_nan_rows_rejected(self):
        nan_row = np.array([[1.0, 0.0], [np.nan, 0.0]])
        ok = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ConfigurationError, match="finite unit-norm"):
            alignment_matrix(nan_row, ok)
        with pytest.raises(ConfigurationError, match="finite unit-norm"):
            forgetting_score_from_features(ok, ok, ok, nan_row)

    def test_gap_of_identical_matrices_is_zero(self):
        f = unit_rows(np.random.default_rng(0).normal(size=(4, 3)))
        am = alignment_matrix(f, f)
        gap = alignment_gap(am, am)
        assert np.all(gap.values == 0.0)

    def test_gap_requires_matching_ids(self):
        f = unit_rows(np.random.default_rng(0).normal(size=(3, 2)))
        a = alignment_matrix(f, f, row_ids=[0, 1, 2], col_ids=[0, 1, 2])
        b = alignment_matrix(f, f, row_ids=[0, 1, 3], col_ids=[0, 1, 2])
        with pytest.raises(ConfigurationError, match="ids"):
            alignment_gap(a, b)

    def test_gap_diagonal_equals_per_sample_forgetting(self):
        rng = np.random.default_rng(1)
        bx, by = unit_rows(rng.normal(size=(5, 4))), unit_rows(rng.normal(size=(5, 4)))
        ax, ay = unit_rows(rng.normal(size=(5, 4))), unit_rows(rng.normal(size=(5, 4)))
        gap = alignment_gap(alignment_matrix(bx, by), alignment_matrix(ax, ay))
        _, per = forgetting_score_from_features(bx, by, ax, ay)
        np.testing.assert_allclose(np.diag(gap.values), per, atol=1e-12)


class TestForgettingScore:
    def test_same_encoder_gives_exact_zero(self):
        data = gen_synthetic(3, 6, 30, 5.0, seed=0)
        enc = identity_encoder(6)
        fs, per = forgetting_score(enc, enc, data, data.ids[:10], AugmentorConfig(), seed=3)
        assert fs == 0.0
        assert np.all(per == 0.0)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(2)
        bx, by = unit_rows(rng.normal(size=(8, 5))), unit_rows(rng.normal(size=(8, 5)))
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        fs, per = forgetting_score_from_features(bx, by, bx @ q, by @ q)
        assert abs(fs) < 1e-12
        assert np.max(np.abs(per)) < 1e-12

    def test_hand_values(self):
        bx = np.array([[1.0, 0.0]])
        by = np.array([[0.9, np.sqrt(1 - 0.81)]])
        ax = np.array([[1.0, 0.0]])
        ay = np.array([[0.5, np.sqrt(0.75)]])
        fs, per = forgetting_score_from_features(bx, by, ax, ay)
        assert fs == pytest.approx(0.4, abs=1e-12)
        assert per[0] == pytest.approx(0.4, abs=1e-12)

    def test_replayed_views_are_stable(self):
        data = gen_synthetic(3, 6, 30, 5.0, seed=0)
        a = paired_unlearn_views(data, data.ids[:5], AugmentorConfig(), seed=9)
        b = paired_unlearn_views(data, data.ids[:5], AugmentorConfig(), seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_replayed_views_are_per_id(self):
        """An id's pair is the same replayed alone or among other ids, and
        is drawn from its own (seed, AUDIT_VIEWS=8, id) generator: scales
        (2,), then noise (2, d), then mask uniforms (2, d)."""
        data = gen_synthetic(3, 7, 30, 5.0, seed=0)
        aug = AugmentorConfig(mask_prob=0.3)
        ids = [21, 4, 13]
        xs, ys = paired_unlearn_views(data, ids, aug, seed=9)
        for k, sid in enumerate(ids):
            ax, ay = paired_unlearn_views(data, [sid], aug, seed=9)
            assert xs[k].tobytes() == ax[0].tobytes()
            assert ys[k].tobytes() == ay[0].tobytes()
            rng = np.random.default_rng((9, 8, sid))
            scale = rng.uniform(aug.scale_lo, aug.scale_hi, size=2)
            noise = rng.standard_normal((2, 7))
            drop = rng.random((2, 7)) < aug.mask_prob
            x = data.samples[sid]
            ref = np.where(drop, 0.0, x * scale[:, None] + aug.noise_sigma * noise)
            assert xs[k].tobytes() == ref[0].tobytes()
            assert ys[k].tobytes() == ref[1].tobytes()


class TestNegAlignmentStats:
    def test_full_and_upper_modes(self):
        vals = np.array([[0.5, 0.2, -0.1], [0.3, 0.6, 0.4], [-0.2, 0.1, 0.7]])
        gap = AlignmentGapMatrix(vals, np.arange(3), np.arange(3))
        off = np.array([0.2, -0.1, 0.3, 0.4, -0.2, 0.1])
        full = neg_alignment_stats(gap, "full")
        assert full.n == 6
        assert full.mean == pytest.approx(off.mean(), abs=1e-15)
        assert full.std == pytest.approx(np.std(off, ddof=1), abs=1e-15)
        up = neg_alignment_stats(gap, "upper")
        upv = np.array([0.2, -0.1, 0.4])
        assert up.n == 3
        assert up.mean == pytest.approx(upv.mean(), abs=1e-15)

    def test_bad_mode_rejected(self):
        gap = AlignmentGapMatrix(np.zeros((2, 2)), np.arange(2), np.arange(2))
        with pytest.raises(ConfigurationError):
            neg_alignment_stats(gap, "diagonal")


class TestWelch:
    def test_reference_alignment_drop_case(self):
        a = SummaryStats(-0.0026, 0.0587, 20)
        b = SummaryStats(0.0353, 0.0575, 20)
        r = welch_ttest(a, b)
        assert r.p_value == pytest.approx(0.0459, abs=5e-3)
        assert r.t_statistic == pytest.approx(-2.0627, abs=1e-3)

    def test_matches_scipy_summary_ttest(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            m1, m2 = rng.normal(0, 2, 2)
            s1, s2 = rng.uniform(0.01, 3, 2)
            n1, n2 = (int(x) for x in rng.integers(2, 300, 2))
            mine = welch_ttest(SummaryStats(m1, s1, n1), SummaryStats(m2, s2, n2))
            ref = sp_stats.ttest_ind_from_stats(m1, s1, n1, m2, s2, n2, equal_var=False)
            assert mine.p_value == pytest.approx(ref.pvalue, abs=1e-10)
            assert mine.t_statistic == pytest.approx(ref.statistic, abs=1e-10)
            v1, v2 = s1 * s1 / n1, s2 * s2 / n2
            df = (v1 + v2) ** 2 / (v1 * v1 / (n1 - 1) + v2 * v2 / (n2 - 1))
            assert mine.degrees_of_freedom == pytest.approx(df, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        m1=st.floats(-10, 10), m2=st.floats(-10, 10),
        s1=st.floats(0.01, 5), s2=st.floats(0.01, 5),
        n1=st.integers(2, 500), n2=st.integers(2, 500),
    )
    def test_antisymmetry(self, m1, m2, s1, s2, n1, n2):
        a, b = SummaryStats(m1, s1, n1), SummaryStats(m2, s2, n2)
        r1, r2 = welch_ttest(a, b), welch_ttest(b, a)
        assert r1.t_statistic == -r2.t_statistic
        assert r1.p_value == r2.p_value
        assert r1.degrees_of_freedom == r2.degrees_of_freedom

    def test_identical_degenerate_groups(self):
        r = welch_ttest(SummaryStats(0.5, 0.0, 10), SummaryStats(0.5, 0.0, 10))
        assert r.t_statistic == 0.0 and r.p_value == 1.0

    def test_zero_variance_unequal_means_rejected(self):
        with pytest.raises(ConfigurationError):
            welch_ttest(SummaryStats(0.5, 0.0, 10), SummaryStats(0.1, 0.0, 10))

    def test_small_groups_rejected(self):
        with pytest.raises(ConfigurationError):
            welch_ttest(SummaryStats(0.5, 0.1, 1), SummaryStats(0.1, 0.1, 10))

    def test_incomplete_beta_against_scipy(self):
        worst = 0.0
        for a in [0.5, 1.0, 2.5, 7.0, 19.5, 120.0]:
            for b in [0.5, 1.0, 3.0, 40.0]:
                for x in np.linspace(0.0, 1.0, 41):
                    worst = max(worst, abs(reg_inc_beta(a, b, x) - sp_special.betainc(a, b, x)))
        assert worst < 1e-8  # required accuracy; measured ~6e-14

    def test_summary_stats_from_values(self):
        v = [1.0, 2.0, 3.0, 4.0]
        s = SummaryStats.from_values(v)
        assert s.mean == 2.5 and s.n == 4
        assert s.std == pytest.approx(np.std(v, ddof=1), abs=1e-15)


class TestThreshold:
    def test_separable_sets(self):
        thr, acc = fit_threshold([2.0, 3.0, 4.0], [0.0, 0.5, 1.0])
        assert 1.0 < thr < 2.0
        assert acc == 1.0

    def test_tie_takes_lowest_threshold(self):
        # all candidates equally bad: identical score multisets
        thr, acc = fit_threshold([1.0, 2.0], [1.0, 2.0])
        assert thr == 0.0  # sentinel below the smallest score
        assert acc == 0.5

    def test_all_identical_scores(self):
        thr, acc = fit_threshold([3.0, 3.0], [3.0])
        # member iff score > thr: thr=2 calls everyone member (acc 2/3)
        assert thr == pytest.approx(2.0)
        assert acc == pytest.approx(2.0 / 3.0)

    def test_matches_exhaustive_sweep(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            m = rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0], size=rng.integers(1, 20)) + rng.normal(0, 0.3, 1)
            n = rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0], size=rng.integers(1, 20))
            thr, acc = fit_threshold(m, n)
            pooled = np.unique(np.concatenate([m, n]))
            cands = np.concatenate([[pooled[0] - 1], (pooled[:-1] + pooled[1:]) / 2, [pooled[-1] + 1]])
            best_acc, best_thr = -1.0, None
            for c in cands:  # brute force, lowest threshold wins ties
                a = (np.sum(m > c) + np.sum(n <= c)) / (len(m) + len(n))
                if a > best_acc:
                    best_acc, best_thr = a, c
            assert acc == pytest.approx(best_acc, abs=1e-12)
            assert thr == pytest.approx(best_thr, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            fit_threshold([], [1.0])


class TestMembershipAttacks:
    def _problem(self):
        data = gen_synthetic(3, 8, 240, 6.0, seed=1)
        splits = split(data, 0.15, 0.2, 0.0, seed=1)
        return data, splits

    def test_alignment_scores_bounded_and_deterministic(self):
        data, splits = self._problem()
        enc = init_encoder([8, 6, 4], seed=0)
        s1 = mi_alignment_scores(enc, data, splits.unlearn, AugmentorConfig(), seed=2)
        s2 = mi_alignment_scores(enc, data, splits.unlearn, AugmentorConfig(), seed=2)
        assert np.array_equal(s1, s2)
        assert np.all(s1 >= -1.0) and np.all(s1 <= 1.0)
        assert s1.shape == (len(splits.unlearn),)

    def test_identity_views_score_one(self):
        data, splits = self._problem()
        enc = init_encoder([8, 6, 4], seed=0)
        s = mi_alignment_scores(enc, data, splits.unlearn[:5], AugmentorConfig.identity(), seed=2)
        np.testing.assert_allclose(s, 1.0, atol=1e-9)

    def test_emia_within_unit_interval(self):
        data, splits = self._problem()
        enc = init_encoder([8, 6, 4], seed=0)
        eff = encoder_mi_efficacy(enc, data, splits, AugmentorConfig(), seed=2)
        assert 0.0 <= eff <= 1.0

    def test_emia_requires_test_split(self):
        data = gen_synthetic(3, 8, 60, 6.0, seed=1)
        splits = split(data, 0.2, 0.0, 0.0, seed=1)
        enc = init_encoder([8, 4], seed=0)
        with pytest.raises(ConfigurationError, match="test"):
            encoder_mi_efficacy(enc, data, splits, AugmentorConfig(), seed=2)


class TestProbe:
    def test_perfect_probe_on_separable_clusters(self):
        data = gen_synthetic(3, 8, 150, 8.0, seed=2)
        enc = identity_encoder(8)
        ids = data.ids
        head = probe_on(enc, data, ids, 3, ProbeConfig(epochs=40, batch_size=64, seed=0))
        feats = encoder_forward(enc, data.samples_for(ids))
        pred = np.argmax(encoder_forward(head, feats), axis=1)
        assert np.mean(pred == data.labels) > 0.99

    def test_probe_close_to_ridge_oracle(self):
        # closed-form one-vs-all ridge regression on the same frozen features
        data = gen_synthetic(4, 10, 400, 7.0, seed=3)
        splits = split(data, 0.1, 0.2, 0.0, seed=3)
        enc = init_encoder([10, 8, 6], seed=5)
        split_ids = (splits.retain, splits.test, splits.unlearn)
        logits = probe_logits(enc, data, split_ids, 4,
                              ProbeConfig(epochs=60, batch_size=128, seed=0))
        ra, _, _ = classifier_metrics(logits, [data.labels_for(ids) for ids in split_ids])

        feats = encoder_forward(enc, data.samples_for(splits.retain))
        labels = data.labels_for(splits.retain)
        X = np.hstack([feats, np.ones((len(feats), 1))])
        Y = np.eye(4)[labels]
        W = np.linalg.solve(X.T @ X + 1e-6 * np.eye(X.shape[1]), X.T @ Y)
        ridge_acc = float(np.mean(np.argmax(X @ W, axis=1) == labels) * 100.0)
        assert abs(ra - ridge_acc) <= 2.0

    def test_non_finite_gradient_epoch_named(self, monkeypatch):
        data = gen_synthetic(3, 6, 60, 5.0, seed=0)
        real, calls = evalsuite.loss_and_grads, []

        def poisoned(*args):
            loss, grads = real(*args)
            calls.append(1)
            if len(calls) == 3:  # epoch 1, step 0: the probe's third step
                grads.biases[0][0] = np.nan
            return loss, grads

        monkeypatch.setattr(evalsuite, "loss_and_grads", poisoned)
        with pytest.raises(NumericError, match=r"non-finite loss/grads at epoch 1 step 0$"):
            probe_on(identity_encoder(6), data, data.ids, 3,
                     ProbeConfig(epochs=2, batch_size=32, seed=0))

    @staticmethod
    def _reference_probe(feats, labels, num_classes, cfg):
        """The probe as a plain loop: the head's forward and backward pass,
        the class-major softmax cross-entropy, and the whole-array momentum
        update with its cosine step size, in the operation order of
        loss_and_grads and sgd_momentum_step."""
        head = init_encoder([feats.shape[1], num_classes], seed=(cfg.seed, seeds.PROBE_INIT),
                            normalize_output=False)
        w, b = head.layers[0].w.copy(), head.layers[0].b.copy()
        buf_w, buf_b = np.zeros_like(w), np.zeros_like(b)
        n = labels.size
        starts = range(0, n, cfg.batch_size)
        total, step = cfg.epochs * len(starts), 0
        for epoch in range(cfg.epochs):
            perm = seeds.stream_rng(cfg.seed, seeds.PROBE_SHUFFLE, epoch).permutation(n)
            for lo in starts:
                x = feats[perm][lo:lo + cfg.batch_size]
                y = labels[perm][lo:lo + cfg.batch_size]
                lt = np.ascontiguousarray((x @ w + b).T)
                e = np.exp(lt - lt.max(axis=0))
                g = e / e.sum(axis=0)
                g[y, np.arange(y.size)] -= 1.0
                g /= y.size
                grad_w, grad_b = x.T @ g.T, g.T.sum(axis=0)
                lr = cfg.lr * 0.5 * (1.0 + math.cos(math.pi * step / total))
                for p, grad, buf in ((w, grad_w, buf_w), (b, grad_b, buf_b)):
                    buf *= cfg.momentum
                    buf += grad
                    if cfg.weight_decay != 0.0:
                        buf += cfg.weight_decay * p
                    p -= lr * buf
                step += 1
        return w, b

    @pytest.mark.parametrize("wd", [0.0, 5e-4])
    def test_head_equals_reference_loop(self, wd):
        rng = np.random.default_rng(7)
        feats = unit_rows(rng.normal(size=(300, 16)))
        labels = rng.integers(0, 5, size=300)
        # batches of 128, 128 and a short last one of 44
        cfg = ProbeConfig(epochs=6, lr=1.0, momentum=0.9, weight_decay=wd, batch_size=128,
                          seed=3)
        head = linear_probe(feats, labels, 5, cfg)
        w, b = self._reference_probe(feats, labels, 5, cfg)
        assert head.layers[0].w.tobytes() == w.tobytes()
        assert head.layers[0].b.tobytes() == b.tobytes()

    def test_labels_must_align_with_features(self):
        with pytest.raises(ConfigurationError, match="align"):
            linear_probe(np.zeros((4, 3)), np.array([0, 1, 0]), 2, ProbeConfig(epochs=1))

    def test_probe_logits_are_the_head_on_each_set(self):
        data = gen_synthetic(3, 6, 90, 5.0, seed=1)
        splits = split(data, 0.15, 0.2, 0.0, seed=1)
        enc = init_encoder([6, 5, 4], seed=0)
        cfg = ProbeConfig(epochs=5, seed=0)
        id_sets = (splits.retain, splits.test)
        logits = probe_logits(enc, data, id_sets, 3, cfg)
        head = probe_on(enc, data, splits.retain, 3, cfg)
        assert len(logits) == 2
        for ids, lg in zip(id_sets, logits):
            want = encoder_forward(head, encoder_forward(enc, data.samples_for(ids)))
            assert lg.tobytes() == want.tobytes()

    def test_zero_epochs_returns_init_head(self):
        data = gen_synthetic(3, 6, 60, 5.0, seed=0)
        enc = identity_encoder(6)
        head = probe_on(enc, data, data.ids, 3, ProbeConfig(epochs=0, seed=4))
        ref = init_encoder([6, 3], seed=(4, 12), normalize_output=False)  # PROBE_INIT tag
        assert np.array_equal(head.layers[0].w, ref.layers[0].w)

    def test_xent_loss_hand_values(self):
        # two samples, two classes, logits chosen for easy arithmetic
        fn = softmax_xent_loss_fn(np.array([0, 1]), 2)
        logits = np.array([[2.0, 0.0], [1.0, 3.0]])
        val, grad = fn(logits)
        l1 = np.log(1 + np.exp(-2.0))
        l2 = np.log(1 + np.exp(-2.0))
        assert val == pytest.approx((l1 + l2) / 2, abs=1e-12)
        p1 = 1 / (1 + np.exp(-2.0))
        np.testing.assert_allclose(
            grad,
            [[(p1 - 1) / 2, (1 - p1) / 2], [(1 - p1) / 2, (p1 - 1) / 2]],
            atol=1e-12,
        )

    @pytest.mark.parametrize("classes", range(2, 13))
    def test_xent_loss_matches_row_major_reference(self, classes):
        # the sample-major form the class-major loss replaced
        def reference(logits, labels):
            n = logits.shape[0]
            m = logits.max(axis=1, keepdims=True)
            e = np.exp(logits - m)
            tot = e.sum(axis=1, keepdims=True)
            lse = (m + np.log(tot)).ravel()
            g = e / tot
            g[np.arange(n), labels] -= 1.0
            return float(np.mean(lse - logits[np.arange(n), labels])), g / n

        rng = np.random.default_rng(classes)
        for n in (1, 7, 512):
            logits = 4.0 * rng.normal(size=(n, classes))
            labels = rng.integers(0, classes, size=n)
            val, grad = softmax_xent_loss_fn(labels, classes)(logits)
            ref_val, ref_grad = reference(logits, labels)
            assert abs(val - ref_val) <= 1e-15
            assert grad.shape == (n, classes)
            np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-15)

    def test_classifier_metrics_hand_counts(self):
        # labels set so retain (rows 0, 1) is all correct, unlearn (row 2)
        # and test (row 3) all wrong
        logits = unit_rows([[1, 0.1], [1, 0.2], [0.1, 1], [0.2, 1]])
        labels = np.array([0, 0, 0, 0])  # argmax rows: 0, 0, 1, 1
        ra, ta, ua = classifier_metrics((logits[:2], logits[3:], logits[2:3]),
                                        (labels[:2], labels[3:], labels[2:3]))
        assert (ra, ta, ua) == (100.0, 0.0, 0.0)

    def test_classifier_metrics_labels_must_align(self):
        test, unlearn = np.zeros((1, 2)), np.zeros((1, 2))
        # one label for two retain rows would broadcast; two for one unlearn row
        for retain_labels, unlearn_labels in (([0], [0]), ([0, 1], [0, 1])):
            with pytest.raises(ConfigurationError, match="align"):
                classifier_metrics((np.zeros((2, 2)), test, unlearn),
                                   (np.array(retain_labels), np.array([0]),
                                    np.array(unlearn_labels)))

    def test_confidence_scores_bounded(self):
        data = gen_synthetic(3, 6, 90, 5.0, seed=1)
        enc = identity_encoder(6)
        logits = probe_logits(enc, data, [data.ids], 3, ProbeConfig(epochs=10, seed=0))
        conf = confidence_scores(logits[0])
        assert np.all(conf > 1.0 / 3.0 - 1e-12) and np.all(conf <= 1.0)

    def test_cmia_within_unit_interval(self):
        data = gen_synthetic(3, 8, 240, 6.0, seed=1)
        splits = split(data, 0.15, 0.2, 0.0, seed=1)
        enc = init_encoder([8, 6, 4], seed=0)
        head = probe_on(enc, data, splits.retain, 3, ProbeConfig(epochs=10, seed=0))
        eff = cmia_efficacy(enc, head, data, splits, seed=2)
        assert 0.0 <= eff <= 1.0


class TestGapReport:
    def test_identical_runs_have_zero_gap(self):
        m = {"ra": 90.0, "ta": 85.0, "ua": 80.0}
        rep = gap_report(m, dict(m))
        assert rep.avg_gap == 0.0
        assert all(v == 0.0 for v in rep.gaps.values())

    def test_reference_metric_row(self):
        reference = {"emia": 49.72, "ra": 89.54, "ta": 87.76, "ua": 88.42, "cmia": 34.38}
        candidate = {"emia": 50.15, "ra": 88.34, "ta": 86.46, "ua": 87.59, "cmia": 29.42}
        rep = gap_report(candidate, reference)
        assert rep.avg_gap == pytest.approx(1.744, abs=5e-3)

    def test_zero_reference_warns(self):
        with pytest.warns(UserWarning, match="zero reference"):
            rep = gap_report({"a": 1.0, "b": 2.0}, {"a": 0.0, "b": 1.0})
        assert rep.avg_gap == pytest.approx((1.0 + 1.0) / 2)
        assert rep.agp == pytest.approx(100.0)

    def test_no_common_metrics_rejected(self):
        with pytest.raises(ConfigurationError):
            gap_report({"a": 1.0}, {"b": 1.0})


class TestFullReport:
    def test_smoke_and_field_ranges(self):
        data = gen_synthetic(3, 8, 240, 6.0, seed=4)
        splits = split(data, 0.15, 0.2, 0.0, seed=4)
        cfg = ContrastiveConfig(epochs=5, seed=4, batch_size=32)
        enc = pretrain(data, splits, cfg, [8, 8, 4], AugmentorConfig())
        rep = evaluate({"c": enc}, enc, data, splits, AugmentorConfig(),
                       ProbeConfig(epochs=15, seed=0), seed=4)["c"]
        assert rep.fs == 0.0  # candidate == before
        assert 0.0 <= rep.emia <= 1.0 and 0.0 <= rep.cmia <= 1.0
        for v in (rep.ra, rep.ta, rep.ua):
            assert 0.0 <= v <= 100.0
        assert rep.runtime_seconds > 0
        assert "runtime_seconds" not in rep.metrics()
        assert set(rep.metrics()) == {"fs", "emia", "cmia", "ra", "ta", "ua"}


# criterion 12's pipeline config (tests/test_acceptance.py)
CRITERION_12 = [
    "seed=17",
    "data.clusters=3", "data.dim=6", "data.count=150", "data.separation=5",
    "arch=6,10,4",
    "split.test_fraction=0.15",
    "pretrain.epochs=3", "pretrain.batch_size=32",
    "unlearn.epochs=2", "unlearn.retain_batch=32", "unlearn.unlearn_batch=8",
    "probe.epochs=10",
]


@pytest.fixture(scope="module")
def criterion_12_run(tmp_path_factory):
    """Dataset, splits and the three encoders of criterion 12's pipeline."""
    out = tmp_path_factory.mktemp("c12")
    cfg = out / "det.cfg"
    cfg.write_text("\n".join(CRITERION_12) + "\n")
    for cmd in ("gen-data", "split", "pretrain", "retrain", "unlearn"):
        assert cli_main([cmd, "--config", str(cfg), "--out", str(out)]) == 0
    return {
        "data": load_dataset(out / "dataset.csv"), "splits": load_splits(out / "splits.csv"),
        "before": load_encoder(out / "encoder.bin"),
        "encoders": {name: load_encoder(out / f"{name}.bin") for name in ("unlearned", "retrain")},
        "aug": AugmentorConfig(), "probe": ProbeConfig(epochs=10, seed=17), "seed": 17,
    }


class TestEvaluate:
    def _evaluate(self, run, encoders):
        return evaluate(encoders, run["before"], run["data"], run["splits"], run["aug"],
                        run["probe"], run["seed"])

    def test_equals_one_full_report_per_encoder(self, criterion_12_run):
        run = criterion_12_run
        reports = self._evaluate(run, {"c": run["encoders"]["unlearned"],
                                       "r": run["encoders"]["retrain"]})
        assert list(reports) == ["c", "r"]
        for name, enc in (("c", run["encoders"]["unlearned"]), ("r", run["encoders"]["retrain"])):
            single = self._evaluate(run, {"alone": enc})["alone"]
            assert reports[name].metrics() == single.metrics(), name
            assert reports[name].runtime_seconds > 0

    def test_report_is_the_composition_of_its_steps(self, criterion_12_run):
        run = criterion_12_run
        data, splits, aug, seed = run["data"], run["splits"], run["aug"], run["seed"]
        enc = run["encoders"]["unlearned"]
        rep = self._evaluate(run, {"c": enc})["c"]
        fs, _ = forgetting_score(run["before"], enc, data, splits.unlearn, aug, seed)
        split_ids = (splits.retain, splits.test, splits.unlearn)
        logits = probe_logits(enc, data, split_ids, 3, run["probe"])
        ra, ta, ua = classifier_metrics(logits, [data.labels_for(ids) for ids in split_ids])
        head = probe_on(enc, data, splits.retain, 3, run["probe"])
        assert rep.metrics() == {
            "fs": fs, "emia": encoder_mi_efficacy(enc, data, splits, aug, seed),
            "cmia": cmia_efficacy(enc, head, data, splits, seed), "ra": ra, "ta": ta, "ua": ua,
        }

    def test_each_id_set_forwarded_once(self, criterion_12_run, monkeypatch):
        run = criterion_12_run
        pool = [run["encoders"]["unlearned"], run["encoders"]["retrain"], run["before"]]
        real, rows = evalsuite.encoder_forward, {}

        def counted(net, batch):
            kind = "encoder" if any(net is e for e in pool) else "head"
            rows[kind] = rows.get(kind, 0) + len(batch)
            return real(net, batch)

        monkeypatch.setattr(evalsuite, "encoder_forward", counted)
        splits = run["splits"]
        r, t, u = len(splits.retain), len(splits.test), len(splits.unlearn)
        m = t  # the member sample is as large as the test split
        for k in (1, 2, 3):
            rows.clear()
            self._evaluate(run, {f"e{i}": pool[i] for i in range(k)})
            # per encoder: the audit pair, the MI views, retain, test, unlearn
            # and members once each; before forwards the audit pair
            per_encoder = 2 * u + 10 * (m + t + u) + r + t + u + m
            assert rows == {"encoder": k * per_encoder + 2 * u, "head": k * (r + t + u + m)}, k

    def test_views_built_once_per_pass(self, criterion_12_run, monkeypatch):
        run = criterion_12_run
        real, calls = evalsuite.augment_views, []

        def counted(sample, aug, n_views, rng):
            calls.append(n_views)
            return real(sample, aug, n_views, rng)

        monkeypatch.setattr(evalsuite, "augment_views", counted)
        splits = run["splits"]
        n_unlearn, n_test = len(splits.unlearn), len(splits.test)
        pool = [run["encoders"]["unlearned"], run["encoders"]["retrain"], run["before"]]
        for k in (1, 2, 3):
            calls.clear()
            self._evaluate(run, {f"e{i}": pool[i] for i in range(k)})
            # audit pair of each unlearn id; MI views of members, test and unlearn ids
            assert sorted(calls) == sorted([2] * n_unlearn + [10] * (2 * n_test + n_unlearn)), k
