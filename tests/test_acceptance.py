"""Acceptance gate: one test per criterion, run with pytest -v.

Each test prints the measured values it judged, so a failing criterion
shows its numbers directly in the report. The synthetic-pipeline
criteria (5, 6, 7) share module-scoped encoders trained once per seed.
"""

import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sp_stats

from unlearnlab.cli import EXIT_OK, main as cli_main
from unlearnlab.contrastive import ContrastiveConfig, info_nce_loss_fn, pretrain
from unlearnlab.datagen import AugmentorConfig, gen_synthetic, split
from unlearnlab.diffcore import (
    DenseLayer,
    encoder_forward,
    finite_diff_check,
    init_encoder,
)
from unlearnlab.errors import ConfigurationError
from unlearnlab.evalsuite import (
    ProbeConfig,
    SummaryStats,
    alignment_gap,
    alignment_matrix,
    classifier_metrics,
    cmia_efficacy,
    encoder_mi_efficacy,
    fit_threshold,
    forgetting_score,
    forgetting_score_from_features,
    gap_report,
    linear_probe,
    neg_alignment_stats,
    paired_unlearn_views,
    probe_logits,
    softmax_xent_loss_fn,
    welch_ttest,
)
from unlearnlab.persist import (
    load_encoder,
    read_feature_dump,
    save_encoder,
    write_feature_dump,
    write_heatmap_pgm,
)
from unlearnlab.unlearn import (
    ACConfig,
    ac_stack_loss_fn,
    retain_stack_loss_fn,
    retrain,
    run_ac,
    unlearn_loss,
    unlearn_stack_loss_fn,
)

SEEDS = (0, 1, 2)
SEPARATION = 4.0
ARCH = [16, 32, 16]
AUG = AugmentorConfig()
UNLEARN_EPOCHS = 10
UNLEARN_LR = 0.01


def jitter_biases(net, seed):
    # fresh nets have zero biases; a row whose hidden units all die would
    # then emit the exact zero vector, where the norm floor makes the true
    # gradient too stiff for finite differences to resolve
    rng = np.random.default_rng(seed)
    for la in net.layers:
        la.b += rng.uniform(0.05, 0.2, size=la.b.shape)
    return net


@pytest.fixture(scope="module")
def pipelines():
    """Full-scale synthetic pipeline per seed: 5 clusters, dim 16,
    n=2000, 10% unlearn, MLP 16-32-16, 200 pretraining epochs."""
    runs = {}
    for seed in SEEDS:
        t0 = time.perf_counter()
        data = gen_synthetic(5, 16, 2000, SEPARATION, seed)
        splits = split(data, 0.1, 0.1, 0.05, seed)
        cfg = ContrastiveConfig(epochs=200, seed=seed)
        enc = pretrain(data, splits, cfg, ARCH, AUG)
        rt = retrain(data, splits, cfg, ARCH, AUG)
        ft = run_ac(enc, data, splits, ACConfig(
            method="finetune", epochs=UNLEARN_EPOCHS, lr=UNLEARN_LR, seed=seed), AUG)
        runs[seed] = {
            "data": data, "splits": splits, "enc": enc, "retrain": rt,
            "finetune": ft, "build_seconds": time.perf_counter() - t0,
        }
    return runs


def _offdiag_stats(before, after, data, splits, seed):
    vx, vy = paired_unlearn_views(data, splits.unlearn, AUG, seed)
    am_b = alignment_matrix(encoder_forward(before, vx), encoder_forward(before, vy))
    am_a = alignment_matrix(encoder_forward(after, vx), encoder_forward(after, vy))
    return neg_alignment_stats(alignment_gap(am_b, am_a))


def test_criterion_01_alignment_drop_pvalues():
    t0 = time.perf_counter()
    expected = {5: 0.3322, 10: 0.1617, 15: 0.0847, 20: 0.0459}
    measured = {}
    for n, want in expected.items():
        p = welch_ttest(SummaryStats(-0.0026, 0.0587, n),
                        SummaryStats(0.0353, 0.0575, n)).p_value
        measured[n] = p
        assert p == pytest.approx(want, abs=5e-3), f"N={n}: p={p} want {want}"
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: p(N=5..20) = "
          + ", ".join(f"{measured[n]:.4f}" for n in (5, 10, 15, 20))
          + f" (targets 0.3322/0.1617/0.0847/0.0459 +-0.005), {elapsed:.3f}s")
    assert elapsed < 1.0


def test_criterion_02_audit_test_pvalues():
    t0 = time.perf_counter()
    # cross-pair alignment gap row: group sizes N(N-1)/2
    neg_measured = {}
    for n_samples in (5, 10, 15, 20):
        n = n_samples * (n_samples - 1) // 2
        p = welch_ttest(SummaryStats(0.0057, 0.0403, n),
                        SummaryStats(-0.0359, 0.0295, n)).p_value
        neg_measured[n_samples] = p
        if n_samples == 5:
            assert p == pytest.approx(0.0168, abs=5e-3)
        else:
            assert p <= 1e-4
    # per-sample alignment drop row: group sizes N
    fs_expected = {5: 0.7452, 10: 0.64, 15: 0.5648, 20: 0.5052}
    fs_measured = {}
    for n, want in fs_expected.items():
        p = welch_ttest(SummaryStats(-0.0026, 0.0587, n),
                        SummaryStats(0.0084, 0.04438, n)).p_value
        fs_measured[n] = p
        assert p == pytest.approx(want, abs=1e-2), f"N={n}: p={p} want {want}"
    elapsed = time.perf_counter() - t0
    print(f"criterion 2: neg-gap p(N=5) = {neg_measured[5]:.4f} (target 0.0168 +-0.005), "
          f"p(N>=10) <= {max(neg_measured[n] for n in (10, 15, 20)):.2e}; "
          f"per-sample-drop p = "
          + ", ".join(f"{fs_measured[n]:.4f}" for n in (5, 10, 15, 20))
          + f" (+-0.01), {elapsed:.3f}s")
    assert elapsed < 1.0


def test_criterion_03_average_gap_arithmetic():
    reference = {"emia": 49.72, "ra": 89.54, "ta": 87.76, "ua": 88.42, "cmia": 34.38}
    candidate = {"emia": 50.15, "ra": 88.34, "ta": 86.46, "ua": 87.59, "cmia": 29.42}
    rep = gap_report(candidate, reference)
    print(f"criterion 3: avg gap = {rep.avg_gap:.4f} (target 1.74 +-0.005)")
    assert rep.avg_gap == pytest.approx(1.74, abs=5e-3)


def test_criterion_04_gradients_match_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = {"infonce": 0.0, "retain": 0.0, "unlearn": 0.0, "ac": 0.0, "probe": 0.0}
    counts = dict.fromkeys(worst, 0)

    def rand_net(n_in, n_out, normalize=True):
        hidden = int(rng.integers(4, 9))
        net = init_encoder([n_in, hidden, n_out], seed=int(rng.integers(1 << 30)),
                           normalize_output=normalize)
        return jitter_biases(net, int(rng.integers(1 << 30)))

    def check(name, net, batch, fn):
        err = finite_diff_check(net, batch, fn)
        worst[name] = max(worst[name], err)
        counts[name] += 1
        assert err < 1e-4, f"{name}: finite-diff gap {err}"

    for _ in range(20):
        n_in, n_out = int(rng.integers(3, 6)), int(rng.integers(2, 5))
        pairs = int(rng.integers(2, 6))
        check("infonce", rand_net(n_in, n_out),
              rng.normal(size=(2 * pairs, n_in)), info_nce_loss_fn(0.5))

    for i in range(20):
        n_in, n_out = int(rng.integers(3, 6)), int(rng.integers(2, 5))
        pairs, pool = int(rng.integers(2, 5)), int(rng.integers(3, 7))
        if i % 2 == 0:
            fn = retain_stack_loss_fn(pairs, pool, 0.5)
        else:
            # pool positions structurally identified with the anchors
            pool = 2 * pairs
            fn = retain_stack_loss_fn(pairs, pool, 1.0,
                                      exclude_pool_pos=np.arange(2 * pairs))
        check("retain", rand_net(n_in, n_out),
              rng.normal(size=(2 * pairs + pool, n_in)), fn)

    patterns = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.8, 1.7, 0.6)]
    for pattern in patterns:
        for _ in range(6):
            n_in, n_out = int(rng.integers(3, 6)), int(rng.integers(2, 5))
            pairs, pool = int(rng.integers(2, 5)), int(rng.integers(3, 7))
            fn = unlearn_stack_loss_fn(pairs, pool, *pattern, 0.5)
            check("unlearn", rand_net(n_in, n_out),
                  rng.normal(size=(2 * pairs + pool, n_in)), fn)

    for _ in range(20):
        n_in, n_out = int(rng.integers(3, 6)), int(rng.integers(2, 5))
        n_r, n_u = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        cfg = ACConfig(negpair_weight=float(rng.uniform(0.2, 2)),
                       forget_weight=float(rng.uniform(0.2, 2)),
                       preserve_weight=float(rng.uniform(0.2, 2)))
        fn = ac_stack_loss_fn(n_r, n_u, cfg, float(rng.uniform(0.1, 1.0)))
        check("ac", rand_net(n_in, n_out),
              rng.normal(size=(2 * n_r + 2 * n_u, n_in)), fn)

    for _ in range(20):
        n_in, classes = int(rng.integers(3, 6)), int(rng.integers(2, 5))
        n = int(rng.integers(3, 8))
        labels = rng.integers(0, classes, size=n)
        check("probe", rand_net(n_in, classes, normalize=False),
              rng.normal(size=(n, n_in)), softmax_xent_loss_fn(labels, classes))

    elapsed = time.perf_counter() - t0
    total = sum(counts.values())
    print(f"criterion 4: {total} instances, worst gaps "
          + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
          + f" (bound 1e-4), {elapsed:.1f}s (bound 60s)")
    assert all(c >= 20 for c in counts.values())
    assert elapsed < 60.0


def test_criterion_05_retraining_accuracy_pattern(pipelines):
    t0 = time.perf_counter()
    lines = []
    for seed in SEEDS:
        run = pipelines[seed]
        data, splits = run["data"], run["splits"]
        split_ids = (splits.retain, splits.test, splits.unlearn)
        logits = probe_logits(run["retrain"], data, split_ids, 5, ProbeConfig(seed=seed))
        ra, ta, ua = classifier_metrics(logits, [data.labels_for(ids) for ids in split_ids])
        lines.append(f"seed {seed}: RA={ra:.2f} TA={ta:.2f} UA={ua:.2f}")
        assert abs(ua - ta) <= 3.0, f"seed {seed}: |UA-TA| = {abs(ua - ta)}"
        assert ra >= max(ua, ta) - 0.5, f"seed {seed}: RA {ra} vs max {max(ua, ta)}"
    build = sum(pipelines[s]["build_seconds"] for s in SEEDS)
    elapsed = build + (time.perf_counter() - t0)
    print(f"criterion 5: {'; '.join(lines)} "
          f"(|UA-TA|<=3, RA>=max-0.5), {elapsed:.0f}s (bound 300s)")
    assert elapsed < 300.0


def test_criterion_06_calibration_forgetting_monotonicity(pipelines):
    t0 = time.perf_counter()
    betas = (0.0, 4.0, 8.0)
    lines = []
    for seed in SEEDS:
        run = pipelines[seed]
        data, splits, enc = run["data"], run["splits"], run["enc"]
        scores = []
        for beta in betas:
            cand = run_ac(enc, data, splits, ACConfig(
                negpair_weight=1.0, forget_weight=beta, preserve_weight=1.0,
                epochs=UNLEARN_EPOCHS, lr=UNLEARN_LR, seed=seed), AUG)
            fs, _ = forgetting_score(enc, cand, data, splits.unlearn, AUG, seed)
            scores.append(fs)
        fs_ft, _ = forgetting_score(enc, run["finetune"], data, splits.unlearn, AUG, seed)
        rho = sp_stats.spearmanr(betas, scores).statistic
        lines.append(f"seed {seed}: FS(beta)={','.join(f'{s:.4f}' for s in scores)} "
                     f"rho={rho:.2f} FS(ft)={fs_ft:.4f}")
        assert rho > 0.0, f"seed {seed}: spearman {rho}"
        assert scores[-1] > fs_ft, f"seed {seed}: FS(beta=8) {scores[-1]} vs finetune {fs_ft}"
    build = sum(pipelines[s]["build_seconds"] for s in SEEDS)
    elapsed = build + (time.perf_counter() - t0)
    print(f"criterion 6: {'; '.join(lines)}, {elapsed:.0f}s (bound 600s)")
    assert elapsed < 600.0


def test_criterion_07_negative_alignment_trace(pipelines):
    lines = []
    for seed in SEEDS:
        run = pipelines[seed]
        data, splits, enc = run["data"], run["splits"], run["enc"]
        # calibration config chosen so the cross-pair pull dominates at
        # this scale: damped uniformity term, full-weight unlearn term
        cand = run_ac(enc, data, splits, ACConfig(
            negpair_weight=1.0, forget_weight=1.0, preserve_weight=0.25,
            unlearn_scale=1.0, epochs=UNLEARN_EPOCHS, lr=UNLEARN_LR, seed=seed), AUG)
        stats_ac = _offdiag_stats(enc, cand, data, splits, seed)
        stats_ft = _offdiag_stats(enc, run["finetune"], data, splits, seed)
        se = np.sqrt(stats_ac.std ** 2 / stats_ac.n + stats_ft.std ** 2 / stats_ft.n)
        lines.append(f"seed {seed}: ac={stats_ac.mean:.5f} ft={stats_ft.mean:.5f} "
                     f"2se={2 * se:.5f}")
        assert stats_ac.mean < 0.0, f"seed {seed}: mean {stats_ac.mean}"
        assert stats_ac.mean < stats_ft.mean - 2 * se, (
            f"seed {seed}: {stats_ac.mean} not below {stats_ft.mean} - {2 * se}")
    print(f"criterion 7: {'; '.join(lines)} (needs ac<0 and ac<ft-2se)")


def test_criterion_08_identity_audits():
    data = gen_synthetic(3, 6, 60, 5.0, seed=9)
    enc = jitter_biases(init_encoder([6, 8, 4], seed=9), 9)
    ids = data.ids[:12]
    vx, vy = paired_unlearn_views(data, ids, AUG, seed=9)
    fx, fy = encoder_forward(enc, vx), encoder_forward(enc, vy)

    fs, per = forgetting_score_from_features(fx, fy, fx, fy)
    gap = alignment_gap(alignment_matrix(fx, fy), alignment_matrix(fx, fy))
    res = welch_ttest(SummaryStats.from_values(per), SummaryStats.from_values(per))
    assert fs == 0.0
    assert np.all(gap == 0.0)
    assert res.p_value == 1.0

    # sign-flip rotation: exact cosine invariance even in floats
    flip = enc.copy()
    signs = np.array([1.0, -1.0, -1.0, 1.0])
    flip.layers[-1] = DenseLayer(flip.layers[-1].w * signs, flip.layers[-1].b * signs)
    gx, gy = encoder_forward(flip, vx), encoder_forward(flip, vy)
    fs_flip, _ = forgetting_score_from_features(fx, fy, gx, gy)

    # generic orthogonal rotation: invariance up to roundoff
    q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(4, 4)))
    rot = enc.copy()
    rot.layers[-1] = DenseLayer(rot.layers[-1].w @ q, rot.layers[-1].b @ q)
    rx, ry = encoder_forward(rot, vx), encoder_forward(rot, vy)
    fs_rot, _ = forgetting_score_from_features(fx, fy, rx, ry)

    print(f"criterion 8: identity fs={fs}, p={res.p_value}, agm max |{np.max(np.abs(gap))}|; "
          f"sign-flip fs={fs_flip}, qr-rotation |fs|={abs(fs_rot):.2e}")
    assert fs_flip == 0.0
    assert abs(fs_rot) < 1e-12


def test_criterion_09_membership_threshold_oracle():
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(200):
        m = rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0], size=rng.integers(1, 21))
        nm = rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0], size=rng.integers(1, 21))
        if rng.random() < 0.5:  # continuous scores half the time
            m = m + rng.normal(0, 0.4, size=m.shape)
            nm = nm + rng.normal(0, 0.4, size=nm.shape)
        thr, acc = fit_threshold(m, nm)
        pooled = np.unique(np.concatenate([m, nm]))
        cands = np.concatenate([[pooled[0] - 1],
                                (pooled[:-1] + pooled[1:]) / 2,
                                [pooled[-1] + 1]])
        best_acc, best_thr = -1.0, None
        for c in cands:
            a = (np.sum(m > c) + np.sum(nm <= c)) / (len(m) + len(nm))
            if a > best_acc:
                best_acc, best_thr = a, c
        assert acc == pytest.approx(best_acc, abs=1e-12)
        assert thr == pytest.approx(best_thr, abs=1e-12)
        checked += 1

    # separable construction drives efficacy to exactly 1
    thr, acc = fit_threshold([0.8, 0.85, 0.9], [0.1, 0.15, 0.2])
    assert acc == 1.0
    eff_sep = float(np.mean(np.array([0.0, 0.05, 0.3]) <= thr))
    assert eff_sep == 1.0

    # efficacies from real encoders stay inside the unit interval
    data = gen_synthetic(3, 8, 240, 6.0, seed=1)
    splits = split(data, 0.15, 0.2, 0.0, seed=1)
    enc = jitter_biases(init_encoder([8, 6, 4], seed=0), 0)
    e1 = encoder_mi_efficacy(enc, data, splits, AUG, seed=2)
    head = linear_probe(encoder_forward(enc, data.samples_for(splits.retain)),
                        data.labels_for(splits.retain), 3, ProbeConfig(epochs=10, seed=0))
    e2 = cmia_efficacy(enc, head, data, splits, seed=2)
    assert 0.0 <= e1 <= 1.0 and 0.0 <= e2 <= 1.0
    print(f"criterion 9: {checked} score sets match the exhaustive sweep; "
          f"separable efficacy={eff_sep}; encoder/classifier efficacies "
          f"{e1:.3f}/{e2:.3f} within [0,1]")


def test_criterion_10_ablation_additivity_and_zero_scale():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(10):
        enc = jitter_biases(init_encoder([5, 7, 3], seed=int(rng.integers(1 << 30))),
                            int(rng.integers(1 << 30)))
        ux = rng.normal(size=(3, 5))
        uy = rng.normal(size=(3, 5))
        pool = rng.normal(size=(6, 5))
        a, b, c = rng.uniform(0.2, 2.0, size=3)
        joint = unlearn_loss(enc, ux, uy, pool, ACConfig(
            negpair_weight=a, forget_weight=b, preserve_weight=c))
        parts = (
            unlearn_loss(enc, ux, uy, pool, ACConfig(
                negpair_weight=a, forget_weight=0.0, preserve_weight=0.0))
            + unlearn_loss(enc, ux, uy, pool, ACConfig(
                negpair_weight=0.0, forget_weight=b, preserve_weight=0.0))
            + unlearn_loss(enc, ux, uy, pool, ACConfig(
                negpair_weight=0.0, forget_weight=0.0, preserve_weight=c))
        )
        worst = max(worst, abs(joint - parts))
        assert abs(joint - parts) <= 1e-12

    data = gen_synthetic(3, 6, 120, 5.0, seed=3)
    splits = split(data, 0.15, 0.1, 0.0, seed=3)
    enc = pretrain(data, splits, ContrastiveConfig(epochs=2, seed=3, batch_size=32),
                   [6, 8, 4], AUG)
    zero_scale = run_ac(enc, data, splits, ACConfig(
        unlearn_scale=0.0, epochs=3, lr=0.02, retain_batch=32, seed=3), AUG)
    finetune = run_ac(enc, data, splits, ACConfig(
        method="finetune", epochs=3, lr=0.02, retain_batch=32, seed=3), AUG)
    identical = all(
        np.array_equal(za.w, zf.w) and np.array_equal(za.b, zf.b)
        for za, zf in zip(zero_scale.layers, finetune.layers))
    print(f"criterion 10: additivity worst gap {worst:.2e} (bound 1e-12); "
          f"zero-scale trajectory bitwise equal to plain finetuning: {identical}")
    assert identical


def test_criterion_11_persistence_round_trips(tmp_path):
    enc = jitter_biases(init_encoder([4, 7, 3], seed=21), 21)
    p = tmp_path / "enc.bin"
    save_encoder(enc, p)
    back = load_encoder(p)
    ckpt_ok = all(
        np.array_equal(a.w, b.w) and np.array_equal(a.b, b.b)
        for a, b in zip(enc.layers, back.layers)) and back.normalize_output
    assert ckpt_ok

    rng = np.random.default_rng(4)
    ids = np.arange(5) * 7
    feats = rng.normal(size=(5, 3)) * np.array([1e-8, 1.0, 1e5])
    write_feature_dump(tmp_path / "f.csv", ids, feats)
    rid, rfeats = read_feature_dump(tmp_path / "f.csv")
    dump_err = float(np.max(np.abs(rfeats - feats)))
    assert np.array_equal(rid, ids)
    assert dump_err < 1e-12

    write_heatmap_pgm(tmp_path / "m.pgm", np.array([[-1.0, 1.0], [0.25, -0.5]]),
                      lo=-1.0, hi=1.0)
    blob = (tmp_path / "m.pgm").read_bytes()
    pixels = np.frombuffer(blob[blob.rindex(b"\n255\n") + 5:], dtype=np.uint8)
    assert pixels[0] == 0 and pixels[1] == 255  # endpoints exact
    print(f"criterion 11: checkpoint bitwise {ckpt_ok}; dump error {dump_err:.1e} "
          f"(bound 1e-12); pgm endpoints {pixels[0]}/{pixels[1]}")


def test_criterion_12_pipeline_determinism(tmp_path):
    cfg = tmp_path / "det.cfg"
    cfg.write_text("\n".join([
        "seed=17",
        "data.clusters=3", "data.dim=6", "data.count=150", "data.separation=5",
        "arch=6,10,4",
        "split.test_fraction=0.15",
        "pretrain.epochs=3", "pretrain.batch_size=32",
        "unlearn.epochs=2", "unlearn.retain_batch=32", "unlearn.unlearn_batch=8",
        "probe.epochs=10",
    ]) + "\n")
    for out in (tmp_path / "a", tmp_path / "b"):
        for cmd in ("gen-data", "split", "pretrain", "retrain", "unlearn"):
            assert cli_main([cmd, "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert cli_main(["eval", "--config", str(cfg), "--out", str(out),
                         "--candidate", str(out / "unlearned.bin"),
                         "--before", str(out / "encoder.bin"),
                         "--reference", str(out / "retrain.bin")]) == EXIT_OK
        assert cli_main(["audit", "--config", str(cfg), "--out", str(out),
                         "--before", str(out / "encoder.bin"),
                         "--after", str(out / "unlearned.bin")]) == EXIT_OK
    names = ("dataset.csv", "splits.csv", "encoder.bin", "retrain.bin",
             "unlearned.bin", "report.txt", "report.csv", "reference_report.txt",
             "gaps.txt", "agm.csv", "agm.pgm", "audit.txt")
    for name in names:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between reruns"
    print(f"criterion 12: {len(names)} artifacts byte-identical across reruns")
