"""White-box and black-box evaluation of an unlearned encoder.

White-box: replayed paired views of the unlearn set give a per-sample
forgetting score (alignment drop between the encoder before and after
unlearning), a full cross-sample alignment matrix, and the gap matrix
between the two; off-diagonal statistics feed a two-sample location test
computed from summary statistics alone.

Black-box: membership inference from view-alignment scores
(encoder-level) and from classifier confidence (probe-level), plus
retain/test/unlearn accuracies of a linear probe and gap summaries
against the retraining gold standard.

The t-test p-value comes from a hand-rolled regularized incomplete beta
function (continued fraction, absolute error well under 1e-8), so the
package needs no stats dependency.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import seeds
from .contrastive import sgd_epochs
from .datagen import AugmentorConfig, LabeledDataset, Splits, augment_views
from .diffcore import (
    EncoderNet,
    LossFn,
    check_sgd_settings,
    encoder_forward,
    init_encoder,
    loss_and_grads,
    sgd_momentum_step,  # not called here: benchmarks/layers.py needs this binding for opt_s
)
from .errors import ConfigurationError, NumericError

# --- result types ---------------------------------------------------------------


@dataclass
class AlignmentMatrix:
    """values[i, j] = <x-view feature of row i, y-view feature of col j>."""

    values: np.ndarray
    row_ids: np.ndarray
    col_ids: np.ndarray


@dataclass
class AlignmentGapMatrix:
    """Alignment before minus after; diagonal holds per-sample forgetting."""

    values: np.ndarray
    row_ids: np.ndarray
    col_ids: np.ndarray


@dataclass
class SummaryStats:
    mean: float
    std: float
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ConfigurationError("summary stats need n >= 1")
        if self.std < 0:
            raise ConfigurationError("std must be >= 0")

    @classmethod
    def from_values(cls, values) -> "SummaryStats":
        v = np.asarray(values, dtype=np.float64).ravel()
        if v.size == 0:
            raise ConfigurationError("cannot summarize an empty sample")
        std = float(np.std(v, ddof=1)) if v.size > 1 else 0.0
        return cls(mean=float(v.mean()), std=std, n=int(v.size))


@dataclass
class TTestResult:
    t_statistic: float
    degrees_of_freedom: float
    p_value: float


@dataclass
class ProbeConfig:
    epochs: int = 100
    lr: float = 1.0
    momentum: float = 0.9
    weight_decay: float = 0.0
    batch_size: int = 512
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigurationError("probe epochs must be >= 0 and batch_size >= 1")
        check_sgd_settings(self.lr, self.momentum, self.weight_decay)


@dataclass
class EvalReport:
    fs: float
    emia: float
    cmia: float
    ra: float
    ta: float
    ua: float
    runtime_seconds: float = 0.0

    def metrics(self) -> dict[str, float]:
        """Persisted metrics; runtime stays out so reports are replayable."""
        return {
            "fs": self.fs, "emia": self.emia, "cmia": self.cmia,
            "ra": self.ra, "ta": self.ta, "ua": self.ua,
        }


@dataclass
class GapReport:
    gaps: dict[str, float]
    avg_gap: float
    agp: float


# --- replayed views and alignment ------------------------------------------------


def paired_unlearn_views(
    data: LabeledDataset, unlearn_ids, aug: AugmentorConfig, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """One frozen positive pair per unlearn sample, replayable from the
    seed alone (own stream, independent of training epochs)."""
    ids = np.asarray(unlearn_ids, dtype=np.int64)
    if ids.size == 0:
        raise ConfigurationError("need at least one unlearn id")
    rows = data.rows_for(ids)
    xs = np.empty((ids.size, data.dim))
    ys = np.empty((ids.size, data.dim))
    for k, (sid, row) in enumerate(zip(ids, rows)):
        views = augment_views(
            data.samples[row], aug, 2, seeds.stream_rng(seed, seeds.AUDIT_VIEWS, int(sid))
        )
        xs[k], ys[k] = views[0], views[1]
    return xs, ys


def _check_unit_features(z: np.ndarray, what: str) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] == 0:
        raise ConfigurationError(f"{what} must be a non-empty 2-d array")
    norms = np.linalg.norm(z, axis=1)
    # written so that a NaN norm fails the check too
    if not np.all(np.abs(norms - 1.0) <= 1e-6):
        raise ConfigurationError(f"{what} rows must be finite unit-norm features")
    return z


def alignment_matrix(feats_x, feats_y, row_ids=None, col_ids=None) -> AlignmentMatrix:
    """Cross-view cosine table from unit-norm feature rows."""
    zx = _check_unit_features(feats_x, "x-view features")
    zy = _check_unit_features(feats_y, "y-view features")
    if zx.shape[1] != zy.shape[1]:
        raise ConfigurationError("feature dims differ between views")
    row_ids = np.arange(zx.shape[0]) if row_ids is None else np.asarray(row_ids, dtype=np.int64)
    col_ids = np.arange(zy.shape[0]) if col_ids is None else np.asarray(col_ids, dtype=np.int64)
    if row_ids.shape != (zx.shape[0],) or col_ids.shape != (zy.shape[0],):
        raise ConfigurationError("id arrays must align with feature rows")
    return AlignmentMatrix(np.clip(zx @ zy.T, -1.0, 1.0), row_ids, col_ids)


def alignment_gap(before: AlignmentMatrix, after: AlignmentMatrix) -> AlignmentGapMatrix:
    if before.values.shape != after.values.shape:
        raise ConfigurationError("alignment matrices have different shapes")
    if not (np.array_equal(before.row_ids, after.row_ids)
            and np.array_equal(before.col_ids, after.col_ids)):
        raise ConfigurationError("alignment matrices cover different ids")
    return AlignmentGapMatrix(
        before.values - after.values, before.row_ids.copy(), before.col_ids.copy())


def forgetting_score_from_features(bx, by, ax, ay) -> tuple[float, np.ndarray]:
    """Mean and per-sample drop in positive-pair alignment between two
    encodings of the same replayed views."""
    bx = _check_unit_features(bx, "before x")
    by = _check_unit_features(by, "before y")
    ax = _check_unit_features(ax, "after x")
    ay = _check_unit_features(ay, "after y")
    if not (bx.shape == by.shape and ax.shape == ay.shape and bx.shape[0] == ax.shape[0]):
        raise ConfigurationError("feature blocks must be row-aligned")
    before = np.clip(np.sum(bx * by, axis=1), -1.0, 1.0)
    after = np.clip(np.sum(ax * ay, axis=1), -1.0, 1.0)
    per = before - after
    return float(per.mean()), per


def forgetting_score(
    before_enc: EncoderNet,
    after_enc: EncoderNet,
    data: LabeledDataset,
    unlearn_ids,
    aug: AugmentorConfig,
    seed: int,
) -> tuple[float, np.ndarray]:
    xs, ys = paired_unlearn_views(data, unlearn_ids, aug, seed)
    return forgetting_score_from_features(
        encoder_forward(before_enc, xs), encoder_forward(before_enc, ys),
        encoder_forward(after_enc, xs), encoder_forward(after_enc, ys),
    )


def neg_alignment_stats(gap: AlignmentGapMatrix, mode: str = "full") -> SummaryStats:
    """Summary of cross-sample (off-diagonal) gap entries.  mode='full'
    uses all n(n-1) entries; mode='upper' only the upper triangle, for
    audits where each unordered pair may be counted once."""
    v = gap.values
    if v.shape[0] != v.shape[1]:
        raise ConfigurationError("off-diagonal stats need a square gap matrix")
    if v.shape[0] < 2:
        raise ConfigurationError("need at least 2 samples for cross-sample stats")
    if mode == "full":
        mask = ~np.eye(v.shape[0], dtype=bool)
        vals = v[mask]
    elif mode == "upper":
        iu = np.triu_indices(v.shape[0], k=1)
        vals = v[iu]
    else:
        raise ConfigurationError("mode must be 'full' or 'upper'")
    return SummaryStats.from_values(vals)


# --- two-sample location test from summary statistics ----------------------------

_BETACF_MAX_ITER = 300
_BETACF_EPS = 3e-16
_BETACF_TINY = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the regularized incomplete beta (modified
    Lentz iteration)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETACF_TINY:
        d = _BETACF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETACF_TINY:
            d = _BETACF_TINY
        c = 1.0 + aa / c
        if abs(c) < _BETACF_TINY:
            c = _BETACF_TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETACF_TINY:
            d = _BETACF_TINY
        c = 1.0 + aa / c
        if abs(c) < _BETACF_TINY:
            c = _BETACF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETACF_EPS:
            return h
    raise NumericError("incomplete beta continued fraction did not converge")


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ConfigurationError("beta parameters must be positive")
    if not 0.0 <= x <= 1.0:
        raise ConfigurationError("x must be in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # continued fraction converges fast on one side of the mean; mirror otherwise
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def welch_ttest(a: SummaryStats, b: SummaryStats) -> TTestResult:
    """Two-sided unequal-variance location test computed from summary
    statistics only.  Identical degenerate groups (both std 0, equal
    means) return t=0, p=1 by convention."""
    if a.n < 2 or b.n < 2:
        raise ConfigurationError("both groups need n >= 2")
    va = (a.std * a.std) / a.n
    vb = (b.std * b.std) / b.n
    denom = va + vb
    if denom == 0.0:
        if a.mean == b.mean:
            return TTestResult(0.0, float(a.n + b.n - 2), 1.0)
        raise ConfigurationError("zero variance in both groups with unequal means")
    t = (a.mean - b.mean) / math.sqrt(denom)
    df = denom * denom / (va * va / (a.n - 1) + vb * vb / (b.n - 1))
    x = df / (df + t * t)
    p = reg_inc_beta(0.5 * df, 0.5, x)
    p = min(1.0, max(p, 5e-324))
    return TTestResult(float(t), float(df), float(p))


# --- membership inference ---------------------------------------------------------


def fit_threshold(member_scores, nonmember_scores) -> tuple[float, float]:
    """Decision threshold maximizing training accuracy of the rule
    'member iff score > threshold'.  Candidates are midpoints between
    adjacent distinct pooled scores plus sentinels beyond both ends; ties
    resolve to the lowest threshold.  Returns (threshold, accuracy)."""
    ms = np.sort(np.asarray(member_scores, dtype=np.float64).ravel())
    ns = np.sort(np.asarray(nonmember_scores, dtype=np.float64).ravel())
    if ms.size == 0 or ns.size == 0:
        raise ConfigurationError("both score sets must be non-empty")
    pooled = np.unique(np.concatenate([ms, ns]))
    cands = np.concatenate(
        [[pooled[0] - 1.0], (pooled[:-1] + pooled[1:]) / 2.0, [pooled[-1] + 1.0]]
    )
    members_above = ms.size - np.searchsorted(ms, cands, side="right")
    nonmembers_at_or_below = np.searchsorted(ns, cands, side="right")
    acc = (members_above + nonmembers_at_or_below) / (ms.size + ns.size)
    k = int(np.argmax(acc))  # first max = lowest candidate
    return float(cands[k]), float(acc[k])


# Replayed views per sample in the view-alignment membership attack.
_MI_N_VIEWS = 10


def _mi_views(data: LabeledDataset, ids, aug: AugmentorConfig, seed: int) -> np.ndarray:
    """_MI_N_VIEWS replayed MI views of each id, shape (len(ids), _MI_N_VIEWS, d)."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size == 0:
        raise ConfigurationError("need at least one id to score")
    rows = data.rows_for(ids)
    return np.stack([
        augment_views(data.samples[row], aug, _MI_N_VIEWS,
                      seeds.stream_rng(seed, seeds.MI_VIEWS, int(sid)))
        for sid, row in zip(ids, rows)
    ])


def _mi_scores(enc: EncoderNet, views: np.ndarray) -> np.ndarray:
    """Per-sample mean pairwise cosine over the views of _mi_views."""
    n, n_views, d = views.shape
    z = encoder_forward(enc, views.reshape(n * n_views, d)).reshape(n, n_views, -1)
    sims = np.einsum("nad,nbd->nab", z, z)
    iu, ju = np.triu_indices(n_views, k=1)
    return np.clip(sims[:, iu, ju], -1.0, 1.0).mean(axis=1)


def mi_alignment_scores(
    enc: EncoderNet,
    data: LabeledDataset,
    ids,
    aug: AugmentorConfig,
    seed: int,
) -> np.ndarray:
    """Per-sample mean pairwise cosine across _MI_N_VIEWS stochastic views
    (45 pairs for its 10 views)."""
    return _mi_scores(enc, _mi_views(data, ids, aug, seed))


def _attack_sets(splits: Splits, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ids the membership attacks score: (members, non-members, unlearn).
    The members are a seeded retain sample as large as the test split."""
    if len(splits.test) == 0:
        raise ConfigurationError("membership inference needs a test split")
    if len(splits.retain) < len(splits.test):
        raise ConfigurationError("retain split smaller than test split")
    rng = seeds.stream_rng(seed, seeds.MI_MEMBERS)
    members = np.sort(rng.choice(splits.retain, size=len(splits.test), replace=False))
    return members, splits.test, splits.unlearn


def _efficacy(member_scores, nonmember_scores, unlearn_scores) -> float:
    """Fit the threshold attack on members vs non-members; the fraction of
    unlearn samples it calls non-members."""
    thr, _ = fit_threshold(member_scores, nonmember_scores)
    return float(np.mean(unlearn_scores <= thr))


def encoder_mi_efficacy(
    enc: EncoderNet,
    data: LabeledDataset,
    splits: Splits,
    aug: AugmentorConfig,
    seed: int,
) -> float:
    """Train the view-alignment membership attack on retain-vs-test scores,
    then report the fraction of unlearn samples it calls non-members."""
    return _efficacy(*(mi_alignment_scores(enc, data, ids, aug, seed)
                       for ids in _attack_sets(splits, seed)))


# --- linear probe ------------------------------------------------------------------


def softmax_xent_loss_fn(labels: np.ndarray, num_classes: int) -> LossFn:
    """Mean cross-entropy over logits, stable log-sum-exp form.

    The reductions across classes run on a (classes, batch) copy, where
    each is a few contiguous row operations instead of one short strided
    reduction per sample. The exponentials and the gradient are worked out
    in place in that copy; the gradient comes back as a transposed view."""
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.size
    # flat position of each sample's label logit in the (classes, batch) copy
    picked = labels * n + np.arange(n)

    def fn(logits):
        if labels.shape != (logits.shape[0],):
            raise ConfigurationError("labels do not align with the logit batch")
        e = logits.T.copy()
        m = e.max(axis=0)
        label_logits = e.take(picked)
        np.exp(np.subtract(e, m, out=e), out=e)
        tot = e.sum(axis=0)
        nll = np.log(tot)
        nll += m
        nll -= label_logits
        e /= tot
        e.reshape(-1)[picked] -= 1.0
        e /= n
        # sum / n is how np.mean reduces, bit for bit
        return float(nll.sum() / n), e.T

    return fn


def linear_probe(feats, labels, num_classes: int, cfg: ProbeConfig) -> EncoderNet:
    """Multinomial linear head trained with SGD on frozen features, one
    labelled sample per row."""
    feats = np.asarray(feats, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if feats.ndim != 2 or labels.shape != (feats.shape[0],):
        raise ConfigurationError("probe labels must align with the feature rows")
    if labels.size < 2:
        raise ConfigurationError("probe training needs at least 2 samples")
    if num_classes < 2:
        raise ConfigurationError("need at least 2 classes")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ConfigurationError("labels out of range for num_classes")
    head = init_encoder([feats.shape[1], num_classes],
                        seed=(cfg.seed, seeds.PROBE_INIT), normalize_output=False)
    if cfg.epochs == 0:
        return head
    starts = range(0, labels.size, cfg.batch_size)

    def epoch_steps(epoch):
        perm = seeds.stream_rng(cfg.seed, seeds.PROBE_SHUFFLE, epoch).permutation(labels.size)
        # one gather per epoch; each batch is then a contiguous slice
        ep_feats, ep_labels = feats[perm], labels[perm]
        for lo in starts:
            hi = lo + cfg.batch_size
            loss_fn = softmax_xent_loss_fn(ep_labels[lo:hi], num_classes)
            yield loss_and_grads(head, ep_feats[lo:hi], loss_fn)

    sgd_epochs(head, cfg.epochs, len(starts), cfg.lr, cfg.momentum, cfg.weight_decay,
               epoch_steps)
    return head


def probe_logits(
    enc: EncoderNet,
    data: LabeledDataset,
    id_sets,
    num_classes: int,
    cfg: ProbeConfig,
) -> list[np.ndarray]:
    """Forward each id set through enc once, train the linear probe on the
    features of the first set, and return the head's logits of every set,
    in order."""
    feats = [encoder_forward(enc, data.samples_for(ids)) for ids in id_sets]
    head = linear_probe(feats[0], data.labels_for(id_sets[0]), num_classes, cfg)
    return [encoder_forward(head, f) for f in feats]


def classifier_metrics(logits, labels) -> tuple[float, float, float]:
    """(retain, test, unlearn) accuracies in percent, from the probe's
    logits and the labels of those three splits, in that order."""
    if len(logits) != 3 or len(labels) != 3:
        raise ConfigurationError("need logits and labels of the retain, test and unlearn splits")
    for lg, lab in zip(logits, labels):
        if np.shape(lab) != (np.shape(lg)[0],):
            raise ConfigurationError("labels do not align with the logit rows")
    if logits[1].shape[0] == 0:
        raise ConfigurationError("classifier metrics need a test split")
    ra, ta, ua = (float(np.mean(np.argmax(lg, axis=1) == lab) * 100.0)
                  for lg, lab in zip(logits, labels))
    return ra, ta, ua


def confidence_scores(logits: np.ndarray) -> np.ndarray:
    """Max softmax probability per row of probe logits."""
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    return (e.max(axis=1) / e.sum(axis=1))


def cmia_efficacy(
    enc: EncoderNet, head: EncoderNet, data: LabeledDataset, splits: Splits, seed: int
) -> float:
    """Confidence-threshold membership attack; fraction of unlearn samples
    classified as non-members."""
    return _efficacy(*(
        confidence_scores(encoder_forward(head, encoder_forward(enc, data.samples_for(ids))))
        for ids in _attack_sets(splits, seed)))


# --- gap summaries ----------------------------------------------------------------


def gap_report(candidate: dict[str, float], reference: dict[str, float]) -> GapReport:
    """Absolute metric gaps to a reference run, their mean, and the mean
    percentage gap relative to the reference values."""
    keys = sorted(set(candidate) & set(reference))
    if not keys:
        raise ConfigurationError("no common metrics to compare")
    gaps = {k: abs(float(candidate[k]) - float(reference[k])) for k in keys}
    avg_gap = float(np.mean([gaps[k] for k in keys]))
    pct = []
    for k in keys:
        ref = float(reference[k])
        if ref == 0.0:
            warnings.warn(f"metric {k!r} has zero reference; omitted from percentage gap")
            continue
        pct.append(100.0 * gaps[k] / abs(ref))
    agp = float(np.mean(pct)) if pct else float("nan")
    return GapReport(gaps=gaps, avg_gap=avg_gap, agp=agp)


# --- one evaluation pass ------------------------------------------------------------


def evaluate(
    encoders: dict[str, EncoderNet],
    before: EncoderNet,
    data: LabeledDataset,
    splits: Splits,
    aug: AugmentorConfig,
    probe_cfg: ProbeConfig,
    seed: int,
) -> dict[str, EvalReport]:
    """The EvalReport of each named encoder against one pre-unlearning
    encoder: forgetting score, both membership attacks and probe
    accuracies. The audit views, before's features of them, the member
    sample and the MI views are built once and shared by every encoder;
    each report's runtime counts that shared work plus its own scoring.

    Each encoder forwards the retain, test, unlearn and member samples
    once: the probe trains on the retain features, the accuracies score the
    head's logits of the three splits, and the confidence attack reuses the
    member, test and unlearn logits."""
    t0 = time.perf_counter()
    xs, ys = paired_unlearn_views(data, splits.unlearn, aug, seed)
    bx, by = encoder_forward(before, xs), encoder_forward(before, ys)
    attack_ids = _attack_sets(splits, seed)
    mi_views = [_mi_views(data, ids, aug, seed) for ids in attack_ids]
    # the member sample is a forward batch of its own: as rows of the retain
    # batch, its features could round differently in BLAS
    scored_ids = (splits.retain, splits.test, splits.unlearn, attack_ids[0])
    labels = [data.labels_for(ids) for ids in scored_ids[:3]]
    num_classes = int(data.labels.max()) + 1
    shared_s = time.perf_counter() - t0
    reports = {}
    for name, enc in encoders.items():
        t1 = time.perf_counter()
        fs, _ = forgetting_score_from_features(
            bx, by, encoder_forward(enc, xs), encoder_forward(enc, ys))
        retain, test, unlearn, members = probe_logits(
            enc, data, scored_ids, num_classes, probe_cfg)
        ra, ta, ua = classifier_metrics((retain, test, unlearn), labels)
        reports[name] = EvalReport(
            fs=fs, emia=_efficacy(*(_mi_scores(enc, v) for v in mi_views)),
            cmia=_efficacy(*(confidence_scores(lg) for lg in (members, test, unlearn))),
            ra=ra, ta=ta, ua=ua,
            runtime_seconds=shared_s + time.perf_counter() - t1,
        )
    return reports
