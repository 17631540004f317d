"""Unlearning procedures for a contrastive encoder.

All methods start from a trained encoder and an id split and return a new
encoder; inputs are never mutated.  The calibration method (run_ac)
descends

    L = L_retain + unlearn_scale * L_unlearn

where L_retain is the paired-view contrastive loss of the retain batch
against a mixed similarity pool, and L_unlearn reshapes the unlearn
batch's alignment: raise similarity to other unlearn samples
(negpair_weight), lower own positive-pair similarity (forget_weight), and
keep the contrast structure against the pool (preserve_weight).  The
alignment terms use raw cosine similarities; the log-sum-exp terms are
temperature-scaled like the training loss.

Baselines: plain fine-tuning on retain, gradient ascent on the unlearn
set, a descent/ascent difference (neggrad), fine-tuning with an L1
parameter penalty, and exact retraining from scratch.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import seeds
from .contrastive import (
    ContrastiveConfig,
    PairTerms,
    PairWorkspace,
    batch_chunks,
    info_nce_loss_fn,
    pretrain_on_ids,
    steps_per_epoch,
)
from .datagen import (
    AugmentorConfig,
    LabeledDataset,
    Splits,
    draw_view_block,
    paired_views_for_ids,
)
from .diffcore import EncoderNet, LossFn, OptState, encoder_forward, loss_and_grads, sgd_momentum_step
from .errors import ConfigurationError, NumericError

BASELINE_NAMES = ("finetune", "gradascent", "neggrad", "l1sparsity")


@dataclass
class ACConfig:
    """Knobs for the calibration objective and its SGD run.

    unlearn_scale=None resolves to |unlearn| / |retain| at run time.
    """

    negpair_weight: float = 1.0
    forget_weight: float = 1.0
    preserve_weight: float = 1.0
    unlearn_scale: float | None = None
    epochs: int = 10
    lr: float = 0.01
    temperature: float = 0.5
    momentum: float = 0.9
    weight_decay: float = 0.0
    retain_batch: int = 128
    unlearn_batch: int = 32
    seed: int = 0

    def __post_init__(self):
        for name in ("negpair_weight", "forget_weight", "preserve_weight"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")
        if self.unlearn_scale is not None and self.unlearn_scale < 0:
            raise ConfigurationError("unlearn_scale must be >= 0 (or None for auto)")
        if self.epochs < 0 or self.lr < 0:
            raise ConfigurationError("epochs and lr must be >= 0")
        if self.temperature <= 0:
            raise ConfigurationError("temperature must be > 0")
        if self.retain_batch < 2 or self.unlearn_batch < 1:
            raise ConfigurationError("retain_batch >= 2 and unlearn_batch >= 1 required")


@dataclass
class UnlearnMethod:
    """A named baseline with its hyperparameters."""

    name: str
    epochs: int = 10
    lr: float = 0.01
    temperature: float = 0.5
    momentum: float = 0.9
    weight_decay: float = 0.0
    retain_batch: int = 128
    unlearn_batch: int = 32
    l1_coeff: float = 0.0
    ascent_weight: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.name not in BASELINE_NAMES:
            if self.name == "retrain":
                raise ConfigurationError("use retrain() for exact retraining")
            raise ConfigurationError(
                f"unknown method {self.name!r}; choose from {BASELINE_NAMES}"
            )
        if self.l1_coeff < 0 or self.ascent_weight < 0:
            raise ConfigurationError("l1_coeff and ascent_weight must be >= 0")
        if self.epochs < 0 or self.lr < 0 or self.temperature <= 0:
            raise ConfigurationError("bad optimizer hyperparameters")
        if self.retain_batch < 2 or self.unlearn_batch < 1:
            raise ConfigurationError("retain_batch >= 2 and unlearn_batch >= 1 required")


# --- loss builders over a feature stack ---------------------------------------

def _retain_terms(acc: PairTerms, n_pairs: int, pool_rows, exclude_pos, tau: float) -> None:
    """-mean_a s(a, partner)/tau + mean_a logsumexp over the pool."""
    anchors = np.arange(2 * n_pairs)
    partners = (anchors + n_pairs) % (2 * n_pairs)
    acc.add_pair_mean(anchors, partners, coeff=-1.0, tau=tau)
    acc.add_log_sum_exp(anchors, pool_rows, coeff=1.0, tau=tau, exclude_pool_pos=exclude_pos)


def _neg_pair_indices(n_pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """All unordered view pairs from distinct samples in a (2U) view block
    ordered [x0..xU-1, y0..yU-1]."""
    rows = np.arange(2 * n_pairs)
    sample = rows % n_pairs
    i, j = np.triu_indices(2 * n_pairs, k=1)
    keep = sample[i] != sample[j]
    return i[keep], j[keep]


def _unlearn_terms(
    x_rows: np.ndarray,
    y_rows: np.ndarray,
    pool_rows,
    exclude_pos,
    negpair_weight: float,
    forget_weight: float,
    preserve_weight: float,
    tau: float,
    coeff: float = 1.0,
):
    """A function that adds the unlearn terms to a PairTerms; the index
    arrays it uses are built once, here."""
    rows = np.concatenate([x_rows, y_rows])
    neg = None
    if negpair_weight != 0.0:
        i, j = _neg_pair_indices(len(x_rows))
        if len(i) == 0:
            warnings.warn(
                "single-sample unlearn batch has no cross-sample pairs; "
                "negpair term contributes nothing"
            )
        else:
            neg = rows[i], rows[j]

    def add(acc: PairTerms) -> None:
        if neg is not None:
            acc.add_pair_mean(*neg, coeff=-negpair_weight * coeff)
        if forget_weight != 0.0:
            acc.add_pair_mean(x_rows, y_rows, coeff=forget_weight * coeff)
        if preserve_weight != 0.0:
            acc.add_log_sum_exp(
                rows, pool_rows, coeff=preserve_weight * coeff, tau=tau,
                exclude_pool_pos=exclude_pos,
            )

    return add


def retain_stack_loss_fn(
    n_pairs: int, n_pool: int, temperature: float, exclude_pool_pos=None
) -> LossFn:
    """Loss over a stack laid out [x views; y views; pool rows]."""
    pool_rows = 2 * n_pairs + np.arange(n_pool)

    def fn(z):
        acc = PairTerms(z)
        _retain_terms(acc, n_pairs, pool_rows, exclude_pool_pos, temperature)
        return acc.result()

    return fn


def unlearn_stack_loss_fn(
    n_pairs: int,
    n_pool: int,
    negpair_weight: float,
    forget_weight: float,
    preserve_weight: float,
    temperature: float,
    exclude_pool_pos=None,
) -> LossFn:
    """Loss over a stack laid out [x views; y views; pool rows]."""
    x_rows = np.arange(n_pairs)
    y_rows = n_pairs + np.arange(n_pairs)
    pool_rows = 2 * n_pairs + np.arange(n_pool)
    add_unlearn = _unlearn_terms(
        x_rows, y_rows, pool_rows, exclude_pool_pos,
        negpair_weight, forget_weight, preserve_weight, temperature,
    )

    def fn(z):
        acc = PairTerms(z)
        add_unlearn(acc)
        return acc.result()

    return fn


def ac_stack_loss_fn(
    n_retain: int, n_unlearn: int, cfg: ACConfig, unlearn_scale: float,
    work: PairWorkspace | None = None,
) -> LossFn:
    """Calibration loss over a training stack [rx; ry; ux; uy] where the
    pool is the whole stack and every anchor excludes its own row.  Every
    call builds its pair matrices in work (a private one by default)."""
    n = 2 * n_retain + 2 * n_unlearn
    pool_rows = np.arange(n)
    retain_excl = np.arange(2 * n_retain)
    ux_rows = 2 * n_retain + np.arange(n_unlearn)
    uy_rows = 2 * n_retain + n_unlearn + np.arange(n_unlearn)
    unlearn_excl = np.arange(2 * n_retain, n)
    add_unlearn = _unlearn_terms(
        ux_rows, uy_rows, pool_rows, unlearn_excl,
        cfg.negpair_weight, cfg.forget_weight, cfg.preserve_weight,
        cfg.temperature, coeff=unlearn_scale,
    )
    work = work or PairWorkspace()

    def fn(z):
        acc = PairTerms(z, work)
        _retain_terms(acc, n_retain, pool_rows, retain_excl, cfg.temperature)
        add_unlearn(acc)
        return acc.result()

    return fn


# --- public value-level ops ----------------------------------------------------

def _first_match_positions(anchors: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """Position of each anchor view's first bitwise-equal pool row, else -1."""
    out = np.full(len(anchors), -1, dtype=np.int64)
    for k, a in enumerate(anchors):
        hits = np.nonzero(np.all(pool == a, axis=1))[0]
        if len(hits):
            out[k] = hits[0]
    return out


def _check_views(x, y, pool, enc):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    pool = np.asarray(pool, dtype=np.float64)
    if x.ndim != 2 or x.shape != y.shape or x.shape[0] < 1:
        raise ConfigurationError("view matrices must be 2-d and row-aligned")
    if pool.ndim != 2 or pool.shape[0] < 1 or pool.shape[1] != x.shape[1]:
        raise ConfigurationError("pool must be a non-empty matrix matching view dim")
    if x.shape[1] != enc.input_dim:
        raise ConfigurationError("view dim does not match encoder input dim")
    return x, y, pool


def retain_loss(enc: EncoderNet, retain_x, retain_y, pool_views, temperature: float) -> float:
    """Contrastive loss of the retain batch against a similarity pool.
    Anchors found bitwise in the pool are excluded from their own sum;
    with pool == the batch views this equals the training loss."""
    x, y, pool = _check_views(retain_x, retain_y, pool_views, enc)
    anchors = np.vstack([x, y])
    excl = _first_match_positions(anchors, pool)
    z = encoder_forward(enc, np.vstack([anchors, pool]))
    fn = retain_stack_loss_fn(x.shape[0], pool.shape[0], temperature, exclude_pool_pos=excl)
    return float(fn(z)[0])


def unlearn_loss(
    enc: EncoderNet, unlearn_x, unlearn_y, pool_views, cfg: ACConfig, temperature: float | None = None
) -> float:
    """Alignment-reshaping loss of the unlearn batch against a pool."""
    tau = cfg.temperature if temperature is None else temperature
    x, y, pool = _check_views(unlearn_x, unlearn_y, pool_views, enc)
    anchors = np.vstack([x, y])
    excl = _first_match_positions(anchors, pool)
    z = encoder_forward(enc, np.vstack([anchors, pool]))
    fn = unlearn_stack_loss_fn(
        x.shape[0], pool.shape[0],
        cfg.negpair_weight, cfg.forget_weight, cfg.preserve_weight,
        tau, exclude_pool_pos=excl,
    )
    return float(fn(z)[0])


# --- SGD drivers ----------------------------------------------------------------

def _tile_ids(perm: np.ndarray, count: int, width: int) -> list[np.ndarray]:
    """count windows of width ids cycling over perm (width <= len(perm),
    so no window repeats an id)."""
    need = count * width
    reps = int(np.ceil(need / len(perm))) + 1
    tiled = np.tile(perm, reps)
    return [tiled[k * width : (k + 1) * width] for k in range(count)]


def _add_l1_subgradient(net: EncoderNet, grads, coeff: float) -> float:
    penalty = 0.0
    for p, g in zip(net.param_arrays(), grads.arrays()):
        g += coeff * np.sign(p)
        penalty += float(np.abs(p).sum())
    return coeff * penalty


def _run_unlearn_sgd(
    start: EncoderNet,
    data: LabeledDataset,
    splits: Splits,
    aug: AugmentorConfig,
    *,
    method: str,
    epochs: int,
    lr: float,
    momentum: float,
    weight_decay: float,
    temperature: float,
    retain_batch: int,
    unlearn_batch: int,
    seed: int,
    cfg: ACConfig | None = None,
    unlearn_scale: float = 0.0,
    l1_coeff: float = 0.0,
    ascent_weight: float = 1.0,
) -> EncoderNet:
    net = start.copy()
    if epochs == 0:
        return net
    if data.dim != net.input_dim:
        raise ConfigurationError("data dim does not match encoder input dim")
    ascent_only = method == "gradascent"
    drive_ids = splits.unlearn if ascent_only else splits.retain
    drive_batch = unlearn_batch if ascent_only else retain_batch
    if len(drive_ids) < 2:
        raise ConfigurationError("driving split needs at least 2 samples")
    spe = steps_per_epoch(len(drive_ids), drive_batch)
    needs_side = method == "neggrad" or (method == "ac" and unlearn_scale != 0.0)
    side_width = min(unlearn_batch, len(splits.unlearn))
    opt = OptState(
        base_lr=lr, momentum=momentum, weight_decay=weight_decay,
        total_steps=epochs * spe,
    )
    nce = info_nce_loss_fn(temperature, allow_singleton=True)
    ac_fns = {}  # AC loss per retain chunk length, sharing one workspace
    ac_work = PairWorkspace()
    for epoch in range(epochs):
        perm = seeds.stream_rng(seed, seeds.SHUFFLE_MAIN, epoch).permutation(drive_ids)
        chunks = batch_chunks(perm, drive_batch)
        side = None
        if needs_side:
            sideperm = seeds.stream_rng(seed, seeds.SHUFFLE_SIDE, epoch).permutation(
                splits.unlearn
            )
            side = _tile_ids(sideperm, len(chunks), side_width)
        block = draw_view_block(data, aug, seed, epoch)
        for step, chunk in enumerate(chunks):
            xs, ys = paired_views_for_ids(data, chunk, aug, seed, epoch, block)
            if method == "ac" and unlearn_scale != 0.0:
                ux, uy = paired_views_for_ids(data, side[step], aug, seed, epoch, block)
                stack = np.vstack([xs, ys, ux, uy])
                fn = ac_fns.get(len(chunk))
                if fn is None:
                    fn = ac_fns[len(chunk)] = ac_stack_loss_fn(
                        len(chunk), side_width, cfg, unlearn_scale, ac_work)
                loss, grads = loss_and_grads(net, stack, fn)
            elif method == "neggrad":
                loss_r, grads = loss_and_grads(net, np.vstack([xs, ys]), nce)
                ux, uy = paired_views_for_ids(data, side[step], aug, seed, epoch, block)
                loss_u, g_u = loss_and_grads(net, np.vstack([ux, uy]), nce)
                grads.axpy(-ascent_weight, g_u)
                loss = loss_r - ascent_weight * loss_u
            else:
                # retain-only descent (finetune / l1sparsity / calibration at
                # scale 0) or ascent on the unlearn set
                loss, grads = loss_and_grads(net, np.vstack([xs, ys]), nce)
                if ascent_only:
                    grads.scale(-1.0)
                elif l1_coeff > 0.0:
                    loss += _add_l1_subgradient(net, grads, l1_coeff)
            try:  # the optimizer rejects a non-finite gradient before writing
                if not np.isfinite(loss):
                    raise NumericError("non-finite loss")
                sgd_momentum_step(net, grads, opt)
            except NumericError as exc:
                raise NumericError(f"non-finite loss/grads at epoch {epoch} step {step}") from exc
        del block  # free it before the next epoch's block is drawn
    return net


def run_ac(
    enc: EncoderNet,
    data: LabeledDataset,
    splits: Splits,
    cfg: ACConfig,
    aug: AugmentorConfig,
) -> EncoderNet:
    """Calibrated unlearning.  At unlearn_scale == 0 this is exactly the
    fine-tune baseline, sample for sample and bit for bit."""
    scale = (
        float(splits.unlearn_retain_ratio())
        if cfg.unlearn_scale is None
        else cfg.unlearn_scale
    )
    return _run_unlearn_sgd(
        enc, data, splits, aug,
        method="ac", epochs=cfg.epochs, lr=cfg.lr, momentum=cfg.momentum,
        weight_decay=cfg.weight_decay, temperature=cfg.temperature,
        retain_batch=cfg.retain_batch, unlearn_batch=cfg.unlearn_batch,
        seed=cfg.seed, cfg=cfg, unlearn_scale=scale,
    )


def run_baseline(
    enc: EncoderNet,
    data: LabeledDataset,
    splits: Splits,
    method: UnlearnMethod,
    aug: AugmentorConfig,
) -> EncoderNet:
    """Dispatch for the non-retraining baselines."""
    common = dict(
        epochs=method.epochs, lr=method.lr, momentum=method.momentum,
        weight_decay=method.weight_decay, temperature=method.temperature,
        retain_batch=method.retain_batch, unlearn_batch=method.unlearn_batch,
        seed=method.seed,
    )
    if method.name == "finetune":
        return _run_unlearn_sgd(enc, data, splits, aug, method="ac", **common)
    if method.name == "l1sparsity":
        return _run_unlearn_sgd(
            enc, data, splits, aug, method="ac", l1_coeff=method.l1_coeff, **common
        )
    if method.name == "gradascent":
        return _run_unlearn_sgd(enc, data, splits, aug, method="gradascent", **common)
    if method.name == "neggrad":
        return _run_unlearn_sgd(
            enc, data, splits, aug, method="neggrad",
            ascent_weight=method.ascent_weight, **common,
        )
    raise ConfigurationError(f"unknown method {method.name!r}")


def retrain(
    data: LabeledDataset,
    splits: Splits,
    cfg: ContrastiveConfig,
    arch,
    aug: AugmentorConfig,
) -> EncoderNet:
    """Gold standard: train a fresh encoder on the retain set only."""
    return pretrain_on_ids(data, splits.retain, cfg, arch, aug)
