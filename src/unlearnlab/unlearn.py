"""Unlearning procedures for a contrastive encoder.

Every method starts from a trained encoder and an id split and returns a
new encoder; inputs are never mutated.  One config (ACConfig) and one
SGD loop (run_ac) serve all of them.  The calibration method ("ac")
descends

    L = L_retain + unlearn_scale * L_unlearn

where L_retain is the paired-view contrastive loss of the retain batch
against a mixed similarity pool, and L_unlearn reshapes the unlearn
batch's alignment: raise similarity to other unlearn samples
(negpair_weight), lower own positive-pair similarity (forget_weight), and
keep the contrast structure against the pool (preserve_weight).  The
alignment terms use raw cosine similarities; the log-sum-exp terms are
temperature-scaled like the training loss.

Baselines: plain fine-tuning on retain ("finetune", which is "ac" at
scale 0), gradient ascent on the unlearn set ("gradascent"), a
descent/ascent difference ("neggrad"), fine-tuning with an L1 parameter
penalty ("l1sparsity"), and exact retraining from scratch (retrain).

Every step is one backward pass of one loss over one feature stack: a
list of InfoNCE and alignment terms over row ranges of the stack, where
gradient ascent is a term of negative weight.  The L1 penalty is not a
loss term; the optimizer adds its subgradient beside weight decay.
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
    _info_nce_terms,
    _terms_loss_fn,
    batch_chunks,
    info_nce_loss_fn,
    pretrain_on_ids,
    sgd_epochs,
    steps_per_epoch,
)
from .datagen import (
    AugmentorConfig,
    LabeledDataset,
    Splits,
    draw_view_block,
    paired_views_for_ids,
)
from .diffcore import (
    EncoderNet,
    GradSet,
    LossFn,
    check_sgd_settings,
    encoder_forward,
    loss_and_grads,
    sgd_momentum_step,  # not called here: benchmarks/layers.py needs this binding for opt_s
)
from .errors import ConfigurationError

METHODS = ("ac", "finetune", "gradascent", "neggrad", "l1sparsity")


@dataclass
class ACConfig:
    """One unlearning run: its method, the objective's knobs and the SGD
    settings.

    Only "ac" reads the three *_weight knobs and unlearn_scale, which None
    resolves to |unlearn| / |retain| at run time; only "l1sparsity" reads
    l1_coeff and only "neggrad" reads ascent_weight.
    """

    method: str = "ac"
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
    l1_coeff: float = 0.0
    ascent_weight: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            if self.method == "retrain":
                raise ConfigurationError(
                    "use retrain() or the retrain subcommand for exact retraining")
            raise ConfigurationError(f"unknown method {self.method!r}; choose from {METHODS}")
        # each check is written so that NaN fails it too
        for name in ("negpair_weight", "forget_weight", "preserve_weight", "l1_coeff",
                     "ascent_weight"):
            if not getattr(self, name) >= 0:
                raise ConfigurationError(f"{name} must be >= 0")
        if self.unlearn_scale is not None and not self.unlearn_scale >= 0:
            raise ConfigurationError("unlearn_scale must be >= 0 (or None for auto)")
        if self.epochs < 0:
            raise ConfigurationError("epochs must be >= 0")
        check_sgd_settings(self.lr, self.momentum, self.weight_decay)
        if not self.temperature > 0:
            raise ConfigurationError("temperature must be > 0")
        if self.retain_batch < 2 or self.unlearn_batch < 1:
            raise ConfigurationError("retain_batch >= 2 and unlearn_batch >= 1 required")


# --- loss builders over a feature stack ---------------------------------------

def _unlearn_terms(
    n_pairs: int,
    first_row: int,
    pool: slice,
    exclude_pool_pos,
    negpair_weight: float,
    forget_weight: float,
    preserve_weight: float,
    tau: float,
    coeff: float = 1.0,
):
    """A function that adds the unlearn terms of the 2 * n_pairs rows from
    first_row on, laid out [ux; uy], to a PairTerms; the index arrays it
    uses are built once, here."""
    rows = first_row + np.arange(2 * n_pairs)
    neg = None
    if negpair_weight != 0.0:
        # every unordered pair of views of distinct samples
        i, j = np.triu_indices(2 * n_pairs, k=1)
        keep = i % n_pairs != j % n_pairs
        if not keep.any():
            warnings.warn(
                "single-sample unlearn batch has no cross-sample pairs; "
                "negpair term contributes nothing"
            )
        else:
            neg = rows[i[keep]], rows[j[keep]]
    anchors = slice(first_row, first_row + 2 * n_pairs)

    def add(acc: PairTerms) -> None:
        if neg is not None:
            acc.add_pair_mean(*neg, coeff=-negpair_weight * coeff)
        if forget_weight != 0.0:
            acc.add_pair_mean(rows[:n_pairs], rows[n_pairs:], coeff=forget_weight * coeff)
        if preserve_weight != 0.0:
            acc.add_log_sum_exp(anchors, pool, coeff=preserve_weight * coeff, tau=tau,
                                exclude_pool_pos=exclude_pool_pos)

    return add


def retain_stack_loss_fn(
    n_pairs: int, n_pool: int, temperature: float, exclude_pool_pos=None
) -> LossFn:
    """Loss over a stack laid out [x views; y views; pool rows]."""
    pool = slice(2 * n_pairs, 2 * n_pairs + n_pool)
    return _terms_loss_fn(_info_nce_terms(n_pairs, pool, exclude_pool_pos, temperature))


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
    pool = slice(2 * n_pairs, 2 * n_pairs + n_pool)
    return _terms_loss_fn(_unlearn_terms(
        n_pairs, 0, pool, exclude_pool_pos,
        negpair_weight, forget_weight, preserve_weight, temperature,
    ))


def ac_stack_loss_fn(
    n_retain: int, n_unlearn: int, cfg: ACConfig, unlearn_scale: float,
    work: PairWorkspace | None = None,
) -> LossFn:
    """Calibration loss over a training stack [rx; ry; ux; uy] where the
    pool is the whole stack and every anchor excludes its own row.  Every
    call builds its pair matrices in work (a private one by default)."""
    n = 2 * n_retain + 2 * n_unlearn
    pool = slice(0, n)
    return _terms_loss_fn(
        _info_nce_terms(n_retain, pool, np.arange(2 * n_retain), cfg.temperature),
        _unlearn_terms(
            n_unlearn, 2 * n_retain, pool, np.arange(2 * n_retain, n),
            cfg.negpair_weight, cfg.forget_weight, cfg.preserve_weight,
            cfg.temperature, coeff=unlearn_scale,
        ),
        work=work,
    )


def neggrad_stack_loss_fn(
    n_retain: int, n_unlearn: int, cfg: ACConfig, work: PairWorkspace | None = None,
) -> LossFn:
    """NegGrad+ loss over a training stack [rx; ry; ux; uy]: the retain
    rows' InfoNCE less cfg.ascent_weight times the unlearn rows' InfoNCE,
    each against its own rows as the pool.  Every call builds its pair
    matrices in work (a private one by default)."""
    n = 2 * n_retain + 2 * n_unlearn
    return _terms_loss_fn(
        _info_nce_terms(n_retain, slice(0, 2 * n_retain), np.arange(2 * n_retain),
                        cfg.temperature),
        _info_nce_terms(n_unlearn, slice(2 * n_retain, n), np.arange(2 * n_unlearn),
                        cfg.temperature, first_row=2 * n_retain, coeff=-cfg.ascent_weight),
        work=work,
    )


# --- public value-level ops ----------------------------------------------------

def _pool_loss(enc: EncoderNet, x, y, pool, make_fn) -> float:
    """The loss make_fn(n_pairs, n_pool, exclude_pool_pos) builds, over the
    features of the stack [x; y; pool].  Each view of x and y found bitwise
    in pool leaves its first match there out of its own sum."""
    x, y, pool = (np.asarray(a, dtype=np.float64) for a in (x, y, pool))
    if x.ndim != 2 or x.shape != y.shape or x.shape[0] < 1:
        raise ConfigurationError("view matrices must be 2-d and row-aligned")
    if pool.ndim != 2 or pool.shape[0] < 1 or pool.shape[1] != x.shape[1]:
        raise ConfigurationError("pool must be a non-empty matrix matching view dim")
    if x.shape[1] != enc.input_dim:
        raise ConfigurationError("view dim does not match encoder input dim")
    anchors = np.vstack([x, y])
    excl = np.full(len(anchors), -1, dtype=np.int64)
    for k, a in enumerate(anchors):
        hits = np.nonzero(np.all(pool == a, axis=1))[0]
        if len(hits):
            excl[k] = hits[0]
    z = encoder_forward(enc, np.vstack([anchors, pool]))
    return float(make_fn(len(x), len(pool), excl)(z)[0])


def retain_loss(enc: EncoderNet, retain_x, retain_y, pool_views, temperature: float) -> float:
    """Contrastive loss of the retain batch against a similarity pool.
    Anchors found bitwise in the pool are excluded from their own sum;
    with pool == the batch views this equals the training loss."""
    return _pool_loss(enc, retain_x, retain_y, pool_views,
                      lambda n, m, excl: retain_stack_loss_fn(n, m, temperature, excl))


def unlearn_loss(enc: EncoderNet, unlearn_x, unlearn_y, pool_views, cfg: ACConfig) -> float:
    """Alignment-reshaping loss of the unlearn batch against a pool, at
    cfg.temperature."""
    return _pool_loss(enc, unlearn_x, unlearn_y, pool_views, lambda n, m, excl: (
        unlearn_stack_loss_fn(n, m, cfg.negpair_weight, cfg.forget_weight,
                              cfg.preserve_weight, cfg.temperature, excl)))


# --- SGD drivers ----------------------------------------------------------------

def _tile_ids(perm: np.ndarray, count: int, width: int) -> list[np.ndarray]:
    """count windows of width ids cycling over perm (width <= len(perm),
    so no window repeats an id)."""
    need = count * width
    reps = int(np.ceil(need / len(perm))) + 1
    tiled = np.tile(perm, reps)
    return [tiled[k * width : (k + 1) * width] for k in range(count)]


def _step_loss(net: EncoderNet, cfg: ACConfig, splits: Splits, side_width: int):
    """The step of cfg.method, and whether it uses a window of unlearn ids.
    The step maps a stack and the row count of its chunk's views, which
    come first, to the loss and gradients of net; the window's views, when
    used, fill the rest of the stack. Every method's loss is one list of
    terms over the whole stack, and every step rewrites the same gradient
    set, so each step's gradients are valid until the next."""
    grads = GradSet.like(net)
    work = PairWorkspace()  # shared by the losses of every chunk length

    def per_chunk(make_fn):
        """A step whose loss make_fn(n_pairs) builds once per chunk length."""
        fns = {}

        def step(stack, rows):
            fn = fns.get(rows)
            if fn is None:
                fn = fns[rows] = make_fn(rows // 2)
            return loss_and_grads(net, stack, fn, grads)

        return step

    if cfg.method == "ac":
        scale = (len(splits.unlearn) / len(splits.retain) if cfg.unlearn_scale is None
                 else cfg.unlearn_scale)
        if scale != 0.0:
            return per_chunk(lambda n: ac_stack_loss_fn(n, side_width, cfg, scale, work)), True
    if cfg.method == "neggrad":
        return per_chunk(lambda n: neggrad_stack_loss_fn(n, side_width, cfg, work)), True
    if cfg.method == "gradascent":
        # InfoNCE at weight -1: negation commutes with every rounding of the
        # loss and the backward pass, so the gradients are exactly the
        # negated InfoNCE gradients
        return per_chunk(lambda n: _terms_loss_fn(
            _info_nce_terms(n, slice(0, 2 * n), np.arange(2 * n), cfg.temperature, coeff=-1.0),
            work=work)), False
    # retain-only descent: finetune, l1sparsity (its penalty is the
    # optimizer's), or ac at zero strength
    nce = info_nce_loss_fn(cfg.temperature)
    return (lambda stack, rows: loss_and_grads(net, stack, nce, grads)), False


def run_ac(
    enc: EncoderNet,
    data: LabeledDataset,
    splits: Splits,
    cfg: ACConfig,
    aug: AugmentorConfig,
) -> EncoderNet:
    """Unlearning by cfg.method, on a copy of enc.  Each epoch walks the
    driving split (the unlearn set for gradascent, the retain set
    otherwise) in batches; ac and neggrad add a window of unlearn ids to
    each step.  At unlearn_scale == 0, ac is exactly finetune, sample for
    sample and bit for bit."""
    net = enc.copy()
    # from Python 3.11 on, a call moves its arguments into the callee, so a
    # start encoder passed inline is freed here; on 3.10 the caller keeps it
    del enc
    if cfg.epochs == 0:
        return net
    if data.dim != net.input_dim:
        raise ConfigurationError("data dim does not match encoder input dim")
    if cfg.method == "gradascent":
        drive_ids, drive_batch = splits.unlearn, cfg.unlearn_batch
    else:
        drive_ids, drive_batch = splits.retain, cfg.retain_batch
    if len(drive_ids) < 2:
        raise ConfigurationError("driving split needs at least 2 samples")
    side_width = min(cfg.unlearn_batch, len(splits.unlearn))
    step_loss, uses_side = _step_loss(net, cfg, splits, side_width)

    def epoch_steps(epoch):
        perm = seeds.stream_rng(cfg.seed, seeds.SHUFFLE_MAIN, epoch).permutation(drive_ids)
        chunks = batch_chunks(perm, drive_batch)
        if uses_side:
            sideperm = seeds.stream_rng(cfg.seed, seeds.SHUFFLE_SIDE, epoch).permutation(
                splits.unlearn)
            side = _tile_ids(sideperm, len(chunks), side_width)
        # the block is freed when the epoch's steps are done
        block = draw_view_block(data, aug, cfg.seed, epoch)
        for step, chunk in enumerate(chunks):
            # one stack [xs; ys] of the chunk's views, then [ux; uy] of the
            # window's when the method uses one
            rows = 2 * len(chunk)
            stack = np.empty((rows + (2 * side_width if uses_side else 0), data.dim))
            paired_views_for_ids(data, chunk, aug, cfg.seed, epoch, block, out=stack[:rows])
            if uses_side:
                paired_views_for_ids(data, side[step], aug, cfg.seed, epoch, block,
                                     out=stack[rows:])
            yield step_loss(stack, rows)

    sgd_epochs(net, cfg.epochs, steps_per_epoch(len(drive_ids), drive_batch), cfg.lr,
               cfg.momentum, cfg.weight_decay, epoch_steps,
               l1=cfg.l1_coeff if cfg.method == "l1sparsity" else 0.0)
    return net


def retrain(
    data: LabeledDataset,
    splits: Splits,
    cfg: ContrastiveConfig,
    arch,
    aug: AugmentorConfig,
) -> EncoderNet:
    """Gold standard: train a fresh encoder on the retain set only."""
    return pretrain_on_ids(data, splits.retain, cfg, arch, aug)
