"""Contrastive pretraining: paired-view InfoNCE over a small encoder.

All losses here (and the unlearning objectives built on top of them) are
functions of the pairwise feature dot-product matrix P = Z Z^T, with Z the
(n, d) feature stack.  PairTerms accumulates per-term contributions to
dLoss/dP and converts once at the end via dLoss/dZ = (G + G^T) Z, which
keeps every objective inside one gradient scheme that finite differences
can check.

Feature stacking convention: a batch of B positive pairs becomes a
(2B, d) stack where row i and row B+i are the two views of sample i.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from . import seeds
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
    OptState,
    check_sgd_settings,
    init_encoder,
    loss_and_grads,
    sgd_momentum_step,
)
from .errors import ConfigurationError, NumericError


@dataclass
class ContrastiveConfig:
    temperature: float = 0.5
    batch_size: int = 128
    epochs: int = 200
    base_lr: float = 0.06
    momentum: float = 0.9
    weight_decay: float = 5e-4
    seed: int = 0

    def __post_init__(self):
        if not self.temperature > 0:
            raise ConfigurationError("temperature must be > 0")
        if self.batch_size < 2:
            raise ConfigurationError("batch_size must be >= 2")
        if self.epochs < 0:
            raise ConfigurationError("epochs must be >= 0")
        check_sgd_settings(self.base_lr, self.momentum, self.weight_decay)


class PairWorkspace:
    """Reusable storage for the n x n float64 matrices of PairTerms.

    One buffer backs three matrices and grows only when n grows, so a loss
    closure that holds a workspace allocates no n x n matrix once warm:
    the pages stay mapped between training steps instead of being handed
    back to the kernel and faulted in again.
    """

    def __init__(self):
        self._buf = np.empty(0)

    def matrices(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Three C-contiguous (n, n) views of the buffer, contents undefined.
        They replace any views handed out before."""
        if self._buf.size < 3 * n * n:
            self._buf = np.empty(3 * n * n)
        flat = self._buf[: 3 * n * n]
        return tuple(m.reshape(n, n) for m in np.split(flat, 3))


class PairTerms:
    """Accumulates loss terms over P = Z Z^T and their dLoss/dP.

    The matrices live in a PairWorkspace: the one passed in, or a private
    one.  p and g are valid until the next PairTerms on the same workspace;
    the gradient result() returns is a fresh array that never aliases it.

    add_log_sum_exp takes its anchors and pool as row ranges (slices);
    add_pair_mean takes index arrays and tolerates repeated pairs.
    """

    def __init__(self, feats: np.ndarray, work: PairWorkspace | None = None):
        z = np.asarray(feats, dtype=np.float64)
        if z.ndim != 2:
            raise ConfigurationError("feature stack must be 2-d")
        self.z = z
        self.p, self.g, self._scratch = (work or PairWorkspace()).matrices(len(z))
        np.matmul(z, z.T, out=self.p)
        self.g.fill(0.0)
        self.value = 0.0

    def add_pair_mean(self, rows_a, rows_b, coeff: float) -> None:
        """coeff * mean over pairs of P[a, b]."""
        rows_a = np.asarray(rows_a, dtype=np.int64)
        rows_b = np.asarray(rows_b, dtype=np.int64)
        if rows_a.shape != rows_b.shape or rows_a.ndim != 1 or rows_a.size == 0:
            raise ConfigurationError("pair index arrays must be equal-length and non-empty")
        self.value += coeff * float(self.p[rows_a, rows_b].mean())
        np.add.at(self.g, (rows_a, rows_b), coeff / rows_a.size)

    def add_log_sum_exp(
        self,
        anchors: slice,
        pool: slice,
        coeff: float,
        tau: float,
        exclude_pool_pos=None,
    ) -> None:
        """coeff * mean over the anchor rows a of log sum_k exp(P[a, k]/tau)
        over the pool rows k.

        exclude_pool_pos[i] >= 0 drops that pool position from anchor i's
        sum (the anchor's own view).  Uses max-subtraction so identical
        similarities cancel exactly.  The exponentials are worked out in a
        C-contiguous block of the scratch matrix, laid out as a fresh array
        would be, so sums round the same.
        """
        cells = self.p[anchors, pool]
        if cells.size == 0:
            raise ConfigurationError("log-sum-exp needs non-empty anchors and pool")
        if tau <= 0:
            raise ConfigurationError("temperature must be > 0")
        block = self._scratch.reshape(-1)[: cells.size].reshape(cells.shape)
        s = np.divide(cells, tau, out=block)
        if exclude_pool_pos is not None:
            exclude_pool_pos = np.asarray(exclude_pool_pos, dtype=np.int64)
            which = np.nonzero(exclude_pool_pos >= 0)[0]
            s[which, exclude_pool_pos[which]] = -np.inf
        m = s.max(axis=1)
        if not np.all(np.isfinite(m)):
            raise ConfigurationError("an anchor's similarity pool is empty")
        s -= m[:, None]
        e = np.exp(s, out=s)
        tot = e.sum(axis=1)
        lse = m + np.log(tot)
        self.value += coeff * float(lse.mean())
        e /= tot[:, None]
        e *= coeff / (cells.shape[0] * tau)
        self.g[anchors, pool] += e

    def result(self) -> tuple[float, np.ndarray]:
        sym = np.add(self.g, self.g.T, out=self._scratch)
        return self.value, sym @ self.z


def _terms_loss_fn(*terms, work: PairWorkspace | None = None) -> LossFn:
    """The loss of a feature stack that is the sum of terms, each a function
    that adds itself to the stack's PairTerms.  Every call builds its pair
    matrices in work (a private one by default)."""
    work = work or PairWorkspace()

    def fn(z):
        acc = PairTerms(z, work)
        for add in terms:
            add(acc)
        return acc.result()

    return fn


def _info_nce_terms(n_pairs: int, pool: slice, exclude, tau: float, first_row: int = 0,
                    coeff: float = 1.0):
    """A function that adds coeff times paired-view InfoNCE to a PairTerms:
    over the stack's 2 * n_pairs rows from first_row on, laid out [x; y],
    the mean of -s(a, partner)/tau + log sum_k exp(s(a, k)/tau) with k over
    the pool rows, less pool position exclude[a] when it is >= 0.  The index
    arrays it uses are built once, here."""
    if not tau > 0:
        raise ConfigurationError("temperature must be > 0")
    anchors = np.arange(2 * n_pairs)
    partners = first_row + (anchors + n_pairs) % (2 * n_pairs)
    anchors += first_row
    rows = slice(first_row, first_row + 2 * n_pairs)

    def add(acc: PairTerms) -> None:
        acc.add_pair_mean(anchors, partners, coeff=-coeff / tau)
        acc.add_log_sum_exp(rows, pool, coeff=coeff, tau=tau, exclude_pool_pos=exclude)

    return add


def info_nce_with_grads(
    feats, temperature: float, work: PairWorkspace | None = None,
) -> tuple[float, np.ndarray]:
    """Paired-view InfoNCE over a (2B, d) stack: mean over all 2B anchors of
    -s(a, partner)/tau + log sum_{k != a} exp(s(a, k)/tau).  Returns the
    value and its gradient w.r.t. the stack; the pair matrices are built in
    work when given (see PairTerms).  A single pair (B = 1) has no
    negatives, so its loss and gradient are 0."""
    shape = np.shape(feats)
    if len(shape) != 2 or shape[0] == 0 or shape[0] % 2 != 0:
        raise ConfigurationError("paired stack must have a positive even row count")
    b = shape[0] // 2
    terms = _info_nce_terms(b, slice(0, 2 * b), np.arange(2 * b), temperature)
    return _terms_loss_fn(terms, work=work)(feats)


def info_nce_batch(feats, temperature: float) -> float:
    return info_nce_with_grads(feats, temperature)[0]


def info_nce_loss_fn(temperature: float) -> LossFn:
    """InfoNCE as a loss callable.  Its calls share one PairWorkspace, so
    one closure per training run allocates its pair matrices once."""
    work = PairWorkspace()
    return lambda z: info_nce_with_grads(z, temperature, work)


def batch_chunks(order: np.ndarray, batch_size: int) -> list[np.ndarray]:
    """Consecutive id chunks; a trailing single-element chunk is dropped
    because one pair cannot form a contrastive batch."""
    if batch_size < 2:
        raise ConfigurationError("batch_size must be >= 2")
    chunks = [order[i : i + batch_size] for i in range(0, len(order), batch_size)]
    if chunks and len(chunks[-1]) < 2:
        chunks.pop()
    return chunks


def steps_per_epoch(n_ids: int, batch_size: int) -> int:
    return len(batch_chunks(np.arange(n_ids), batch_size))


def sgd_epochs(
    net: EncoderNet,
    epochs: int,
    steps_per_epoch: int,
    lr: float,
    momentum: float,
    weight_decay: float,
    epoch_steps: Callable[[int], Iterator[tuple[float, GradSet]]],
    l1: float = 0.0,
) -> None:
    """SGD with momentum and a cosine schedule over epochs * steps_per_epoch
    steps, in place on net; l1 adds the subgradient of the penalty
    l1 * sum |p| to every step (see sgd_momentum_step). epoch_steps(epoch)
    yields one (loss, grads) per step of that epoch, each taken before the
    next is drawn, so the steps may share one gradient buffer. A non-finite
    loss or gradient, or another NumericError of a step (a row under
    loss_and_grads' norm floor), raises NumericError naming the epoch and
    step, before that step writes anything."""
    opt = OptState(base_lr=lr, momentum=momentum, weight_decay=weight_decay,
                   total_steps=epochs * steps_per_epoch, l1=l1)
    for epoch in range(epochs):
        step = 0
        try:
            for loss, grads in epoch_steps(epoch):
                try:  # the optimizer rejects a non-finite gradient before writing
                    if not np.isfinite(loss):
                        raise NumericError("non-finite loss")
                    sgd_momentum_step(net, grads, opt)
                except NumericError as exc:
                    raise NumericError("non-finite loss/grads") from exc
                step += 1
        except NumericError as exc:
            raise NumericError(f"{exc} at epoch {epoch} step {step}") from exc


def pretrain(
    data: LabeledDataset,
    splits: Splits,
    cfg: ContrastiveConfig,
    arch,
    aug: AugmentorConfig,
) -> EncoderNet:
    """SGD(momentum, cosine schedule) on InfoNCE over the train split.
    epochs=0 returns the freshly initialized encoder untouched."""
    return pretrain_on_ids(data, splits.train, cfg, arch, aug)


def pretrain_on_ids(
    data: LabeledDataset,
    ids: np.ndarray,
    cfg: ContrastiveConfig,
    arch,
    aug: AugmentorConfig,
) -> EncoderNet:
    """Contrastive training restricted to an explicit id set (exact
    retraining passes the retain ids here)."""
    arch = [int(d) for d in arch]
    if arch[0] != data.dim:
        raise ConfigurationError(
            f"architecture input dim {arch[0]} does not match data dim {data.dim}"
        )
    if aug.is_identity:
        warnings.warn("identity augmentation: positive pairs are exact copies, "
                      "contrastive training signal is degenerate")
    net = init_encoder(arch, seed=(cfg.seed, seeds.NET_INIT))
    if cfg.epochs == 0:
        return net
    if len(ids) < 2:
        raise ConfigurationError("train split needs at least 2 samples")
    loss_fn = info_nce_loss_fn(cfg.temperature)
    grads = GradSet.like(net)  # every step's backward pass rewrites it

    def epoch_steps(epoch):
        perm = seeds.stream_rng(cfg.seed, seeds.SHUFFLE_MAIN, epoch).permutation(ids)
        # the block is freed when the epoch's steps are done
        block = draw_view_block(data, aug, cfg.seed, epoch)
        for chunk in batch_chunks(perm, cfg.batch_size):
            stack = np.empty((2 * len(chunk), data.dim))
            paired_views_for_ids(data, chunk, aug, cfg.seed, epoch, block, out=stack)
            yield loss_and_grads(net, stack, loss_fn, grads)

    sgd_epochs(net, cfg.epochs, steps_per_epoch(len(ids), cfg.batch_size), cfg.base_lr,
               cfg.momentum, cfg.weight_decay, epoch_steps)
    return net
