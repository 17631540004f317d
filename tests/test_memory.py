"""The memory plan: a training run holds two parameter-sized arrays, its
parameters and its momentum, plus one gradient set that every step
rewrites, whatever the method: each step is one backward pass of one loss.
A first layer whose factors, the stack and the layer's output gradient,
hold fewer floats than its weight gradient keeps that gradient as them,
and the momentum update forms it block by block, so on a wide first layer
a gradient set is small. The momentum update, with its L1 subgradient,
runs in blocks through a small scratch array; run_ac frees a start encoder
passed inline once it has copied it, and evaluate frees an inline before
once its features are taken.

numpy reports its buffers to tracemalloc, so a traced peak counts every
parameter-sized array alive at once.
"""

import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from unlearnlab import evalsuite, unlearn
from unlearnlab.contrastive import ContrastiveConfig, pretrain_on_ids
from unlearnlab.datagen import AugmentorConfig, gen_synthetic, split
from unlearnlab.diffcore import GradSet, init_encoder
from unlearnlab.evalsuite import ProbeConfig, evaluate, linear_probe
from unlearnlab.unlearn import METHODS, ACConfig, run_ac

# 4.7 MB of parameters against 0.2 MB of data and small activations, so
# the parameter-sized arrays dominate every peak; the 16- to 24-row stacks
# keep the first layer's weight gradient factored
ARCH = [512, 1024, 64]
PARAM_BYTES = sum(8 * (i * o + o) for i, o in zip(ARCH, ARCH[1:]))
# the parameters, the momentum, the second layer's gradient (0.11 of the
# parameters), the first layer's factors and one block formed of them (1 MiB,
# 0.22), plus room for the views, the activations and the pair matrices:
# measured peaks are 2.45 (gradascent) to 2.52 (pretrain) parameter sizes,
# and 2.58 for l1sparsity, whose L1 term takes scratch beside each formed
# block; the bound adds about a quarter of one to most. A dense first-layer
# gradient would add 0.89.
BUDGET = 2.75 * PARAM_BYTES

needs_311 = pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="before Python 3.11 the caller's stack keeps a call's arguments alive "
           "until it returns, so an inline argument cannot be freed inside the call")


def _problem():
    """48 samples: 12 unlearn, 24 retain and 12 test ids."""
    data = gen_synthetic(3, ARCH[0], 48, 4.0, seed=0)
    return data, split(data, 1 / 3, 0.25, 0.0, seed=0)


def _pretrain_cfg(epochs):
    return ContrastiveConfig(epochs=epochs, batch_size=16, seed=1)


def _unlearn_cfg(method, epochs):
    return ACConfig(method=method, epochs=epochs, retain_batch=8, unlearn_batch=4,
                    l1_coeff=1e-4, seed=2)


def _traced_peak(fn) -> int:
    """Peak bytes allocated during fn() on top of what was live before."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    def test_pretrain_on_ids(self):
        data, splits = _problem()
        peak = _traced_peak(lambda: pretrain_on_ids(
            data, splits.train, _pretrain_cfg(2), ARCH, AugmentorConfig()))
        assert peak <= BUDGET, peak / PARAM_BYTES

    @pytest.mark.parametrize("method", METHODS)
    def test_run_ac(self, method):
        # the start encoder is the caller's, so only the copy counts
        data, splits = _problem()
        start = init_encoder(ARCH, seed=3)
        peak = _traced_peak(lambda: run_ac(
            start, data, splits, _unlearn_cfg(method, 2), AugmentorConfig()))
        assert peak <= BUDGET, peak / PARAM_BYTES

    def test_l1_scratch_is_one_block(self):
        # l1sparsity forms its L1 term in one scratch per parameter array,
        # reused for every block formed of the factored first-layer gradient:
        # at most one 32x1024 float64 block above finetune's peak
        data, splits = _problem()
        start = init_encoder(ARCH, seed=3)
        peaks = {method: _traced_peak(lambda: run_ac(
            start, data, splits, _unlearn_cfg(method, 2), AugmentorConfig()))
            for method in ("finetune", "l1sparsity")}
        assert peaks["l1sparsity"] - peaks["finetune"] <= 32 * 1024 * 8, peaks

    def test_evaluate_frees_each_drawn_encoder(self):
        # a generator's encoders are scored and dropped one by one, so three
        # peak within one parameter size of one
        data, splits = _problem()

        def peak(k):
            encoders = ((f"e{i}", init_encoder(ARCH, seed=4 + i)) for i in range(k))
            return _traced_peak(lambda: evaluate(encoders, init_encoder(ARCH, seed=3), data,
                                                 splits, AugmentorConfig(), ProbeConfig(epochs=1),
                                                 seed=0))

        one, three = peak(1), peak(3)
        assert three <= one + PARAM_BYTES, (one / PARAM_BYTES, three / PARAM_BYTES)


@pytest.fixture
def grad_sets(monkeypatch):
    """The number of GradSets built so far."""
    count = [0]
    init = GradSet.__init__

    def counted(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(GradSet, "__init__", counted)
    return count


class TestGradientSetsPerRun:
    """A run builds the same number of gradient sets at 1 epoch as at 3."""

    @staticmethod
    def _sets_at(grad_sets, run):
        counts = []
        for epochs in (1, 3):
            before = grad_sets[0]
            run(epochs)
            counts.append(grad_sets[0] - before)
        return counts

    def test_pretrain_on_ids(self, grad_sets):
        data, splits = _problem()
        counts = self._sets_at(grad_sets, lambda e: pretrain_on_ids(
            data, splits.train, _pretrain_cfg(e), ARCH, AugmentorConfig()))
        assert counts == [1, 1]

    def test_linear_probe(self, grad_sets):
        rng = np.random.default_rng(4)
        feats, labels = rng.normal(size=(40, 8)), np.arange(40) % 3
        counts = self._sets_at(grad_sets, lambda e: linear_probe(
            feats, labels, 3, ProbeConfig(epochs=e, batch_size=8)))
        assert counts == [1, 1]

    @pytest.mark.parametrize("method", METHODS)
    def test_run_ac(self, grad_sets, method):
        data, splits = _problem()
        start = init_encoder(ARCH, seed=3)
        counts = self._sets_at(grad_sets, lambda e: run_ac(
            start, data, splits, _unlearn_cfg(method, e), AugmentorConfig()))
        assert counts == [1, 1]


@needs_311
class TestInlineArgumentsFreed:
    @staticmethod
    def _fresh(refs, seed):
        enc = init_encoder(ARCH, seed=seed)
        refs.append(weakref.ref(enc))
        return enc

    def test_run_ac_frees_its_start_before_training(self, monkeypatch):
        data, splits = _problem()
        refs, alive = [], []
        real = unlearn.sgd_epochs

        def spy(*args, **kwargs):
            alive.append(refs[0]() is not None)
            return real(*args, **kwargs)

        monkeypatch.setattr(unlearn, "sgd_epochs", spy)
        run_ac(self._fresh(refs, 3), data, splits, _unlearn_cfg("ac", 1), AugmentorConfig())
        assert alive == [False]

    def test_evaluate_frees_before_ahead_of_scoring(self, monkeypatch):
        data, splits = _problem()
        refs, alive = [], []
        real = evalsuite.probe_logits

        def spy(*args):
            alive.append(refs[0]() is not None)
            return real(*args)

        monkeypatch.setattr(evalsuite, "probe_logits", spy)
        candidate = init_encoder(ARCH, seed=4)
        evaluate({"candidate": candidate}.items(), self._fresh(refs, 3), data, splits,
                 AugmentorConfig(), ProbeConfig(epochs=1), seed=0)
        assert alive == [False]
