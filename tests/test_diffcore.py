import math
import tracemalloc

import numpy as np
import pytest

from unlearnlab.diffcore import (
    _BLOCK,
    DenseLayer,
    EncoderNet,
    FactoredGrad,
    GradSet,
    OptState,
    cosine_lr,
    encoder_forward,
    finite_diff_check,
    init_encoder,
    loss_and_grads,
    sgd_momentum_step,
)
from unlearnlab.errors import ConfigurationError, NumericError


def single_layer(w, b, normalize=True):
    return EncoderNet([DenseLayer(np.array(w, float), np.array(b, float))],
                      normalize_output=normalize)


class TestForward:
    def test_identity_layer_normalizes(self):
        net = single_layer(np.eye(2), [0.0, 0.0])
        z = encoder_forward(net, [[3.0, 4.0]])
        np.testing.assert_allclose(z, [[0.6, 0.8]], atol=1e-12)

    def test_zero_weights_give_normalized_bias(self):
        b = np.array([1.0, 2.0, 2.0])
        net = single_layer(np.zeros((4, 3)), b)
        for x in [np.zeros(4), np.ones(4), np.array([-5.0, 3.0, 0.25, 9.0])]:
            z = encoder_forward(net, x[None, :])
            np.testing.assert_allclose(z[0], b / 3.0, atol=1e-12)

    def test_two_layer_hand_values(self):
        # scalar-arithmetic oracle, frozen
        net = EncoderNet(
            [
                DenseLayer(np.array([[1.0, -1.0], [2.0, 0.5]]), np.array([0.5, -1.0])),
                DenseLayer(np.array([[0.2, 1.0], [1.0, -1.0]]), np.array([0.0, 0.1])),
            ]
        )
        z = encoder_forward(net, [[1.0, 2.0]])
        np.testing.assert_allclose(
            z, [[0.19274530403092791, 0.98124882052108742]], rtol=0, atol=1e-15
        )

    def test_unnormalized_output(self):
        net = single_layer([[2.0]], [1.0], normalize=False)
        z = encoder_forward(net, [[3.0]])
        assert z[0, 0] == 7.0

    def test_zero_output_row_raises_numeric_error(self):
        # a zero row divides to zero through NORM_FLOOR, then fails the floor check
        net = single_layer(np.zeros((2, 2)), [0.0, 0.0])
        with pytest.raises(NumericError, match=r"^1 of 1 output rows .* below the training floor"):
            encoder_forward(net, [[1.0, 1.0]])

    def test_unit_norm_invariant(self):
        rng = np.random.default_rng(7)
        net = init_encoder([5, 8, 4], seed=3)
        z = encoder_forward(net, rng.normal(size=(40, 5)))
        np.testing.assert_allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-9)

    def test_dim_mismatch_rejected(self):
        net = init_encoder([5, 4], seed=0)
        with pytest.raises(ConfigurationError):
            encoder_forward(net, np.zeros((3, 7)))

    def test_bad_layer_chain_rejected(self):
        with pytest.raises(ConfigurationError):
            EncoderNet([
                DenseLayer(np.zeros((2, 3)), np.zeros(3)),
                DenseLayer(np.zeros((4, 2)), np.zeros(2)),
            ])

    def test_nonfinite_input_raises(self):
        net = init_encoder([2, 2], seed=0)
        with pytest.raises(NumericError):
            encoder_forward(net, [[np.nan, 1.0]])

    def test_init_deterministic(self):
        a = init_encoder([6, 5, 3], seed=(11, 2))
        b = init_encoder([6, 5, 3], seed=(11, 2))
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.w, lb.w)
            assert np.array_equal(la.b, lb.b)
        c = init_encoder([6, 5, 3], seed=(11, 3))
        assert not np.array_equal(a.layers[0].w, c.layers[0].w)


class TestBackprop:
    def test_constant_loss_gives_zero_grads(self):
        net = init_encoder([3, 4, 2], seed=1)
        _, grads = loss_and_grads(net, np.ones((5, 3)), lambda z: (1.0, np.zeros_like(z)))
        for a in grads.arrays():
            assert np.all(a == 0.0)

    def test_linear_layer_squared_norm_hand_grads(self):
        # loss = 0.5*sum(z^2), z = x@w + b, no normalization; frozen oracle
        net = single_layer([[0.5], [-0.25]], [0.1], normalize=False)
        X = np.array([[1.0, 2.0], [3.0, -1.0]])
        loss, grads = loss_and_grads(net, X, lambda z: (0.5 * np.sum(z * z), z))
        assert loss == pytest.approx(1.7162500000000001, abs=1e-15)
        np.testing.assert_allclose(
            grads.weights[0],
            [[5.6500000000000004], [-1.6500000000000001]],
            rtol=0, atol=1e-15,
        )
        np.testing.assert_allclose(grads.biases[0], [1.9500000000000002], atol=1e-15)

    def test_matches_finite_differences_random_net(self):
        rng = np.random.default_rng(42)
        net = init_encoder([4, 6, 3], seed=5)
        X = rng.normal(size=(7, 4))
        t = rng.normal(size=(7, 3))

        def loss_fn(z):
            d = z - t
            return 0.5 * float(np.sum(d * d)), d

        assert finite_diff_check(net, X, loss_fn) < 1e-6

    def test_normalization_backward_against_fd(self):
        net = init_encoder([3, 3], seed=9, normalize_output=True)
        X = np.random.default_rng(1).normal(size=(4, 3))
        w = np.random.default_rng(2).normal(size=(4, 3))
        loss_fn = lambda z: (float(np.sum(w * z)), w.copy())
        assert finite_diff_check(net, X, loss_fn) < 1e-6


class TestOptimizer:
    def test_zero_grads_zero_wd_is_fixed_point(self):
        net = init_encoder([3, 2], seed=0)
        before = [a.copy() for a in net.param_arrays()]
        opt = OptState(base_lr=0.5, momentum=0.9, weight_decay=0.0, total_steps=3)
        zeros = GradSet([np.zeros_like(la.w) for la in net.layers],
                        [np.zeros_like(la.b) for la in net.layers])
        sgd_momentum_step(net, zeros, opt)
        for a, b in zip(net.param_arrays(), before):
            assert np.array_equal(a, b)
        assert opt.step == 1

    def test_two_step_momentum_unroll(self):
        # frozen oracle: m=0.9, wd=0.01, base=0.1, cosine over 4 steps
        net = single_layer([[2.0]], [0.5], normalize=False)
        opt = OptState(base_lr=0.1, momentum=0.9, weight_decay=0.01, total_steps=4)
        g1 = GradSet([np.array([[0.3]])], [np.array([0.1])])
        g2 = GradSet([np.array([[-0.2]])], [np.array([0.4])])
        sgd_momentum_step(net, g1, opt)
        sgd_momentum_step(net, g2, opt)
        assert net.layers[0].w[0, 0] == pytest.approx(1.9588089370900916, abs=1e-15)
        assert net.layers[0].b[0] == pytest.approx(0.44687397045046717, abs=1e-15)

    def test_nonfinite_grads_rejected(self):
        net = single_layer([[1.0]], [0.0], normalize=False)
        bad = GradSet([np.array([[np.inf]])], [np.array([0.0])])
        opt = OptState(base_lr=0.1, total_steps=1)
        with pytest.raises(NumericError):
            sgd_momentum_step(net, bad, opt)

    def test_shape_mismatch_rejected(self):
        net = single_layer([[1.0]], [0.0], normalize=False)
        bad = GradSet([np.zeros((2, 2))], [np.zeros(1)])
        opt = OptState(base_lr=0.1, total_steps=1)
        with pytest.raises(ConfigurationError):
            sgd_momentum_step(net, bad, opt)

    def test_bad_hyperparams_rejected(self):
        with pytest.raises(ConfigurationError):
            OptState(base_lr=-0.1, total_steps=1)
        with pytest.raises(ConfigurationError):
            OptState(base_lr=0.1, momentum=1.0, total_steps=1)
        with pytest.raises(ConfigurationError):
            OptState(base_lr=0.1, total_steps=0)


class TestBlockedMomentum:
    """The momentum update runs in blocks of _BLOCK elements; it must
    equal the plain whole-array update bit for bit."""

    @staticmethod
    def _net(size, rng):
        # one layer whose weight and bias both hold `size` elements
        return EncoderNet([DenseLayer(rng.normal(size=(1, size)), rng.normal(size=size))],
                          normalize_output=False)

    @staticmethod
    def _grads(size, rng):
        return GradSet([rng.normal(size=(1, size))], [rng.normal(size=size)])

    @pytest.mark.parametrize("size", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                      3 * _BLOCK + 5])
    @pytest.mark.parametrize("wd", [0.0, 5e-4])
    def test_equals_unblocked_reference(self, size, wd):
        self._check_against_reference(size, wd)

    @pytest.mark.parametrize("size", [1, _BLOCK + 1])
    def test_l1_equals_unblocked_reference(self, size):
        self._check_against_reference(size, 5e-4, l1=1e-3)

    def _check_against_reference(self, size, wd, l1=0.0):
        rng = np.random.default_rng(size)
        net = self._net(size, rng)
        params = [a.copy() for a in net.param_arrays()]
        bufs = [np.zeros_like(a) for a in params]
        opt = OptState(base_lr=0.1, momentum=0.9, weight_decay=wd, total_steps=5, l1=l1)
        for step in range(3):
            grads = self._grads(size, rng)
            lr = cosine_lr(step, 5, 0.1)
            for p, g, buf in zip(params, grads.arrays(), bufs):
                # the L1 subgradient joins the gradient before the sum
                buf[...] = 0.9 * buf + (g + l1 * np.sign(p) if l1 else g) + wd * p
                p -= lr * buf
            sgd_momentum_step(net, grads, opt)
        assert opt.step == 3
        for got, want in zip(net.param_arrays() + opt.buffers, params + bufs):
            assert got.tobytes() == want.tobytes()

    def test_nan_in_last_block_writes_nothing(self):
        size = 3 * _BLOCK + 5
        rng = np.random.default_rng(0)
        net = self._net(size, rng)
        opt = OptState(base_lr=0.1, momentum=0.9, weight_decay=1e-3, total_steps=4)
        sgd_momentum_step(net, self._grads(size, rng), opt)
        params = [a.copy() for a in net.param_arrays()]
        bufs = [a.copy() for a in opt.buffers]
        bad = self._grads(size, rng)
        bad.biases[-1][-1] = np.nan
        with pytest.raises(NumericError):
            sgd_momentum_step(net, bad, opt)
        assert opt.step == 1
        for got, want in zip(net.param_arrays() + opt.buffers, params + bufs):
            assert got.tobytes() == want.tobytes()

    def test_non_contiguous_arrays_updated_whole(self):
        rng = np.random.default_rng(1)
        w = np.asfortranarray(rng.normal(size=(3, 4)))
        net = EncoderNet([DenseLayer(w, np.zeros(4))], normalize_output=False)
        g = GradSet([rng.normal(size=(4, 3)).T], [rng.normal(size=4)])
        want = w - 0.1 * g.weights[0]
        sgd_momentum_step(net, g, OptState(base_lr=0.1, total_steps=1))
        assert net.layers[0].w is w
        assert np.array_equal(w, want)


class TestGradientBuffers:
    def test_successive_calls_do_not_alias(self):
        net = init_encoder([4, 6, 3], seed=0)
        rng = np.random.default_rng(1)
        x, y, w = rng.normal(size=(5, 4)), rng.normal(size=(5, 4)), rng.normal(size=(5, 3))
        fn = lambda z: (float(np.sum(w * z)), w)
        _, g1 = loss_and_grads(net, x, fn)
        kept = [a.copy() for a in g1.arrays()]
        _, g2 = loss_and_grads(net, y, fn)
        assert g1 is not g2
        for a, b, k in zip(g1.arrays(), g2.arrays(), kept):
            assert not np.shares_memory(a, b)
            assert np.array_equal(a, k)
            assert not np.array_equal(a, b)

    @pytest.mark.parametrize("normalize", [True, False])
    def test_out_is_written_whole_and_bitwise_fresh(self, normalize):
        net = init_encoder([4, 6, 3], seed=2, normalize_output=normalize)
        rng = np.random.default_rng(3)
        x, w = rng.normal(size=(5, 4)), rng.normal(size=(5, 3))
        fn = lambda z: (float(np.sum(w * z * z)), 2.0 * w * z)
        out = GradSet.like(net)
        # the first layer's buffer as a first dense backward pass leaves it
        out.weights[0] = np.empty_like(net.layers[0].w)
        for a in out.arrays():
            a.fill(np.nan)  # any entry left unwritten stays NaN
        value, got = loss_and_grads(net, x, fn, out=out)
        want_value, want = loss_and_grads(net, x, fn)
        assert got is out and value == want_value
        for a, b in zip(got.arrays(), want.arrays()):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("dims", [[4, 6, 2], [4, 5, 3], [4, 3]])
    def test_mismatched_out_rejected(self, dims):
        net = init_encoder([4, 6, 3], seed=0)
        with pytest.raises(ConfigurationError, match="gradient buffer"):
            loss_and_grads(net, np.ones((2, 4)), lambda z: (0.0, np.zeros_like(z)),
                           out=GradSet.like(init_encoder(dims, seed=0)))


class TestFactoredGradients:
    """A first layer whose factors hold fewer floats than its weight
    gradient keeps it as FactoredGrad(X, δ); the optimizer forms it in row
    blocks, with the dense path's bits and its finiteness checks."""

    @staticmethod
    def _net(rng, d_in=512, d_out=256):
        # four row blocks of 128 rows
        return EncoderNet([DenseLayer(rng.normal(size=(d_in, d_out)), rng.normal(size=d_out))],
                          normalize_output=False)

    @pytest.mark.parametrize("d_in,d_out,rows", [(3072, 1024, 14), (3072, 1024, 256),
                                                 (3072, 1024, 284), (3072, 1024, 320),
                                                 (3072, 1024, 766), (512, 1024, 24),
                                                 (513, 512, 24)])
    def test_row_blocks_equal_whole_product(self, d_in, d_out, rows):
        # the factored path rests on this property of the installed BLAS, at
        # the wide encoder's first layer and its stack sizes; 513 rows in
        # blocks of 256 leave one row over, which joins the block before
        rng = np.random.default_rng(rows)
        x, delta = rng.normal(size=(rows, d_in)), rng.normal(size=(rows, d_out))
        assert FactoredGrad(x, delta).form().tobytes() == (x.T @ delta).tobytes()

    @pytest.mark.parametrize("rows,factored", [(16, True), (341, True), (342, False)])
    def test_factored_when_factors_are_smaller(self, rows, factored):
        # 341 * (512 + 1024) < 512 * 1024 <= 342 * (512 + 1024)
        net = init_encoder([512, 1024, 64], seed=0)
        rng = np.random.default_rng(1)
        x, w = rng.normal(size=(rows, 512)), rng.normal(size=(rows, 64))
        _, grads = loss_and_grads(net, x, lambda z: (float(np.sum(w * z)), w))
        assert isinstance(grads.weights[0], FactoredGrad) == factored
        assert all(isinstance(g, np.ndarray) for g in grads.weights[1:] + grads.biases)

    def _step_pair(self, x, delta, bias_grad, wd=1e-3, l1=0.0):
        """Parameters and buffers after two steps with the factored gradient
        and with its whole product, from the same start."""
        out = []
        for grads in (GradSet([FactoredGrad(x, delta)], [bias_grad]),
                      GradSet([x.T @ delta], [bias_grad])):
            net = self._net(np.random.default_rng(0))
            opt = OptState(base_lr=0.1, momentum=0.9, weight_decay=wd, total_steps=4, l1=l1)
            sgd_momentum_step(net, grads, opt)
            sgd_momentum_step(net, grads, opt)
            out.append([a.tobytes() for a in net.param_arrays() + opt.buffers])
        return out

    def test_step_equals_dense_step(self):
        rng = np.random.default_rng(2)
        got, want = self._step_pair(rng.normal(size=(8, 512)), rng.normal(size=(8, 256)),
                                    rng.normal(size=256))
        assert got == want

    @pytest.mark.parametrize("scale", [1.0, 1e200])
    def test_l1_step_equals_dense_step(self, scale):
        # at 1e200 the bound overflows, so each block is formed and checked
        rng = np.random.default_rng(5)
        x, delta = rng.normal(size=(8, 512)), rng.normal(size=(8, 256))
        x[0] *= scale
        delta[1] *= scale
        got, want = self._step_pair(x, delta, rng.normal(size=256), l1=1e-3)
        assert got == want

    def test_unproven_bound_forms_and_checks(self):
        # max|X| * max|δ| overflows, but no row pairs two huge entries, so
        # every entry is finite: the step forms each block to check it
        rng = np.random.default_rng(3)
        x, delta = rng.normal(size=(8, 512)), rng.normal(size=(8, 256))
        x[0] *= 1e200
        delta[1] *= 1e200
        got, want = self._step_pair(x, delta, rng.normal(size=256))
        assert got == want

    @pytest.mark.parametrize("poison", ["x nan", "x inf", "delta nan", "delta -inf",
                                        "overflow"])
    def test_non_finite_raises_before_any_write(self, poison):
        rng = np.random.default_rng(4)
        net = self._net(rng)
        opt = OptState(base_lr=0.1, momentum=0.9, weight_decay=1e-3, total_steps=4)
        sgd_momentum_step(net, GradSet([rng.normal(size=(512, 256))], [rng.normal(size=256)]),
                          opt)
        before = [a.tobytes() for a in net.param_arrays() + opt.buffers]
        x, delta = rng.normal(size=(8, 512)), rng.normal(size=(8, 256))
        if poison == "overflow":  # finite factors, one product entry of 1e400
            x[0, 300] = delta[0, 200] = 1e200
        else:
            where, value = poison.split()
            {"x": x, "delta": delta}[where][5, 7] = float(value)
        with np.errstate(over="ignore"), pytest.raises(
                NumericError, match="non-finite gradient passed to optimizer"):
            sgd_momentum_step(net, GradSet([FactoredGrad(x, delta)], [np.zeros(256)]), opt)
        assert opt.step == 1
        assert [a.tobytes() for a in net.param_arrays() + opt.buffers] == before


class TestNoFullSizeTemporaries:
    """numpy reports its buffers to tracemalloc, so the traced peak shows
    any temporary as large as a parameter."""

    @staticmethod
    def _peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def _setup():
        net = init_encoder([512, 1024, 64], seed=0)
        rng = np.random.default_rng(0)
        x, w = rng.normal(size=(16, 512)), rng.normal(size=(16, 64))
        fn = lambda z: (float(np.sum(w * z)), w)
        return net, x, fn, sum(a.nbytes for a in net.param_arrays())

    def test_momentum_step(self):
        net, x, fn, param_bytes = self._setup()
        _, grads = loss_and_grads(net, x, fn)
        opt = OptState(base_lr=0.1, weight_decay=1e-3, total_steps=4)
        sgd_momentum_step(net, grads, opt)  # allocates the momentum buffers
        assert self._peak(lambda: sgd_momentum_step(net, grads, opt)) <= 0.25 * param_bytes

    def test_loss_and_grads(self):
        # the returned gradients alone take 1.0x the parameter bytes
        net, x, fn, param_bytes = self._setup()
        assert self._peak(lambda: loss_and_grads(net, x, fn)) <= 1.5 * param_bytes


class TestCosineSchedule:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 10, 0.06) == pytest.approx(0.06, abs=1e-15)
        assert cosine_lr(10, 10, 0.06) == pytest.approx(0.0, abs=1e-17)
        assert cosine_lr(5, 10, 0.06) == pytest.approx(0.03, abs=1e-15)
        assert cosine_lr(1, 4, 0.1) == pytest.approx(0.085355339059327379, abs=1e-15)

    def test_monotone_nonincreasing(self):
        vals = [cosine_lr(s, 50, 1.0) for s in range(51)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            cosine_lr(5, 4, 0.1)
        with pytest.raises(ConfigurationError):
            cosine_lr(-1, 4, 0.1)


class TestFiniteDiff:
    def test_linear_loss_tiny_error(self):
        net = init_encoder([3, 2], seed=2, normalize_output=False)
        X = np.random.default_rng(3).normal(size=(5, 3))
        w = np.random.default_rng(4).normal(size=(5, 2))
        assert finite_diff_check(net, X, lambda z: (float(np.sum(w * z)), w.copy())) < 1e-7

    def test_epsilon_bounds(self):
        net = init_encoder([2, 2], seed=0)
        fn = lambda z: (float(np.sum(z)), np.ones_like(z))
        with pytest.raises(ConfigurationError):
            finite_diff_check(net, np.ones((2, 2)), fn, epsilon=1e-2)
        with pytest.raises(ConfigurationError):
            finite_diff_check(net, np.ones((2, 2)), fn, epsilon=1e-9)

    def test_does_not_mutate_parameters(self):
        net = init_encoder([3, 3], seed=8)
        before = [a.copy() for a in net.param_arrays()]
        X = np.random.default_rng(5).normal(size=(4, 3))
        finite_diff_check(net, X, lambda z: (float(np.sum(z * z)), 2.0 * z))
        for a, b in zip(net.param_arrays(), before):
            assert np.array_equal(a, b)
