"""Small dense encoders with explicit reverse-mode gradients.

Everything runs in float64 numpy.  A network is a stack of affine layers
with rectifier activations on all hidden layers and an optional L2
normalization of the final output.  Losses are supplied as callables on
the feature matrix that return (value, d value / d features); gradients
for every weight and bias come from a hand-written backward pass that is
checked against central finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, NumericError

# Floor added in quadrature when normalizing, so a zero row divides to zero,
# not NaN, and fails the TRAIN_NORM_MIN check, not the finiteness check.
NORM_FLOOR = 1e-12

# Smallest pre-normalization row norm a forward accepts, in training and in
# scoring alike. Healthy encoders stay above 0.019; a row with all hidden
# units dead sits at NORM_FLOOR.
TRAIN_NORM_MIN = 1e-6

# LossFn: features (n, d) -> (scalar value, gradient w.r.t. features)
LossFn = Callable[[np.ndarray], tuple[float, np.ndarray]]

# float64 elements per block of an elementwise pass over parameter-sized
# arrays (256 KiB): a block of each array and the scratch stays in L2 cache.
_BLOCK = 1 << 15

# float64 elements per row block formed of a factored gradient (1 MiB): one
# product of this size runs near the speed of the whole one, and the block
# stays in cache while the momentum update reads it.
_FORM_BLOCK = 1 << 17

# A bound on a factored gradient's entries this far below the float64
# limit (about 1.8e308) proves them finite whatever the rounding.
_FINITE_BOUND = 1e300


@dataclass
class DenseLayer:
    """One affine layer. w has shape (in_dim, out_dim), b has shape (out_dim,)."""

    w: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.w.ndim != 2:
            raise ConfigurationError(f"layer weight must be 2-d, got shape {self.w.shape}")
        if self.b.ndim != 1 or self.b.shape[0] != self.w.shape[1]:
            raise ConfigurationError(
                f"bias shape {self.b.shape} does not match weight shape {self.w.shape}"
            )

    @property
    def in_dim(self) -> int:
        return self.w.shape[0]

    @property
    def out_dim(self) -> int:
        return self.w.shape[1]


@dataclass
class EncoderNet:
    """Feed-forward encoder: affine layers, ReLU between them, optional
    output normalization onto the unit sphere."""

    layers: list[DenseLayer]
    normalize_output: bool = True

    def __post_init__(self):
        if not self.layers:
            raise ConfigurationError("encoder needs at least one layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.out_dim != nxt.in_dim:
                raise ConfigurationError(
                    f"layer dims do not chain: {prev.out_dim} -> {nxt.in_dim}"
                )

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    def copy(self) -> "EncoderNet":
        return EncoderNet(
            [DenseLayer(la.w.copy(), la.b.copy()) for la in self.layers],
            normalize_output=self.normalize_output,
        )

    def param_arrays(self) -> list[np.ndarray]:
        """Flat list of parameter arrays in a fixed order (w0, b0, w1, b1, ...)."""
        out = []
        for la in self.layers:
            out.append(la.w)
            out.append(la.b)
        return out


class FactoredGrad:
    """A weight gradient X^T·δ kept as its factors, the layer input X and the
    output gradient δ: n·(d_in + d_out) floats in place of d_in·d_out.

    blocks() forms it one row block at a time. Row blocks of X^T·δ equal
    the rows of the whole product bit for bit on the installed BLAS (a test
    pins this), so every block has the bits the dense gradient would have.
    The factors are the batch and a backward-pass array, held by reference."""

    dtype = np.dtype(np.float64)

    def __init__(self, x: np.ndarray, delta: np.ndarray):
        self.x = x
        self.delta = delta

    @property
    def shape(self) -> tuple[int, int]:
        return self.x.shape[1], self.delta.shape[1]

    def blocks(self):
        """(r0, block) for row blocks of about _FORM_BLOCK elements (see
        _row_blocks), all formed in one scratch array, so each is valid
        until the next is drawn."""
        for r0, r1, out in _row_blocks(self.shape, _FORM_BLOCK):
            yield r0, np.matmul(self.x[:, r0:r1].T, self.delta, out=out)

    def form(self) -> np.ndarray:
        """The whole gradient, in a new array."""
        out = np.empty(self.shape)
        for r0, block in self.blocks():
            out[r0:r0 + len(block)] = block
        return out

    def bound(self) -> float:
        """n·max|X|·max|δ|, which no entry's magnitude exceeds but for
        rounding, taken from the factors without forming the gradient. NaN
        when a factor is non-finite, which makes a whole row or column of
        the product non-finite."""
        ends = [float(e) for a in (self.x, self.delta) for e in (a.min(), a.max())]
        if not all(math.isfinite(e) for e in ends):
            return math.nan
        return len(self.x) * max(-ends[0], ends[1]) * max(-ends[2], ends[3])


@dataclass
class GradSet:
    """Gradients congruent with an EncoderNet's parameters.

    When a backward pass's first-layer factors hold fewer floats than that
    layer's weight gradient, n·(d_in + d_out) < d_in·d_out, weights[0] is a
    FactoredGrad, which the optimizer forms only block by block; arrays()
    forms it whole for code that needs it so. Otherwise weights[0] is a
    dense array, allocated by the first backward pass that needs it. Every
    other entry is dense."""

    weights: list[np.ndarray | FactoredGrad | None]
    biases: list[np.ndarray]

    @classmethod
    def like(cls, net: EncoderNet) -> "GradSet":
        """An uninitialized gradient set of net's layout; the first layer's
        weight gradient is allocated by the backward pass (see above)."""
        return cls([None] + [np.empty_like(la.w) for la in net.layers[1:]],
                   [np.empty_like(la.b) for la in net.layers])

    def arrays(self) -> list[np.ndarray]:
        """Every gradient as a whole array, in parameter order (w0, b0, w1,
        b1, ...); a factored one is formed first, once."""
        self.weights = [w.form() if isinstance(w, FactoredGrad) else w for w in self.weights]
        return self._parts()

    def _parts(self) -> list:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out


def _row_blocks(shape: tuple[int, int], size: int):
    """(r0, r1, out) for the row ranges r0:r1 of a 2-d array of this shape,
    each of at most size elements (but at least one row, and one more where
    a single row would be left over); out is a work array of the block's
    shape, a view of one array made once.

    A single last row joins the block before it: numpy forms a one-row
    product on its matrix-vector path, whose sums round unlike the whole
    product's."""
    rows, cols = shape
    step = max(1, min(rows, size // cols))
    last = int(rows > step and rows % step == 1)
    buf = np.empty((step + last) * cols)
    for r0 in range(0, rows - last, step):
        r1 = rows if r0 + step >= rows - last else r0 + step
        yield r0, r1, buf[:(r1 - r0) * cols].reshape(r1 - r0, cols)


@dataclass
class OptState:
    """SGD-with-momentum state plus a cosine step schedule; l1 is the
    coefficient of an L1 penalty on the parameters (see sgd_momentum_step)."""

    base_lr: float
    momentum: float = 0.9
    weight_decay: float = 0.0
    total_steps: int = 1
    l1: float = 0.0
    step: int = 0
    buffers: list[np.ndarray] | None = None

    def __post_init__(self):
        check_sgd_settings(self.base_lr, self.momentum, self.weight_decay)
        if self.total_steps < 1:
            raise ConfigurationError("total_steps must be >= 1")


def check_sgd_settings(lr: float, momentum: float, weight_decay: float) -> None:
    """Reject a negative learning rate or weight decay, or a momentum
    outside [0, 1). Every check is written so that NaN fails it too."""
    if not lr >= 0:
        raise ConfigurationError("learning rate must be >= 0")
    if not 0.0 <= momentum < 1.0:
        raise ConfigurationError("momentum must be in [0, 1)")
    if not weight_decay >= 0:
        raise ConfigurationError("weight_decay must be >= 0")


def init_encoder(
    layer_dims: Sequence[int], seed, normalize_output: bool = True
) -> EncoderNet:
    """Fresh encoder with uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights,
    zero biases.  `seed` may be an int or a tuple of ints."""
    dims = [int(d) for d in layer_dims]
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ConfigurationError(f"bad layer dims {dims}: need >= 2 positive entries")
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        bound = 1.0 / math.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        layers.append(DenseLayer(w, np.zeros(fan_out)))
    return EncoderNet(layers, normalize_output=normalize_output)


def _as_batch(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2:
        raise ConfigurationError(f"batch must be 2-d, got shape {x.shape}")
    return x


def _forward_cached(net: EncoderNet, batch: np.ndarray):
    """Forward pass keeping each layer's input, and the last one's output,
    for backward. A rectifier runs in place, so no pre-activation is kept.
    Raises NumericError on a non-finite feature, or on a normalized output
    row whose norm before normalization is under TRAIN_NORM_MIN."""
    x = _as_batch(batch)
    if x.shape[1] != net.input_dim:
        raise ConfigurationError(
            f"batch dim {x.shape[1]} does not match encoder input dim {net.input_dim}"
        )
    n_layers = len(net.layers)
    inputs = [x]  # inputs[i] feeds layer i
    h = x
    for i, la in enumerate(net.layers):
        h = h @ la.w + la.b
        if i < n_layers - 1:
            np.maximum(h, 0.0, out=h)
        inputs.append(h)
    if net.normalize_output:
        norms = np.sqrt(np.sum(h * h, axis=1) + NORM_FLOOR * NORM_FLOOR)
        z = h / norms[:, None]
    else:
        norms = None
        z = h
    if not np.all(np.isfinite(z)):
        raise NumericError("encoder forward produced non-finite features")
    if norms is not None and np.any(norms < TRAIN_NORM_MIN):
        raise NumericError(f"{np.count_nonzero(norms < TRAIN_NORM_MIN)} of {len(norms)} output "
                           f"rows have a norm before normalization below the training floor "
                           f"{TRAIN_NORM_MIN:g} (smallest {norms.min():.3g})")
    return z, (inputs, norms)


def encoder_forward(net: EncoderNet, batch) -> np.ndarray:
    """Features for a batch, shape (n, out_dim of the last layer).  Unit
    rows when normalize_output is on (see _forward_cached for the checks)."""
    z, _ = _forward_cached(net, batch)
    return z


def _backward(net: EncoderNet, cache, z: np.ndarray, dfeats: np.ndarray,
              grads: GradSet) -> GradSet:
    """Write every entry of grads, which matches net's layout; the first
    layer's weight gradient is kept factored when its factors are smaller
    (see GradSet)."""
    inputs, norms = cache
    if dfeats.shape != z.shape:
        raise ConfigurationError("feature gradient shape does not match features")
    if net.normalize_output:
        # z = h / n with n = sqrt(|h|^2 + floor^2); dh = (dz - z (z . dz)) / n
        inner = np.sum(z * dfeats, axis=1, keepdims=True)
        delta = (dfeats - z * inner) / norms[:, None]
    else:
        delta = dfeats
    n_layers = len(net.layers)
    for i in range(n_layers - 1, -1, -1):
        # delta holds d loss / d (output of layer i, after any rectifier)
        if i < n_layers - 1:
            # delta is a fresh product here, and a rectified output is > 0
            # exactly where its pre-activation was (NaN and -0.0 included)
            np.multiply(delta, inputs[i + 1] > 0, out=delta)
        x = inputs[i]
        n, (d_in, d_out) = len(x), net.layers[i].w.shape
        if i == 0 and 0 < n * (d_in + d_out) < d_in * d_out:
            # the loss owns dfeats, which is delta only for one unnormalized layer
            grads.weights[0] = FactoredGrad(x, delta.copy() if delta is dfeats else delta)
        else:
            if not isinstance(grads.weights[i], np.ndarray):
                grads.weights[i] = np.empty_like(net.layers[i].w)
            np.matmul(x.T, delta, out=grads.weights[i])
        np.sum(delta, axis=0, out=grads.biases[i])
        if i > 0:
            delta = delta @ net.layers[i].w.T
    return grads


def loss_and_grads(net: EncoderNet, batch, loss_fn: LossFn,
                   out: GradSet | None = None) -> tuple[float, GradSet]:
    """Evaluate loss_fn on the encoder's features and backprop to parameters.
    The gradients are written into out when given (see GradSet.like), so a
    training loop that passes one buffer allocates no gradient per step;
    they stay valid until the next call with the same buffer. The first
    layer's weight gradient is kept as its factors, the batch and the
    layer's output gradient, when they hold fewer floats than it,
    n·(d_in + d_out) < d_in·d_out (see GradSet); the batch must then stay
    unchanged while the gradients are used."""
    params = net.param_arrays()
    if out is None:
        out = GradSet.like(net)
    elif len(out._parts()) != len(params) or any(
            g is not None and (g.shape, g.dtype) != (p.shape, p.dtype)
            for g, p in zip(out._parts(), params)):
        raise ConfigurationError("gradient buffer does not match network layout")
    if isinstance(out.weights[0], FactoredGrad):
        out.weights[0] = None  # let the last batch go before this one's forward
    z, cache = _forward_cached(net, batch)
    value, dfeats = loss_fn(z)
    value = float(value)
    dfeats = np.asarray(dfeats, dtype=np.float64)
    return value, _backward(net, cache, z, dfeats, out)


def cosine_lr(step: int, total_steps: int, base_lr: float) -> float:
    """Half-cosine decay from base_lr at step 0 to 0 at step == total_steps."""
    if total_steps < 1:
        raise ConfigurationError("total_steps must be >= 1")
    if not 0 <= step <= total_steps:
        raise ConfigurationError(f"step {step} outside [0, {total_steps}]")
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


def _momentum_update(p, g, buf, tmp, momentum: float, weight_decay: float, l1: float,
                     lr: float) -> None:
    """buf <- m*buf + (g + l1*sign(p)) + wd*p, then p <- p - lr*buf, in
    place; the products go through tmp, an array of p's shape, which may be
    g when l1 is 0: g is read before tmp is written."""
    buf *= momentum
    if l1 != 0.0:
        np.multiply(l1, np.sign(p, out=tmp), out=tmp)
        tmp += g
        buf += tmp
    else:
        buf += g
    if weight_decay != 0.0:
        buf += np.multiply(weight_decay, p, out=tmp)
    p -= np.multiply(lr, buf, out=tmp)


def _addend_finite(g, p: np.ndarray, l1: float) -> bool:
    """Whether g + l1*sign(p), what the momentum update adds for the
    gradient g of p, is finite everywhere. With l1 at 0 a dense g is
    scanned once. Otherwise a bound on |g|, taken from the factors of a
    factored one (see FactoredGrad.bound), plus l1 far below the float64
    limit proves it, and a NaN bound disproves it; failing both, the sum is
    formed block by block and checked."""
    factored = isinstance(g, FactoredGrad)
    if not factored and l1 == 0.0:
        return bool(np.all(np.isfinite(g)))
    bound = g.bound() if factored else max(-float(g.min()), float(g.max()))
    if math.isnan(bound):  # a NaN entry, or a non-finite factor
        return False
    if bound + l1 < _FINITE_BOUND:
        return True
    return all(np.isfinite(b + l1 * np.sign(p[r0:r0 + len(b)]) if l1 else b).all()
               for r0, b in (g.blocks() if factored else [(0, g)]))


def sgd_momentum_step(net: EncoderNet, grads: GradSet, opt: OptState) -> None:
    """One in-place update.  Buffer <- m*buffer + (grad + l1*sign(param)) +
    wd*param, then param <- param - lr(step)*buffer, then step advances; the
    l1 term is the subgradient of the penalty l1 * sum |param|.  Raises
    NumericError, before anything is written, when grad + l1*sign(param) is
    non-finite anywhere; a factored gradient is checked through its factors
    where they prove it finite (see _addend_finite).

    One loop updates every array in row blocks of at most _BLOCK elements,
    so its parameter, gradient and buffer are each read once and no
    temporary of its size is made: each array's products go through one
    scratch block. A dense gradient yields views of its rows; a factored
    one forms row blocks of _FORM_BLOCK elements (see FactoredGrad.blocks),
    each updated while it is in cache, so the whole product is never
    written."""
    params = net.param_arrays()
    garrs = grads._parts()
    if len(params) != len(garrs):
        raise ConfigurationError("gradient set does not match network layout")
    for p, g in zip(params, garrs):
        if g is None or p.shape != g.shape:
            raise ConfigurationError("gradient shapes do not match parameters")
    if not all(_addend_finite(g, p, opt.l1) for p, g in zip(params, garrs)):
        raise NumericError("non-finite gradient passed to optimizer")
    if opt.buffers is None:
        opt.buffers = [np.zeros_like(p) for p in params]
    lr = cosine_lr(opt.step, opt.total_steps, opt.base_lr)
    hyper = (opt.momentum, opt.weight_decay, opt.l1, lr)
    for p, g, buf in zip(params, garrs, opt.buffers):
        p, buf = np.atleast_2d(p), np.atleast_2d(buf)
        factored = isinstance(g, FactoredGrad)
        # the update is elementwise, so any row blocks give the same bits
        step = max(1, _BLOCK // p.shape[1])
        # a formed block is spent once added in, so it is its own scratch
        # unless the L1 term is formed beside it
        own = factored and opt.l1 == 0.0
        scratch = None if own else np.empty((min(step, len(p)), p.shape[1]))
        for r0, gb in g.blocks() if factored else [(0, np.atleast_2d(g))]:
            for s0 in range(0, len(gb), step):
                g_rows = gb[s0:s0 + step]
                rows = slice(r0 + s0, r0 + s0 + len(g_rows))
                _momentum_update(p[rows], g_rows, buf[rows],
                                 g_rows if own else scratch[:len(g_rows)], *hyper)
    opt.step += 1


def finite_diff_check(net: EncoderNet, batch, loss_fn: LossFn, epsilon: float = 1e-5) -> float:
    """Max elementwise gap between analytic gradients and central finite
    differences.  Relative where |analytic| >= 1e-8, absolute below that.
    Mutates parameters only transiently."""
    if not 1e-7 <= epsilon <= 1e-4:
        raise ConfigurationError("epsilon must lie in [1e-7, 1e-4]")
    _, grads = loss_and_grads(net, batch, loss_fn)

    def value_only() -> float:
        z, _ = _forward_cached(net, batch)
        return float(loss_fn(z)[0])

    worst = 0.0
    for arr, g in zip(net.param_arrays(), grads.arrays()):
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + epsilon
            up = value_only()
            flat[k] = orig - epsilon
            down = value_only()
            flat[k] = orig
            fd = (up - down) / (2.0 * epsilon)
            err = abs(fd - gflat[k])
            mag = abs(gflat[k])
            if mag >= 1e-8:
                err /= mag
            worst = max(worst, err)
    return worst
