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

# Floor added in quadrature when normalizing, so a zero vector maps to
# (numerically) zero instead of NaN and the operation stays differentiable.
NORM_FLOOR = 1e-12

# LossFn: features (n, d) -> (scalar value, gradient w.r.t. features)
LossFn = Callable[[np.ndarray], tuple[float, np.ndarray]]

# float64 elements per block of an elementwise pass over parameter-sized
# arrays (256 KiB): a block of each array and the scratch stays in L2 cache.
_BLOCK = 1 << 15


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


@dataclass
class GradSet:
    """Gradients congruent with an EncoderNet's parameters."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @classmethod
    def like(cls, net: EncoderNet) -> "GradSet":
        """An uninitialized gradient set of net's layout."""
        return cls([np.empty_like(la.w) for la in net.layers],
                   [np.empty_like(la.b) for la in net.layers])

    def arrays(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def all_finite(self) -> bool:
        return all(np.all(np.isfinite(a)) for a in self.arrays())

    def scale(self, c: float) -> "GradSet":
        for a in self.arrays():
            a *= c
        return self

    def axpy(self, c: float, other: "GradSet") -> "GradSet":
        """In place: self += c * other, in blocks through one small scratch
        array (see _blocks), so no temporary of a gradient's size is made."""
        pairs = list(zip(self.arrays(), other.arrays()))
        if any(a.shape != o.shape for a, o in pairs):
            raise ConfigurationError("gradient shapes do not match")
        scratch = _scratch(self.arrays())
        for a, o in pairs:
            for (ab, ob), work in _blocks((a, o), scratch):
                np.multiply(c, ob, out=work)
                ab += work
        return self


def _scratch(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """A float64 work array for _blocks over arrays of these sizes."""
    return np.empty(min(_BLOCK, max(a.size for a in arrays)))


def _blocks(arrays: Sequence[np.ndarray], scratch: np.ndarray):
    """Aligned blocks of same-shape arrays, each with a view of scratch of
    the block's shape: runs of at most scratch.size elements when every
    array is C-contiguous, else the arrays whole with a fresh scratch. An
    elementwise operation done block by block gives every element the same
    operations in the same order as a whole-array one, so the same bits."""
    if not all(a.flags.c_contiguous for a in arrays):
        yield list(arrays), np.empty_like(arrays[0])  # no flat views to block over
        return
    flat = [a.reshape(-1) for a in arrays]
    for lo in range(0, flat[0].size, scratch.size):
        hi = min(lo + scratch.size, flat[0].size)
        yield [a[lo:hi] for a in flat], scratch[:hi - lo]


@dataclass
class OptState:
    """SGD-with-momentum state plus a cosine step schedule."""

    base_lr: float
    momentum: float = 0.9
    weight_decay: float = 0.0
    total_steps: int = 1
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
    """Forward pass keeping pre-activations and layer inputs for backward."""
    x = _as_batch(batch)
    if x.shape[1] != net.input_dim:
        raise ConfigurationError(
            f"batch dim {x.shape[1]} does not match encoder input dim {net.input_dim}"
        )
    n_layers = len(net.layers)
    inputs = [x]  # inputs[i] feeds layer i
    pre = []
    h = x
    for i, la in enumerate(net.layers):
        a = h @ la.w + la.b
        pre.append(a)
        h = np.maximum(a, 0.0) if i < n_layers - 1 else a
        inputs.append(h)
    if net.normalize_output:
        norms = np.sqrt(np.sum(h * h, axis=1) + NORM_FLOOR * NORM_FLOOR)
        z = h / norms[:, None]
    else:
        norms = None
        z = h
    if not np.all(np.isfinite(z)):
        raise NumericError("encoder forward produced non-finite features")
    return z, (inputs, pre, norms)


def encoder_forward(net: EncoderNet, batch) -> np.ndarray:
    """Features for a batch, shape (n, out_dim of the last layer).  Unit
    rows when normalize_output is on (up to the tiny norm floor)."""
    z, _ = _forward_cached(net, batch)
    return z


def _backward(net: EncoderNet, cache, z: np.ndarray, dfeats: np.ndarray,
              grads: GradSet) -> GradSet:
    """Write every entry of grads, which matches net's layout."""
    inputs, pre, norms = cache
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
        da = delta * (pre[i] > 0) if i < n_layers - 1 else delta
        np.matmul(inputs[i].T, da, out=grads.weights[i])
        np.sum(da, axis=0, out=grads.biases[i])
        if i > 0:
            delta = da @ net.layers[i].w.T
    return grads


def loss_and_grads(net: EncoderNet, batch, loss_fn: LossFn,
                   out: GradSet | None = None) -> tuple[float, GradSet]:
    """Evaluate loss_fn on the encoder's features and backprop to parameters.
    The gradients are written into out when given (see GradSet.like), so a
    training loop that passes one buffer allocates no gradient per step;
    they stay valid until the next call with the same buffer."""
    if out is None:
        out = GradSet.like(net)
    elif [(g.shape, g.dtype) for g in out.arrays()] != [(p.shape, p.dtype)
                                                        for p in net.param_arrays()]:
        raise ConfigurationError("gradient buffer does not match network layout")
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


def _momentum_update(p, g, buf, tmp, momentum: float, weight_decay: float,
                     lr: float) -> None:
    """buf <- m*buf + g + wd*p, then p <- p - lr*buf, in place; the two
    products go through tmp, an array of p's shape."""
    buf *= momentum
    buf += g
    if weight_decay != 0.0:
        buf += np.multiply(weight_decay, p, out=tmp)
    p -= np.multiply(lr, buf, out=tmp)


def sgd_momentum_step(net: EncoderNet, grads: GradSet, opt: OptState) -> None:
    """One in-place update.  Buffer <- m*buffer + grad + wd*param, then
    param <- param - lr(step)*buffer, then step advances.  Raises
    NumericError, before anything is written, on a non-finite gradient.

    Each array is updated in blocks (see _blocks), so its parameter,
    gradient and buffer are each read once and no temporary of its size is
    made."""
    params = net.param_arrays()
    garrs = grads.arrays()
    if len(params) != len(garrs):
        raise ConfigurationError("gradient set does not match network layout")
    for p, g in zip(params, garrs):
        if p.shape != g.shape:
            raise ConfigurationError("gradient shapes do not match parameters")
    if not grads.all_finite():
        raise NumericError("non-finite gradient passed to optimizer")
    if opt.buffers is None:
        opt.buffers = [np.zeros_like(p) for p in params]
    lr = cosine_lr(opt.step, opt.total_steps, opt.base_lr)
    hyper = (opt.momentum, opt.weight_decay, lr)
    scratch = _scratch(params)
    for arrays in zip(params, garrs, opt.buffers):
        for (p, g, buf), work in _blocks(arrays, scratch):
            _momentum_update(p, g, buf, work, *hyper)
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
