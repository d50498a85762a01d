"""Small float network layers with hand-written gradients.

Activations are NHWC: ``ToyNet.forward`` transposes its NCHW images once on
entry, and ``Conv2d``, ``BatchNorm2d``, ``ReLU`` and ``GlobalAvgPool`` take
and return channels-last arrays. Each layer computes in its parameters'
dtype: a float64 net runs in float64, and the trainer's float32 parameters
run it in float32. Layers cache what their backward pass needs on forward;
backward consumes the cache and returns the input gradient while stashing
parameter gradients on the layer (``dw``, ``dgamma``, ...).
Just enough machinery for the compact test network below — not a framework.
"""

from __future__ import annotations

import copy

import numpy as np

from .convops import col2im, conv_output_hw, im2col
from .model_store import BN_EPS, LayerSpec, ModelFile

BN_MOMENTUM = 0.1  # running-statistics update rate of every BN layer


class Conv2d:
    """3x3-style convolution, HWIO weights, no bias (BatchNorm follows)."""

    def __init__(self, fh, fw, cin, cout, stride=1, pad=1, rng=None):
        self.fh, self.fw, self.cin, self.cout = fh, fw, cin, cout
        self.stride, self.pad = stride, pad
        if rng is None:
            rng = np.random.default_rng(0)
        scale = np.sqrt(2.0 / (fh * fw * cin))
        self.w = rng.normal(0.0, scale, size=(fh, fw, cin, cout))
        self.dw = np.zeros_like(self.w)
        self._cache = None

    def forward(self, x, training=False):
        x = x.astype(self.w.dtype, copy=False)
        cols = im2col(x, self.fh, self.fw, self.stride, self.pad)
        self._cache = (cols, x.shape)
        n, h, w, _ = x.shape
        oh, ow = conv_output_hw(h, w, self.fh, self.fw, self.stride, self.pad)
        return (cols @ self.w.reshape(-1, self.cout)).reshape(n, oh, ow, self.cout)

    def backward(self, dout, input_grad=True):
        """Stash ``dw``; return the input gradient unless ``input_grad`` is False."""
        cols, x_shape = self._cache
        dmat = dout.reshape(-1, self.cout)
        self.dw = (cols.T @ dmat).reshape(self.w.shape)
        if input_grad:
            return col2im(dmat, self.w, x_shape, self.stride, self.pad)
        return None


class BatchNorm2d:
    """Per-channel batch norm over the last axis.

    Batch statistics and the ``dgamma``/``dbeta`` sums accumulate in float64
    whatever the compute dtype; running statistics stay float64.
    """

    def __init__(self, channels):
        self.channels = channels
        self.gamma = np.ones(channels)
        self.beta = np.zeros(channels)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.dgamma = np.zeros(channels)
        self.dbeta = np.zeros(channels)
        self._cache = None

    def forward(self, x, training=False):
        dtype = self.gamma.dtype
        x = x.astype(dtype, copy=False)
        if training:
            m = x.size // self.channels
            mean = _channel_sum(x) / m
            xc = x - mean.astype(dtype)
            var = _channel_sum(np.square(xc)) / m
            self.running_mean += BN_MOMENTUM * (mean - self.running_mean)
            self.running_var += BN_MOMENTUM * (var - self.running_var)
        else:
            var = self.running_var
            xc = x - self.running_mean.astype(dtype)
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        # the centred input is cached; xhat = xc * inv_std is never formed
        self._cache = (xc, inv_std, training)
        out = xc * (self.gamma * inv_std).astype(dtype)
        out += self.beta
        return out

    def backward(self, dout):
        xc, inv_std, training = self._cache
        dtype = xc.dtype
        self.dgamma = _channel_sum(dout * xc) * inv_std
        self.dbeta = _channel_sum(dout)
        scale = (self.gamma * inv_std).astype(dtype)
        if not training:
            return dout * scale
        # batch statistics were part of the graph: with m values per channel,
        # dx = gamma * inv_std * (dout - dbeta/m - xhat * dgamma/m)
        m = dout.size // self.channels
        dx = xc * (-inv_std * self.dgamma / m).astype(dtype)
        dx += dout
        dx -= (self.dbeta / m).astype(dtype)
        dx *= scale
        return dx


def _channel_sum(a: np.ndarray) -> np.ndarray:
    """Float64 per-channel sum of a channels-last array.

    Sums over the batch axis first, where each row is one long contiguous
    sample, then over positions; one reduction over all leading axes would
    run its inner loop over just the channels.
    """
    flat = a.reshape(a.shape[0], -1).sum(axis=0, dtype=np.float64)
    return flat.reshape(-1, a.shape[-1]).sum(axis=0)


class ReLU:
    def __init__(self):
        self._mask = None

    def forward(self, x, training=False):
        self._mask = x > 0
        return np.maximum(x, 0)

    def backward(self, dout):
        return dout * self._mask


class GlobalAvgPool:
    """(N, H, W, C) -> (N, C), mean over the spatial grid."""

    def __init__(self):
        self._shape = None

    def forward(self, x, training=False):
        self._shape = x.shape
        return x.mean(axis=(1, 2))

    def backward(self, dout):
        n, h, w, c = self._shape
        return np.broadcast_to(dout[:, None, None, :] / (h * w), self._shape).copy()


class Dense:
    """Plain matrix product, (in, out) weights, no bias."""

    def __init__(self, n_in, n_out, rng=None):
        if rng is None:
            rng = np.random.default_rng(0)
        self.w = rng.normal(0.0, np.sqrt(2.0 / n_in), size=(n_in, n_out))
        self.dw = np.zeros_like(self.w)
        self._x = None

    def forward(self, x, training=False):
        self._x = x.astype(self.w.dtype, copy=False)
        return self._x @ self.w

    def backward(self, dout):
        self.dw = self._x.T @ dout
        return dout @ self.w.T


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean loss over the batch and the logit gradient.

    Computed in float64 (a float32 probability can underflow to a zero that
    reads as divergence); the gradient comes back in the logits' dtype.
    """
    dtype = logits.dtype
    logits = logits.astype(np.float64, copy=False)
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    eps = np.finfo(np.float64).tiny
    loss = -np.mean(np.log(probs[np.arange(n), labels] + eps))
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    return loss, (dlogits / n).astype(dtype, copy=False)


# (cin, cout, stride) for each 3x3 conv, pad 1 throughout: 32x32 input
# shrinks 32 -> 16 -> 8 -> 4, then global pool and a 10-way linear head.
TOY_PLAN = (
    (3, 8, 1), (8, 8, 1), (8, 16, 2),
    (16, 16, 1), (16, 16, 1), (16, 32, 2),
    (32, 32, 1), (32, 32, 2), (32, 32, 1),
)
TOY_CLASSES = 10


class ToyNet:
    """Nine 3x3 conv+BN+ReLU stages, global average pool, linear classifier."""

    def __init__(self, seed: int = 0, plan=TOY_PLAN, classes: int = TOY_CLASSES):
        rng = np.random.default_rng(seed)
        self.plan = tuple(plan)
        self.convs = []
        self.bns = []
        self.relus = []
        for cin, cout, stride in self.plan:
            self.convs.append(Conv2d(3, 3, cin, cout, stride=stride, pad=1, rng=rng))
            self.bns.append(BatchNorm2d(cout))
            self.relus.append(ReLU())
        self.pool = GlobalAvgPool()
        self.head = Dense(self.plan[-1][1], classes, rng=rng)

    def forward(self, x, training=False):
        """(N, C, H, W) images -> (N, classes) logits."""
        x = x.transpose(0, 2, 3, 1)  # NHWC from here on
        for conv, bn, relu in zip(self.convs, self.bns, self.relus):
            x = relu.forward(bn.forward(conv.forward(x, training), training), training)
        return self.head.forward(self.pool.forward(x, training), training)

    def backward(self, dlogits):
        """Stash every parameter gradient. The images need no gradient, so
        the first conv skips its input gradient."""
        dx = self.pool.backward(self.head.backward(dlogits))
        for conv, bn, relu in zip(reversed(self.convs), reversed(self.bns),
                                  reversed(self.relus)):
            dx = conv.backward(bn.backward(relu.backward(dx)),
                               input_grad=conv is not self.convs[0])

    def drop_caches(self):
        """Let go of what the last forward kept for a backward pass."""
        for layer in (*self.convs, *self.bns):
            layer._cache = None
        for relu in self.relus:
            relu._mask = None
        self.pool._shape = self.head._x = None

    def predict(self, x, batch_size: int = 256) -> np.ndarray:
        out = []
        for start in range(0, x.shape[0], batch_size):
            logits = self.forward(x[start : start + batch_size], training=False)
            out.append(np.argmax(logits, axis=1))
        return np.concatenate(out)

    def weight_layers(self):
        """(name, layer) pairs for everything holding trainable weights."""
        pairs = [(f"conv{i + 1}", conv) for i, conv in enumerate(self.convs)]
        pairs.append(("head", self.head))
        return pairs

    def clone(self) -> "ToyNet":
        return copy.deepcopy(self)

    def to_model_file(self) -> ModelFile:
        """Snapshot as a stored model: conv geometry plus BN statistics."""
        layers = []
        for i, ((cin, cout, stride), conv, bn) in enumerate(
            zip(self.plan, self.convs, self.bns)
        ):
            layers.append(
                LayerSpec(
                    name=f"conv{i + 1}", kind="conv2d", weight=conv.w,
                    geometry=(3, 3, cin, cout, 1, stride),
                    bn_params=(bn.gamma, bn.beta, bn.running_mean, bn.running_var),
                )
            )
        layers.append(
            LayerSpec(
                name="head", kind="dense", weight=self.head.w,
                geometry=self.head.w.shape,
            )
        )
        return ModelFile(layers)
