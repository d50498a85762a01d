"""Small float network layers with hand-written gradients.

Everything runs in float64 and NCHW; ``Conv2d`` hands the NHWC patch
builder in ``convops`` a transposed view and returns NCHW outputs and input
gradients. Layers cache what their backward pass needs on forward; backward
consumes the cache and returns the input gradient while stashing parameter
gradients on the layer (``dw``, ``dgamma``, ...).
Just enough machinery for the compact test network below — not a framework.
"""

from __future__ import annotations

import numpy as np

from .convops import col2im, conv_output_hw, im2col
from .model_store import LayerSpec, ModelFile


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
        nhwc = x.transpose(0, 2, 3, 1)
        cols = im2col(nhwc, self.fh, self.fw, self.stride, self.pad)
        self._cache = (cols, nhwc.shape)
        out = cols @ self.w.reshape(-1, self.cout)
        n, h, w, _ = nhwc.shape
        oh, ow = conv_output_hw(h, w, self.fh, self.fw, self.stride, self.pad)
        return out.reshape(n, oh, ow, self.cout).transpose(0, 3, 1, 2)

    def backward(self, dout):
        cols, x_shape = self._cache
        dmat = dout.transpose(0, 2, 3, 1).reshape(-1, self.cout)
        self.dw = (cols.T @ dmat).reshape(self.w.shape)
        dcols = dmat @ self.w.reshape(-1, self.cout).T
        dx = col2im(dcols, x_shape, self.fh, self.fw, self.stride, self.pad)
        return np.ascontiguousarray(dx.transpose(0, 3, 1, 2))


class BatchNorm2d:
    def __init__(self, channels, momentum=0.1, eps=1e-5):
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self.gamma = np.ones(channels)
        self.beta = np.zeros(channels)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.dgamma = np.zeros(channels)
        self.dbeta = np.zeros(channels)
        self._cache = None

    def forward(self, x, training=False):
        if training:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self.running_mean += self.momentum * (mean - self.running_mean)
            self.running_var += self.momentum * (var - self.running_var)
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mean[:, None, None]) * inv_std[:, None, None]
        self._cache = (xhat, inv_std, training)
        return self.gamma[:, None, None] * xhat + self.beta[:, None, None]

    def backward(self, dout):
        xhat, inv_std, training = self._cache
        self.dgamma = np.sum(dout * xhat, axis=(0, 2, 3))
        self.dbeta = np.sum(dout, axis=(0, 2, 3))
        dxhat = dout * self.gamma[:, None, None]
        if not training:
            return dxhat * inv_std[:, None, None]
        # batch statistics were part of the graph
        m = dout.shape[0] * dout.shape[2] * dout.shape[3]
        term = dxhat - dxhat.mean(axis=(0, 2, 3))[:, None, None] \
            - xhat * np.mean(dxhat * xhat, axis=(0, 2, 3))[:, None, None]
        return term * inv_std[:, None, None]


class ReLU:
    def __init__(self):
        self._mask = None

    def forward(self, x, training=False):
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, dout):
        return np.where(self._mask, dout, 0.0)


class GlobalAvgPool:
    """(N, C, H, W) -> (N, C), mean over the spatial grid."""

    def __init__(self):
        self._shape = None

    def forward(self, x, training=False):
        self._shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, dout):
        n, c, h, w = self._shape
        return np.broadcast_to(dout[:, :, None, None] / (h * w), self._shape).copy()


class Dense:
    """Plain matrix product, (in, out) weights, no bias."""

    def __init__(self, n_in, n_out, rng=None):
        if rng is None:
            rng = np.random.default_rng(0)
        self.w = rng.normal(0.0, np.sqrt(2.0 / n_in), size=(n_in, n_out))
        self.dw = np.zeros_like(self.w)
        self._x = None

    def forward(self, x, training=False):
        self._x = x
        return x @ self.w

    def backward(self, dout):
        self.dw = self._x.T @ dout
        return dout @ self.w.T


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean loss over the batch and the logit gradient."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    eps = np.finfo(np.float64).tiny
    loss = -np.mean(np.log(probs[np.arange(n), labels] + eps))
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    return loss, dlogits / n


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
        for conv, bn, relu in zip(self.convs, self.bns, self.relus):
            x = relu.forward(bn.forward(conv.forward(x, training), training), training)
        return self.head.forward(self.pool.forward(x, training), training)

    def backward(self, dlogits):
        dx = self.pool.backward(self.head.backward(dlogits))
        for conv, bn, relu in zip(reversed(self.convs), reversed(self.bns),
                                  reversed(self.relus)):
            dx = conv.backward(bn.backward(relu.backward(dx)))
        return dx

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
        other = ToyNet(seed=0, plan=self.plan, classes=self.head.w.shape[1])
        for (_, mine), (_, theirs) in zip(self.weight_layers(), other.weight_layers()):
            theirs.w = mine.w.copy()
        for bn, obn in zip(self.bns, other.bns):
            obn.gamma = bn.gamma.copy()
            obn.beta = bn.beta.copy()
            obn.running_mean = bn.running_mean.copy()
            obn.running_var = bn.running_var.copy()
        return other

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

    def load_weights(self, model: ModelFile):
        """Overwrite weights and BN state from a stored model."""
        for i, conv in enumerate(self.convs):
            spec = model.layer(f"conv{i + 1}")
            conv.w = np.asarray(spec.weight, dtype=np.float64).copy()
            if spec.bn_params is not None:
                bn = self.bns[i]
                bn.gamma, bn.beta, bn.running_mean, bn.running_var = (
                    np.asarray(p, dtype=np.float64).copy() for p in spec.bn_params
                )
        self.head.w = np.asarray(model.layer("head").weight, dtype=np.float64).copy()
