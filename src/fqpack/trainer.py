"""Fine-tuning that walks a network onto the quantization grid in stages.

Every weight keeps a float shadow. At each schedule step a growing
top-magnitude fraction of the unpruned shadows forwards through the
quantizer (decode(encode(w)), scaled by a trainable per-layer alpha) while
the rest forward as raw floats; pruned positions stay at zero. Backward is
straight-through: the quantizer is treated as identity, so quantized shadows
receive alpha * dL/dw_eff and alpha receives sum(dL/dw_eff * decode(w)).

Quantization parameters (mode, component means/scale, grid bias, component
assignments) come from the same ``focused_quant.fit_params`` that compress
uses. They are fitted before the first epoch and refitted after epochs
1, 2, 4, 8, ... before the last. A layer's mode is decided by its first fit
and kept thereafter, so refreshes adjust the grid without flipping the layer
between representations mid-run.

The shadows and alpha are float64 master copies, stepped by plain SGD with
no momentum state. Each batch runs the network on float32 effective weights
(the layers compute in their parameters' dtype); the final install casts
weights and BN affine parameters to float64, so the returned network
computes in float64 and its weights equal the container's dequantized values
bit for bit.

Float SGD and INQ share one batch loop (``_epoch``). The batch order is one
fixed seeded permutation reused every epoch, and a zero learning rate runs
fully inert in both (no weight, alpha, or BN-statistic updates), which makes
training exactly reproducible and cheap to test.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .codec import CompressedModel
from .errors import DegenerateInputError, TrainingDivergedError
from .focused_quant import (
    DEFAULT_W_SEP,
    MIN_BITS_SHIFT,
    QuantParams,
    decode,
    encode,
    fit_params,
    quantize_with,
)
from .nn import softmax_cross_entropy
from .pruner import prune_by_magnitude
from .rng import derive_seed, spawn_seed


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    epochs_per_step: int = 3
    inq_fractions: tuple = (0.25, 0.5, 0.75, 0.875, 1.0)
    batch_size: int = 64
    seed: int = 0
    w_sep: float = DEFAULT_W_SEP
    n_bits: int = 5
    prune_fraction: float = 0.5

    def __post_init__(self):
        f = tuple(float(v) for v in self.inq_fractions)
        if not f or f[-1] != 1.0:
            raise ValueError("inq_fractions must end at 1.0")
        if any(not 0.0 < v <= 1.0 for v in f) or any(
            b <= a for a, b in zip(f, f[1:])
        ):
            raise ValueError("inq_fractions must be strictly increasing in (0, 1]")
        self.inq_fractions = f
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.epochs_per_step < 1 or self.batch_size < 1:
            raise ValueError("epochs_per_step and batch_size must be >= 1")
        if not MIN_BITS_SHIFT <= self.n_bits <= 8:
            raise ValueError(f"n_bits {self.n_bits} outside [{MIN_BITS_SHIFT}, 8] "
                             f"(the symbol layout needs at least {MIN_BITS_SHIFT} bits)")
        if not 0.0 <= self.prune_fraction < 1.0:
            raise ValueError(f"prune_fraction {self.prune_fraction} not in [0, 1)")
        if not self.w_sep >= 0.0:  # written so that NaN fails too
            raise ValueError(f"w_sep {self.w_sep} must be >= 0")

    @property
    def total_epochs(self) -> int:
        return self.epochs_per_step * len(self.inq_fractions)


def refresh_epochs(config: TrainConfig) -> set:
    """Global epochs after which quantization parameters are refitted: the powers of two."""
    return {1 << i for i in range(config.total_epochs.bit_length())}


@dataclass
class _LayerState:
    """Shadow weights and quantizer state for one trainable layer."""

    name: str
    layer: object
    shadow: np.ndarray  # flat float64
    kept: np.ndarray  # bool, False = pruned
    quantized: np.ndarray  # bool over flat positions, subset of kept
    alpha: float = 1.0
    params: Optional[QuantParams] = None  # quantizer from the last fit
    q_pre: np.ndarray = field(default=None, repr=False)  # pre-alpha decode cache


def _fit_params(state: _LayerState, config: TrainConfig, seed: int):
    """(Re)fit the layer's quantizer from the current shadows.

    The first fit chooses the layer's mode; later fits keep it. If the
    shadows can no longer support the layer's grid (all zero, or no mixture
    to recentre on), the previous parameters are left in place rather than
    guessed.
    """
    mode = None if state.params is None else state.params.mode
    try:
        state.params = fit_params(np.compress(state.kept, state.shadow),
                                  config.n_bits, config.w_sep, seed, mode)
    except DegenerateInputError as exc:
        if state.params is None:
            raise DegenerateInputError(f"layer {state.name!r}: {exc}") from exc


def inq_partition(weights: np.ndarray, kept: np.ndarray, fraction: float):
    """Split the kept positions into (quantized, free) boolean masks.

    The top ``fraction`` of kept weights by magnitude (ties to the lower
    index) quantize; the rest stay free. Partitions nest as the fraction
    grows because the magnitude ordering is fixed.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    flat = np.asarray(weights, dtype=np.float64).ravel()
    kept = np.asarray(kept, dtype=bool).ravel()
    if flat.size != kept.size:
        raise ValueError("weights and mask sizes differ")
    kept_idx = np.nonzero(kept)[0]
    count = int(np.floor(fraction * kept_idx.size))
    quantized = np.zeros(flat.size, dtype=bool)
    if count > 0:
        order = np.argsort(-np.abs(flat[kept_idx]), kind="stable")
        quantized[kept_idx[order[:count]]] = True
    return quantized, kept & ~quantized


def _grow_quantized(state: _LayerState, fraction: float):
    """Extend the quantized set to the current top-fraction partition.

    Union with the previous set keeps membership monotone even if shadow
    magnitudes reorder between steps.
    """
    quantized, _ = inq_partition(state.shadow, state.kept, fraction)
    state.quantized |= quantized


def _effective_weights(state: _LayerState) -> np.ndarray:
    """Flat weights the network actually runs: quantized / raw / zero mix, by index."""
    kept = np.flatnonzero(state.kept)
    on_grid = np.flatnonzero(state.quantized)
    w = np.where(state.kept, state.shadow, 0.0)
    state.q_pre = q_pre = np.zeros(state.shadow.size)
    q_pre[kept] = decode(encode(state.shadow.take(kept), state.params), state.params)
    w[on_grid] = state.alpha * q_pre.take(on_grid)
    return w


def _install_weights(states, dtype=np.float32):
    """Install the effective weights; the network computes in ``dtype``."""
    for state in states:
        w = _effective_weights(state).reshape(state.layer.w.shape)
        state.layer.w = w.astype(dtype, copy=False)


def _apply_gradients(state: _LayerState, lr: float):
    """Straight-through update of shadows and alpha from the layer gradient."""
    dw = state.layer.dw.ravel().astype(np.float64)  # updates run in float64
    on_grid = np.flatnonzero(state.quantized)
    dw_on_grid = dw.take(on_grid)
    dshadow = np.where(state.kept, dw, 0.0)
    dshadow[on_grid] = state.alpha * dw_on_grid
    state.shadow -= lr * dshadow
    state.alpha -= lr * float(np.dot(dw_on_grid, state.q_pre.take(on_grid)))
    # batch norm keeps the loss finite long after the weights explode, so
    # divergence has to be caught at the update itself; anything outside the
    # single-precision range can never quantize sanely (alpha is stored f32)
    limit = float(np.finfo(np.float32).max)
    ok = abs(state.alpha) <= limit and bool(
        np.all(np.abs(state.shadow) <= limit)
    )
    if not ok:
        raise TrainingDivergedError(
            f"layer {state.name!r}: weights left the single-precision "
            "range after an update"
        )


def _cast_bn(net, dtype):
    """Cast BN's affine parameters, as the layers compute in their
    parameters' dtype (the running statistics stay float64)."""
    for bn in getattr(net, "bns", []):
        bn.gamma = bn.gamma.astype(dtype)
        bn.beta = bn.beta.astype(dtype)


def _bn_step(net, lr: float):
    for bn in getattr(net, "bns", []):
        bn.gamma -= lr * bn.dgamma
        bn.beta -= lr * bn.dbeta


def _training_set(images, labels):
    """(float32 images, labels), checked to hold the same number of samples, at least one."""
    images = np.asarray(images, dtype=np.float32)
    labels = np.asarray(labels)
    if images.shape[0] != labels.shape[0]:
        raise ValueError("images and labels disagree on the sample count")
    if images.shape[0] == 0:
        raise DegenerateInputError("no training images")
    return images, labels


def _batches(count: int, batch_size: int, seed: int) -> list:
    """Index batches of one seeded permutation, reused every epoch."""
    perm = np.random.default_rng(spawn_seed(seed, "shuffle")).permutation(count)
    return [perm[i : i + batch_size] for i in range(0, count, batch_size)]


def _epoch(net, images, labels, batches, lr: float, where: str, prepare,
           step) -> float:
    """Run one epoch and return its mean loss.

    Each batch calls ``prepare()``, then runs forward and the loss; unless
    ``lr == 0`` it then runs backward, ``step(lr)`` and the BN affine update.
    At ``lr == 0`` the forward runs in inference mode, so nothing moves, not
    even BN's running statistics (a negative or NaN rate still trains).
    """
    inert = lr == 0
    losses = []
    for batch in batches:
        prepare()
        logits = net.forward(images[batch], training=not inert)
        loss, dlogits = softmax_cross_entropy(logits, labels[batch])
        if not np.isfinite(loss):
            raise TrainingDivergedError(f"non-finite loss at {where}")
        losses.append(loss)
        if not inert:
            net.backward(dlogits)
            step(lr)
            _bn_step(net, lr)
    return float(np.mean(losses))


@dataclass
class InqResult:
    compressed: CompressedModel  # each layer's mode and wsep at its last fit
    history: list  # (global epoch, mean loss, top1 or None)


def finetune_inq(net, images: np.ndarray, labels: np.ndarray,
                 config: TrainConfig, eval_set=None) -> InqResult:
    """Prune, then fine-tune ``net`` onto the quantization grid in place.

    On return the network's weights are the final quantized values (its
    accuracy is the quantized accuracy) and the returned compressed model
    encodes exactly those weights; no layer keeps its cache of the last batch.
    ``eval_set`` = (images, labels) adds a per-epoch top-1 column to the history.
    """
    images, labels = _training_set(images, labels)
    _cast_bn(net, np.float32)
    states = []
    for name, layer in net.weight_layers():
        flat = layer.w.ravel().astype(np.float64)
        kept = prune_by_magnitude(flat, config.prune_fraction)
        state = _LayerState(name=name, layer=layer, shadow=np.where(kept, flat, 0.0),
                            kept=kept, quantized=np.zeros(kept.size, dtype=bool))
        _fit_params(state, config, derive_seed(config.seed, name))
        states.append(state)

    batches = _batches(images.shape[0], config.batch_size, config.seed)

    def update(lr):
        for state in states:
            _apply_gradients(state, lr)

    refresh_at = refresh_epochs(config)
    history = []
    global_epoch = 0
    for fraction in config.inq_fractions:
        for state in states:
            _grow_quantized(state, fraction)
        for _ in range(config.epochs_per_step):
            global_epoch += 1
            loss = _epoch(net, images, labels, batches, config.learning_rate,
                          f"epoch {global_epoch}", lambda: _install_weights(states), update)
            top1 = None
            if eval_set is not None:
                _install_weights(states)
                top1 = top1_accuracy(net.predict(eval_set[0]), eval_set[1])
            history.append((global_epoch, loss, top1))
            if global_epoch in refresh_at and global_epoch < config.total_epochs:
                for state in states:
                    # same per-layer seed as the first fit: refitting from
                    # unchanged shadows reproduces the same parameters
                    _fit_params(state, config, derive_seed(config.seed, state.name))

    for state in states:  # finite: every update keeps |alpha| within float32
        state.alpha = float(np.float32(state.alpha))
    # float64, so the weights equal the container's dequantized values and
    # the returned net computes in float64
    _install_weights(states, np.float64)
    _cast_bn(net, np.float64)
    layers = []
    for s in states:
        try:  # alpha times the layer's alphabet can still pass float32's range
            layers.append(quantize_with(s.shadow.reshape(s.layer.w.shape), s.kept,
                                        s.params, s.name, s.alpha))
        except ValueError as exc:
            raise TrainingDivergedError(f"layer {s.name!r}: {exc}") from None
    net.drop_caches()
    return InqResult(compressed=CompressedModel(layers), history=history)


def train_float(net, images: np.ndarray, labels: np.ndarray, epochs: int,
                learning_rate: float = 0.05, momentum: float = 0.9,
                batch_size: int = 64, seed: int = 0, eval_set=None) -> list:
    """Plain SGD baseline training in float32; returns (epoch, loss, top1)
    history. The net keeps its float32 weights and BN affine parameters, and no
    layer's cache of the last batch."""
    images, labels = _training_set(images, labels)
    batches = _batches(images.shape[0], batch_size, seed)
    layers = [layer for _, layer in net.weight_layers()]
    for layer in layers:
        layer.w = layer.w.astype(np.float32)
    _cast_bn(net, np.float32)
    velocity = [np.zeros_like(layer.w) for layer in layers]

    def update(lr):
        for i, layer in enumerate(layers):
            velocity[i] = momentum * velocity[i] + layer.dw
            layer.w -= lr * velocity[i]

    history = []
    for epoch in range(1, epochs + 1):
        loss = _epoch(net, images, labels, batches, learning_rate, f"epoch {epoch}",
                      lambda: None, update)
        top1 = None
        if eval_set is not None:
            top1 = top1_accuracy(net.predict(eval_set[0]), eval_set[1])
        history.append((epoch, loss, top1))
    net.drop_caches()
    return history


def top1_accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError("prediction/label shapes differ")
    return float(np.mean(predictions == labels))


SWEEP_MAX_CELLS = 1000  # thresholds, each one INQ fine-tune per repeat; the default has 26


def sweep_grid(lo: float = 1.0, hi: float = 3.5, step: float = 0.1) -> tuple:
    """Separation-threshold grid, endpoints inclusive; ValueError past SWEEP_MAX_CELLS."""
    if not (hi - lo) / step <= SWEEP_MAX_CELLS - 1:  # a float, so inf is refused too
        raise ValueError(f"a step of {step:g} from {lo:g} to {hi:g} "
                         f"makes more than {SWEEP_MAX_CELLS} thresholds")
    count = int(round((hi - lo) / step)) + 1
    return tuple(round(lo + i * step, 10) for i in range(count))


def wsep_sweep(base_net, images, labels, test_images, test_labels,
               config: TrainConfig, grid=None, repeats: int = 1):
    """Fine-tune across a grid of separation thresholds.

    Each (threshold, repeat) cell clones the base network and runs the full
    schedule with a seed derived from (config.seed, cell), then scores top-1
    on the held-out set. Returns (detail, summary, modes): detail rows are
    (wsep, run, top1), summary rows (wsep, mean, std), and mode rows
    (wsep, run, layer, mode, separation) record the per-layer decisions of
    each cell with the layer's measured separation at its last fit.
    """
    if grid is None:
        grid = sweep_grid()
    detail = []
    modes = []
    for i, wsep in enumerate(grid):
        for run in range(repeats):
            cfg = replace(config, w_sep=float(wsep),
                          seed=spawn_seed(config.seed, "sweep", i, run))
            net = base_net.clone()
            result = finetune_inq(net, images, labels, cfg)
            top1 = top1_accuracy(net.predict(test_images), test_labels)
            detail.append((float(wsep), run, top1))
            modes += [(float(wsep), run, lq.name, lq.mode, lq.wsep)
                      for lq in result.compressed.layers]
    summary = []
    for wsep in grid:
        vals = np.array([t for w, _, t in detail if w == float(wsep)])
        summary.append((float(wsep), float(vals.mean()), float(vals.std())))
    return detail, summary, modes
