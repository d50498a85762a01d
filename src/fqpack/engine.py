"""Integer inference over compressed models.

Weight products never happen: each weight is a (sign, shift) pair, so a dot
product is a signed sum of shifted activations. The per-output sum splits in
two integer accumulators,

    T = sum_i s_i * (x_i << e_i)             deviation part
    U = sum_c sgn(mu_c) * (S_c << (p_c - p_min))    component part,

with S_c the plain sum of activations assigned to component c and
mu_c = +/- 2^(p_c). One scale per output turns them back into reals:

    out = alpha * (T * sigma * 2^-bias + U * 2^p_min) * 2^act_exp.

A shift layer is the case with zero centres and unit sigma (mu = (0, 0),
sigma = 1): U vanishes and the scale is 2^-bias. Every weight field comes
from ``focused_quant.unpack``, so nothing here depends on the layer's mode.

``dot_shift_add`` is the reference scalar form of that sum — a single
accumulator, shifts/adds/subtracts only. The batched path reaches the same
integers through one matrix product per layer over an NHWC patch matrix,
with each output's T and U weight columns side by side. A float GEMM is exact as long
as every partial sum is an integer the format holds exactly: below 2^24 in
float32, below 2^53 in float64. ``check_accumulator`` refuses a layer whose
worst case needs more than ``ACC_BITS`` (32) bits, and each stage runs in
float32 when that bound is at most 24 bits and in float64 above it, so the
two paths agree to the last bit whenever sigma is a power of two. The
scaling to reals above runs in float64, with each sample's 2^act_exp folded
into alpha: the centre sums are in units of 2^p_min, so a stage computes
(T * sigma * 2^(-bias - p_min) + U) * (alpha * 2^(p_min + act_exp)). That
makes the same roundings as scaling by alpha and then by 2^act_exp, since a
power-of-two scale commutes with rounding on normal values.

Between layers: fold BN into per-channel (scale, offset), quantize those to
int16 with shared power-of-two exponents, apply ReLU, and requantize
activations to int8, straight into the next stage's input buffer, which
holds such integers exactly. Each sample gets the smallest exponent that
loses nothing, so its output does not depend on its batch; only a frozen
exponent (from ``calibrate``) saturates. The rounding stays in float64 (a
float32 cast first could move a value such as 2.4999999 onto a tie) and is
half away from zero. The network input may be negative, and is the
caller's: ``quantize_activations`` takes its exponent from each sample's
max and min and rounds it with ``_round_away``, in three passes, into the
first stage's input. After a ReLU every input is >= 0, so the max alone
gives the exponent and trunc(v + 0.5) rounds in two passes, in place, the
same up to the sign of a zero. ``_exponent`` finds the exponents of a
block by one sorted search in the peaks where the exponent steps, worked
out once per bit width. ``quantize_activations`` also requantizes single
arrays (BN coefficients, a whole batch). The
classifier layer returns float logits without requantization; a global
average pool (power of two window, rounded shift) bridges conv output to the
dense head.

A forward runs in blocks of at most ``_BLOCK`` (32) samples, each through
the whole network; the blocking is exact, since a sample's exponents are
its own and the GEMMs are exact integer sums. The stage shapes for an input
size are worked out once (the last such plan is kept; it holds shapes, not
buffers). Each call then allocates its workspace from the plan, sized by its
first block: every stage's zero-bordered input, whose border is zeroed once,
and one patch matrix, GEMM output and float64 finalize buffer, which the
stages take turns to use. Later blocks use the leading rows, everything is
dropped when the call returns, so peak memory depends on the block size,
not the batch size, and calls stay reentrant. ``FloatSimulator`` builds its
inputs and patches in float64, so its GEMM reads them without a widening
copy. The recording pass of ``calibrate`` picks one exponent per batch, so
it runs its batch whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .codec import CompressedModel, pair_layers
from .convops import conv_output_hw, im2col
from .errors import AccumulatorOverflowError, ValidationError
from .focused_quant import ZERO, LayerQuantization, decode, gather, split_pow2, unpack
from .model_store import BN_EPS, KIND_CONV2D, ModelFile

# the one accumulator limit; a sum bounded to 32 bits stays below 2^31, so a
# float64 GEMM, which holds every integer up to 2^53, is always exact
ACC_BITS = 32
# a sum bounded to 24 bits (sign included) stays below 2^23, and float32
# holds every integer up to 2^24 exactly
F32_EXACT_BITS = 24
# samples per block: a forward runs each block through the whole network, so
# its buffers are sized by the block, not the batch
_BLOCK = 32


def _round_away(values: np.ndarray, out=None) -> np.ndarray:
    """Round half away from zero: trunc(v + copysign(0.5, v)), into ``out`` or in place."""
    half = np.copysign(0.5, values)
    half += values
    return np.trunc(half, out=half if out is None else out)


@lru_cache(maxsize=None)
def _exponent_steps(bits: int):
    """(starts, exps) for ``_exponent``: peaks from starts[i-1] on, below
    starts[i], take exponent exps[i]."""
    # every exponent of a positive finite peak, from 2^-1074 to the largest float
    exps = np.arange(-1072 - bits, 1027 - bits)
    # e is needed from (2^bits - 1) * 2^(e-2) on, where round(peak / 2^(e-1))
    # passes the limit; a start with e - 2 < -1074 is no float, and ldexp
    # rounds it up, to the first float from which e is needed
    starts = np.ldexp(float((1 << bits) - 1), exps - 2)
    # zero, below the first start, has exponent 0; NaN and inf land past the last entry
    return np.append(starts, np.inf), np.append(0, exps).astype(np.intc)


def _exponent(peak, bits: int):
    """Smallest e with round(peak / 2^e) <= 2^(bits-1) - 1 for each non-negative
    ``peak`` (0 where it is 0), as intc, from one sorted search; refuses NaN and inf."""
    starts, exps = _exponent_steps(bits)
    try:
        return exps.take(starts.searchsorted(peak, "right"))
    except IndexError:
        raise ValidationError("activations contain non-finite values") from None


def _lossless_exponent(x: np.ndarray, bits: int, axis=None):
    """``_exponent`` of max|x| over ``axis``, from one max/min pass."""
    return _exponent(np.maximum(x.max(axis=axis), -x.min(axis=axis)), bits)


def quantize_activations(x: np.ndarray, bits: int = 8, exponent=None, out=None):
    """Symmetric power-of-two quantization: x ~= values * 2^exponent.

    Returns (values, exponent), the values float32 integers in [-(2^(bits-1)-1),
    2^(bits-1)-1], rounded half away from zero. With no exponent, the smallest
    one (a Python int) that fits the whole array's extreme value, so nothing
    clips; 0 for all zeros. A frozen int exponent, as set by calibration,
    saturates. An int array gives each sample (axis 0) its own, which the
    caller picks lossless after refusing non-finite input; otherwise
    non-finite input raises ValidationError.
    ``out``, a float array of x's shape (a strided view will do), receives
    the values in place of a new float32 array.
    """
    if not 2 <= bits <= 16:
        raise ValueError(f"activation bits must be in [2, 16], got {bits}")
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("empty activation array")
    frozen = np.ndim(exponent) == 0 and exponent is not None
    if np.ndim(exponent):
        shift = -np.asarray(exponent, dtype=np.intc).reshape((-1,) + (1,) * (x.ndim - 1))
    else:
        lossless = int(_lossless_exponent(x, bits))  # also refuses non-finite input
        exponent = lossless if exponent is None else exponent
        shift = -exponent
    if out is None:
        out = np.empty(x.shape, dtype=np.float32)
    ints = _round_away(np.ldexp(x, shift), out=out)
    if frozen:
        limit = (1 << (bits - 1)) - 1
        np.clip(ints, -limit, limit, out=ints)
    return ints, exponent


def fold_bn(bn_params):
    """Batch-norm (gamma, beta, mean, var) as per-channel y = g*x + t."""
    gamma, beta, mean, var = (np.asarray(p, dtype=np.float64) for p in bn_params)
    g = gamma / np.sqrt(var + BN_EPS)
    return g, beta - g * mean


@dataclass
class QuantBN:
    """Folded batch-norm with int16 coefficients and shared exponents, and the
    float64 ``real_scale`` and ``real_offset`` they stand for, computed once."""

    scale: np.ndarray
    offset: np.ndarray
    scale_exp: int
    offset_exp: int

    def __post_init__(self):
        self.real_scale = np.ldexp(self.scale.astype(np.float64), self.scale_exp)
        self.real_offset = np.ldexp(self.offset.astype(np.float64), self.offset_exp)

    @classmethod
    def from_float(cls, g: np.ndarray, t: np.ndarray) -> "QuantBN":
        (scale, se), (offset, oe) = quantize_activations(g, 16), quantize_activations(t, 16)
        return cls(scale.astype(np.int16), offset.astype(np.int16), se, oe)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """real_scale * x + real_offset over the last (channel) axis, in place."""
        x *= self.real_scale
        x += self.real_offset
        return x


def _scale_powers(lq: LayerQuantization):
    """(d, p_sigma) for the common denominator 2^-d of deviations and centres."""
    p_sigma = split_pow2(lq.sigma)[1]
    d = max([lq.bias - p_sigma, 0] + [-p for sign, p in map(split_pow2, lq.mu) if sign])
    return d, p_sigma


def dot_shift_add(activations, lq: LayerQuantization, positions=None):
    """Reference dot product of integer activations with quantized weights.

    Accumulates in a single integer using only shifts, adds, subtracts and
    sign tests — the arithmetic the hardware cost model prices. Returns
    (acc, scale) with the real dot product equal to alpha * acc * 2^scale.
    ``positions`` restricts the sum to those flat weight indices (the i-th
    activation then pairs with the i-th position). The layer needs a
    power-of-two sigma, otherwise the deviations and the component means
    share no finite binary denominator.
    """
    if positions is None:
        symbols = lq.symbols
    else:
        symbols = lq.symbols[np.asarray(positions, dtype=np.intp)]
    if len(activations) != symbols.size:
        raise ValueError("activation count != weight count")
    d, p_sigma = _scale_powers(lq)
    # per component: None for a zero centre, else (mean > 0, shift of the mean)
    centres = [(sign > 0, p + d) if sign else None for sign, p in map(split_pow2, lq.mu)]
    fields = zip(symbols.tolist(), *(f.tolist() for f in unpack(symbols, lq)))
    acc = 0
    for x, (sym, component, sign, exponent) in zip(activations, fields):
        if sym == ZERO:
            continue
        if sign > 0:
            acc = acc + (x << (exponent - lq.bias + p_sigma + d))
        elif sign < 0:
            acc = acc - (x << (exponent - lq.bias + p_sigma + d))
        centre = centres[component]
        if centre is not None:
            if centre[0]:
                acc = acc + (x << centre[1])
            else:
                acc = acc - (x << centre[1])
    return acc, -d


def _planes(lq: LayerQuantization):
    """Flat integer weight planes: (dev, cen or None, scale_dev, scale_cen).

    ``dev`` holds s * 2^e per weight. Layers with nonzero centres add
    ``cen``, sgn(mu_c) * 2^(p_c - p_min) on every weight assigned to
    component c. Both are worked out once per alphabet symbol and gathered
    by the uint8 symbols. The scales turn the two plane sums back into reals:
    scale_dev = sigma * 2^-bias, scale_cen = 2^p_min.
    """
    alphabet = np.arange(lq.alphabet_size)
    component, sign, exponent = unpack(alphabet, lq)
    dev = gather(sign * np.ldexp(1.0, exponent), lq.symbols)
    scale_dev = lq.sigma * float(np.ldexp(1.0, -lq.bias))
    powers = {c: p for c, (sign, p) in enumerate(map(split_pow2, lq.mu)) if sign}
    if not powers:
        return dev, None, scale_dev, 0.0
    p_min = min(powers.values())
    cen = np.zeros(lq.alphabet_size)
    for c, p in powers.items():
        cen[(component == c) & (alphabet != ZERO)] = (
            np.sign(lq.mu[c]) * float(np.ldexp(1.0, p - p_min)))
    return dev, gather(cen, lq.symbols), scale_dev, float(np.ldexp(1.0, p_min))


def accumulator_bits(lq: LayerQuantization, patch_size: int, act_bits: int = 8) -> int:
    """Worst-case accumulator width (bits including sign) for one output.

    Each GEMM column sums patch_size activations of at most 2^(act_bits-1) - 1
    times one plane entry (sigma, bias and alpha are a per-output scaling
    applied afterwards), so the bound is patch_size * |x|max * the largest
    magnitude in either plane.
    """
    if patch_size < 1:
        raise ValueError("patch size must be positive")
    xmax = (1 << (act_bits - 1)) - 1
    dev, cen, _, _ = _planes(lq)
    top = max(float(np.max(np.abs(p), initial=0.0)) for p in (dev, cen) if p is not None)
    total = patch_size * xmax * int(top)
    return total.bit_length() + 1 if total else 1


def check_accumulator(lq: LayerQuantization, patch_size: int, act_bits: int = 8) -> int:
    """Worst-case accumulator bits of a layer; raises above ``ACC_BITS``."""
    bits = accumulator_bits(lq, patch_size, act_bits)
    if bits > ACC_BITS:
        raise AccumulatorOverflowError(
            f"layer {lq.name!r}: worst-case accumulator needs {bits} bits "
            f"(> {ACC_BITS}) for {patch_size}-wide patches"
        )
    return bits


def global_avg_pool_int(x: np.ndarray) -> np.ndarray:
    """(N, C, H, W) integer mean pool via a rounded right shift.

    Needs a power-of-two window area: mean = (sum + area/2) >> log2(area).
    """
    n, c, h, w = x.shape
    area = h * w
    if area & (area - 1):
        raise ValueError(f"pool window {h}x{w} is not a power-of-two area")
    total = x.astype(np.int64).sum(axis=(2, 3))
    return (total + (area >> 1)) >> (area.bit_length() - 1)


@dataclass
class _Stage:
    """One executable layer: integer weight planes plus finalize scales."""

    name: str
    kind: str
    geometry: tuple
    # the _planes in the GEMM dtype (float32 when the accumulator bound is <=
    # 24 bits): one column per output, or, with centres, each output's
    # deviation and centre columns side by side
    planes: np.ndarray
    scale_dev: float
    scale_cen: float
    alpha: float
    w_pre: np.ndarray  # pre-alpha real weights, for the float reference
    qbn: Optional[QuantBN]


def _build_stage(spec, lq: LayerQuantization, act_bits: int) -> _Stage:
    patch = spec.weight_count // spec.out_channels  # fh * fw * cin, or in_features
    bits = check_accumulator(lq, patch, act_bits)
    dev, cen, scale_dev, scale_cen = _planes(lq)
    shape = (patch, spec.out_channels)
    planes = np.stack([p.reshape(shape) for p in (dev, cen) if p is not None], axis=-1)
    qbn = None
    if spec.bn_params is not None:
        qbn = QuantBN.from_float(*fold_bn(spec.bn_params))
    return _Stage(
        name=spec.name, kind=spec.kind, geometry=spec.geometry,
        planes=planes.reshape(patch, -1).astype(np.float32 if bits <= F32_EXACT_BITS
                                                 else np.float64),
        scale_dev=scale_dev, scale_cen=scale_cen, alpha=lq.alpha,
        w_pre=decode(lq.symbols, lq).reshape(shape), qbn=qbn,
    )


class _Shape(NamedTuple):
    """One stage's shapes for one sample."""

    dtype: np.dtype  # of its input and patch matrix
    padded: tuple  # its input: (h + 2*pad, w + 2*pad, cin) for a conv, or (width,)
    interior: tuple  # slices of ``padded`` that requantization writes
    rows: int  # GEMM rows: oh * ow, or 1
    out: tuple  # its output: (oh, ow, cout), or (cout,)
    pool: bool  # a dense stage fed a 4D input (images or a conv's output), pooled first


class _Plan(NamedTuple):
    """Every stage's shapes for one per-sample input shape, and the per-sample
    sizes of the buffers the stages share."""

    shapes: tuple
    cols_bytes: int
    acc_bytes: int
    real_size: int


def _stage_plan(stages, shape, dtype=None) -> _Plan:
    """The plan for per-sample input ``shape``, (h, w, c) or (width,), with
    stage inputs in ``dtype``, or in each stage's GEMM dtype."""
    shapes, cols, acc, real = [], [0], [], []
    for stage in stages:
        patch, cout = stage.w_pre.shape
        in_dtype = np.dtype(stage.planes.dtype if dtype is None else dtype)
        if stage.kind == KIND_CONV2D:
            fh, fw, cin, _, pad, stride = stage.geometry
            h, w, c = shape
            if c != cin:
                raise ValidationError(
                    f"stage {stage.name!r}: input has {c} channels, expected {cin}"
                )
            if pad > max(fh, fw) or min(h + 2 * pad - fh, w + 2 * pad - fw) < 0:
                raise ValidationError(f"stage {stage.name!r}: pad {pad} must not pass its "
                                      f"{fh}x{fw} kernel, which must fit its {h}x{w} input")
            oh, ow = conv_output_hw(h, w, fh, fw, stride, pad)
            s = _Shape(in_dtype, (h + 2 * pad, w + 2 * pad, c),
                       (slice(pad, pad + h), slice(pad, pad + w)), oh * ow, (oh, ow, cout), False)
            cols.append(s.rows * patch * in_dtype.itemsize)
        else:
            if shape[-1] != patch:
                raise ValidationError(
                    f"stage {stage.name!r}: input width {shape[-1]}, expected {patch}"
                )
            s = _Shape(in_dtype, (patch,), (), 1, (cout,), len(shape) == 3)
            if s.pool and (shape[0] * shape[1]) & (shape[0] * shape[1] - 1):
                raise ValidationError(f"stage {stage.name!r}: pool window "
                                      f"{shape[0]}x{shape[1]} is not a power-of-two area")
        acc.append(s.rows * stage.planes.shape[1] * stage.planes.itemsize)
        real.append(s.rows * cout)
        shapes.append(s)
        shape = s.out
    return _Plan(tuple(shapes), max(cols), max(acc), max(real))


class _Workspace:
    """One forward call's buffers, sized by its first block of ``n`` samples;
    later, smaller blocks use their leading rows.

    ``inputs[i]`` is stage i's input in its dtype, zero-bordered for a conv:
    the border is zeroed once, and requantization writes the interior. The
    patch matrix, the GEMM output and the float64 finalize buffer serve one
    stage at a time, so all stages share one of each, sized for the largest.
    """

    def __init__(self, plan: _Plan, n: int):
        self.plan = plan
        self.inputs = [np.zeros((n,) + s.padded, s.dtype) for s in plan.shapes]
        self.cols = np.empty(n * plan.cols_bytes, np.uint8)
        self.acc = np.empty(n * plan.acc_bytes, np.uint8)
        self.real = np.empty(n * plan.real_size)

    def inner(self, i: int, n: int) -> np.ndarray:
        """Where requantization writes stage i's input for n samples."""
        return self.inputs[i][(slice(n),) + self.plan.shapes[i].interior]


def _scale_samples(real: np.ndarray, factors) -> None:
    """Multiplies each sample's rows of ``real`` by its factor (one factor scales all)."""
    per_sample = real.reshape(factors.size, -1)
    per_sample *= factors.reshape(-1, 1)


def _integer_accumulate(stage: _Stage, cols: np.ndarray, ws: _Workspace, exps) -> np.ndarray:
    """Real-valued stage outputs, in ``ws.real``, from integer activation
    columns on the per-sample grids 2^exps.

    The exact integer sums are widened to float64 inside the scaling
    operations. The centre sums are in units of scale_cen, a power of two, so
    alpha * (dev * scale_dev + cen * scale_cen) * 2^e is computed as
    (dev * (scale_dev / scale_cen) + cen) * (alpha * scale_cen * 2^e): every
    rounding is the same, since power-of-two scales commute with rounding on
    normal values.
    """
    rows, width = len(cols), stage.planes.shape[1]
    acc = np.matmul(cols, stage.planes, out=np.ndarray((rows, width), cols.dtype, ws.acc))
    real = np.ndarray((rows, stage.w_pre.shape[1]), np.float64, ws.real)
    unit = 1.0
    if stage.scale_cen:  # each output's deviation and centre columns alternate
        unit = stage.scale_cen
        np.multiply(acc[:, 0::2], stage.scale_dev / unit, out=real, dtype=np.float64)
        np.add(real, acc[:, 1::2], out=real)
    else:
        np.multiply(acc, stage.scale_dev, out=real, dtype=np.float64)
    _scale_samples(real, np.ldexp(stage.alpha * unit, exps))
    return real


def _float_accumulate(stage: _Stage, cols: np.ndarray, ws: _Workspace, exps) -> np.ndarray:
    """Float reference: products against real weights, alpha * 2^e once per sum.

    The patches arrive in float64, exact, since they are integers.
    """
    real = np.ndarray((len(cols), stage.w_pre.shape[1]), np.float64, ws.real)
    np.matmul(cols, stage.w_pre, out=real)
    _scale_samples(real, np.ldexp(stage.alpha, exps))
    return real


def _stage_real(stage: _Stage, ints: np.ndarray, act_exp, accumulate, ws=None, i=0):
    """One stage on integer activations on 2^act_exp (one exponent, or one
    per sample): accumulate, scale, integer BN. Conv stages take and return
    NHWC. With a workspace, ``ints`` is the view ``ws.inner(i, n)`` that
    requantization has already filled; without one, the call builds its own
    and copies ``ints`` in. The result is a view of ``ws.real``."""
    n = len(ints)
    if ws is None:
        ws = _Workspace(_stage_plan([stage], ints.shape[1:]), n)
        ws.inner(0, n)[...] = ints
    shape = ws.plan.shapes[i]
    cols = ws.inputs[i][:n]
    if stage.kind == KIND_CONV2D:
        fh, fw, _, _, _, stride = stage.geometry
        out = np.ndarray((n * shape.rows, stage.w_pre.shape[0]), shape.dtype, ws.cols)
        cols = im2col(cols, fh, fw, stride, 0, out=out)
    real = accumulate(stage, cols, ws, act_exp)
    if stage.qbn is not None:
        stage.qbn.apply(real)  # channels are the last axis
    return real.reshape((n,) + shape.out)


class IntegerEngine:
    """Runs a compressed model on images with integer accumulation.

    The model file supplies geometry and batch-norm state; the compressed
    model supplies the weights, and ``codec.pair_layers`` checks that the two
    belong together. Construction fails with
    AccumulatorOverflowError if any layer could overflow a 32-bit
    accumulator in the worst case. The same bound picks each stage's GEMM
    dtype: float32 up to 24 bits, float64 above, so the matrix products are
    exact integer sums.

    Activation scales are chosen per sample, so a sample's logits do not
    depend on its batch, until :meth:`calibrate` freezes one per layer; only
    frozen scales saturate, so later inputs clip rather than rescale.
    Non-finite inputs raise ValidationError either way.
    """

    accumulate = staticmethod(_integer_accumulate)
    _input_dtype = None  # of the stage inputs and patches; None: each stage's GEMM dtype

    def __init__(self, model: ModelFile, compressed: CompressedModel, act_bits: int = 8):
        if not model.layers:
            raise ValidationError("model has no layers")
        self.act_bits = act_bits
        self.act_exps = None  # set by calibrate()
        self.stages = [_build_stage(spec, lq, act_bits)
                       for spec, lq in pair_layers(model, compressed)]
        self._last_plan = None  # (per-sample input shape, its _Plan)

    def _plan(self, shape) -> _Plan:
        """The plan for per-sample input ``shape``; the last one is kept."""
        last = self._last_plan
        if last is None or last[0] != shape:
            last = shape, _stage_plan(self.stages, shape, self._input_dtype)
            self._last_plan = last
        return last[1]

    def _requant(self, x: np.ndarray, point: int, record=None, out=None):
        """Rounds the block ``x``, stage ``point``'s float64 input, onto its
        power-of-two grid, into ``out`` or, after a ReLU, in place. Returns
        (values, exponents): the frozen exponent, one per batch when
        calibration ``record``s, else one per sample.

        The network input (point 0) may be negative, and is the caller's, so
        ``quantize_activations`` rounds it half away from zero into ``out`` or
        a new array. Later inputs pass the ReLU first: the max alone gives the
        exponent, and trunc(v + 0.5) rounds, the same but for -0.0, which
        becomes +0.0.
        """
        frozen = None if self.act_exps is None else self.act_exps[point]
        if not point:
            if frozen is None and record is None:
                frozen = _lossless_exponent(x, self.act_bits, tuple(range(1, x.ndim)))
            ints, exps = quantize_activations(x, self.act_bits, frozen, out)
            if record is not None:
                record.append(exps)
            return ints, exps
        values, x = x, x.reshape(len(x), -1)  # a view: stage outputs are C-contiguous
        np.maximum(x, 0.0, out=x)  # ReLU between stages
        peaks = x.max(axis=1, keepdims=True)
        if record is not None:
            peaks = peaks.max()
        exps = _exponent(peaks, self.act_bits)  # refuses NaN and inf
        if record is not None:
            exps = int(exps)
            record.append(exps)
        elif frozen is not None:
            exps = frozen
        grid = np.ldexp(x, -exps, out=x)
        grid += 0.5
        if frozen is not None:  # saturate
            np.minimum(grid, (1 << (self.act_bits - 1)) - 0.5, out=grid)
        if out is None:
            np.trunc(grid, out=grid)
            return values, exps
        return np.trunc(grid.reshape(out.shape), out=out), exps

    def _run(self, x: np.ndarray, record=None) -> np.ndarray:
        """Logits of the batch, _BLOCK samples at a time. The recording pass of
        calibrate picks one exponent per batch, so it runs the batch whole."""
        if x.size == 0:
            raise ValueError("empty activation array")
        if x.ndim == 4:
            x = x.transpose(0, 2, 3, 1)  # NHWC from here on
        step = len(x) if record is not None else _BLOCK
        plan = self._plan(x.shape[1:])
        ws = _Workspace(plan, min(len(x), step))
        out = None
        for start in range(0, len(x), step):
            real = x[start : start + step]
            n = len(real)
            for i, (stage, shape) in enumerate(zip(self.stages, plan.shapes)):
                ints = ws.inner(i, n)
                if shape.pool:
                    pooled, exps = self._requant(real, i, record)
                    ints[...] = global_avg_pool_int(pooled.transpose(0, 3, 1, 2))
                else:
                    exps = self._requant(real, i, record, ints)[1]
                real = _stage_real(stage, ints, exps, self.accumulate, ws, i)
            if out is None:
                out = np.empty((len(x),) + real.shape[1:])
            out[start : start + n] = real
        return out.transpose(0, 3, 1, 2) if out.ndim == 4 else out

    def forward(self, images: np.ndarray) -> np.ndarray:
        """Logits for a batch of NCHW images (float, any real scale)."""
        x = np.asarray(images, dtype=np.float64)
        if x.ndim == 3:
            x = x[None]
        return self._run(x)

    def calibrate(self, images: np.ndarray, samples: int = 64) -> list:
        """Freeze per-layer activation exponents, lossless on the calibration batch."""
        x = np.asarray(images, dtype=np.float64)
        if x.ndim == 3:
            x = x[None]
        self.act_exps = None
        record = []
        self._run(x[:samples], record=record)
        self.act_exps = record
        return list(record)

    def logits(self, images: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Logits of every image, ``batch_size`` images per forward pass."""
        return np.concatenate([self.forward(images[start : start + batch_size])
                               for start in range(0, images.shape[0], batch_size)])

    def predict(self, images: np.ndarray, batch_size: int = 256) -> np.ndarray:
        return np.argmax(self.logits(images, batch_size), axis=1)


class FloatSimulator(IntegerEngine):
    """Same pipeline, but stages run as float64 products on real weights.

    Activation quantization, pooling, BN and ReLU are shared with the integer
    engine, so any output difference is due to accumulation arithmetic alone.
    The per-weight reals are the pre-alpha decode; alpha scales each output
    sum once, mirroring the integer finalize.
    """

    accumulate = staticmethod(_float_accumulate)
    # float64 stage inputs and patches, so the GEMM reads them without a widening copy
    _input_dtype = np.dtype(np.float64)
