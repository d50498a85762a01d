"""Integer inference over compressed models.

Weight products never happen: each weight is a (sign, shift) pair, so a dot
product is a signed sum of shifted activations. For recentralized layers the
per-output sum splits in two integer accumulators,

    T = sum_i s_i * (x_i << e_i)             deviation part
    U = sum_c sgn(mu_c) * (S_c << (p_c - p_min))    component part,

with S_c the plain sum of activations assigned to component c and
mu_c = +/- 2^(p_c). One scale per output turns them back into reals:

    out = alpha * (T * sigma * 2^-bias + U * 2^p_min) * 2^act_exp.

``dot_shift_add`` is the reference scalar form of that sum — a single
accumulator, shifts/adds/subtracts only. The batched path reaches the same
integers through one matrix product per layer over an NHWC patch matrix,
with the T and U weight planes side by side. A float GEMM is exact as long
as every partial sum is an integer the format holds exactly: below 2^24 in
float32, below 2^53 in float64. ``check_accumulator`` refuses a layer whose
worst case needs more than ``ACC_BITS`` (32) bits, and each stage runs in
float32 when that bound is at most 24 bits and in float64 above it, so the
two paths agree to the last bit whenever sigma is a power of two. The
scaling to reals above runs in float64.

Between layers: fold BN into per-channel (scale, offset), quantize those to
int16 with shared power-of-two exponents, apply ReLU, and requantize
activations to int8 with a fresh power-of-two exponent. The classifier layer
returns float logits without requantization; a global average pool (power of
two window, rounded shift) bridges conv output to the dense head.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .codec import CompressedModel, pair_layers
from .convops import conv_output_hw, im2col
from .errors import AccumulatorOverflowError, ValidationError
from .focused_quant import (
    MODE_RECENTRALIZED,
    LayerQuantization,
    decode_symbols,
    fq_unpack_array,
)
from .model_store import KIND_CONV2D, KIND_DENSE, ModelFile
from .shift_quant import ZERO, ShiftGrid, dequantize_array, unpack_shift_code

# the one accumulator limit; a sum bounded to 32 bits stays below 2^31, so a
# float64 GEMM, which holds every integer up to 2^53, is always exact
ACC_BITS = 32
# a sum bounded to 24 bits (sign included) stays below 2^23, and float32
# holds every integer up to 2^24 exactly
F32_EXACT_BITS = 24
BN_EPS = 1e-5
INT16_MAX = 32767


def _round_away(values: np.ndarray) -> np.ndarray:
    """Round half away from zero: trunc(v + copysign(0.5, v)), in one buffer."""
    out = np.copysign(0.5, values, out=np.empty(np.shape(values)))
    out += values
    return np.trunc(out, out=out)


def _min_pow2_exp(max_abs: float, limit: int) -> int:
    """Smallest s with round(max_abs / 2^s) <= limit (round half away)."""
    if max_abs == 0.0:
        return 0
    q = limit.bit_length()  # 2^(q-1) <= limit < 2^q
    mant, exp = np.frexp(max_abs)
    s = int(exp) - q
    if np.floor(float(mant) * (1 << q) + 0.5) > limit:
        s += 1
    return s


def quantize_activations(x: np.ndarray, bits: int = 8):
    """Symmetric power-of-two quantization: x ~= values * 2^exponent.

    Returns (int64 values in [-(2^(bits-1)-1), 2^(bits-1)-1], exponent). The
    exponent is the smallest one that fits the extreme value, so precision is
    maximal; an all-zero input reports exponent 0.
    """
    if not 2 <= bits <= 16:
        raise ValueError(f"activation bits must be in [2, 16], got {bits}")
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("empty activation array")
    max_abs = float(np.max(np.abs(x)))  # NaN and inf propagate through max
    if not np.isfinite(max_abs):
        raise ValidationError("activations contain non-finite values")
    limit = (1 << (bits - 1)) - 1
    s = _min_pow2_exp(max_abs, limit)
    return _round_away(np.ldexp(x, -s)).astype(np.int64), s


def saturating_requantize(x: np.ndarray, exponent: int, bits: int = 8) -> np.ndarray:
    """Requantize onto a fixed exponent, clamping into the signed range.

    Used after calibration has frozen per-layer activation scales; values
    beyond the calibrated range saturate instead of widening the scale.
    """
    limit = (1 << (bits - 1)) - 1
    ints = _round_away(np.ldexp(np.asarray(x, dtype=np.float64), -exponent))
    return np.clip(ints, -limit, limit).astype(np.int64)


def fold_bn(bn_params, eps: float = BN_EPS):
    """Batch-norm (gamma, beta, mean, var) as per-channel y = g*x + t."""
    gamma, beta, mean, var = (np.asarray(p, dtype=np.float64) for p in bn_params)
    g = gamma / np.sqrt(var + eps)
    return g, beta - g * mean


@dataclass
class QuantBN:
    """Folded batch-norm with int16 coefficients and shared exponents."""

    scale: np.ndarray
    offset: np.ndarray
    scale_exp: int
    offset_exp: int

    @classmethod
    def from_float(cls, g: np.ndarray, t: np.ndarray) -> "QuantBN":
        g = np.asarray(g, dtype=np.float64)
        t = np.asarray(t, dtype=np.float64)
        se = _min_pow2_exp(float(np.max(np.abs(g))), INT16_MAX)
        oe = _min_pow2_exp(float(np.max(np.abs(t))), INT16_MAX)
        return cls(
            _round_away(np.ldexp(g, -se)).astype(np.int16),
            _round_away(np.ldexp(t, -oe)).astype(np.int16),
            se, oe,
        )

    def real_scale(self) -> np.ndarray:
        return np.ldexp(self.scale.astype(np.float64), self.scale_exp)

    def real_offset(self) -> np.ndarray:
        return np.ldexp(self.offset.astype(np.float64), self.offset_exp)

    def apply(self, x: np.ndarray) -> np.ndarray:
        g, t = self.real_scale(), self.real_offset()
        if x.ndim == 4:
            g, t = g[:, None, None], t[:, None, None]
        out = g * x
        out += t
        return out


def _sigma_pow2_exp(sigma: float) -> int:
    mant, exp = np.frexp(sigma)
    if mant != 0.5:
        raise ValueError(f"sigma {sigma} is not a power of two")
    return int(exp) - 1


def _scale_powers(lq: LayerQuantization):
    """(d, p_sigma, center exponents) for the common-denominator 2^-d."""
    if lq.mode == MODE_RECENTRALIZED:
        p_sigma = _sigma_pow2_exp(lq.sigma)
        d = max(lq.bias - p_sigma, 0)
        for mu in lq.mu:
            if mu != 0.0:
                d = max(d, -int(np.frexp(abs(mu))[1]) + 1)
    else:
        p_sigma = 0
        d = max(lq.bias, 0)
    return d, p_sigma


def dot_shift_add(activations, lq: LayerQuantization, positions=None):
    """Reference dot product of integer activations with quantized weights.

    Accumulates in a single integer using only shifts, adds, subtracts and
    sign tests — the arithmetic the hardware cost model prices. Returns
    (acc, scale) with the real dot product equal to alpha * acc * 2^scale.
    ``positions`` restricts the sum to those flat weight indices (the i-th
    activation then pairs with the i-th position). Recentralized layers need
    a power-of-two sigma, otherwise the deviations and the component means
    share no finite binary denominator.
    """
    if positions is None:
        symbols = lq.symbols
    else:
        symbols = lq.symbols[np.asarray(positions, dtype=np.intp)]
    if len(activations) != symbols.size:
        raise ValueError("activation count != weight count")
    d, p_sigma = _scale_powers(lq)
    acc = 0
    if lq.mode == MODE_RECENTRALIZED:
        k = lq.n_bits - 3
        mu_shift = []
        for mu in lq.mu:
            mu_shift.append(None if mu == 0.0 else
                            (1 if mu > 0 else -1, int(np.frexp(abs(mu))[1]) - 1 + d))
        for x, sym in zip(activations, symbols.tolist()):
            if sym == ZERO:
                continue
            component = sym >> (lq.n_bits - 1)
            s_code = (sym >> k) & 3
            if s_code == 1:
                acc = acc + (x << ((sym & ((1 << k) - 1)) - lq.bias + p_sigma + d))
            elif s_code == 2:
                acc = acc - (x << ((sym & ((1 << k) - 1)) - lq.bias + p_sigma + d))
            center = mu_shift[component]
            if center is not None:
                if center[0] > 0:
                    acc = acc + (x << center[1])
                else:
                    acc = acc - (x << center[1])
    else:
        for x, sym in zip(activations, symbols.tolist()):
            if sym == ZERO:
                continue
            sign, exponent = unpack_shift_code(sym, lq.exponent_bits)
            if sign > 0:
                acc = acc + (x << (exponent - lq.bias + d))
            else:
                acc = acc - (x << (exponent - lq.bias + d))
    return acc, -d


def accumulator_bits(lq: LayerQuantization, patch_size: int, act_bits: int = 8) -> int:
    """Worst-case accumulator width (bits including sign) for one output.

    The deviation sum runs in raw exponent-code units (sigma, bias and alpha
    are a single per-output scaling applied afterwards), so the bound is
    patch_size * |x|max * 2^e_max. Recentralized layers keep a second
    accumulator for the component-mean sums; the wider of the two governs.
    """
    if patch_size < 1:
        raise ValueError("patch size must be positive")
    xmax = (1 << (act_bits - 1)) - 1
    if lq.mode == MODE_RECENTRALIZED:
        _, _, sign, exponent = fq_unpack_array(lq.symbols, lq.n_bits)
        has_dev = bool(np.any(sign != 0))
        e_max = int(exponent[sign != 0].max()) if has_dev else 0
        per = (1 << e_max) if has_dev else 0
        centers = [m for m in lq.mu if m != 0.0]
        if centers:
            p_min = min(int(np.frexp(abs(m))[1]) - 1 for m in centers)
            p_max = max(int(np.frexp(abs(m))[1]) - 1 for m in centers)
            per = max(per, 1 << (p_max - p_min))
    else:
        nonzero = lq.symbols[lq.symbols != ZERO]
        if nonzero.size == 0:
            return 1
        e_max = int((nonzero & ((1 << lq.exponent_bits) - 1)).max())
        per = 1 << e_max
    total = patch_size * xmax * per
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
    # deviation plane s * 2^e per weight, then (recentralized layers with
    # centres) the component plane sgn(mu) * 2^(p - p_min), side by side in
    # the GEMM dtype: float32 when the accumulator bound is <= 24 bits
    planes: np.ndarray
    scale_dev: float  # sigma * 2^-bias (shift mode: 2^-bias)
    scale_cen: float  # 2^p_min, 0.0 without centers
    alpha: float
    w_pre: np.ndarray  # pre-alpha real weights, for the float reference
    qbn: Optional[QuantBN]


def _build_stage(spec, lq: LayerQuantization, acc_bits: int) -> _Stage:
    if lq.mode == MODE_RECENTRALIZED:
        _, component, sign, exponent = fq_unpack_array(lq.symbols, lq.n_bits)
        wt = sign * np.ldexp(1.0, exponent.astype(np.int64))
        scale_dev = lq.sigma * float(np.ldexp(1.0, -lq.bias))
        powers = {}
        for c, mu in enumerate(lq.mu):
            if mu != 0.0:
                powers[c] = int(np.frexp(abs(mu))[1]) - 1
        if powers:
            p_min = min(powers.values())
            wu = np.zeros(lq.weight_count)
            for c, p in powers.items():
                chosen = (component == c) & (lq.symbols != ZERO)
                wu[chosen] = np.sign(lq.mu[c]) * float(np.ldexp(1.0, p - p_min))
            scale_cen = float(np.ldexp(1.0, p_min))
        else:
            wu, scale_cen = None, 0.0
    else:
        wt = dequantize_array(lq.symbols, ShiftGrid(lq.exponent_bits, 0))
        wu, scale_cen = None, 0.0
        scale_dev = float(np.ldexp(1.0, -lq.bias))
    qbn = None
    if spec.bn_params is not None:
        qbn = QuantBN.from_float(*fold_bn(spec.bn_params))
    if spec.kind == KIND_CONV2D:
        fh, fw, cin, cout = spec.geometry[:4]
        shape = (fh * fw * cin, cout)
    else:
        shape = spec.geometry
    planes = wt.reshape(shape)
    if wu is not None:
        planes = np.concatenate([planes, wu.reshape(shape)], axis=1)
    dtype = np.float32 if acc_bits <= F32_EXACT_BITS else np.float64
    return _Stage(
        name=spec.name, kind=spec.kind, geometry=spec.geometry,
        planes=planes.astype(dtype),
        scale_dev=scale_dev, scale_cen=scale_cen, alpha=lq.alpha,
        w_pre=decode_symbols(lq).reshape(shape), qbn=qbn,
    )


def _integer_accumulate(stage: _Stage, cols: np.ndarray, act_exp: int) -> np.ndarray:
    """Real-valued stage outputs from integer activation columns.

    The exact integer sums are widened to float64 inside the scaling
    multiplies, and the finalize runs in place on that one float64 array.
    """
    acc = cols @ stage.planes
    cout = stage.w_pre.shape[1]
    inner = np.multiply(acc[:, :cout], stage.scale_dev, dtype=np.float64)
    if acc.shape[1] > cout:
        inner += np.multiply(acc[:, cout:], stage.scale_cen, dtype=np.float64)
    inner *= stage.alpha
    return np.ldexp(inner, act_exp, out=inner)


def _float_accumulate(stage: _Stage, cols: np.ndarray, act_exp: int) -> np.ndarray:
    """Float reference: products against real weights, alpha once per sum.

    Scaling the product by 2^act_exp is exact, so it equals scaling the
    activations first.
    """
    return stage.alpha * np.ldexp(cols @ stage.w_pre, act_exp)


def _stage_real(stage: _Stage, ints: np.ndarray, act_exp: int, accumulate, dtype):
    """One stage on integer activations: accumulate, integer BN.

    Conv stages take and return NHWC; ``dtype`` is the patch matrix dtype.
    """
    if stage.kind == KIND_CONV2D:
        fh, fw, cin, cout, pad, stride = stage.geometry
        n, h, w, c = ints.shape
        if c != cin:
            raise ValidationError(
                f"stage {stage.name!r}: input has {c} channels, expected {cin}"
            )
        cols = im2col(ints.astype(dtype), fh, fw, stride, pad)
        real = accumulate(stage, cols, act_exp)
        oh, ow = conv_output_hw(h, w, fh, fw, stride, pad)
        out_shape = (n, oh, ow, cout)
    else:
        if ints.shape[-1] != stage.geometry[0]:
            raise ValidationError(
                f"stage {stage.name!r}: input width {ints.shape[-1]}, "
                f"expected {stage.geometry[0]}"
            )
        real = accumulate(stage, ints.astype(dtype), act_exp)
        out_shape = real.shape
    if stage.qbn is not None:
        real = stage.qbn.apply(real)  # channels are the last axis
    return real.reshape(out_shape)


def conv2d_quantized(ints: np.ndarray, act_exp: int, spec, lq: LayerQuantization,
                     act_bits: int = 8, out_exp=None):
    """One quantized NCHW conv: integer accumulation, integer BN, requantization.

    Input and output are (values, exponent) activation pairs. With
    ``out_exp`` given, the output saturates onto that fixed scale; otherwise
    the smallest lossless exponent is chosen.
    """
    patch = spec.weight_count // spec.out_channels  # fh * fw * cin
    stage = _build_stage(spec, lq, check_accumulator(lq, patch, act_bits))
    real = _stage_real(stage, ints.transpose(0, 2, 3, 1), act_exp,
                       _integer_accumulate, stage.planes.dtype)
    real = real.transpose(0, 3, 1, 2)
    if out_exp is None:
        return quantize_activations(real, act_bits)
    return saturating_requantize(real, out_exp, act_bits), out_exp


class IntegerEngine:
    """Runs a compressed model on images with integer accumulation.

    The model file supplies geometry and batch-norm state; the compressed
    model supplies the weights, and ``codec.pair_layers`` checks that the two
    belong together. Construction fails with
    AccumulatorOverflowError if any layer could overflow a 32-bit
    accumulator in the worst case. The same bound picks each stage's GEMM
    dtype: float32 up to 24 bits, float64 above, so the matrix products are
    exact integer sums.

    Activation scales are chosen per batch until :meth:`calibrate` freezes
    them from a calibration pass; frozen scales make later inputs saturate
    rather than rescale.
    """

    accumulate = staticmethod(_integer_accumulate)

    def __init__(self, model: ModelFile, compressed: CompressedModel, act_bits: int = 8):
        if not model.layers:
            raise ValidationError("model has no layers")
        self.act_bits = act_bits
        self.act_exps = None  # set by calibrate()
        self.stages = []
        for spec, lq in pair_layers(model, compressed):
            patch = spec.weight_count // spec.out_channels  # fh * fw * cin, or in_features
            bits = check_accumulator(lq, patch, act_bits)
            self.stages.append(_build_stage(spec, lq, bits))

    @staticmethod
    def _patch_dtype(stage: _Stage):
        return stage.planes.dtype

    def _requant(self, x: np.ndarray, point: int):
        if self.act_exps is not None:
            exp = self.act_exps[point]
            return saturating_requantize(x, exp, self.act_bits), exp
        return quantize_activations(x, self.act_bits)

    def _run(self, x: np.ndarray, record=None) -> np.ndarray:
        ints, act_exp = self._requant(x, 0)
        if ints.ndim == 4:
            ints = ints.transpose(0, 2, 3, 1)  # NHWC from here on
        if record is not None:
            record.append(act_exp)
        for i, stage in enumerate(self.stages):
            if stage.kind == KIND_DENSE and ints.ndim == 4:
                ints = global_avg_pool_int(ints.transpose(0, 3, 1, 2))
            real = _stage_real(stage, ints, act_exp, self.accumulate,
                               self._patch_dtype(stage))
            if i == len(self.stages) - 1:
                return real.transpose(0, 3, 1, 2) if real.ndim == 4 else real
            ints, act_exp = self._requant(np.maximum(real, 0.0, out=real), i + 1)
            if record is not None:
                record.append(act_exp)
        raise AssertionError("unreachable")

    def forward(self, images: np.ndarray) -> np.ndarray:
        """Logits for a batch of NCHW images (float, any real scale)."""
        x = np.asarray(images, dtype=np.float64)
        if x.ndim == 3:
            x = x[None]
        return self._run(x)

    def calibrate(self, images: np.ndarray, samples: int = 64) -> list:
        """Freeze per-layer activation exponents from a calibration batch."""
        x = np.asarray(images, dtype=np.float64)
        if x.ndim == 3:
            x = x[None]
        self.act_exps = None
        record = []
        self._run(x[:samples], record=record)
        self.act_exps = record
        return list(record)

    def predict(self, images: np.ndarray, batch_size: int = 256) -> np.ndarray:
        out = []
        for start in range(0, images.shape[0], batch_size):
            out.append(np.argmax(self.forward(images[start : start + batch_size]), axis=1))
        return np.concatenate(out)


class FloatSimulator(IntegerEngine):
    """Same pipeline, but stages run as float64 products on real weights.

    Activation quantization, pooling, BN and ReLU are shared with the integer
    engine, so any output difference is due to accumulation arithmetic alone.
    The per-weight reals are the pre-alpha decode; alpha scales each output
    sum once, mirroring the integer finalize.
    """

    accumulate = staticmethod(_float_accumulate)

    @staticmethod
    def _patch_dtype(stage: _Stage):
        return np.float64
