import sys
import threading
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fqpack.codec import CompressedModel
from fqpack.convops import im2col
from fqpack.engine import (
    ACC_BITS,
    F32_EXACT_BITS,
    FloatSimulator,
    IntegerEngine,
    QuantBN,
    accumulator_bits,
    check_accumulator,
    dot_shift_add,
    fold_bn,
    global_avg_pool_int,
    _BLOCK,
    _build_stage,
    _exponent,
    _lossless_exponent,
    _round_away,
    _stage_real,
    quantize_activations,
)
from fqpack.errors import (
    AccumulatorOverflowError,
    ValidationError,
)
from fqpack.focused_quant import (
    MODE_RECENTRALIZED,
    MODE_SHIFT,
    ZERO,
    LayerQuantization,
    QuantParams,
    decode,
    pack,
    quantize_layer,
)
from fqpack.model_store import LayerSpec, ModelFile
from fqpack.nn import Conv2d, ToyNet
from fqpack.pruner import prune_by_magnitude
from fqpack.rng import derive_seed


class NoMul(int):
    """Integer that refuses to be multiplied: proves a path is shift/add only."""

    def __mul__(self, other):
        raise AssertionError("integer path performed a multiplication")

    __rmul__ = __mul__

    def __lshift__(self, other):
        return NoMul(int(self) << other)


def shift_layer(symbols, bias=0, n_bits=5, alpha=1.0, name="w"):
    return LayerQuantization(
        name=name, mode=MODE_SHIFT, n_bits=n_bits, alpha=alpha, bias=bias,
        mu=(0.0, 0.0), sigma=1.0, symbols=np.asarray(symbols),
    )


def shift_code(sign, exponent, n_bits=5):
    """The n-bit shift-mode symbol of sign * 2^exponent (before the bias)."""
    return int(pack(0, sign, exponent, QuantParams(MODE_SHIFT, n_bits, 0)))


def rec_layer(symbols, mu, sigma, bias=0, n_bits=5, alpha=1.0, name="w"):
    return LayerQuantization(
        name=name, mode=MODE_RECENTRALIZED, n_bits=n_bits, alpha=alpha,
        bias=bias, mu=mu, sigma=sigma, symbols=np.asarray(symbols),
    )


def seventy_bit_layer():
    """Three 2^60 weights and a 1: a 70-bit bound on 4-wide patches."""
    return shift_layer([shift_code(1, 60, 8)] * 3 + [shift_code(1, 0, 8)], n_bits=8)


# --- activation quantization -----------------------------------------------------


def test_quantize_activation_example():
    values, exp = quantize_activations(np.array([1.0, -0.5, 0.25]), bits=8)
    assert exp == -6
    assert values.tolist() == [64, -32, 16]


def test_small_integers_pass_through():
    x = np.array([3.0, -7.0, 100.0])
    values, exp = quantize_activations(x, bits=8)
    assert exp == 0
    assert values.tolist() == [3, -7, 100]


def test_all_zero_input():
    values, exp = quantize_activations(np.zeros(5), bits=8)
    assert exp == 0 and not values.any()


def test_activation_argument_errors():
    with pytest.raises(ValueError):
        quantize_activations(np.array([]))
    with pytest.raises(ValueError):
        quantize_activations(np.ones(3), bits=1)
    with pytest.raises(ValidationError):
        quantize_activations(np.array([1.0, np.nan]))


def test_round_trip_bound_and_minimality():
    rng = np.random.default_rng(80)
    limit = 127
    for _ in range(200):
        scale = 2.0 ** rng.integers(-12, 12)
        x = rng.normal(scale=scale, size=64)
        values, exp = quantize_activations(x, bits=8)
        assert np.max(np.abs(values)) <= limit
        step = np.ldexp(1.0, exp)
        assert np.max(np.abs(x - np.ldexp(values.astype(float), exp))) <= step / 2
        # one exponent lower would overflow the 8-bit range
        tighter = np.floor(np.abs(x).max() * np.ldexp(1.0, -(exp - 1)) + 0.5)
        assert tighter > limit


def test_round_half_away_from_zero():
    values, exp = quantize_activations(np.array([2.5, -2.5, 100.0]), bits=8)
    assert exp == 0
    assert values.tolist() == [3, -3, 100]


def test_saturating_requantize():
    out = quantize_activations(np.array([300.0, -300.0, 1.0, 2.5]), 8, 0)[0]
    assert out.tolist() == [127, -127, 1, 3]
    halves = quantize_activations(np.array([1.25]), 8, -1)[0]
    assert halves.tolist() == [3]  # 1.25 / 0.5 = 2.5 rounds away to 3


# --- batch-norm folding ------------------------------------------------------------


def test_fold_bn_matches_direct_form():
    rng = np.random.default_rng(81)
    gamma, beta = rng.normal(1, 0.2, 4), rng.normal(0, 0.2, 4)
    mean, var = rng.normal(0, 1, 4), rng.uniform(0.5, 2.0, 4)
    g, t = fold_bn((gamma, beta, mean, var))
    x = rng.normal(size=(6, 4))
    direct = gamma * (x - mean) / np.sqrt(var + 1e-5) + beta
    assert g * x + t == pytest.approx(direct, abs=1e-12)


def test_quant_bn_precision_and_apply():
    rng = np.random.default_rng(82)
    g = rng.normal(1.0, 0.3, 8)
    t = rng.normal(0.0, 0.5, 8)
    qbn = QuantBN.from_float(g, t)
    assert qbn.scale.dtype == np.int16 and qbn.offset.dtype == np.int16
    assert np.max(np.abs(qbn.real_scale - g)) <= np.ldexp(0.5, qbn.scale_exp)
    assert np.max(np.abs(qbn.real_offset - t)) <= np.ldexp(0.5, qbn.offset_exp)
    x4 = rng.normal(size=(2, 3, 3, 8))  # NHWC: channels are the last axis
    got = qbn.apply(x4.copy())
    want = qbn.real_scale * x4 + qbn.real_offset
    assert np.array_equal(got, want)
    assert qbn.apply(x4) is x4 and np.array_equal(x4, want)  # in place


# --- reference dot product ----------------------------------------------------------


def test_dot_single_shift_weight():
    lq = shift_layer([shift_code(1, 0)], bias=0)
    acc, scale = dot_shift_add([3], lq)
    assert (acc, scale) == (3, 0)
    assert lq.alpha * acc * 2.0**scale == 3.0  # weight is exactly 1.0


def test_dot_recentralized_hand_example():
    # one weight on the plus component: value = sigma*2^0 + mu_plus = 1 + 2 = 3
    sym = (1 << 4) | (1 << 2) | 0
    lq = rec_layer([sym], mu=(-1.0, 2.0), sigma=1.0, bias=0)
    acc, scale = dot_shift_add([3], lq)
    assert acc * 2.0**scale == 9.0
    assert decode(lq.symbols, lq)[0] == 3.0


def test_dot_matches_float_oracle_exactly():
    rng = np.random.default_rng(83)
    k = 2
    choices = [ZERO]
    for m in (0, 1):
        choices.append((m << 4) | (3 << k))  # bare centers
        for s in (1, 2):
            for e in range(4):
                choices.append((m << 4) | (s << k) | e)
    for trial in range(10):
        symbols = rng.choice(choices, size=64)
        lq = rec_layer(symbols, mu=(-0.25, 0.5), sigma=0.0625, bias=3,
                       alpha=0.75)
        acts = rng.integers(-127, 128, size=64)
        acc, scale = dot_shift_add(acts.tolist(), lq)
        want = 0.75 * float(acts @ decode(lq.symbols, lq))
        assert lq.alpha * acc * 2.0**scale == want


def test_dot_is_linear_in_activations():
    rng = np.random.default_rng(84)
    symbols = [shift_code(1, 2), ZERO, shift_code(-1, 0)]
    lq = shift_layer(symbols, bias=2)
    x = rng.integers(-50, 50, size=3).tolist()
    y = rng.integers(-50, 50, size=3).tolist()
    both, d = dot_shift_add([a + b for a, b in zip(x, y)], lq)
    ax, dx = dot_shift_add(x, lq)
    ay, dy = dot_shift_add(y, lq)
    assert d == dx == dy
    assert both == ax + ay


def test_dot_positions_subselect():
    symbols = [shift_code(1, 0)] * 4
    lq = shift_layer(symbols, bias=0)
    full, _ = dot_shift_add([1, 2, 3, 4], lq)
    part, _ = dot_shift_add([2, 4], lq, positions=[1, 3])
    assert (full, part) == (10, 6)


def test_dot_length_mismatch():
    lq = shift_layer([shift_code(1, 0)], bias=0)
    with pytest.raises(ValueError):
        dot_shift_add([1, 2], lq)


def test_dot_requires_power_of_two_sigma():
    sym = (1 << 4) | (1 << 2)
    lq = rec_layer([sym], mu=(-0.25, 0.25), sigma=0.3, bias=0)
    with pytest.raises(ValueError):
        dot_shift_add([1], lq)


def test_dot_uses_no_multiplications():
    rng = np.random.default_rng(85)
    sym_choices = [ZERO, (1 << 4) | (3 << 2), (1 << 4) | (1 << 2) | 1,
                   (0 << 4) | (2 << 2) | 3]
    symbols = rng.choice(sym_choices, size=32)
    lq = rec_layer(symbols, mu=(-0.25, 0.5), sigma=0.25, bias=1)
    acts = [NoMul(int(v)) for v in rng.integers(-10, 10, size=32)]
    acc, scale = dot_shift_add(acts, lq)
    plain, _ = dot_shift_add([int(a) for a in acts], lq)
    assert int(acc) == plain


# --- accumulator bound ---------------------------------------------------------------


def test_accumulator_bits_shift_mode():
    # max exponent 3 -> per-term bound 8; 10 * 127 * 8 = 10160 needs 15 bits
    lq = shift_layer([shift_code(1, 3), shift_code(-1, 1)])
    assert accumulator_bits(lq, 10, act_bits=8) == 15


def test_accumulator_bits_all_zero_layer():
    lq = shift_layer([ZERO, ZERO])
    assert accumulator_bits(lq, 9) == 1


def test_check_accumulator_raises_on_tight_limit():
    lq = shift_layer([shift_code(1, 3)])
    assert check_accumulator(lq, 10) == accumulator_bits(lq, 10)
    with pytest.raises(AccumulatorOverflowError):
        check_accumulator(seventy_bit_layer(), 4)
    with pytest.raises(ValueError):
        accumulator_bits(lq, 0)


# --- integer pooling ----------------------------------------------------------------


def test_pool_rounds_like_reals():
    rng = np.random.default_rng(86)
    x = rng.integers(-100, 100, size=(3, 5, 4, 4))
    got = global_avg_pool_int(x)
    want = np.floor(x.sum(axis=(2, 3)) / 16.0 + 0.5).astype(np.int64)
    assert np.array_equal(got, want)


def test_pool_rejects_non_pow2_window():
    with pytest.raises(ValueError):
        global_avg_pool_int(np.zeros((1, 2, 3, 3), dtype=np.int64))


# --- single quantized conv ------------------------------------------------------------


def identity_conv_spec(channels, name="conv"):
    w = np.zeros((1, 1, channels, channels), dtype=np.float32)
    for c in range(channels):
        w[0, 0, c, c] = 1.0
    return LayerSpec(name=name, kind="conv2d", weight=w,
                     geometry=(1, 1, channels, channels, 0, 1))


def identity_conv_lq(channels, n_bits=5, name="conv"):
    symbols = np.full(channels * channels, ZERO)
    one = shift_code(1, 0, n_bits)
    for c in range(channels):
        symbols[c * channels + c] = one
    return shift_layer(symbols, bias=0, n_bits=n_bits, name=name)


def test_identity_conv_echoes_input():
    rng = np.random.default_rng(87)
    ints = rng.integers(-127, 128, size=(2, 3, 4, 4))
    ints.flat[0] = 127  # pin the extreme so the output exponent matches
    x = ints.transpose(0, 2, 3, 1)  # NHWC, as stages take them
    stage = _build_stage(identity_conv_spec(3), identity_conv_lq(3), 8)
    out, exp = quantize_activations(_stage_real(stage, x, -7, IntegerEngine.accumulate), 8)
    assert exp == -7
    assert np.array_equal(out, x)


def test_all_zero_weights_leave_bn_offset():
    channels = 3
    spec = LayerSpec(
        name="conv", kind="conv2d",
        weight=np.zeros((1, 1, channels, channels), dtype=np.float32),
        geometry=(1, 1, channels, channels, 0, 1),
        bn_params=(np.ones(channels), np.array([0.5, -0.25, 0.125]),
                   np.zeros(channels), np.ones(channels)),
    )
    lq = shift_layer(np.full(channels * channels, ZERO), name="conv")
    ints = np.random.default_rng(88).integers(-127, 128, size=(1, 3, 2, 2)).transpose(0, 2, 3, 1)
    real = _stage_real(_build_stage(spec, lq, 8), ints, -7, IntegerEngine.accumulate)
    out, exp = quantize_activations(real, 8)
    reals = np.ldexp(out.astype(float), exp)
    _, t = fold_bn(spec.bn_params)
    step = np.ldexp(1.0, exp)
    assert np.max(np.abs(reals - t)) <= step / 2  # channels last


def test_conv_within_one_lsb_of_float():
    rng = np.random.default_rng(89)
    cin = cout = 4
    weights = rng.normal(scale=0.2, size=3 * 3 * cin * cout)
    mask = prune_by_magnitude(weights, 0.5)
    lq = quantize_layer(weights, mask, 5, seed=11, name="conv", alpha=0.9)
    bn = (rng.normal(1, 0.1, cout), rng.normal(0, 0.2, cout),
          rng.normal(0, 0.5, cout), rng.uniform(0.5, 2.0, cout))
    spec = LayerSpec(name="conv", kind="conv2d",
                     weight=weights.astype(np.float32).reshape(3, 3, cin, cout),
                     geometry=(3, 3, cin, cout, 1, 1), bn_params=bn)
    ints = rng.integers(-127, 128, size=(2, cin, 8, 8)).transpose(0, 2, 3, 1)  # NHWC
    real = _stage_real(_build_stage(spec, lq, 8), ints, -7, IntegerEngine.accumulate)
    out, exp = quantize_activations(real, 8, -7)
    # independent float path: real activations, decoded real weights, real BN
    conv = Conv2d(3, 3, cin, cout, stride=1, pad=1)
    conv.w = decode(lq.symbols, lq).reshape(3, 3, cin, cout)
    g, t = fold_bn(bn)
    reals = lq.alpha * conv.forward(np.ldexp(ints.astype(float), -7)) * g + t
    want = quantize_activations(reals, 8, -7)[0]
    assert np.max(np.abs(out - want)) <= 1


# --- the full engine ------------------------------------------------------------------


def identity_model(channels=3):
    head = np.eye(channels, dtype=np.float32)
    specs = [identity_conv_spec(channels, "conv1"),
             LayerSpec(name="head", kind="dense", weight=head,
                       geometry=(channels, channels))]
    sym = np.full(channels * channels, ZERO)
    one = shift_code(1, 0)
    for c in range(channels):
        sym[c * channels + c] = one
    lqs = [identity_conv_lq(channels, name="conv1"),
           shift_layer(sym.copy(), name="head")]
    return ModelFile(specs), CompressedModel(lqs)


def test_identity_model_echoes_pooled_input():
    model, cm = identity_model()
    engine = IntegerEngine(model, cm)
    levels = np.array([0.5, 0.25, 0.75])
    x = np.broadcast_to(levels[:, None, None], (3, 4, 4)).copy()
    logits = engine.forward(x)
    assert np.array_equal(logits, levels[None, :])
    sim = FloatSimulator(model, cm)
    assert np.array_equal(sim.forward(x), levels[None, :])


def quantized_toy(seed=12, plan=((3, 8, 2), (8, 8, 2)), sparsity=0.5, layer_args=()):
    """A small ToyNet and its 5-bit container; ``layer_args[i]`` holds extra
    ``quantize_layer`` arguments for layer i."""
    net = ToyNet(seed=seed, plan=plan)
    rng = np.random.default_rng(seed + 1)
    for bn in net.bns:  # untrained stats are degenerate; give them texture
        bn.beta = rng.normal(0, 0.1, bn.channels)
        bn.running_mean = rng.normal(0, 0.05, bn.channels)
        bn.running_var = rng.uniform(0.5, 1.5, bn.channels)
    model = net.to_model_file()
    layers = []
    for i, spec in enumerate(model.layers):
        flat = np.asarray(spec.weight, dtype=np.float64).ravel()
        mask = prune_by_magnitude(flat, sparsity)
        extra = layer_args[i] if i < len(layer_args) else {}
        layers.append(quantize_layer(flat, mask, 5,
                                     seed=derive_seed(seed, spec.name),
                                     name=spec.name, **extra))
    return net, model, CompressedModel(layers)


def test_engine_agrees_with_float_simulator():
    _, model, cm = quantized_toy()
    engine = IntegerEngine(model, cm)
    sim = FloatSimulator(model, cm)
    x = np.random.default_rng(90).normal(scale=0.3, size=(300, 3, 8, 8))
    agree = float(np.mean(engine.predict(x) == sim.predict(x)))
    assert agree >= 0.99


def test_zero_input_rides_the_offset_path():
    _, model, cm = quantized_toy()
    engine = IntegerEngine(model, cm)
    logits = engine.forward(np.zeros((2, 3, 8, 8)))
    assert np.any(logits != 0.0)
    assert np.array_equal(logits[0], logits[1])


def test_calibration_freezes_exponents():
    _, model, cm = quantized_toy()
    engine = IntegerEngine(model, cm)
    x = np.random.default_rng(91).normal(scale=0.3, size=(64, 3, 8, 8))
    exps = engine.calibrate(x, samples=64)
    assert len(exps) == len(engine.stages)
    assert engine.act_exps == exps
    before = engine.forward(x[:4])
    assert np.array_equal(engine.forward(x[:4]), before)
    # larger inputs now saturate instead of changing scale
    big = engine.forward(100.0 * x[:4])
    assert np.all(np.isfinite(big))
    assert engine.calibrate(x, samples=64) == exps


def test_engine_validation_errors():
    _, model, cm = quantized_toy()
    with pytest.raises(AccumulatorOverflowError):
        IntegerEngine(*one_layer_model(seventy_bit_layer(), (4, 1)))
    extra = CompressedModel(cm.layers + [shift_layer([8], name="ghost")])
    with pytest.raises(ValidationError):
        IntegerEngine(model, extra)
    short = CompressedModel([replace(cm.layers[0], symbols=cm.layers[0].symbols[:-1])]
                            + cm.layers[1:])
    with pytest.raises(ValidationError):
        IntegerEngine(model, short)
    with pytest.raises(ValidationError, match="input has 4 channels, expected 3"):
        IntegerEngine(model, cm).forward(np.zeros((1, 4, 8, 8)))


def test_missing_layer_is_a_validation_error():
    _, model, cm = quantized_toy()
    short = CompressedModel(cm.layers[:-1])
    with pytest.raises(ValidationError, match="'head' is missing"):
        IntegerEngine(model, short)


# --- rounding -------------------------------------------------------------------------


def _round_away_reference(values):
    return np.sign(values) * np.floor(np.abs(values) + 0.5)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-2**54, 2**54).map(float),
    st.integers(-2**54, 2**54).map(lambda k: k + 0.5),  # ties, exact below 2^52
    st.sampled_from([0.0, -0.0, 0.49999999999999994, -0.49999999999999994,
                     2.0**52 + 1, -(2.0**52 + 1), 2.0**53 - 1]),
), min_size=1, max_size=40))
def test_round_away_matches_sign_floor_formula(values):
    v = np.array(values, dtype=np.float64)
    got, want = _round_away(v), _round_away_reference(v)
    # equal as reals; only the sign of a zero may differ, and every caller
    # casts the result to an integer type
    assert np.array_equal(got, want, equal_nan=True)
    finite = np.isfinite(v) & (np.abs(v) < 2.0**62)
    assert np.array_equal(got[finite].astype(np.int64), want[finite].astype(np.int64))


def test_quantize_activations_rejects_inf():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValidationError):
            quantize_activations(np.array([[1.0, bad], [0.5, 2.0]]))


# --- GEMM dtype dispatch -----------------------------------------------------------------


@st.composite
def dyadic_layers(draw, weight_count):
    """Shift or recentralized layer whose reals are exact binary fractions."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alpha = draw(st.sampled_from([0.5, 0.75, 1.0, 1.25]))
    if draw(st.booleans()):
        n_bits = draw(st.integers(3, 6))
        k = n_bits - 2
        e_top = draw(st.integers(0, 2**k - 1))
        codes = [ZERO] + [shift_code(s, e, n_bits)
                          for s in (1, -1) for e in range(e_top + 1)]
        return shift_layer(rng.choice(codes, size=weight_count),
                           bias=draw(st.integers(-2, 5)), n_bits=n_bits, alpha=alpha)
    n_bits = draw(st.integers(4, 6))
    k = n_bits - 3
    e_top = draw(st.integers(0, 2**k - 1))
    codes = [ZERO]
    for m in (0, 1):
        codes.append((m << (n_bits - 1)) | (3 << k))  # bare component centre
        codes += [(m << (n_bits - 1)) | (s << k) | e
                  for s in (1, 2) for e in range(e_top + 1)]
    mu = (draw(st.sampled_from([0.0, -0.5, -0.25, -0.125, -2.0])),
          draw(st.sampled_from([0.0, 0.125, 0.25, 1.0, 4.0])))
    return rec_layer(rng.choice(codes, size=weight_count), mu=mu,
                     sigma=draw(st.sampled_from([0.0625, 0.125, 0.25, 1.0])),
                     bias=draw(st.integers(0, 4)), n_bits=n_bits, alpha=alpha)


def one_layer_model(lq, geometry):
    """A model holding just ``lq``: dense (n_in, n_out) or conv geometry."""
    if len(geometry) == 2:
        spec = LayerSpec(name=lq.name, kind="dense",
                         weight=np.zeros(geometry, dtype=np.float32),
                         geometry=geometry)
    else:
        spec = LayerSpec(name=lq.name, kind="conv2d",
                         weight=np.zeros(geometry[:4], dtype=np.float32),
                         geometry=geometry)
    return ModelFile([spec]), CompressedModel([lq])


def shift_add_outputs(ints, lq, geometry):
    """Every output of one layer from dot_shift_add, as alpha * acc * 2^scale."""
    if len(geometry) == 2:
        n_in, n_out = geometry
        out = np.zeros((ints.shape[0], n_out))
        for b in range(ints.shape[0]):
            for o in range(n_out):
                acc, scale = dot_shift_add(ints[b].tolist(), lq, positions=[
                    i * n_out + o for i in range(n_in)])
                out[b, o] = lq.alpha * acc * 2.0**scale
        return out
    fh, fw, cin, cout, pad, stride = geometry
    n, _, ih, iw = ints.shape
    oh = (ih + 2 * pad - fh) // stride + 1
    ow = (iw + 2 * pad - fw) // stride + 1
    padded = np.pad(ints, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((n, cout, oh, ow))
    for b in range(n):
        for y in range(oh):
            for x in range(ow):
                window = padded[b, :, y * stride : y * stride + fh,
                                x * stride : x * stride + fw]
                acts = window.transpose(1, 2, 0).ravel().tolist()  # (i, j, ci)
                for co in range(cout):
                    acc, scale = dot_shift_add(acts, lq, positions=[
                        p * cout + co for p in range(fh * fw * cin)])
                    out[b, co, y, x] = lq.alpha * acc * 2.0**scale
    return out


@st.composite
def dispatch_cases(draw):
    """(layer, geometry, integer activations with |max| 127)."""
    if draw(st.booleans()):
        geometry = (draw(st.integers(1, 40)), draw(st.integers(1, 5)))
        patch, shape = geometry[0], (draw(st.integers(1, 3)), geometry[0])
    else:
        fh = fw = draw(st.sampled_from([1, 3]))
        cin, cout = draw(st.integers(1, 4)), draw(st.integers(1, 3))
        pad, stride = draw(st.integers(0, 1)), draw(st.integers(1, 2))
        geometry = (fh, fw, cin, cout, pad, stride)
        ih, iw = draw(st.integers(3, 5)), draw(st.integers(3, 5))
        patch, shape = fh * fw * cin, (draw(st.integers(1, 2)), cin, ih, iw)
    count = int(np.prod(geometry[:2] if len(geometry) == 2 else geometry[:4]))
    lq = draw(dyadic_layers(count))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ints = rng.integers(-127, 128, size=shape)
    ints.flat[0] = 127  # pins the input exponent at 0
    return lq, geometry, patch, ints


@settings(max_examples=120, deadline=None)
@given(dispatch_cases())
def test_float32_stages_equal_shift_add_sums(case):
    lq, geometry, patch, ints = case
    assume(accumulator_bits(lq, patch) <= F32_EXACT_BITS)
    engine = IntegerEngine(*one_layer_model(lq, geometry))
    assert engine.stages[0].planes.dtype == np.float32
    got = engine.forward(ints.astype(np.float64))
    assert np.array_equal(got, shift_add_outputs(ints, lq, geometry))


def test_wide_bound_builds_an_exact_float64_stage():
    # 15 weights of 2^15 against activation 127, plus 1 x 1: the sum is odd
    # and above 2^24, so a float32 GEMM would round it
    n_in = 16
    symbols = [shift_code(1, 15, 6)] * (n_in - 1) + [shift_code(1, 0, 6)]
    lq = shift_layer(symbols, bias=3, n_bits=6, alpha=0.75)
    bits = accumulator_bits(lq, n_in)
    assert F32_EXACT_BITS < bits <= ACC_BITS
    engine = IntegerEngine(*one_layer_model(lq, (n_in, 1)))
    assert engine.stages[0].planes.dtype == np.float64
    ints = np.array([[127] * (n_in - 1) + [1]])
    want = shift_add_outputs(ints, lq, (n_in, 1))
    assert np.array_equal(engine.forward(ints.astype(np.float64)), want)
    exact = 15 * 127 * 2**15 + 1
    rounded = ints.astype(np.float32) @ engine.stages[0].planes.astype(np.float32)
    assert int(rounded[0, 0]) != exact
    assert want[0, 0] == 0.75 * exact * 2.0**-3


def test_bound_above_float64_exactness_is_refused():
    # a 70-bit bound is past what float64 sums hold; the one limit, ACC_BITS, refuses it
    lq = seventy_bit_layer()
    assert accumulator_bits(lq, 4) == 70
    with pytest.raises(AccumulatorOverflowError, match=f"70 bits \\(> {ACC_BITS}\\)"):
        IntegerEngine(*one_layer_model(lq, (4, 1)))


# --- one requantizer, one plane derivation ------------------------------------------------


def _old_quantize_activations(x, bits=8):
    """The lossless-exponent requantizer before the merge, kept as an oracle."""
    x = np.asarray(x, dtype=np.float64)
    limit = (1 << (bits - 1)) - 1
    max_abs = float(np.max(np.abs(x)))
    s = 0
    if max_abs != 0.0:
        q = limit.bit_length()
        mant, exp = np.frexp(max_abs)
        s = int(exp) - q
        if np.floor(float(mant) * (1 << q) + 0.5) > limit:
            s += 1
    return _round_away(np.ldexp(x, -s)).astype(np.int64), s


def _old_saturating_requantize(x, exponent, bits=8):
    """The frozen-exponent requantizer before the merge, kept as an oracle."""
    limit = (1 << (bits - 1)) - 1
    ints = _round_away(np.ldexp(np.asarray(x, dtype=np.float64), -exponent))
    return np.clip(ints, -limit, limit).astype(np.int64)


@settings(max_examples=400, deadline=None)
@given(bits=st.integers(2, 16), frozen=st.one_of(st.none(), st.integers(-40, 40)),
       values=st.lists(st.one_of(
           st.floats(-1e9, 1e9),
           st.tuples(st.integers(-2**20, 2**20), st.integers(-40, 20)).map(
               lambda t: float(np.ldexp(t[0] + 0.5, t[1]))),  # exact ties
           st.sampled_from([0.0, -0.0]),
       ), min_size=1, max_size=30))
def test_one_requantizer_matches_the_two_it_replaced(bits, frozen, values):
    x = np.array(values)
    got, exp = quantize_activations(x, bits, frozen)
    if frozen is None:
        want, want_exp = _old_quantize_activations(x, bits)
    else:
        want, want_exp = _old_saturating_requantize(x, frozen, bits), frozen
    assert exp == want_exp
    assert got.dtype == np.float32 and np.array_equal(got, want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_calibrated_engine_refuses_non_finite_images(bad):
    _, model, cm = quantized_toy()
    engine = IntegerEngine(model, cm)
    x = np.random.default_rng(92).normal(scale=0.3, size=(8, 3, 8, 8))
    engine.calibrate(x)
    x[3, 1, 2, 2] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        engine.forward(x)


def _old_accumulator_bits(lq, patch_size, act_bits=8):
    """The bound decoded from the symbols before it read the planes, as an oracle."""
    xmax = (1 << (act_bits - 1)) - 1
    if lq.mode == MODE_RECENTRALIZED:
        k = lq.exponent_bits
        field = (lq.symbols >> k) & 3
        deviation = (field == 1) | (field == 2)
        has_dev = bool(np.any(deviation))
        e_max = int((lq.symbols[deviation] & ((1 << k) - 1)).max()) if has_dev else 0
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


def _every_centre_assigned(lq):
    if lq.mode != MODE_RECENTRALIZED:
        return True
    component = lq.symbols >> (lq.exponent_bits + 2)
    return all(c in component[lq.symbols != ZERO] for c, mu in enumerate(lq.mu) if mu != 0.0)


@settings(max_examples=300, deadline=None)
@given(lq=st.integers(1, 80).flatmap(dyadic_layers), patch=st.integers(1, 600),
       act_bits=st.integers(2, 16))
def test_plane_bound_matches_the_symbol_bound(lq, patch, act_bits):
    new, old = accumulator_bits(lq, patch, act_bits), _old_accumulator_bits(lq, patch, act_bits)
    # a centre no weight is assigned to adds nothing to any sum, and only
    # the symbol bound counted it
    assert new == old if _every_centre_assigned(lq) else new <= old


# --- per-sample exponents: batch invariance -------------------------------------------


@settings(max_examples=300, deadline=None)
@given(bits=st.integers(2, 16), x=st.integers(1, 6).flatmap(lambda m: st.lists(
    st.lists(st.one_of(st.floats(-1e9, 1e9),
                       st.integers(-2**20, 2**20).map(lambda k: k + 0.5),  # ties
                       st.sampled_from([0.0, -0.0])),
             min_size=m, max_size=m),
    min_size=1, max_size=8)).map(np.array))
def test_per_sample_exponents_match_row_by_row(bits, x):
    exps = _lossless_exponent(x, bits, 1)
    got, got_exps = quantize_activations(x, bits, exps)
    assert got.dtype == np.float32 and got_exps is exps and exps.dtype == np.intc
    for i, row in enumerate(x):
        want, exp = quantize_activations(row, bits)
        assert exp == exps[i] and np.array_equal(got[i], want)
    # the batch-wide exponent is the largest of the samples' own; an all-zero
    # sample reports 0 and has no say
    some = np.any(x != 0, axis=1)
    want = int(np.max(exps[some])) if some.any() else 0
    assert quantize_activations(x, bits)[1] == want


@lru_cache(maxsize=None)
def toy_pair():
    return quantized_toy()[1:]


def scaled_batch(rng, n):
    """n images whose scales differ by powers of two, so their exponents differ."""
    scales = np.ldexp(1.0, rng.integers(-6, 4, size=n))[:, None, None, None]
    return rng.normal(size=(n, 3, 8, 8)) * scales


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 9), batch_size=st.integers(1, 9),
       seed=st.integers(0, 2**32 - 1), calibrated=st.booleans())
def test_forward_does_not_depend_on_the_batch(n, batch_size, seed, calibrated):
    engine = IntegerEngine(*toy_pair())
    rng = np.random.default_rng(seed)
    x = scaled_batch(rng, n)
    if calibrated:
        engine.calibrate(scaled_batch(rng, 8))
    logits = engine.forward(x)
    for i in range(n):
        assert np.array_equal(engine.forward(x[i : i + 1])[0], logits[i])
    assert np.array_equal(engine.predict(x, batch_size=batch_size), np.argmax(logits, axis=1))


def _batchwide_run(engine, x, frozen=None):
    """The engine's pass before per-sample exponents, kept as an oracle: one
    exponent per batch at every point (or the frozen ones), int64
    activations. Returns (logits, exponents)."""
    def requant(values, point):
        ints, exp = quantize_activations(values, engine.act_bits,
                                         None if frozen is None else frozen[point])
        return ints.astype(np.int64), exp

    ints, exp = requant(x, 0)
    ints, record = ints.transpose(0, 2, 3, 1), [exp]
    for i, stage in enumerate(engine.stages):
        if stage.kind == "dense" and ints.ndim == 4:
            ints = global_avg_pool_int(ints.transpose(0, 3, 1, 2))
        real = _stage_real(stage, ints, exp, engine.accumulate)
        if i == len(engine.stages) - 1:
            return real, record
        ints, exp = requant(np.maximum(real, 0.0), i + 1)
        record.append(exp)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
def test_calibration_keeps_the_batchwide_exponents(n, seed):
    engine = IntegerEngine(*toy_pair())
    x = scaled_batch(np.random.default_rng(seed), n)
    assert engine.calibrate(x) == _batchwide_run(engine, x)[1]


def test_calibrated_inference_is_unchanged():
    engine = IntegerEngine(*toy_pair())
    rng = np.random.default_rng(93)
    frozen = engine.calibrate(scaled_batch(rng, 64))
    # a batch beyond the calibrated range saturates, as before
    x = np.concatenate([scaled_batch(rng, 12), 64.0 * scaled_batch(rng, 4)])
    assert np.array_equal(engine.forward(x), _batchwide_run(engine, x, frozen)[0])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 2 * _BLOCK + 3), batch_size=st.integers(1, 2 * _BLOCK + 3),
       seed=st.integers(0, 2**32 - 1), engine_type=st.sampled_from([IntegerEngine, FloatSimulator]),
       calibrated=st.booleans())
def test_batches_across_blocks_match_sample_by_sample(n, batch_size, seed, engine_type,
                                                      calibrated):
    engine = engine_type(*toy_pair())
    rng = np.random.default_rng(seed)
    x = scaled_batch(rng, n)
    if calibrated:
        engine.calibrate(scaled_batch(rng, 8))
    logits = engine.forward(x)
    for i in range(n):
        assert np.array_equal(engine.forward(x[i : i + 1])[0], logits[i])
    assert np.array_equal(engine.predict(x, batch_size=batch_size), np.argmax(logits, axis=1))


@pytest.mark.parametrize("n", [1, _BLOCK, _BLOCK + 5])
def test_logits_outlive_the_next_forward(n):
    engine = IntegerEngine(*toy_pair())
    rng = np.random.default_rng(94)
    x, other = scaled_batch(rng, n), scaled_batch(rng, n)
    logits = engine.forward(x)
    kept = logits.copy()
    again = engine.forward(other)
    assert not np.shares_memory(logits, again)
    assert np.array_equal(logits, kept)


# --- the stage loop: post-ReLU exponent, two-pass rounding, folded scaling ------------


def _reference_stage_loop(engine, x):
    """The stage loop in straight lines, kept as an oracle for the engine's
    exponents, rounding and scaling: every stage input gets
    ``_lossless_exponent`` from each sample's max and min and the three-pass
    ``_round_away``, and each sum is multiplied by alpha, then by 2^e, as two
    roundings."""
    real = x.transpose(0, 2, 3, 1)
    for i, stage in enumerate(engine.stages):
        if i:
            real = np.maximum(real, 0.0)
        n, axes = len(real), tuple(range(1, real.ndim))
        exps = _lossless_exponent(real, engine.act_bits, axes)
        ints = _round_away(np.ldexp(real, -exps.reshape((-1,) + (1,) * len(axes))))
        if stage.kind == "dense" and ints.ndim == 4:
            ints = global_avg_pool_int(ints.transpose(0, 3, 1, 2))
        cout = stage.w_pre.shape[1]
        if stage.kind == "conv2d":
            fh, fw, _, _, pad, stride = stage.geometry
            cols = im2col(ints.astype(stage.planes.dtype), fh, fw, stride, pad)
            out_shape = (n, -1, cout)
        else:
            cols, out_shape = ints.astype(stage.planes.dtype), (n, 1, cout)
        if isinstance(engine, FloatSimulator):
            sums = cols.astype(np.float64) @ stage.w_pre
        else:
            acc = cols @ stage.planes
            centres = acc.shape[1] > cout  # deviation and centre columns alternate
            dev = acc[:, 0::2] if centres else acc
            sums = np.multiply(dev, stage.scale_dev, dtype=np.float64)
            if centres:
                sums += np.multiply(acc[:, 1::2], stage.scale_cen, dtype=np.float64)
        sums *= stage.alpha
        sums = np.ldexp(sums.reshape(out_shape), exps.reshape(-1, 1, 1))
        if stage.qbn is not None:
            sums *= stage.qbn.real_scale
            sums += stage.qbn.real_offset
        if stage.kind == "conv2d":
            fh, fw, _, _, pad, stride = stage.geometry
            oh = (real.shape[1] + 2 * pad - fh) // stride + 1
            ow = (real.shape[2] + 2 * pad - fw) // stride + 1
            real = sums.reshape(n, oh, ow, cout)
        else:
            real = sums.reshape(n, cout)
    return real


KINDS = ("scaled", "zero", "negative", "negative_zeros", "ties")


def varied_batch(rng, kinds):
    """One image per kind: power-of-two scaled normal noise, all zeros,
    negative only, -0.0 pixels in noise, or integers and halves under a
    pinned 127, so the first grid is 2^0 and the halves are rounding ties."""
    x = scaled_batch(rng, len(kinds))
    for i, kind in enumerate(kinds):
        if kind == "zero":
            x[i] = 0.0
        elif kind == "negative":
            x[i] = -np.abs(x[i])
        elif kind == "negative_zeros":
            x[i][rng.random(x[i].shape) < 0.3] = -0.0
        elif kind == "ties":
            x[i] = rng.integers(-127, 127, x[i].shape) + rng.choice([0.0, 0.5], x[i].shape)
            x[i].flat[0] = 127.0
    return x


@lru_cache(maxsize=None)
def varied_pair():
    """The toy with a shift layer between recentralized ones and alphas other
    than 1, so that a scaling that drops or misplaces alpha shows."""
    return quantized_toy(layer_args=({"alpha": 0.9, "w_sep": 0.0}, {"alpha": 0.7, "w_sep": 1e3},
                                     {"alpha": 1.3, "w_sep": 0.0}))[1:]


@lru_cache(maxsize=None)
def dense_first_pair():
    """Two dense layers and no conv: images are pooled at the network input."""
    rng = np.random.default_rng(97)
    specs, layers = [], []
    for name, shape, alpha in (("fc1", (3, 6), 0.9), ("head", (6, 4), 1.3)):
        w = rng.normal(scale=0.5, size=shape)
        specs.append(LayerSpec(name=name, kind="dense", weight=w.astype(np.float32),
                               geometry=shape))
        layers.append(quantize_layer(w.ravel(), prune_by_magnitude(w.ravel(), 0.3), 5,
                                     seed=derive_seed(97, name), name=name, alpha=alpha))
    return ModelFile(specs), CompressedModel(layers)


@settings(max_examples=30, deadline=None)
@given(kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=2 * _BLOCK + 3),
       seed=st.integers(0, 2**32 - 1),
       engine_type=st.sampled_from([IntegerEngine, FloatSimulator]),
       pair=st.sampled_from([varied_pair, dense_first_pair]))
def test_forward_bytes_equal_the_reference_stage_loop(kinds, seed, engine_type, pair):
    engine = engine_type(*pair())
    x = varied_batch(np.random.default_rng(seed), kinds)
    images = x.tobytes()
    assert engine.forward(x).tobytes() == _reference_stage_loop(engine, x).tobytes()
    assert x.tobytes() == images  # the caller's images are left as they were


def _limit_peaks(bits):
    """(2^(bits-1) - 0.5) * 2^k, where the exponent steps, and the floats next
    to it: every k whose step falls between subnormals, and a sample above."""
    k = np.concatenate([np.arange(-1074 - bits, -1070), np.arange(-1070, 1000, 37)])
    at = np.ldexp(float((1 << bits) - 1), k - 1)
    at = at[at > 0]
    return np.concatenate([at, np.nextafter(at, 0.0), np.nextafter(at, np.inf)])


@settings(max_examples=200, deadline=None)
@given(bits=st.integers(2, 16), data=st.data())
def test_post_relu_exponent_matches_the_lossless_one(bits, data):
    special = st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308,
                               1.7976931348623157e308, *_limit_peaks(bits)])
    value = st.one_of(st.floats(0.0, allow_nan=False, allow_infinity=False), special)
    rows = np.array(data.draw(st.integers(1, 6).flatmap(lambda m: st.lists(
        st.one_of(st.lists(value, min_size=m, max_size=m),
                  st.just([0.0] * m), st.just([-0.0] * m)),
        min_size=1, max_size=8))))
    got = _exponent(rows.max(axis=1, keepdims=True), bits)  # as the engine takes it after ReLU
    assert got.dtype == np.intc
    assert np.array_equal(got[:, 0], _lossless_exponent(rows, bits, 1))
    assert got[:, 0].tolist() == [_old_quantize_activations(row, bits)[1] for row in rows]


@pytest.mark.parametrize("bits", range(2, 17))
def test_exponent_steps_where_the_frexp_formula_steps(bits):
    peaks = np.concatenate([[0.0, -0.0, 5e-324, 1.7976931348623157e308], _limit_peaks(bits)])
    want = [_old_quantize_activations(np.array([peak]), bits)[1] for peak in peaks]
    assert _exponent(peaks, bits).tolist() == want


@pytest.mark.parametrize("n", [1, 37])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_uncalibrated_forward_refuses_non_finite_images(n, bad):
    engine = IntegerEngine(*toy_pair())
    x = scaled_batch(np.random.default_rng(95), n)
    x[n - 1, 2, 3, 4] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        engine.forward(x)


def test_concurrent_forwards_of_two_input_sizes_keep_their_logits():
    # the engine keeps the plan of the last input size it saw; calls on
    # other threads with another size must still each use their own
    engine = IntegerEngine(*toy_pair())
    rng = np.random.default_rng(96)
    batches = [scaled_batch(rng, 3), rng.normal(size=(3, 3, 16, 16))]
    want = [engine.forward(x) for x in batches]
    failures = []

    def worker(k):
        for _ in range(40):
            try:
                same = np.array_equal(engine.forward(batches[k % 2]), want[k % 2])
            except Exception as error:  # a thread's exception would not fail the test
                same = error
            if same is not True:
                failures.append(same)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []


# --- geometry a model file may hold but the engine cannot run ---------------------------


def test_plan_refuses_a_pool_window_that_is_not_a_power_of_two():
    model, cm = identity_model()
    for engine in (IntegerEngine(model, cm), FloatSimulator(model, cm)):
        with pytest.raises(ValidationError,
                           match="stage 'head': pool window 3x3 is not a power-of-two area"):
            engine.forward(np.zeros((3, 3, 3)))


def test_plan_refuses_a_border_wider_than_the_kernel():
    # a pad past the kernel's size only adds outputs that see the border alone,
    # and a mutated pad of millions would ask for an input of that size
    model, cm = identity_model()
    conv1 = replace(model.layers[0], geometry=(1, 1, 3, 3, 2, 1))
    engine = IntegerEngine(ModelFile([conv1, model.layers[1]]), cm)
    with pytest.raises(ValidationError, match="stage 'conv1': pad 2 must not pass its 1x1 kernel"):
        engine.forward(np.zeros((3, 4, 4)))


def test_plan_refuses_a_kernel_that_does_not_fit_its_input():
    _, model, cm = quantized_toy()
    first = model.layers[0]
    narrow = replace(first, geometry=first.geometry[:4] + (0, first.geometry[5]))
    engine = IntegerEngine(ModelFile([narrow] + model.layers[1:]), cm)
    with pytest.raises(ValidationError, match="which must fit its 2x2 input"):
        engine.forward(np.zeros((3, 2, 2)))
