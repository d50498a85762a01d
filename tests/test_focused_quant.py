import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fqpack.errors import DegenerateInputError
from fqpack.focused_quant import (
    MIN_BITS_RECENTRALIZED,
    MIN_BITS_SHIFT,
    MODE_RECENTRALIZED,
    MODE_SHIFT,
    ZERO,
    LayerQuantization,
    QuantParams,
    choose_mode,
    decode,
    _recentralized_params,
    dequantize_layer,
    fit_params,
    kl_complexity_cost,
    pack,
    quantize_layer,
    quantize_with,
    round_hyperparams,
    round_log2,
    unpack,
)
from fqpack.mixture import (
    MINUS,
    PLUS,
    MixtureModel,
    fit_em,
    responsibilities_array,
    sample_assignments,
)
from fqpack.pruner import prune_by_magnitude


def nearest_on_grid(values, k, b):
    """Enumeration nearest-value lookup, ties toward smaller magnitude."""
    mags = 2.0 ** (np.arange(2**k) - b)
    alphabet = np.array(sorted(np.concatenate(([0.0], mags, -mags)), key=abs))
    dist = np.abs(np.asarray(values)[:, None] - alphabet[None, :])
    return alphabet[np.argmin(dist, axis=1)]


def bimodal_layer(rng, n=1000, mu=(-0.28, 0.22), sigma=(0.04, 0.05)):
    pick = rng.random(n) < 0.5
    return np.where(pick, rng.normal(mu[0], sigma[0], n),
                    rng.normal(mu[1], sigma[1], n))


# --- mode choice ---------------------------------------------------------------


def _model(mu, sigma, lam=(0.5, 0.5)):
    return MixtureModel(np.asarray(mu, float), np.asarray(sigma, float),
                        np.asarray(lam, float))


def test_identical_components_choose_shift():
    model = _model((0.1, 0.1), (0.05, 0.05))
    assert choose_mode(model, 0.01, 2.0) == MODE_SHIFT


def test_boundary_chooses_recentralized():
    # W == 2.0 exactly: mu gap 0.2, equal sigmas, total variance 0.02
    model = _model((-0.1, 0.1), (0.03, 0.03))
    assert choose_mode(model, 0.02, 2.0) == MODE_RECENTRALIZED


def test_separated_components_choose_recentralized():
    # W = 3.1 via mu gap sqrt(0.031): ((dmu)^2 + 0)/0.01 = 3.1
    gap = float(np.sqrt(0.031))
    model = _model((-gap / 2, gap / 2), (0.02, 0.02))
    assert choose_mode(model, 0.01, 2.0) == MODE_RECENTRALIZED


def test_mode_is_scale_free():
    rng = np.random.default_rng(40)
    values = bimodal_layer(rng)
    for scale in (0.125, 1.0, 32.0):
        scaled = values * scale
        model = fit_em(scaled)
        mode = choose_mode(model, float(scaled.var()), 2.0)
        assert mode == choose_mode(fit_em(values), float(values.var()), 2.0)


# --- hyperparameter rounding -----------------------------------------------------


def test_round_log2_examples():
    assert round_log2(0.09) == -3  # log2(0.09) = -3.47 rounds to -3
    assert 2.0 ** round_log2(0.09) == 0.125
    assert round_log2(0.125) == -3
    assert round_log2(1.0) == 0
    with pytest.raises(ValueError):
        round_log2(0.0)


def test_round_hyperparams_examples():
    model = _model((-0.125, 0.09), (0.04, 0.06))
    rounded = round_hyperparams(model)
    assert rounded.mu[MINUS] == -0.125  # already a power of two
    assert rounded.mu[PLUS] == 0.125
    assert rounded.sigma[MINUS] == rounded.sigma[PLUS] == pytest.approx(0.05)


def test_round_hyperparams_keeps_zero_mean():
    rounded = round_hyperparams(_model((0.0, 0.25), (0.1, 0.1)))
    assert rounded.mu[MINUS] == 0.0


def test_log_tie_rounds_to_smaller_exponent():
    # sqrt(0.5) is the log-space midpoint between 2^-1 and 2^0
    assert round_log2(float(np.sqrt(0.5))) == -1


# --- recentralized quantization --------------------------------------------------


def _assignment(component):
    return np.asarray(component, dtype=np.uint8)


def test_weight_at_component_center():
    weights = np.array([0.25, -0.5, 0.03125])
    keep = np.ones(3, dtype=bool)
    model = _model((-0.5, 0.25), (0.05, 0.05))
    params = _recentralized_params(weights, model, _assignment([1, 0, 1]), 5, 0.0)
    lq = quantize_with(weights, keep, params, alpha=1.5)
    # first weight sits exactly on mu_plus: center symbol, deviation 0
    k = lq.n_bits - 3
    assert lq.symbols[0] == (1 << (lq.n_bits - 1)) | (3 << k)
    assert dequantize_layer(lq)[0] == pytest.approx(1.5 * 0.25)
    assert dequantize_layer(lq)[1] == pytest.approx(1.5 * -0.5)


def test_pruned_positions_are_zero():
    rng = np.random.default_rng(41)
    weights = bimodal_layer(rng, n=200)
    keep = prune_by_magnitude(weights, 0.4)
    lq = quantize_layer(weights, keep, 5, seed=3)
    assert np.all(lq.symbols[~keep] == ZERO)
    assert np.all(dequantize_layer(lq)[~keep] == 0.0)
    assert lq.zero_fraction >= 0.4


def straight_line_oracle(flat, keep, component, rounded, n_bits, alpha):
    """Independent per-weight evaluation of recentralized quantization."""
    sigma = float(np.float32(rounded.sigma[MINUS]))
    mu = rounded.mu[component]
    z = (flat[keep] - mu) / sigma
    # brute-force the bias bound over the normalized pool
    k = n_bits - 3
    best = None
    for b in range(-32, 33):
        nonzero = np.abs(z[z != 0])
        frac = np.mean(nonzero > 2.0 ** (2**k - 1 - b)) if nonzero.size else 0.0
        if frac <= 1.0 / (2**k + 1):
            best = b
    bias = -32 if best is None else best
    q = nearest_on_grid(z, k, bias)
    out = np.zeros(flat.size)
    out[keep] = alpha * (sigma * q + mu)
    return out, bias


def test_matches_straight_line_oracle():
    rng = np.random.default_rng(42)
    for trial in range(5):
        weights = bimodal_layer(rng, n=800)
        keep = prune_by_magnitude(weights, 0.5)
        model = round_hyperparams(fit_em(weights[keep]))
        assign = sample_assignments(
            responsibilities_array(model, weights[keep])[:, PLUS], seed=trial)
        params = _recentralized_params(weights[keep], model, assign, 5, 0.0)
        lq = quantize_with(weights, keep, params, alpha=0.75)
        expected, bias = straight_line_oracle(weights, keep, assign, model, 5, 0.75)
        assert lq.bias == bias
        assert np.array_equal(dequantize_layer(lq), expected)


def test_recentralized_requires_rounded_model():
    weights = np.array([0.1, 0.2, 0.3, -0.1])
    unrounded = _model((-0.09, 0.22), (0.05, 0.04))
    with pytest.raises(ValueError):
        _recentralized_params(weights, unrounded, _assignment([0, 1, 1, 0]), 5, 0.0)
    unshared = _model((-0.125, 0.25), (0.05, 0.04))
    with pytest.raises(ValueError):
        _recentralized_params(weights, unshared, _assignment([0, 1, 1, 0]), 5, 0.0)


def test_recentralized_needs_four_bits():
    weights = np.array([0.1, 0.2])
    model = round_hyperparams(_model((-0.125, 0.25), (0.05, 0.05)))
    with pytest.raises(ValueError):
        _recentralized_params(weights, model, _assignment([0, 1]), 3, 0.0)


# --- shift-mode layer --------------------------------------------------------------


def test_on_grid_weights_are_exact():
    weights = np.array([0.5, -0.25, 0.125, -0.0625, 0.0])
    params = fit_params(weights, 5, 0.0, 0, mode=MODE_SHIFT)
    lq = quantize_with(weights, np.ones(5, dtype=bool), params)
    assert np.array_equal(dequantize_layer(lq), weights)


def test_shift_layer_matches_enumeration():
    rng = np.random.default_rng(43)
    weights = rng.normal(scale=0.2, size=1000)
    keep = prune_by_magnitude(weights, 0.3)
    params = fit_params(weights[keep], 5, 0.0, 0, mode=MODE_SHIFT)
    lq = quantize_with(weights, keep, params)
    expected = np.zeros(weights.size)
    expected[keep] = nearest_on_grid(weights[keep], lq.exponent_bits, lq.bias)
    assert np.array_equal(decode(lq.symbols, lq), expected)


def test_all_pruned_is_degenerate():
    weights = np.array([1.0, 2.0])
    with pytest.raises(DegenerateInputError):
        quantize_layer(weights, np.zeros(2, dtype=bool), 5)


def test_shift_needs_three_bits():
    with pytest.raises(ValueError):
        quantize_layer(np.array([0.1, 0.2]), np.ones(2, dtype=bool), 2)


def test_keep_mask_must_be_bool_over_every_weight():
    weights = np.array([0.1, -0.2, 0.3, -0.4])
    with pytest.raises(ValueError, match="keep mask"):
        quantize_layer(weights, np.array([1, 2, 1, 1], dtype=np.uint8), 5)
    with pytest.raises(ValueError, match="keep mask"):
        quantize_layer(weights, np.ones(3, dtype=bool), 5)


# --- symbol packing / validation ------------------------------------------------


def test_fq_pack_unpack_round_trip():
    n_bits = 5
    k = n_bits - 3
    params = QuantParams(MODE_RECENTRALIZED, n_bits, 0)
    comps, signs, exps = [], [], []
    symbols = []
    for m in (0, 1):
        for s_code, sign in ((1, 1), (2, -1)):
            for e in range(2**k):
                symbols.append((m << 4) | (s_code << k) | e)
                comps.append(m), signs.append(sign), exps.append(e)
    symbols = np.array(symbols)
    component, sign, exponent = unpack(symbols, params)
    assert component.tolist() == comps
    assert sign.tolist() == signs
    assert exponent.tolist() == exps
    assert np.array_equal(pack(comps, signs, exps, params), symbols)
    assert np.all(symbols < 2**n_bits)


def test_fq_pack_reserves_zero_for_pruned():
    rec = QuantParams(MODE_RECENTRALIZED, 5, 0)
    packed = pack(np.array([0, 1]), np.array([0, 0]), np.array([0, 0]), rec)
    assert packed.tolist() == [3 << 2, (1 << 4) | (3 << 2)]  # centres, not pruned markers
    assert [f.tolist() for f in unpack(np.array([ZERO]), rec)] == [[0], [0], [0]]
    assert pack(0, 0, 0, QuantParams(MODE_SHIFT, 5, 0)) == ZERO  # no centre code in shift mode


@st.composite
def triples(draw):
    """(params, component, sign, exponent) of valid weights of one layer."""
    mode = draw(st.sampled_from([MODE_SHIFT, MODE_RECENTRALIZED]))
    n_bits = draw(st.integers(MIN_BITS_SHIFT if mode == MODE_SHIFT else MIN_BITS_RECENTRALIZED, 8))
    params = QuantParams(mode, n_bits, 0)
    count = draw(st.integers(1, 40))
    top = 1 if mode == MODE_RECENTRALIZED else 0
    component = draw(st.lists(st.integers(0, top), min_size=count, max_size=count))
    sign = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=count, max_size=count))
    exponent = [0 if s == 0 else draw(st.integers(0, (1 << params.exponent_bits) - 1))
                for s in sign]
    return params, component, sign, exponent


@settings(max_examples=300, deadline=None)
@given(triples())
def test_pack_then_unpack_round_trips_every_valid_triple(case):
    params, component, sign, exponent = case
    symbols = pack(component, sign, exponent, params)
    assert np.all((symbols >= 0) & (symbols < 1 << params.n_bits))
    LayerQuantization(name="l", mode=params.mode, n_bits=params.n_bits, alpha=1.0, bias=0,
                      mu=(0.0, 0.0), sigma=1.0, symbols=symbols)  # all valid
    got = [f.tolist() for f in unpack(symbols, params)]
    assert got == [list(component), list(sign), list(exponent)]
    # a zero deviation is ZERO in shift mode and a centre, never ZERO, when recentralized
    zero_dev = np.array(sign) == 0
    assert np.all((symbols[zero_dev] == ZERO) == (params.mode == MODE_SHIFT))


@pytest.mark.parametrize("mode, n_bits", [(MODE_SHIFT, b) for b in range(3, 9)]
                         + [(MODE_RECENTRALIZED, b) for b in range(4, 9)])
def test_every_pack_of_a_layout_round_trips(mode, n_bits):
    params = QuantParams(mode, n_bits, 0)
    components = range(2 if mode == MODE_RECENTRALIZED else 1)
    grid = [(m, s, e) for m in components for s in (-1, 1) for e in range(1 << params.exponent_bits)]
    grid += [(m, 0, 0) for m in components]
    component, sign, exponent = (list(f) for f in zip(*grid))
    symbols = pack(component, sign, exponent, params)
    assert [f.tolist() for f in unpack(symbols, params)] == [component, sign, exponent]
    # distinct triples, distinct symbols: shift's zero deviation is ZERO, the rest are not
    assert np.unique(symbols).size == len(grid)


def table_value(symbol, mode, n_bits, bias, mu, sigma):
    """A symbol's pre-alpha value read off the module docstring's table with
    integer division, or None for a code the table does not list."""
    k = n_bits - (3 if mode == MODE_RECENTRALIZED else 2)
    if symbol == 0:
        return 0.0
    m, rest = divmod(symbol, 2 ** (k + 2))
    field, e = divmod(rest, 2**k)
    if mode == MODE_SHIFT and m != 0:
        return None
    if field == 1:
        return sigma * 2.0 ** (e - bias) + mu[m]
    if field == 2:
        return -sigma * 2.0 ** (e - bias) + mu[m]
    if field == 3 and e == 0 and mode == MODE_RECENTRALIZED:
        return mu[m]
    return None


@pytest.mark.parametrize("mode, n_bits", [(MODE_SHIFT, b) for b in range(3, 9)]
                         + [(MODE_RECENTRALIZED, b) for b in range(4, 9)])
def test_decode_of_every_symbol_matches_the_table(mode, n_bits):
    bias = 3
    mu, sigma = ((-0.25, 0.5), 0.375) if mode == MODE_RECENTRALIZED else ((0.0, 0.0), 1.0)
    want = {sym: table_value(sym, mode, n_bits, bias, mu, sigma) for sym in range(1 << n_bits)}
    listed = [sym for sym, value in want.items() if value is not None]
    # ZERO, then per component two signs of 2^k exponents, and a centre if recentralized
    if mode == MODE_RECENTRALIZED:
        assert len(listed) == 1 + 2 * (2 * 2 ** (n_bits - 3) + 1)
    else:
        assert len(listed) == 1 + 2 * 2 ** (n_bits - 2)
    lq = LayerQuantization(name="l", mode=mode, n_bits=n_bits, alpha=1.0, bias=bias,
                           mu=mu, sigma=sigma, symbols=np.array(listed))
    assert decode(lq.symbols, lq).tolist() == [want[sym] for sym in listed]


def per_symbol_decode(symbols, params):
    """The stream form of decode: the arithmetic run on every symbol."""
    component, sign, exponent = unpack(symbols, params)
    values = sign * np.ldexp(params.sigma, exponent - params.bias)
    values += np.array(params.mu)[component]
    values[np.asarray(symbols) == ZERO] = 0.0
    return values


def _pow2_or_zero():
    return st.one_of(st.just(0.0), st.builds(lambda s, e: s * 2.0**e, st.sampled_from((-1.0, 1.0)),
                                             st.integers(-30, 10)))


@settings(max_examples=30, deadline=None)
@given(st.floats(1e-30, 1e6), st.integers(-32, 32), _pow2_or_zero(), _pow2_or_zero(),
       st.floats(-1e3, 1e3, allow_nan=False), st.integers(0, 2**32 - 1))
def test_table_decode_is_bit_identical_to_per_symbol_arithmetic(sigma, bias, mu_minus, mu_plus,
                                                                alpha, seed):
    for mode, n_bits in [(MODE_SHIFT, b) for b in range(3, 9)] + [
            (MODE_RECENTRALIZED, b) for b in range(4, 9)]:
        mu, sig = ((mu_minus, mu_plus), sigma) if mode == MODE_RECENTRALIZED else ((0.0, 0.0), 1.0)
        valid = [sym for sym in range(1 << n_bits)
                 if table_value(sym, mode, n_bits, bias, mu, sig) is not None]
        # every valid symbol, then a shuffled stream of them with repeats
        stream = np.r_[valid, np.random.default_rng(seed).choice(valid, size=500)]
        lq = LayerQuantization(name="l", mode=mode, n_bits=n_bits, alpha=alpha, bias=bias,
                               mu=mu, sigma=sig, symbols=stream)
        want = per_symbol_decode(lq.symbols, lq)
        got = decode(lq.symbols, lq)
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        scaled = lq.alpha * want
        assert np.array_equal(dequantize_layer(lq).view(np.int64), scaled.view(np.int64))


@pytest.mark.parametrize("mode, n_bits", [(MODE_SHIFT, b) for b in range(3, 9)]
                         + [(MODE_RECENTRALIZED, b) for b in range(4, 9)])
def test_layer_refuses_every_symbol_the_table_does_not_list(mode, n_bits):
    mu, sigma = ((-0.25, 0.5), 0.375) if mode == MODE_RECENTRALIZED else ((0.0, 0.0), 1.0)
    unlisted = [sym for sym in range(1 << n_bits)
                if table_value(sym, mode, n_bits, 0, mu, sigma) is None]
    assert unlisted  # e.g. sign field 0 with a nonzero exponent
    for sym in unlisted:
        with pytest.raises(ValueError, match=f"symbol {sym} has sign field"):
            LayerQuantization(name="l", mode=mode, n_bits=n_bits, alpha=1.0, bias=0,
                              mu=mu, sigma=sigma, symbols=np.array([0, sym]))


def test_layer_validation_errors():
    good = dict(name="l", mode=MODE_SHIFT, n_bits=5, alpha=1.0, bias=0,
                mu=(0.0, 0.0), sigma=1.0, symbols=np.array([0, 1 << 3]))
    LayerQuantization(**good)
    with pytest.raises(ValueError):
        LayerQuantization(**{**good, "mode": "banana"})
    with pytest.raises(ValueError):
        LayerQuantization(**{**good, "n_bits": 9})
    with pytest.raises(ValueError):
        LayerQuantization(**{**good, "symbols": np.array([64])})  # > 5 bits
    with pytest.raises(ValueError):
        LayerQuantization(**{**good, "bias": 60})
    # a shift layer is the zero-centre, unit-sigma case and nothing else
    with pytest.raises(ValueError, match="a shift layer has mu"):
        LayerQuantization(**{**good, "mu": (0.0, 0.5)})
    with pytest.raises(ValueError, match="a shift layer has mu"):
        LayerQuantization(**{**good, "sigma": 0.5})
    rec = dict(good, mode=MODE_RECENTRALIZED, mu=(-0.125, 0.25), sigma=0.05,
               symbols=np.array([0, 3 << 2]))
    LayerQuantization(**rec)
    with pytest.raises(ValueError):
        LayerQuantization(**{**rec, "mu": (-0.1, 0.25)})  # not a power of two
    with pytest.raises(ValueError):
        LayerQuantization(**{**rec, "sigma": 0.0})


# --- full layer pipeline -----------------------------------------------------------


def test_bimodal_layer_goes_recentralized():
    rng = np.random.default_rng(44)
    weights = bimodal_layer(rng)
    keep = prune_by_magnitude(weights, 0.5)
    lq = quantize_layer(weights, keep, 5, w_sep=2.0, seed=1)
    assert lq.mode == MODE_RECENTRALIZED
    assert lq.wsep >= 2.0


def test_unimodal_layer_goes_shift():
    # no pruning: a plain Gaussian fits as two overlapping components (low W)
    rng = np.random.default_rng(45)
    weights = rng.normal(scale=0.1, size=1000)
    lq = quantize_layer(weights, np.ones(weights.size, dtype=bool), 5, w_sep=2.0, seed=1)
    assert lq.mode == MODE_SHIFT


def test_three_bit_request_forces_shift():
    rng = np.random.default_rng(46)
    weights = bimodal_layer(rng)
    keep = prune_by_magnitude(weights, 0.5)
    lq = quantize_layer(weights, keep, 3, w_sep=0.0, seed=1)
    assert lq.mode == MODE_SHIFT and lq.n_bits == 3


def test_quantize_layer_deterministic():
    rng = np.random.default_rng(47)
    weights = bimodal_layer(rng)
    keep = prune_by_magnitude(weights, 0.5)
    a = quantize_layer(weights, keep, 5, seed=9)
    b = quantize_layer(weights, keep, 5, seed=9)
    assert np.array_equal(a.symbols, b.symbols)
    assert (a.mu, a.sigma, a.bias) == (b.mu, b.sigma, b.bias)


# --- KL complexity diagnostic -------------------------------------------------------


def test_kl_of_identical_arrays_is_tiny():
    values = np.random.default_rng(48).normal(size=5000)
    assert kl_complexity_cost(values, values.copy(), bins=64) < 1e-3


def test_kl_recentralized_beats_shift_on_bimodal():
    rng = np.random.default_rng(49)
    weights = bimodal_layer(rng, n=4000)
    keep = prune_by_magnitude(weights, 0.5)
    rec = quantize_layer(weights, keep, 5, w_sep=0.0, seed=2)
    assert rec.mode == MODE_RECENTRALIZED
    shift = quantize_with(weights, keep, fit_params(weights[keep], 5, 0.0, 2, mode=MODE_SHIFT))
    original = weights[keep]
    kl_rec = kl_complexity_cost(original, dequantize_layer(rec)[keep], 64)
    kl_shift = kl_complexity_cost(original, dequantize_layer(shift)[keep], 64)
    assert kl_rec < kl_shift


def test_kl_disjoint_supports_finite():
    a = np.zeros(100) + 1.0
    b = np.zeros(100) + 2.0
    kl = kl_complexity_cost(a, b, bins=32)
    assert np.isfinite(kl) and kl > 1.0


def test_kl_argument_validation():
    values = np.ones(50)
    with pytest.raises(ValueError):
        kl_complexity_cost(values, values, bins=8)  # below minimum bins
    with pytest.raises(ValueError):
        kl_complexity_cost(values, values.copy(), bins=32)  # zero-width range


# --- layers that dequantize within float32 ---------------------------------------------


def _recentralized(alpha=1.0, sigma=0.25, mu=(-0.5, 0.5)):
    return LayerQuantization(name="l", mode=MODE_RECENTRALIZED, n_bits=5, alpha=alpha, bias=0,
                             mu=mu, sigma=sigma, symbols=np.full(9, ZERO))


@pytest.mark.parametrize("sigma", [float("inf"), float("nan"), 0.0, -0.25])
def test_layer_refuses_a_sigma_that_is_not_positive_and_finite(sigma):
    with pytest.raises(ValueError, match="sigma must be positive and finite"):
        _recentralized(sigma=sigma)


@pytest.mark.parametrize("alpha, sigma", [(1.0, 3e38), (3e38, 8.0), (-3e38, 8.0)])
def test_layer_refuses_an_alphabet_past_float32(alpha, sigma):
    # the largest alphabet value, sigma * 2**3 + 0.5 before alpha, times alpha
    peak = abs(alpha) * (float(np.float32(sigma)) * 8 + 0.5)
    assert peak > float(np.finfo(np.float32).max)
    with pytest.raises(ValueError, match=re.escape(f"dequantizes to {peak:.4g}, outside float32")):
        _recentralized(alpha=alpha, sigma=sigma)


@pytest.mark.parametrize("alpha", [0.0, -1.0, 3e38])
def test_layer_keeps_any_finite_alpha_whose_alphabet_stays_in_float32(alpha):
    # at sigma 2**-6 the alphabet peaks at 2**-6 * 2**3 + 0.5 = 0.625 before
    # alpha, so even alpha 3e38 dequantizes within float32's range
    lq = _recentralized(alpha=alpha, sigma=2.0**-6)
    values = dequantize_layer(lq)
    assert np.isfinite(values.astype(np.float32)).all()
    assert lq.alpha == float(np.float32(alpha))
