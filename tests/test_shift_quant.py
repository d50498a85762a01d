import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fqpack.focused_quant import (
    BIAS_SEARCH_RANGE,
    MODE_SHIFT,
    ZERO,
    LayerQuantization,
    QuantParams,
    decode,
    encode,
    nearest_power,
    pack,
    select_bias,
    unpack,
)


def grid_values(k, b):
    """Every value of the grid with k exponent bits and bias b: 0, +-2^(e - b)."""
    mags = 2.0 ** (np.arange(2**k) - b)
    return np.concatenate(([0.0], mags, -mags))


def enumeration_oracle(values, k, b):
    """Nearest alphabet member by exhaustive search; ties to smaller magnitude.

    Sorting the alphabet by |a| ascending makes argmin (which keeps the first
    of equal keys) resolve ties toward the smaller magnitude.
    """
    alphabet = np.array(sorted(grid_values(k, b), key=abs))
    dist = np.abs(np.asarray(values)[:, None] - alphabet[None, :])
    return alphabet[np.argmin(dist, axis=1)]


def quantized(values, k, b):
    sign, exponent = nearest_power(np.asarray(values, dtype=np.float64), k, b)
    return sign * np.ldexp(1.0, exponent - b)


def shift_params(k, b, count=0):
    """Shift-mode parameters on the grid (k, b), for ``count`` unpruned weights."""
    return QuantParams(MODE_SHIFT, k + 2, b, assignment=np.zeros(count, dtype=np.int64))


def shift_layer(symbols, n_bits):
    return LayerQuantization(name="l", mode=MODE_SHIFT, n_bits=n_bits, alpha=1.0, bias=0,
                             mu=(0.0, 0.0), sigma=1.0, symbols=np.asarray(symbols))


def test_zero_maps_to_zero():
    sign, exponent = nearest_power(np.array([0.0]), 2, 3)
    assert (sign[0], exponent[0]) == (0, 0)
    assert encode(np.array([0.0]), shift_params(2, 3, 1))[0] == ZERO


def test_nearest_value_example():
    assert quantized([0.3], 2, 3)[0] == 0.25


def test_clipping_example():
    assert quantized([100.0], 2, 3)[0] == 1.0
    assert quantized([-77.0], 2, 3)[0] == -1.0


def test_tie_breaks_toward_smaller_magnitude():
    # -0.1875 is equidistant from -0.125 and -0.25
    assert quantized([-0.1875], 2, 3)[0] == -0.125
    assert quantized([0.1875], 2, 3)[0] == 0.125
    # the zero boundary: half the smallest level rounds down to zero
    assert quantized([0.0625], 2, 3)[0] == 0.0


def test_non_finite_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            nearest_power(np.array([bad]), 2, 3)


def test_matches_enumeration_oracle():
    rng = np.random.default_rng(5)
    for k, b in [(1, 0), (2, 3), (3, -2), (5, 4)]:
        values = rng.normal(scale=2.0 ** -b, size=10_000)
        assert np.array_equal(quantized(values, k, b),
                              enumeration_oracle(values, k, b))


EVERY_GRID = [(k, b) for k in range(1, 7)
              for b in range(BIAS_SEARCH_RANGE[0], BIAS_SEARCH_RANGE[1] + 1)]
# a drawn input is a signed zero or sign * m * 2^(j - b) on the grid (k, b), with
# j capped at 2^k + 1: beyond 2^53 times the top level the oracle's float
# distances to every level round to the same number
GRID_INPUT = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.tuples(st.sampled_from([-1.0, 1.0]),
              st.sampled_from([1.0, 1.5]) | st.floats(0.5, 2.0),
              st.integers(-3, 66)),
)
# m = 1.5 at j = e is the tie between levels e and e + 1, m = 1 at j = -1 the
# midpoint between zero and the smallest level, and j = 64 is capped above the
# top level of every grid
ROUNDING_POINTS = ([0.0, -0.0, (1.0, 1.0, -1), (-1.0, 1.0, -1), (1.0, 1.0, 64), (-1.0, 1.9, 66)]
                   + [(s, 1.5, e) for s in (-1.0, 1.0) for e in range(63)])


@settings(max_examples=40, deadline=None)
@given(st.lists(GRID_INPUT, min_size=1, max_size=30))
@example(ROUNDING_POINTS)
def test_rounding_matches_enumeration_on_every_grid(inputs):
    for k, b in EVERY_GRID:
        values = np.array([v if isinstance(v, float)
                           else v[0] * v[1] * 2.0 ** (min(v[2], 2**k + 1) - b)
                           for v in inputs])
        sign, exponent = nearest_power(values, k, b)
        assert np.all(exponent[sign == 0] == 0)
        assert np.array_equal(sign * np.ldexp(1.0, exponent - b),
                              enumeration_oracle(values, k, b)), (k, b)


def test_idempotent_and_monotone():
    rng = np.random.default_rng(6)
    values = np.sort(rng.normal(scale=0.5, size=5_000))
    q = quantized(values, 3, 2)
    assert np.array_equal(quantized(q, 3, 2), q)  # idempotence
    assert np.all(np.diff(q) >= 0)  # monotonicity on sorted input


def test_codes_decode_to_quantized():
    rng = np.random.default_rng(7)
    values = rng.normal(size=1000)
    params = shift_params(2, 1, values.size)
    assert np.array_equal(decode(encode(values, params), params), quantized(values, 2, 1))


# --- shift-mode symbols --------------------------------------------------------


def test_pack_unpack_round_trip():
    for k in (1, 2, 3, 6):
        params = shift_params(k, 0)
        assert pack(0, 0, 0, params) == ZERO
        for e in range(2**k):
            for s in (-1, 1):
                code = pack(0, s, e, params)
                assert 0 < code < 2 ** (k + 2)
                assert [int(f) for f in unpack(code, params)] == [0, s, e]
    assert [int(f) for f in unpack(ZERO, shift_params(3, 0))] == [0, 0, 0]


def test_unpack_rejects_bad_code():
    # a shift layer refuses sign field 3 on construction, before any unpack
    with pytest.raises(ValueError, match="sign field 3"):
        shift_layer([3 << 2], n_bits=4)


def test_dequantize_symbol_examples():
    params = shift_params(2, 3)
    one = pack(0, 1, 3, params)
    minus_eighth = pack(0, -1, 0, params)
    got = decode(np.array([one, ZERO, minus_eighth]), params)
    assert got.tolist() == [1.0, 0.0, -0.125]


def test_dequantize_rejects_out_of_range_exponent():
    bad = pack(0, 1, 7, shift_params(3, 3))  # e=7 needs k=3
    with pytest.raises(ValueError):
        shift_layer([bad], n_bits=4)  # k=2 reads it as sign field 3


# --- bias selection ----------------------------------------------------------


def brute_force_bias(values, k):
    """Largest b in [-32, 32] whose strict-overflow fraction meets the bound."""
    nonzero = np.abs(values[values != 0])
    best = None
    for b in range(-32, 33):
        frac = np.mean(nonzero > 2.0 ** (2**k - 1 - b))
        if frac <= 1.0 / (2**k + 1):
            best = b
    return -32 if best is None else best


def test_bias_values_just_below_one():
    values = np.random.default_rng(8).uniform(0.5001, 1.0, size=200)
    assert select_bias(values, 2) == 3 == brute_force_bias(values, 2)
    # max level 2^(3-3) = 1.0 covers everything; b=4 would clip half the data


def test_bias_power_ladder():
    values = np.array([2.0**i for i in range(-4, 4)])
    b = select_bias(values, 3)
    assert b == 4 == brute_force_bias(values, 3)
    assert 2.0 ** (2**3 - 1 - b) == 8.0  # max level sits on the largest value


def test_bias_single_value():
    # 1/1 > 1/5 so no overflow is allowed: need 2^(3-b) >= 1.0
    b = select_bias(np.array([1.0]), 2)
    assert b == 3
    assert 2.0 ** (3 - b) >= 1.0


def test_bias_all_zero_rejected():
    with pytest.raises(ValueError):
        select_bias(np.zeros(5), 2)


def test_bias_infeasible_falls_to_floor():
    # any grid either clips 2^40 or nothing; 1/2 > 1/3 forces zero overflow,
    # which would need b <= -39, outside the search range
    values = np.array([1.0, 2.0**40])
    assert select_bias(values, 1) == -32


def test_bias_bound_holds_after_recount():
    rng = np.random.default_rng(9)
    for _ in range(50):
        k = int(rng.integers(1, 6))
        values = rng.normal(scale=10.0 ** rng.uniform(-6, 4), size=500)
        if not np.any(values):
            continue
        b = select_bias(values, k)
        nonzero = np.abs(values[values != 0])
        frac = np.mean(nonzero > 2.0 ** (2**k - 1 - b))
        assert frac <= 1.0 / (2**k + 1)
        assert b == brute_force_bias(values, k)
