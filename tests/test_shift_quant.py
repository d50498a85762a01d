import numpy as np
import pytest

from fqpack.focused_quant import (
    MODE_SHIFT,
    ZERO,
    LayerQuantization,
    QuantParams,
    decode,
    encode,
    pack,
    unpack,
)
from fqpack.shift_quant import ShiftGrid, nearest_power, select_bias


def enumeration_oracle(values, grid):
    """Nearest alphabet member by exhaustive search; ties to smaller magnitude.

    Sorting the alphabet by |a| ascending makes argmin (which keeps the first
    of equal keys) resolve ties toward the smaller magnitude.
    """
    alphabet = np.array(sorted(grid.alphabet(), key=abs))
    dist = np.abs(np.asarray(values)[:, None] - alphabet[None, :])
    return alphabet[np.argmin(dist, axis=1)]


def quantized(values, grid):
    sign, exponent = nearest_power(np.asarray(values, dtype=np.float64), grid)
    return sign * np.ldexp(1.0, exponent - grid.bias)


def shift_params(grid, count=0):
    """Shift-mode parameters on ``grid``, for ``count`` unpruned weights."""
    return QuantParams(MODE_SHIFT, grid.exponent_bits + 2, grid.bias,
                       assignment=np.zeros(count, dtype=np.int64))


def shift_layer(symbols, n_bits):
    return LayerQuantization(name="l", mode=MODE_SHIFT, n_bits=n_bits, alpha=1.0, bias=0,
                             mu=(0.0, 0.0), sigma=1.0, symbols=np.asarray(symbols))


def test_alphabet_contents():
    grid = ShiftGrid(exponent_bits=2, bias=3)
    expected = {0.0, 0.125, 0.25, 0.5, 1.0, -0.125, -0.25, -0.5, -1.0}
    assert set(grid.alphabet().tolist()) == expected
    assert len(grid.alphabet()) == 1 + 2 * 2**2
    assert np.all(np.diff(grid.alphabet()) > 0)  # sorted ascending


def test_zero_maps_to_zero():
    grid = ShiftGrid(2, 3)
    sign, exponent = nearest_power(np.array([0.0]), grid)
    assert (sign[0], exponent[0]) == (0, 0)
    assert encode(np.array([0.0]), shift_params(grid, 1))[0] == ZERO


def test_nearest_value_example():
    grid = ShiftGrid(2, 3)
    assert quantized([0.3], grid)[0] == 0.25


def test_clipping_example():
    grid = ShiftGrid(2, 3)
    assert quantized([100.0], grid)[0] == 1.0
    assert quantized([-77.0], grid)[0] == -1.0


def test_tie_breaks_toward_smaller_magnitude():
    grid = ShiftGrid(2, 3)
    # -0.1875 is equidistant from -0.125 and -0.25
    assert quantized([-0.1875], grid)[0] == -0.125
    assert quantized([0.1875], grid)[0] == 0.125
    # the zero boundary: half the smallest level rounds down to zero
    assert quantized([0.0625], grid)[0] == 0.0


def test_non_finite_rejected():
    grid = ShiftGrid(2, 3)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            nearest_power(np.array([bad]), grid)


def test_matches_enumeration_oracle():
    rng = np.random.default_rng(5)
    for k, b in [(1, 0), (2, 3), (3, -2), (5, 4)]:
        grid = ShiftGrid(k, b)
        values = rng.normal(scale=2.0 ** -b, size=10_000)
        assert np.array_equal(quantized(values, grid),
                              enumeration_oracle(values, grid))


def test_idempotent_and_monotone():
    rng = np.random.default_rng(6)
    grid = ShiftGrid(3, 2)
    values = np.sort(rng.normal(scale=0.5, size=5_000))
    q = quantized(values, grid)
    assert np.array_equal(quantized(q, grid), q)  # idempotence
    assert np.all(np.diff(q) >= 0)  # monotonicity on sorted input


def test_codes_decode_to_quantized():
    rng = np.random.default_rng(7)
    grid = ShiftGrid(2, 1)
    values = rng.normal(size=1000)
    params = shift_params(grid, values.size)
    assert np.array_equal(decode(encode(values, params), params), quantized(values, grid))


# --- shift-mode symbols --------------------------------------------------------


def test_pack_unpack_round_trip():
    for k in (1, 2, 3, 6):
        params = shift_params(ShiftGrid(k, 0))
        assert pack(0, 0, 0, params) == ZERO
        for e in range(2**k):
            for s in (-1, 1):
                code = pack(0, s, e, params)
                assert 0 < code < 2 ** (k + 2)
                assert [int(f) for f in unpack(code, params)] == [0, s, e]
    assert [int(f) for f in unpack(ZERO, shift_params(ShiftGrid(3, 0)))] == [0, 0, 0]


def test_unpack_rejects_bad_code():
    # a shift layer refuses sign field 3 on construction, before any unpack
    with pytest.raises(ValueError, match="sign field 3"):
        shift_layer([3 << 2], n_bits=4)


def test_dequantize_symbol_examples():
    params = shift_params(ShiftGrid(2, 3))
    one = pack(0, 1, 3, params)
    minus_eighth = pack(0, -1, 0, params)
    got = decode(np.array([one, ZERO, minus_eighth]), params)
    assert got.tolist() == [1.0, 0.0, -0.125]


def test_dequantize_rejects_out_of_range_exponent():
    bad = pack(0, 1, 7, shift_params(ShiftGrid(3, 3)))  # e=7 needs k=3
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
