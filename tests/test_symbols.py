"""The one-byte symbol contract from quantizer to container and back."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fqpack.codec import HuffmanTable, decode_layer, encode_layer
from fqpack.focused_quant import (
    MODE_SHIFT,
    LayerQuantization,
    dequantize_layer,
    gather,
    quantize_layer,
    symbol_counts,
)
from fqpack.pruner import prune_by_magnitude

WIDER_DTYPES = [np.int8, np.int16, np.int64, np.uint16, np.uint64]


@settings(max_examples=200, deadline=None)
@given(n_bits=st.integers(3, 8), dtype=st.sampled_from(WIDER_DTYPES),
       which=st.sampled_from(["minus one", "alphabet size", 256, 300]), data=st.data())
def test_out_of_range_symbols_are_refused_before_narrowing(n_bits, dtype, which, data):
    # cast to uint8 first, -1 would read as 255, 256 as ZERO and 300 as 44
    bad = {"minus one": -1, "alphabet size": 1 << n_bits}.get(which, which)
    assume(np.iinfo(dtype).min <= bad <= np.iinfo(dtype).max)
    size = data.draw(st.integers(1, 40))
    top = min((1 << n_bits) - 1, int(np.iinfo(dtype).max))
    symbols = np.array(data.draw(st.lists(st.integers(0, top), min_size=size, max_size=size)),
                       dtype=dtype)
    symbols[data.draw(st.integers(0, size - 1))] = bad
    with pytest.raises(ValueError, match=f"symbol out of range for {n_bits}-bit codes"):
        LayerQuantization(name="l", mode=MODE_SHIFT, n_bits=n_bits, alpha=1.0, bias=0,
                          mu=(0.0, 0.0), sigma=1.0, symbols=symbols)
    table = HuffmanTable.from_frequencies(np.ones(1 << n_bits, dtype=np.int64))
    with pytest.raises(ValueError, match=f"symbol {bad} not in the code table"):
        table.encode(symbols)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 255), max_size=300), st.sampled_from([1, 3, 64, 1 << 16]))
def test_gather_and_counts_match_numpy_at_any_block_size(values, block):
    symbols = np.array(values, dtype=np.uint8)
    table = np.random.default_rng(len(values)).normal(size=256)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("fqpack.focused_quant._BLOCK", block)
        got, counts = gather(table, symbols), symbol_counts(symbols, 256)
    assert got.dtype == table.dtype and np.array_equal(got, table[symbols.astype(np.intp)])
    assert np.array_equal(counts, np.bincount(symbols, minlength=256))


# With int64 symbols and fresh arrays for every EM pass, this round trip
# peaked at 29.2 MB; one-byte symbols and in-place passes bring it to 13.0 MB.
WIDE_LAYER_PEAK_BYTES = 15_000_000


def test_wide_layer_round_trip_stays_in_bounded_memory():
    weights = np.random.default_rng(0).normal(0.0, np.sqrt(2.0 / 2304), (3, 3, 256, 256))
    tracemalloc.start()  # numpy reports its buffers, so the peak is deterministic
    try:
        keep = prune_by_magnitude(weights, 0.5)
        lq = quantize_layer(weights, keep, 5, seed=1, name="conv")
        back, _ = decode_layer(encode_layer(lq))
        restored = dequantize_layer(back)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lq.symbols.dtype == np.uint8 and back.symbols.dtype == np.uint8
    assert np.array_equal(back.symbols, lq.symbols)
    assert np.array_equal(restored, dequantize_layer(lq))
    assert peak < WIDE_LAYER_PEAK_BYTES, f"traced peak {peak / 1e6:.2f} MB"
