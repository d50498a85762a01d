import contextlib
import hashlib
import math
import struct
import zlib
from dataclasses import astuple, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fqpack import codec, framing
from fqpack.cli import REPORT_CSV, csv_text
from fqpack.codec import (
    MAX_CODE_LEN,
    CompressedModel,
    HuffmanTable,
    compression_ratio,
    compression_report,
    decode_compressed,
    decode_layer,
    encode_compressed,
    encode_layer,
    load_compressed,
    pair_layers,
    save_compressed,
    _huffman_lengths,
)
from fqpack.errors import CorruptionError, FormatError, ValidationError
from fqpack.focused_quant import (
    MODE_RECENTRALIZED,
    MODE_SHIFT,
    LayerQuantization,
    pack,
    quantize_layer,
    unpack,
)
from fqpack.model_store import LayerSpec, ModelFile
from fqpack.nn import ToyNet
from fqpack.pruner import prune_by_magnitude


def heap_lengths(counts):
    """Unlimited Huffman code lengths by heap merges (the optimality reference).

    Always merges the two lowest-count subtrees, breaking count ties by the
    smallest symbol in the subtree; each merge puts both subtrees one level
    deeper.
    """
    import heapq

    items = sorted(counts.items())
    if len(items) == 1:
        return {items[0][0]: 1}
    # no two subtrees share a min symbol, so the symbol lists are never compared
    heap = [(cnt, sym, [sym]) for sym, cnt in items]
    heapq.heapify(heap)
    lengths = dict.fromkeys(counts, 0)
    while len(heap) > 1:
        c1, m1, s1 = heapq.heappop(heap)
        c2, m2, s2 = heapq.heappop(heap)
        for sym in s1 + s2:
            lengths[sym] += 1
        heapq.heappush(heap, (c1 + c2, min(m1, m2), s1 + s2))
    return lengths


def dense(counts: dict, size: int) -> np.ndarray:
    """A {symbol: count} mapping as the dense count array ``from_frequencies`` takes."""
    out = np.zeros(size, dtype=np.int64)
    out[list(counts)] = list(counts.values())
    return out


def codes_of(table):
    """{symbol: code} of every symbol the table codes, each encoded alone."""
    codes = {}
    for sym in np.flatnonzero(table.lengths).tolist():
        payload, bits = table.encode(np.array([sym]))
        codes[sym] = int.from_bytes(payload, "big") >> (8 * len(payload) - bits)
    return codes


def optimal_cost(counts):
    """Two-queue Huffman oracle: minimum total bits for the given counts."""
    from collections import deque

    leaves = deque(sorted(counts.values()))
    if len(leaves) == 1:
        return leaves[0]  # one symbol still needs one bit each
    merged = deque()
    cost = 0

    def pop_min():
        if not merged or (leaves and leaves[0] <= merged[0]):
            return leaves.popleft()
        return merged.popleft()

    while len(leaves) + len(merged) > 1:
        total = pop_min() + pop_min()
        cost += total
        merged.append(total)
    return cost


# --- code length construction ---------------------------------------------------


def test_three_symbol_lengths():
    assert _huffman_lengths(np.array([0, 1, 1, 2])).tolist() == [0, 2, 2, 1]


def test_uniform_counts_give_equal_lengths():
    for j in (1, 2, 3, 4):
        lengths = _huffman_lengths(np.full(2**j, 7))
        assert lengths.dtype == np.uint8 and (lengths == j).all()


def test_single_symbol_gets_one_bit():
    counts = dense({5: 100}, 32)
    assert _huffman_lengths(counts).tolist() == [0] * 5 + [1] + [0] * 26
    table = HuffmanTable.from_frequencies(counts)
    payload, bits = table.encode(np.full(9, 5))
    assert bits == 9 and len(payload) == 2
    assert table.decode(payload, bits).tolist() == [5] * 9


def test_empty_counts_rejected():
    with pytest.raises(ValueError):
        _huffman_lengths(np.zeros(32, dtype=np.int64))
    with pytest.raises(ValueError):
        HuffmanTable.from_frequencies(np.zeros(32, dtype=np.int64))


def test_symbol_outside_alphabet_rejected():
    # symbols are one byte: a count for symbol 256 is outside any alphabet
    with pytest.raises(ValueError, match="at most 256"):
        HuffmanTable.from_frequencies(np.ones(257, dtype=np.int64))


# --- canonical table -------------------------------------------------------------


def test_canonical_assignment_order():
    # lengths: sym 3 -> 1 bit, syms 1 and 2 -> 2 bits; canonical order is
    # shortest first then ascending symbol: 3=0, 1=10, 2=11
    lengths = np.zeros(8, dtype=np.uint8)
    lengths[[1, 2, 3]] = [2, 2, 1]
    table = HuffmanTable(lengths)
    assert codes_of(table) == {3: 0b0, 1: 0b10, 2: 0b11}


def test_codes_are_prefix_free():
    rng = np.random.default_rng(50)
    for _ in range(20):
        counts = rng.integers(0, 50, size=32)
        if np.count_nonzero(counts) < 2:
            continue
        table = HuffmanTable.from_frequencies(counts)
        words = [format(code, f"0{int(table.lengths[s])}b")
                 for s, code in codes_of(table).items()]
        for i, a in enumerate(words):
            for j, b in enumerate(words):
                if i != j:
                    assert not b.startswith(a)


def test_kraft_violation_rejected():
    lengths = np.zeros(4, dtype=np.uint8)
    lengths[[0, 1, 2]] = 1  # three 1-bit codes: Kraft sum 1.5
    with pytest.raises(FormatError):
        HuffmanTable(lengths)


def test_empty_table_rejected():
    with pytest.raises(FormatError):
        HuffmanTable(np.zeros(16, dtype=np.uint8))


# --- stream round trips and optimality -------------------------------------------


def test_random_stream_round_trips():
    rng = np.random.default_rng(51)
    for _ in range(50):
        size = int(rng.integers(1, 400))
        alphabet = int(rng.choice([8, 16, 32]))
        symbols = rng.integers(0, alphabet, size=size)
        counts = np.bincount(symbols, minlength=alphabet)
        table = HuffmanTable.from_frequencies(counts)
        with mock.patch.object(HuffmanTable, "_decode_table",
                               side_effect=AssertionError("encode built a decode table")):
            payload, bits = table.encode(symbols)
        assert np.array_equal(table.decode(payload, bits), symbols)


def test_payload_matches_optimal_length():
    rng = np.random.default_rng(52)
    for _ in range(30):
        symbols = rng.integers(0, 16, size=int(rng.integers(2, 500)))
        counts = {int(s): int(c) for s, c in
                  enumerate(np.bincount(symbols, minlength=16)) if c > 0}
        table = HuffmanTable.from_frequencies(dense(counts, 16))
        _, bits = table.encode(symbols)
        assert bits == optimal_cost(counts)


def test_encode_unknown_symbol_rejected():
    table = HuffmanTable.from_frequencies(np.array([3, 1, 0, 0]))
    with pytest.raises(ValueError):
        table.encode(np.array([2]))


def test_decode_truncated_payload():
    table = HuffmanTable.from_frequencies(np.array([1, 1, 2, 0]))
    payload, bits = table.encode(np.array([0, 1, 2, 0]))
    with pytest.raises(CorruptionError):
        table.decode(payload, bits + 3)  # claims more bits than exist
    with pytest.raises(CorruptionError):
        table.decode(payload[:0], 5)


# --- sparse streams --------------------------------------------------------------


def test_sparse_layer_zero_symbol_is_one_bit():
    rng = np.random.default_rng(53)
    n_bits = 5
    weights = rng.normal(scale=0.2, size=10_000)
    mask = prune_by_magnitude(weights, 0.9)
    lq = quantize_layer(weights, mask, n_bits, seed=7)
    counts = np.bincount(lq.symbols, minlength=lq.alphabet_size)
    table = HuffmanTable.from_frequencies(counts)
    assert table.lengths[0] == 1  # the pruned symbol dominates
    _, bits = table.encode(lq.symbols)
    fixed = n_bits * lq.symbols.size
    probs = counts[counts > 0] / lq.symbols.size
    entropy_bits = float(-(probs * np.log2(probs)).sum()) * lq.symbols.size
    # the information content is below a fifth of fixed-width cost, and the
    # integer prefix code lands close behind (>= 1 bit per symbol keeps the
    # realized payload just above that line)
    assert entropy_bits < 0.2 * fixed
    assert 0.2 * fixed <= bits <= 0.3 * fixed


# --- layer records ----------------------------------------------------------------


def _shift_layer(name="conv", n=256, seed=54):
    rng = np.random.default_rng(seed)
    weights = rng.normal(scale=0.15, size=n)
    mask = prune_by_magnitude(weights, 0.5)
    lq = quantize_layer(weights, mask, 5, w_sep=1e9, seed=seed, name=name)
    assert lq.mode == MODE_SHIFT
    return lq


def _rec_layer(name="conv", n=512, seed=55):
    rng = np.random.default_rng(seed)
    pick = rng.random(n) < 0.5
    weights = np.where(pick, rng.normal(-0.3, 0.04, n), rng.normal(0.25, 0.05, n))
    mask = prune_by_magnitude(weights, 0.4)
    lq = quantize_layer(weights, mask, 5, w_sep=0.0, seed=seed, name=name,
                        alpha=0.8)
    assert lq.mode == MODE_RECENTRALIZED
    return lq


@pytest.mark.parametrize("make", [_shift_layer, _rec_layer])
def test_layer_record_round_trip(make):
    lq = make()
    record = encode_layer(lq)
    decoded, offset = decode_layer(record)
    assert offset == len(record)
    assert decoded.name == lq.name
    assert decoded.mode == lq.mode
    assert decoded.n_bits == lq.n_bits
    assert decoded.alpha == lq.alpha
    assert decoded.bias == lq.bias
    assert decoded.mu == lq.mu
    assert decoded.sigma == lq.sigma
    assert np.array_equal(decoded.symbols, lq.symbols)
    # re-encoding is bit-exact
    assert encode_layer(decoded) == record


@pytest.mark.parametrize("make", [_shift_layer, _rec_layer])
def test_separation_survives_the_record_exactly(make):
    lq = make()
    assert lq.wsep > 0.0
    assert decode_layer(encode_layer(lq))[0].wsep == lq.wsep


def test_bit_flip_detected():
    record = bytearray(encode_layer(_shift_layer()))
    record[len(record) // 2] ^= 0x40
    with pytest.raises(CorruptionError):
        decode_layer(bytes(record))


def test_truncated_record_detected():
    record = encode_layer(_shift_layer())
    with pytest.raises(CorruptionError):
        decode_layer(record[: len(record) - 6])


def test_corruption_is_a_format_error():
    assert issubclass(CorruptionError, FormatError)


# --- container ---------------------------------------------------------------------


def test_container_round_trip(tmp_path):
    cm = CompressedModel([_shift_layer("a"), _rec_layer("b")])
    path = tmp_path / "model.fqz"
    size = save_compressed(cm, path)
    assert path.stat().st_size == size
    loaded = load_compressed(path)
    assert [lq.name for lq in loaded.layers] == ["a", "b"]
    assert encode_compressed(loaded) == path.read_bytes()
    empty = encode_compressed(CompressedModel([]))  # a header and no records
    assert decode_compressed(empty).layers == [] and len(empty) == framing.HEADER_SIZE


def test_bad_magic_rejected():
    data = bytearray(encode_compressed(CompressedModel([_shift_layer()])))
    data[:4] = b"JUNK"
    with pytest.raises(FormatError):
        decode_compressed(bytes(data))


def test_short_file_rejected():
    with pytest.raises(CorruptionError):
        decode_compressed(b"FQZ")


def test_duplicate_layer_names_rejected():
    with pytest.raises(ValueError):
        CompressedModel([_shift_layer("x"), _rec_layer("x")])


# --- ratios and report ---------------------------------------------------------------


def test_compression_ratio_rounding():
    assert compression_ratio(46.76, 2.86) == pytest.approx(16.3497, abs=5e-5)
    assert f"{compression_ratio(46.76, 2.86):.2f}" == "16.35"
    assert abs(compression_ratio(46.76, 2.86) - 16.33) / 16.33 < 0.005
    with pytest.raises(ValueError):
        compression_ratio(10, 0)


def test_report_rows_and_csv():
    lq = _shift_layer("conv")
    lq = replace(lq, shape=(1, 1, 1, lq.weight_count))
    spec = LayerSpec(
        name="conv", kind="conv2d",
        geometry=(1, 1, 1, lq.weight_count, 1, 1),
        weight=np.zeros(lq.weight_count, dtype=np.float32).reshape(
            1, 1, 1, lq.weight_count),
    )
    model = ModelFile([spec])
    rows = compression_report(model, CompressedModel([lq]))
    assert [r.layer for r in rows] == ["conv", "total"]
    assert rows[0].orig_bytes == 4 * lq.weight_count
    assert rows[0].comp_bytes == len(encode_layer(lq))
    assert rows[1].comp_bytes == rows[0].comp_bytes + 10
    assert rows[0].sparsity == np.count_nonzero(lq.symbols == 0) / lq.weight_count
    csv = csv_text(REPORT_CSV, [astuple(row) for row in rows])
    assert csv.splitlines()[0] == REPORT_CSV[0]
    assert csv.splitlines()[1].startswith("conv,shift,5,")


def test_report_name_mismatch_rejected():
    lq = _shift_layer("conv")
    spec = LayerSpec(
        name="other", kind="conv2d",
        geometry=(1, 1, 1, lq.weight_count, 1, 1),
        weight=np.zeros((1, 1, 1, lq.weight_count), dtype=np.float32),
    )
    with pytest.raises(ValidationError, match="'other' is missing"):
        compression_report(ModelFile([spec]), CompressedModel([lq]))


def test_pair_layers_matches_a_container_to_its_model():
    def dense(name, n_in):
        return LayerSpec(name, "dense", np.zeros((n_in, 2), dtype=np.float32), (n_in, 2))

    a = replace(_shift_layer("a", n=128), shape=(64, 2))
    b = replace(_shift_layer("b", n=256), shape=(128, 2))
    model = ModelFile([dense("a", 64), dense("b", 128)])
    pairs = pair_layers(model, CompressedModel([b, a]))
    assert [(spec.name, lq.name) for spec, lq in pairs] == [("a", "a"), ("b", "b")]
    assert all(spec is model.layer(lq.name) for spec, lq in pairs)
    with pytest.raises(ValidationError, match="^layer 'b' is missing from the compressed model$"):
        pair_layers(model, CompressedModel([a]))
    with pytest.raises(ValidationError, match=r"^layer 'b': shape \(128, 2\) for \(32, 2\)$"):
        pair_layers(ModelFile([dense("a", 64), dense("b", 32)]), CompressedModel([a, b]))
    # the same weight count in another shape
    with pytest.raises(ValidationError, match=r"^layer 'a': shape \(2, 64\) for \(64, 2\)$"):
        pair_layers(model, CompressedModel([replace(a, shape=(2, 64)), b]))
    extra = CompressedModel([_shift_layer("z", n=4), a, b, _shift_layer("c", n=4)])
    with pytest.raises(ValidationError,
                       match=r"^compressed layers not in the model: \['c', 'z'\]$"):
        pair_layers(model, extra)


# --- array coder against a bit-serial reference ------------------------------------
#
# The reference coder takes one Python step per symbol (encode) or per bit
# (decode) and builds its canonical codes straight from the code lengths. The
# array coder must match it byte for byte, bit count for bit count, and error
# for error.


def serial_codes(lengths):
    """Canonical codes: shorter first, ties by symbol, one code after another."""
    order = sorted((int(lengths[s]), s) for s in range(len(lengths)) if lengths[s])
    codes, code, prev_len = {}, 0, order[0][0]
    for length, sym in order:
        code <<= length - prev_len
        codes[sym] = code
        code += 1
        prev_len = length
    return codes


def serial_encode(lengths, symbols):
    codes = serial_codes(lengths)
    out, acc, nbits, total = bytearray(), 0, 0, 0
    for sym in np.asarray(symbols).ravel():
        sym = int(sym)
        length = int(lengths[sym]) if 0 <= sym < len(lengths) else 0
        if length == 0:
            raise ValueError(f"symbol {sym} not in the code table")
        acc = (acc << length) | codes[sym]
        nbits += length
        total += length
        while nbits >= 8:
            nbits -= 8
            out.append((acc >> nbits) & 0xFF)
        acc &= (1 << nbits) - 1
    if nbits:
        out.append((acc << (8 - nbits)) & 0xFF)
    return bytes(out), total


def serial_decode(lengths, payload, payload_bits):
    if payload_bits > 8 * len(payload):
        raise CorruptionError("payload shorter than its declared bit length")
    words = {(int(lengths[s]), code): s for s, code in serial_codes(lengths).items()}
    max_len = int(max(lengths))
    symbols, code, length = [], 0, 0
    for i in range(payload_bits):
        code = (code << 1) | ((payload[i >> 3] >> (7 - (i & 7))) & 1)
        length += 1
        if length > max_len:
            raise CorruptionError("bit pattern matches no codeword")
        sym = words.get((length, code))
        if sym is not None:
            symbols.append(sym)
            code, length = 0, 0
    if length:
        raise CorruptionError("payload ends inside a codeword")
    return np.array(symbols, dtype=np.int64)


def outcome(fn, *args):
    """Result of fn, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (ValueError, FormatError) as exc:
        return type(exc), str(exc)


def same_outcome(got, want):
    if isinstance(want, np.ndarray):
        return isinstance(got, np.ndarray) and got.dtype == np.uint8 and np.array_equal(got, want)
    return got == want


@st.composite
def skewed_counts(draw):
    """Zipf-like counts over 1-256 symbols of an alphabet of up to 256."""
    alphabet = draw(st.integers(1, 256))
    present = draw(st.integers(1, alphabet))
    skew = draw(st.floats(0.0, 4.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = np.zeros(alphabet, dtype=np.int64)
    ranks = np.arange(1, present + 1, dtype=np.float64)
    counts[rng.choice(alphabet, size=present, replace=False)] = np.maximum(
        1, (1e6 * ranks**-skew).astype(np.int64))
    return counts


@st.composite
def code_tables(draw):
    """Huffman tables, and incomplete tables (Kraft sum < 1) made by
    lengthening some of their codes."""
    counts = draw(skewed_counts())
    lengths = HuffmanTable.from_frequencies(counts).lengths.copy()
    if draw(st.booleans()):
        present = np.nonzero(lengths)[0]
        extra = draw(st.lists(st.integers(0, 3), min_size=present.size,
                              max_size=present.size))
        lengths[present] = np.minimum(lengths[present] + np.array(extra), MAX_CODE_LEN)
    return HuffmanTable(lengths), counts


def stream_for(table, counts, size, seed):
    """size symbols of the table, drawn in proportion to counts."""
    present = np.nonzero(table.lengths)[0]
    weights = counts[present].astype(np.float64)
    return np.random.default_rng(seed).choice(present, size=size, p=weights / weights.sum())


def short_lanes(codewords, head_reads=1, check_reads=1):
    """Walk with lanes sized for ``codewords`` codewords whatever the stream's size,
    heads of ``head_reads`` reads and a check every ``check_reads`` reads."""
    return mock.patch.multiple(codec, _LANE_CODEWORDS=codewords, _LANES=1,
                               _HEAD_READS=head_reads, _CHECK_READS=check_reads)


# sizes small enough that short streams still cross encode blocks and decode lanes
block_sizes = st.sampled_from([1, 3, 64, codec._ENCODE_SYMBOLS])
lane_sizes = st.sampled_from([1, 2, 5, 64, codec._LANE_CODEWORDS])


@settings(max_examples=150, deadline=None)
@given(code_tables(), st.integers(0, 3000), st.integers(0, 2**32 - 1), block_sizes,
       lane_sizes)
def test_array_coder_matches_serial_reference(table_counts, size, seed, block, codewords):
    table, counts = table_counts
    assert codes_of(table) == serial_codes(table.lengths)
    symbols = stream_for(table, counts, size, seed)
    with mock.patch.object(codec, "_ENCODE_SYMBOLS", block), short_lanes(codewords):
        payload, bits = table.encode(symbols)
        assert (payload, bits) == serial_encode(table.lengths, symbols)
        decoded = table.decode(payload, bits)
    assert decoded.dtype == np.uint8 and np.array_equal(decoded, symbols)


@settings(max_examples=200, deadline=None)
@given(code_tables(), st.binary(max_size=40), st.data(), lane_sizes)
def test_decode_of_any_bits_matches_serial_reference(table_counts, payload, data, codewords):
    # arbitrary payloads reach every error: unmatched patterns under
    # incomplete codes, trailing partial codewords, bit counts past the end
    table, _ = table_counts
    bits = data.draw(st.integers(0, 8 * len(payload) + 9))
    with short_lanes(codewords):
        got = outcome(table.decode, payload, bits)
    assert same_outcome(got, outcome(serial_decode, table.lengths, payload, bits))


@settings(max_examples=100, deadline=None)
@given(code_tables(), st.lists(st.integers(-300, 300), max_size=50))
def test_encode_errors_match_serial_reference(table_counts, symbols):
    table, _ = table_counts
    want = outcome(serial_encode, table.lengths, np.array(symbols, dtype=np.int64))
    got = outcome(lambda s: table.encode(s)[:2], np.array(symbols, dtype=np.int64))
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got[0] is ValueError  # either unknown symbol may be named first
    else:
        assert got == want


def fibonacci_counts(n):
    counts, a, b = {}, 1, 1
    for sym in range(n):
        counts[sym] = a
        a, b = b, a + b
    return counts


@pytest.mark.parametrize("n_symbols, heap_longest", [(27, 26), (36, 35), (58, 57)])
def test_long_codes_round_trip(n_symbols, heap_longest):
    counts = fibonacci_counts(n_symbols)
    assert max(heap_lengths(counts).values()) == heap_longest  # the unlimited code
    table = HuffmanTable.from_frequencies(dense(counts, 64))
    assert int(table.lengths.max()) == MAX_CODE_LEN == 16
    rng = np.random.default_rng(heap_longest)
    symbols = rng.integers(0, n_symbols, size=5000)
    payload, bits = table.encode(symbols)
    assert (payload, bits) == serial_encode(table.lengths, symbols)
    assert np.array_equal(table.decode(payload, bits), symbols)


def test_code_longer_than_decode_window_rejected():
    lengths = HuffmanTable.from_frequencies(dense(fibonacci_counts(27), 64)).lengths.copy()
    lengths[np.argmax(lengths)] += 1  # still a prefix code, one bit over the limit
    with pytest.raises(FormatError, match="code length 17 exceeds the 16-bit limit"):
        HuffmanTable(lengths)
    complete = np.array(list(range(1, 18)) + [17], dtype=np.uint8)  # Kraft sum 1
    with pytest.raises(FormatError, match="code length 17"):
        HuffmanTable(complete)


@settings(max_examples=300, deadline=None)
@given(skewed_counts())
def test_lengths_are_limited_and_optimal_where_the_limit_does_not_bind(counts):
    present = {int(s): int(c) for s, c in enumerate(counts) if c > 0}
    lengths = _huffman_lengths(counts)
    assert lengths.dtype == np.uint8 and np.array_equal(lengths > 0, counts > 0)
    lengths = {s: int(lengths[s]) for s in present}
    assert max(lengths.values()) <= MAX_CODE_LEN
    assert min(lengths.values()) >= 1
    if len(present) >= 2:  # a full binary tree: every bit pattern starts a code
        assert sum(2.0 ** -length for length in lengths.values()) == 1.0
    reference = heap_lengths(present)
    bits = sum(present[s] * lengths[s] for s in present)
    heap_bits = sum(present[s] * reference[s] for s in present)
    if max(reference.values()) <= MAX_CODE_LEN:
        assert bits == heap_bits
    else:
        assert bits >= heap_bits  # no code beats the unlimited optimum


def test_wide_eight_bit_layer_is_limited_to_sixteen_bits():
    rng = np.random.default_rng(0)
    weights = rng.normal(0.0, np.sqrt(2.0 / (3 * 3 * 128)), (3, 3, 128, 128))
    lq = quantize_layer(weights, prune_by_magnitude(weights, 0.5), 8, seed=0, name="wide")
    counts = np.bincount(lq.symbols, minlength=lq.alphabet_size)
    present = {int(s): int(c) for s, c in enumerate(counts) if c > 0}
    assert max(heap_lengths(present).values()) == 18  # unlimited, the code would be longer
    table = HuffmanTable.from_frequencies(counts)
    assert int(table.lengths.max()) == 16
    record = encode_layer(lq)
    decoded, _ = decode_layer(record)
    assert np.array_equal(decoded.symbols, lq.symbols)
    assert encode_layer(decoded) == record


def test_stream_spanning_many_blocks():
    rng = np.random.default_rng(56)
    symbols = rng.choice(32, size=200_000, p=np.r_[0.5, np.full(31, 0.5 / 31)])
    table = HuffmanTable.from_frequencies(np.bincount(symbols, minlength=32))
    payload, bits = table.encode(symbols)
    assert (payload, bits) == serial_encode(table.lengths, symbols)
    walks = []
    lockstep = codec._lockstep
    with mock.patch.object(codec, "_lockstep",
                           side_effect=lambda *a: walks.append(a[2].size) or lockstep(*a)):
        assert np.array_equal(table.decode(payload, bits), symbols)
    assert walks[0] >= codec._LANES // 8  # one walk of many lanes


# 1- to 15-bit codes and two 16-bit ones: every code length, Kraft sum 1
ALL_LENGTHS = np.array(list(range(1, MAX_CODE_LEN)) + [MAX_CODE_LEN] * 2, dtype=np.uint8)


def test_encoded_bytes_are_pinned():
    # a stream of integer arithmetic over every code length, across three
    # encode blocks: no RNG or BLAS, so the digest holds on any platform
    table = HuffmanTable(ALL_LENGTHS)
    i = np.arange(40_000)
    payload, bits = table.encode((i * 7 + i // 17) % 17)
    assert bits == 357_640 and len(payload) == 44_705
    assert hashlib.sha256(payload).hexdigest() == (
        "343b8b06c5c8ed080aedfed285509d8af9f8659de1fc630656486a861775ca45")


@pytest.mark.parametrize("block", [1, 3, 64])
def test_sixteen_bit_codes_at_every_start_bit_of_a_word(block):
    # a word of 1-bit codes and `start` more, then both 16-bit codes (the
    # second all ones) and a 3-bit code: from start 49 on, the first 16-bit
    # code runs into the next word; blocks of 1 and 3 symbols end mid-word
    table = HuffmanTable(ALL_LENGTHS)
    for start in range(64):
        symbols = [0] * (64 + start) + [15, 16, 2]
        with mock.patch.object(codec, "_ENCODE_SYMBOLS", block):
            payload, bits = table.encode(np.array(symbols))
        assert (payload, bits) == serial_encode(table.lengths, symbols)


def test_decode_errors():
    single = HuffmanTable(np.array([0, 1, 0, 0], dtype=np.uint8))  # one symbol, code "0"
    with pytest.raises(CorruptionError, match="matches no codeword"):
        single.decode(b"\x40", 8)  # 0 then 1: the second bit starts no code
    table = HuffmanTable.from_frequencies(np.array([5, 1, 1, 0]))  # 0 = "0", 1 = "10", 2 = "11"
    with pytest.raises(CorruptionError, match="ends inside a codeword"):
        table.decode(b"\x80", 1)  # a lone "1"
    with pytest.raises(CorruptionError, match="shorter than its declared"):
        table.decode(b"\x00", 9)


# --- the lane walk -----------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 8, 17, 64, 1000])
def test_walk_matches_a_serial_walk_before_at_and_past_the_end(n):
    # n codewords of a code with 1- to 16-bit codes, then a byte of spare
    # bits; the payload's declared end falls one bit before, at and one bit
    # past the end of the last codeword
    table = HuffmanTable.from_frequencies(dense(fibonacci_counts(27), 64))
    symbols = np.random.default_rng(n).integers(0, 27, size=n)
    payload, bits = table.encode(symbols)
    payload += bytes([n % 256])
    for end in (bits - 1, bits, bits + 1):
        want = outcome(serial_decode, table.lengths, payload, end)
        assert same_outcome(outcome(table.decode, payload, end), want)
        with short_lanes(4):
            assert same_outcome(outcome(table.decode, payload, end), want)


def edge_stream(tail: str):
    """Payload, bit count and table of "010" and thirty "00", then ``tail`` from
    bit 63, under a table whose codes are 00, 010 and a 16-bit 0110...0; a
    window from 0110...01 up matches no code."""
    bits = "010" + "00" * 30 + tail
    payload = np.packbits(np.frombuffer(bits.encode(), np.uint8) - ord("0")).tobytes()
    return HuffmanTable(np.array([2, 3, 16], dtype=np.uint8)), payload, len(bits)


@pytest.mark.parametrize("tail", [
    "1",  # unmatched at a lane's first codeword, the payload's last bit
    "1" * 17,  # unmatched at a lane's first codeword, more bits after it
    "0110",  # a 16-bit code cut short by the payload's end
    "0110000000000000" "010",  # a 16-bit code that starts a lane, then one more
])
def test_walk_from_the_last_offset_of_a_block(tail):
    # lanes of 21 bits: the tail starts the fourth lane
    table, payload, bits = edge_stream(tail)
    want = outcome(serial_decode, table.lengths, payload, bits)
    with short_lanes(1), mock.patch.object(codec, "_lane_bits", return_value=21):
        got = outcome(table.decode, payload, bits)
    assert same_outcome(got, want)


@settings(max_examples=100, deadline=None)
@given(code_tables(), st.sampled_from([1, 2, 5, 64]), st.sampled_from([-1, 0, 1, "k"]),
       st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_block_walk_matches_serial_reference(table_counts, codewords, edge, k, seed):
    # streams one codeword short of, at and one past a lane's size, and of k lanes
    table, counts = table_counts
    size = k * codewords if edge == "k" else codewords + edge
    symbols = stream_for(table, counts, size, seed)
    payload, bits = table.encode(symbols)
    with short_lanes(codewords):
        got = table.decode(payload, bits)
    want = serial_decode(table.lengths, payload, bits)
    assert got.dtype == np.uint8 and np.array_equal(got, want)


def two_bit_stream(symbols, lengths=(2, 2, 2, 2)):
    """Table, payload and bit count of 2-bit codewords; a table with a 0 length
    leaves a codeword that matches nothing."""
    table = HuffmanTable(np.array(lengths, dtype=np.uint8))
    return (table,) + serial_encode(np.array([2, 2, 2, 2]), symbols)


SYMBOLS_14 = [0, 1, 2, 3, 3, 2, 1, 0, 1, 1, 2, 2, 0, 3]


def test_unmatched_window_inside_a_lane_is_refused():
    # 11 matches no code of a table with 00, 01 and 10 only; it is the sixth
    # codeword, inside the second lane of six bits
    symbols = SYMBOLS_14[:5] + [3] + [0] * 8
    table, payload, bits = two_bit_stream(symbols, lengths=(2, 2, 2, 0))
    with short_lanes(2):
        with pytest.raises(CorruptionError, match="bit pattern matches no codeword"):
            table.decode(payload, bits)
    assert outcome(table.decode, payload, bits)[1] == "bit pattern matches no codeword"


def test_payload_ending_inside_the_last_block_is_refused():
    table, payload, bits = two_bit_stream(SYMBOLS_14)
    with short_lanes(2):
        assert table.decode(payload, bits).tolist() == SYMBOLS_14
        with pytest.raises(CorruptionError, match="payload ends inside a codeword"):
            table.decode(payload, bits - 1)


def lockstep_walks():
    """Patch ``_lockstep`` to note the lane count of each walk it makes."""
    walks, lockstep = [], codec._lockstep
    return walks, mock.patch.object(
        codec, "_lockstep", side_effect=lambda *a: walks.append(a[2].size) or lockstep(*a))


def test_lanes_started_inside_codewords_fall_into_step():
    # codes 0, 10 and 11 in lanes of 7 bits: most lanes start inside a codeword
    table = HuffmanTable(np.array([1, 2, 2], dtype=np.uint8))
    symbols = np.random.default_rng(57).integers(0, 3, size=400)
    payload, bits = table.encode(symbols)
    starts = np.cumsum(table.lengths[symbols])
    assert not np.isin(np.arange(7, bits, 7), starts).all()
    walks, spy = lockstep_walks()
    with short_lanes(1), mock.patch.object(codec, "_lane_bits", return_value=7), spy:
        assert np.array_equal(table.decode(payload, bits), symbols)
    assert walks == [-(-bits // 7)]  # one walk: every lane met its successor


def test_fixed_length_code_lanes_start_on_codeword_boundaries():
    # 3-bit codes: a lane that started inside a codeword would never fall into
    # step, so every lane is a multiple of 3 bits long
    table = HuffmanTable(np.full(8, 3, dtype=np.uint8))
    symbols = np.random.default_rng(58).integers(0, 8, size=500)
    payload, bits = table.encode(symbols)
    for codewords in (1, 2, 5, 64):
        with short_lanes(codewords):
            assert codec._lane_bits(table, bits, 3 * codewords) % 3 == 0
            walks, spy = lockstep_walks()
            with spy:
                assert np.array_equal(table.decode(payload, bits), symbols)
            assert len(walks) == 1


def never_in_step(count):
    """Table, payload and bit count of "0" then ``count`` "111"s, under the codes
    0, 100, 101, 110 and 111: a lane started 2 bits into a "111" reads "111"s
    shifted by 2 bits to the end, as does every lane of 3k bits."""
    table = HuffmanTable(np.array([1, 3, 3, 3, 3], dtype=np.uint8))
    return (table,) + table.encode(np.array([0] + [4] * count))


def test_lane_walk_stops_after_a_block_of_steps():
    # the first lane, the only one on the codeword boundaries, meets no later
    # lane: it stops three lanes past its start, and the stream's symbols are
    # walked on from there by one lane alone
    table, payload, bits = never_in_step(3000)
    walks, lockstep = [], codec._lockstep
    with short_lanes(1), mock.patch.object(codec, "_lane_bits", return_value=30), \
            mock.patch.object(codec, "_lockstep",
                              side_effect=lambda *a: walks.append(lockstep(*a)) or walks[-1]):
        assert np.array_equal(table.decode(payload, bits), [0] + [4] * 3000)
    assert [walk.at.size for walk in walks] == [301, 1]
    assert walks[0].why[0] == codec._HALT and 3 * 30 <= walks[0].at[0] < 3 * 30 + 9
    with short_lanes(1), mock.patch.object(codec, "_lane_bits", return_value=30):
        for cut in (1, 2):
            with pytest.raises(CorruptionError, match="^payload ends inside a codeword$"):
                table.decode(payload, bits - cut)


@st.composite
def walk_streams(draw):
    """(table, symbols, lane bits or None): drawn codes and streams, fixed-length
    codes, and streams whose lanes of 3k bits never fall into step."""
    kind = draw(st.sampled_from(["drawn", "fixed", "never"]))
    size = draw(st.integers(0, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "never":
        table, _, _ = never_in_step(1)
        return table, np.array([0] + [4] * size), 3 * draw(st.integers(3, 12))
    if kind == "fixed":
        width = draw(st.integers(1, 8))
        table = HuffmanTable(np.full(draw(st.integers(1, 1 << width)), width, dtype=np.uint8))
        return table, rng.integers(0, table.lengths.size, size=size), None
    table, counts = draw(code_tables())
    return table, stream_for(table, counts, size, rng.integers(2**32)), None


@settings(max_examples=150, deadline=None)
@given(walk_streams(), st.sampled_from([1, 2, 3, 8]), st.integers(1, 3), st.integers(1, 2),
       st.data())
def test_self_synchronising_walk_matches_the_serial_reference(drawn, codewords, head_reads,
                                                              check_reads, data):
    # the walk's symbols, or its refusal, equal the serial reference's on the
    # stream, on the stream cut short and on the stream with one byte flipped;
    # a refusal of a named stream is a CorruptionError that names it
    table, symbols, lane = drawn
    payload, bits = table.encode(symbols)
    lanes = (mock.patch.object(codec, "_lane_bits", return_value=lane) if lane
             else contextlib.nullcontext())
    cut = data.draw(st.integers(0, bits))
    flipped = bytearray(payload)
    if payload:
        flipped[data.draw(st.integers(0, len(payload) - 1))] ^= data.draw(st.integers(1, 255))
    with short_lanes(codewords, head_reads, check_reads), lanes:
        got = table.decode(payload, bits)
        assert got.dtype == np.uint8 and np.array_equal(got, symbols)
        for stream, end in ((payload, bits - cut), (bytes(flipped), bits)):
            want = outcome(serial_decode, table.lengths, stream, end)
            assert same_outcome(outcome(table.decode, stream, end), want)
            named = outcome(lambda: codec._walk([(table, stream, end)], ["conv"])[0])
            if isinstance(want, tuple):
                want = (CorruptionError, "layer 'conv': " + want[1])
            assert same_outcome(named, want)


# --- the container walk ------------------------------------------------------------


@st.composite
def walk_layers(draw):
    """A layer of k distinct symbols at Fibonacci counts times r, whose longest
    code is max(1, k - 1) bits: 1 to 16 bits for k = 1 to 17."""
    k = draw(st.integers(1, 17))
    # an n-bit shift code has 2**(n - 1) + 1 valid symbols
    n_bits = draw(st.integers(max(3, (k - 2).bit_length() + 1), 8))
    zero = LayerQuantization(name="", mode=MODE_SHIFT, n_bits=n_bits, alpha=0.5, bias=0,
                             mu=(0.0, 0.0), sigma=1.0, symbols=np.zeros(1, dtype=np.uint8))
    codes = np.arange(zero.alphabet_size)
    valid = np.flatnonzero(pack(*unpack(codes, zero), zero) == codes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = np.array(list(fibonacci_counts(k).values())) * draw(st.integers(1, 3))
    symbols = rng.permutation(np.repeat(rng.choice(valid, size=k, replace=False), counts))
    return replace(zero, symbols=symbols, shape=None)


def record_offsets(data):
    """The byte offset of each record of a container, then its end."""
    offsets = [framing.HEADER_SIZE]
    for _ in range(struct.unpack_from("<I", data, 6)[0]):
        offsets.append(offsets[-1] + 8 + struct.unpack_from("<I", data, offsets[-1])[0])
    return offsets


@settings(max_examples=80, deadline=None)
@given(st.lists(walk_layers(), min_size=1, max_size=6), st.integers(1, 8), st.data())
def test_container_walk_matches_each_record_and_names_a_bad_layer(drawn, codewords, data):
    cm = CompressedModel([replace(lq, name=f"layer{i}") for i, lq in enumerate(drawn)])
    assert 1 <= max(int(codec._layer_table(lq)[0].lengths.max()) for lq in cm.layers) <= 16
    with short_lanes(codewords):
        blob = encode_compressed(cm)
        loaded = decode_compressed(blob)
        offsets = record_offsets(blob)
        for lq, back, at, end in zip(cm.layers, loaded.layers, offsets, offsets[1:]):
            assert np.array_equal(back.symbols, lq.symbols) and back.symbols.dtype == np.uint8
            alone, next_at = decode_layer(blob, at)
            assert next_at == end and astuple(alone)[:-3] == astuple(back)[:-3]
            assert np.array_equal(alone.symbols, back.symbols) and alone.wsep == back.wsep
            assert alone.shape == back.shape == lq.shape
        # one layer's payload cut short by 1 or more bits, its record resealed:
        # refused, with that layer named
        i = data.draw(st.integers(0, len(cm.layers) - 1))
        lq = cm.layers[i]
        table = codec._layer_table(lq)[0]
        payload, bits = table.encode(lq.symbols)
        cut = data.draw(st.integers(0, bits - 1))
        record = framing.pack_record(codec._body_head(lq, table, cut)
                                     + payload[: (cut + 7) // 8])
        bad = blob[: offsets[i]] + record + blob[offsets[i + 1] :]
        with pytest.raises(CorruptionError, match=f"^layer 'layer{i}': "):
            decode_compressed(bad)
        # one payload byte flipped instead: refused with that layer named, or
        # every other layer loads as it was
        flip = bytearray(blob)
        at = offsets[i + 1] - 5 - data.draw(st.integers(0, (bits + 7) // 8 - 1))
        flip[at] ^= data.draw(st.integers(1, 255))
        flip[offsets[i + 1] - 4 : offsets[i + 1]] = struct.pack(
            "<I", zlib.crc32(flip[offsets[i] : offsets[i + 1] - 4]))
        try:
            other = decode_compressed(bytes(flip))
        except CorruptionError as exc:
            assert str(exc).startswith(f"layer 'layer{i}': ")
        else:
            assert all(np.array_equal(a.symbols, b.symbols)
                       for j, (a, b) in enumerate(zip(other.layers, loaded.layers)) if j != i)


def _toy_container():
    model = ToyNet(seed=3).to_model_file()
    return encode_compressed(CompressedModel([
        quantize_layer(spec.weight, prune_by_magnitude(spec.weight, 0.5), 5, seed=i,
                       name=spec.name)
        for i, spec in enumerate(model.layers)]))


def test_walk_refusal_names_its_layer():
    # the fourth record's last 39 payload bytes flipped, its CRC resealed
    data = bytearray(_toy_container())
    offsets = record_offsets(data)
    assert len(data) == 15_122 and len(offsets) == 11
    end = offsets[4] - 4  # the fourth record's CRC
    data[end - 39 : end] = bytes(b ^ 0xFF for b in data[end - 39 : end])
    data[end : end + 4] = struct.pack("<I", zlib.crc32(data[offsets[3] : end]))
    with pytest.raises(CorruptionError, match="^layer 'conv4': payload ends inside a codeword$"):
        decode_compressed(bytes(data))
    with pytest.raises(CorruptionError, match="^layer 'conv4': payload ends inside a codeword$"):
        decode_layer(bytes(data), offsets[3])


# --- record sizes, record checks, container version ---------------------------------


@pytest.mark.parametrize("mode, n_bits", [(MODE_SHIFT, b) for b in range(3, 9)]
                         + [(MODE_RECENTRALIZED, b) for b in range(4, 9)])
def test_report_sizes_equal_encoded_records(mode, n_bits):
    rng = np.random.default_rng(57 + n_bits)
    pick = rng.random(3000) < 0.5
    weights = np.where(pick, rng.normal(-0.3, 0.04, 3000), rng.normal(0.25, 0.05, 3000))
    mask = prune_by_magnitude(weights, 0.4)
    lq = quantize_layer(weights.reshape(1, 1, 1, -1), mask, n_bits,
                        w_sep=1e9 if mode == MODE_SHIFT else 0.0, seed=n_bits,
                        name=f"layer{n_bits}")
    assert lq.mode == mode
    spec = LayerSpec(name=lq.name, kind="conv2d", geometry=(1, 1, 1, lq.weight_count, 1, 1),
                     weight=np.zeros((1, 1, 1, lq.weight_count), dtype=np.float32))
    cm = CompressedModel([lq])
    rows = compression_report(ModelFile([spec]), cm)
    assert rows[0].comp_bytes == len(encode_layer(lq))
    assert rows[1].comp_bytes == len(encode_compressed(cm))


def _shape_at(lq) -> int:
    """The offset of a layer record's rank byte: record length, name field, fixed
    fields, code lengths."""
    return 4 + 2 + len(lq.name) + struct.calcsize("<BBfbbbbbff") + lq.alphabet_size


@pytest.mark.parametrize("shape", [(512,), (3, 3, 3, 19), (2, 2500)])
def test_report_size_counts_the_shape(shape):
    n = math.prod(shape)
    lq = replace(_shift_layer("wide", n=n), shape=shape)
    spec = LayerSpec(name=lq.name, kind="conv2d", geometry=(1, 1, 1, n, 1, 1),
                     weight=np.zeros((1, 1, 1, n), dtype=np.float32))
    record = encode_layer(lq)
    payload, _ = codec._layer_table(lq)[0].encode(lq.symbols)
    # then the rank, a u32 per dimension, the bit count, payload and CRC: no block lengths
    at = _shape_at(lq)
    assert struct.unpack_from(f"<B{len(shape)}I", record, at) == (len(shape),) + shape
    assert len(record) == at + 1 + 4 * len(shape) + 8 + len(payload) + 4
    lq = replace(lq, shape=spec.weight.shape)
    rows = compression_report(ModelFile([spec]), CompressedModel([lq]))
    assert rows[0].comp_bytes == len(encode_layer(lq)) == len(record) + 4 * (4 - len(shape))


def test_record_whose_count_differs_from_its_symbols_is_refused():
    lq = _shift_layer("conv", n=300)
    record = bytearray(encode_layer(lq))
    at = _shape_at(lq) + 1  # the one dimension
    for count in (299, 301):  # one symbol short or over
        record[at : at + 4] = struct.pack("<I", count)
        with pytest.raises(CorruptionError,
                           match=rf"^layer 'conv': 300 codewords, its shape \({count},\) "
                                 rf"holds {count}$"):
            decode_layer(_with_crc(bytes(record)))
    record[at : at + 4] = struct.pack("<I", 0)
    with pytest.raises(FormatError, match=r"^layer 'conv': shape \(0,\) holds no weights$"):
        decode_layer(_with_crc(bytes(record)))


def test_record_shape_round_trips():
    weights = np.random.default_rng(59).normal(0.0, 0.2, (3, 3, 4, 5))
    lq = quantize_layer(weights, prune_by_magnitude(weights, 0.5), 5, name="conv")
    assert lq.shape == (3, 3, 4, 5)
    decoded, _ = decode_layer(encode_layer(lq))
    assert decoded.shape == (3, 3, 4, 5) and decoded.symbols.shape == (180,)
    with pytest.raises(ValueError, match=r"shape \(3, 3, 4, 4\) does not hold 180 symbols"):
        replace(lq, shape=(3, 3, 4, 4))


def test_record_with_more_bits_than_its_count_can_take_is_refused_unwalked():
    # 100 symbols in one lane, which the walk would take to the end of its bits
    lq = _shift_layer("conv", n=100)
    table, _ = codec._layer_table(lq)
    longest = int(table.lengths.max())
    payload = np.random.default_rng(3).integers(0, 256, 1 << 16, dtype=np.uint8).tobytes()
    for bits in (100 * longest + 1, 8 * len(payload)):
        record = framing.pack_record(codec._body_head(lq, table, bits)
                                     + payload[: (bits + 7) // 8])
        with mock.patch.object(codec, "_walk", side_effect=AssertionError("walked")):
            with pytest.raises(CorruptionError,
                               match=rf"{bits} payload bits for shape \(100,\)"):
                decode_layer(record)
    # 100 codewords of the longest code: the record goes on to the walk
    bits = 100 * longest
    record = framing.pack_record(codec._body_head(lq, table, bits)
                                 + payload[: (bits + 7) // 8])
    with mock.patch.object(codec, "_walk", side_effect=AssertionError("walked")):
        with pytest.raises(AssertionError, match="walked"):
            decode_layer(record)


def test_record_round_trip_through_many_blocks():
    lq = _rec_layer("conv", n=512)
    record = encode_layer(lq)
    walks, spy = lockstep_walks()
    with short_lanes(5), spy:
        decoded, _ = decode_layer(record)
    assert walks[0] > 40  # lanes of about 5 codewords, or a head of the longest code
    assert np.array_equal(decoded.symbols, lq.symbols) and encode_layer(decoded) == record


def _with_crc(record: bytes) -> bytes:
    body = record[:-4]
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def test_flipped_name_byte_is_a_checksum_error():
    record = bytearray(encode_layer(_shift_layer("conv")))
    record[6] = 0xFF  # first name byte: no longer UTF-8
    with pytest.raises(CorruptionError, match="checksum"):
        decode_layer(bytes(record))


def test_name_that_is_not_utf8_is_a_format_error():
    record = bytearray(encode_layer(_shift_layer("conv")))
    record[6] = 0xFF
    with pytest.raises(FormatError, match="UTF-8"):
        decode_layer(_with_crc(bytes(record)))


@pytest.mark.parametrize("wsep", [float("nan"), -1.0])
def test_record_with_a_bad_separation_is_a_format_error(wsep):
    record = bytearray(encode_layer(_shift_layer("conv")))
    at = 6 + len("conv") + struct.calcsize("<BBfbbbbbf")  # wsep: the last fixed field
    assert record[at : at + 4] == struct.pack("<f", _shift_layer("conv").wsep)
    record[at : at + 4] = struct.pack("<f", wsep)
    with pytest.raises(FormatError, match="layer 'conv': wsep must be finite and >= 0"):
        decode_layer(_with_crc(bytes(record)))


def test_record_with_a_bad_mean_sign_byte_names_its_layer():
    record = bytearray(encode_layer(_rec_layer("conv")))
    at = 6 + len("conv") + struct.calcsize("<BBfb")  # the sign byte of mu_minus
    assert record[at] == 0xFF  # -1: mu_minus is a negative power of two
    record[at] = 5
    record = _with_crc(bytes(record))
    for decode in (decode_layer, lambda r: decode_compressed(framing.pack(codec.MAGIC, [r]))):
        with pytest.raises(FormatError, match="^layer 'conv': bad mean sign byte 5$"):
            decode(record)


def test_unknown_container_version_rejected():
    data = bytearray(encode_compressed(CompressedModel([_shift_layer()])))
    data[4:6] = struct.pack("<H", 99)  # header: magic (4 bytes), version u16
    with pytest.raises(FormatError, match="version 99"):
        decode_compressed(data)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)), min_size=1,
                max_size=3))
def test_mutated_container_loads_or_raises_format_error(flips):
    data = bytearray(_SMALL_CONTAINER)
    for at, mask in flips:
        data[at % len(data)] ^= mask
    try:
        decode_compressed(bytes(data))
    except FormatError:
        pass


_SMALL_CONTAINER = encode_compressed(
    CompressedModel([_shift_layer("a", n=64), _rec_layer("b", n=96)]))
