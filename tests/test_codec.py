import struct
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fqpack import codec, framing
from fqpack.codec import (
    MAX_CODE_LEN,
    REPORT_HEADER,
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
    report_to_csv,
    save_compressed,
    _huffman_lengths,
)
from fqpack.errors import CorruptionError, FormatError, ValidationError
from fqpack.focused_quant import (
    MODE_RECENTRALIZED,
    MODE_SHIFT,
    LayerQuantization,
    quantize_layer,
)
from fqpack.model_store import LayerSpec, ModelFile
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
        payload, bits, _ = table.encode(np.array([sym]))
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
    payload, bits, _ = table.encode(np.full(9, 5))
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
        with mock.patch.object(HuffmanTable, "_window_table",
                               side_effect=AssertionError("encode built a decode table")):
            payload, bits, _ = table.encode(symbols)
        assert np.array_equal(table.decode(payload, bits), symbols)


def test_payload_matches_optimal_length():
    rng = np.random.default_rng(52)
    for _ in range(30):
        symbols = rng.integers(0, 16, size=int(rng.integers(2, 500)))
        counts = {int(s): int(c) for s, c in
                  enumerate(np.bincount(symbols, minlength=16)) if c > 0}
        table = HuffmanTable.from_frequencies(dense(counts, 16))
        _, bits, _ = table.encode(symbols)
        assert bits == optimal_cost(counts)


def test_encode_unknown_symbol_rejected():
    table = HuffmanTable.from_frequencies(np.array([3, 1, 0, 0]))
    with pytest.raises(ValueError):
        table.encode(np.array([2]))


def test_decode_truncated_payload():
    table = HuffmanTable.from_frequencies(np.array([1, 1, 2, 0]))
    payload, bits, _ = table.encode(np.array([0, 1, 2, 0]))
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
    _, bits, _ = table.encode(lq.symbols)
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
    assert rows[0].sparsity == pytest.approx(lq.zero_fraction)
    csv = report_to_csv(rows)
    assert csv.splitlines()[0] == REPORT_HEADER
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

    a, b = _shift_layer("a", n=128), _shift_layer("b", n=256)
    model = ModelFile([dense("a", 64), dense("b", 128)])
    pairs = pair_layers(model, CompressedModel([b, a]))
    assert [(spec.name, lq.name) for spec, lq in pairs] == [("a", "a"), ("b", "b")]
    assert all(spec is model.layer(lq.name) for spec, lq in pairs)
    with pytest.raises(ValidationError, match="^layer 'b' is missing from the compressed model$"):
        pair_layers(model, CompressedModel([a]))
    with pytest.raises(ValidationError, match="^layer 'b': 256 symbols for 64 weights$"):
        pair_layers(ModelFile([dense("a", 64), dense("b", 32)]), CompressedModel([a, b]))
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


def serial_block_bits(lengths, symbols, codewords):
    """The bit length of each block of ``codewords`` symbols but the last, one symbol at a time."""
    sums = [0]
    for i, sym in enumerate(np.asarray(symbols).ravel()):
        if i and i % codewords == 0:
            sums.append(0)
        sums[-1] += int(lengths[sym])
    return sums[:-1]


# sizes small enough that short streams still cross encode and decode block edges
block_sizes = st.sampled_from([1, 3, 64, codec._ENCODE_SYMBOLS])
decode_block_sizes = st.sampled_from([1, 2, 5, 64, codec._BLOCK_CODEWORDS])


@settings(max_examples=150, deadline=None)
@given(code_tables(), st.integers(0, 3000), st.integers(0, 2**32 - 1), block_sizes,
       decode_block_sizes)
def test_array_coder_matches_serial_reference(table_counts, size, seed, block, codewords):
    table, counts = table_counts
    assert codes_of(table) == serial_codes(table.lengths)
    symbols = stream_for(table, counts, size, seed)
    with mock.patch.object(codec, "_ENCODE_SYMBOLS", block), \
            mock.patch.object(codec, "_BLOCK_CODEWORDS", codewords):
        payload, bits, lengths = table.encode(symbols)
        assert (payload, bits) == serial_encode(table.lengths, symbols)
        assert lengths.dtype == np.uint16
        assert lengths.tolist() == serial_block_bits(table.lengths, symbols, codewords)
        decoded = table.decode(payload, bits, lengths)
    assert decoded.dtype == np.uint8 and np.array_equal(decoded, symbols)


@settings(max_examples=200, deadline=None)
@given(code_tables(), st.binary(max_size=40), st.data(), decode_block_sizes)
def test_decode_of_any_bits_matches_serial_reference(table_counts, payload, data, codewords):
    # arbitrary payloads reach every error: unmatched patterns under
    # incomplete codes, trailing partial codewords, bit counts past the end
    table, _ = table_counts
    bits = data.draw(st.integers(0, 8 * len(payload) + 9))
    with mock.patch.object(codec, "_BLOCK_CODEWORDS", codewords):
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
    payload, bits, _ = table.encode(symbols)
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
    payload, bits, lengths = table.encode(symbols)
    assert lengths.size == 390 and lengths.dtype == np.uint16  # 391 blocks of 512 codewords
    assert (payload, bits) == serial_encode(table.lengths, symbols)
    assert np.array_equal(table.decode(payload, bits, lengths), symbols)


def test_decode_errors():
    single = HuffmanTable(np.array([0, 1, 0, 0], dtype=np.uint8))  # one symbol, code "0"
    with pytest.raises(CorruptionError, match="matches no codeword"):
        single.decode(b"\x40", 8)  # 0 then 1: the second bit starts no code
    table = HuffmanTable.from_frequencies(np.array([5, 1, 1, 0]))  # 0 = "0", 1 = "10", 2 = "11"
    with pytest.raises(CorruptionError, match="ends inside a codeword"):
        table.decode(b"\x80", 1)  # a lone "1"
    with pytest.raises(CorruptionError, match="shorter than its declared"):
        table.decode(b"\x00", 9)


# --- the block walk ----------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 8, 17, 64, 1000])
def test_walk_matches_a_serial_walk_before_at_and_past_the_end(n):
    # n codewords of a code with 1- to 16-bit codes, then a byte of spare
    # bits; the payload's declared end falls one bit before, at and one bit
    # past the end of the last codeword
    table = HuffmanTable.from_frequencies(dense(fibonacci_counts(27), 64))
    symbols = np.random.default_rng(n).integers(0, 27, size=n)
    payload, bits, _ = table.encode(symbols)
    payload += bytes([n % 256])
    for end in (bits - 1, bits, bits + 1):
        want = outcome(serial_decode, table.lengths, payload, end)
        assert same_outcome(outcome(table.decode, payload, end), want)
    with mock.patch.object(codec, "_BLOCK_CODEWORDS", 4):
        _, _, lengths = table.encode(symbols)
        assert np.array_equal(table.decode(payload, bits, lengths), symbols)
        with pytest.raises(CorruptionError, match="payload ends inside a codeword"):
            table.decode(payload, bits - 1, lengths)


def edge_stream(tail: str):
    """Payload, bit count and table of "010", "00" up to the last codeword of the
    fourth 8-codeword block, then ``tail`` from there, under a table whose codes
    are 00, 010 and a 16-bit 0110...0; a window from 0110...01 up matches no code."""
    bits = "010" + "00" * 30 + tail
    payload = np.packbits(np.frombuffer(bits.encode(), np.uint8) - ord("0")).tobytes()
    return HuffmanTable(np.array([2, 3, 16], dtype=np.uint8)), payload, len(bits)


@pytest.mark.parametrize("tail", [
    "1",  # unmatched at the block's last codeword, the payload's last bit
    "1" * 17,  # unmatched at the block's last codeword, more bits after it
    "0110",  # a 16-bit code cut short by the payload's end
    "0110000000000000" "010",  # a 16-bit code that ends the block, then one more
])
def test_walk_from_the_last_offset_of_a_block(tail):
    table, payload, bits = edge_stream(tail)
    want = outcome(serial_decode, table.lengths, payload, bits)
    with mock.patch.object(codec, "_BLOCK_CODEWORDS", 8):
        # the lengths of the blocks the stream completes, before the tail
        prefix = want if isinstance(want, np.ndarray) else [1] + [0] * 30
        _, _, lengths = table.encode(prefix)
        assert lengths.tolist()[:3] == [17, 16, 16]
        got = outcome(table.decode, payload, bits, lengths)
    assert same_outcome(got, want)


@settings(max_examples=100, deadline=None)
@given(code_tables(), st.sampled_from([1, 2, 5, 64]), st.sampled_from([-1, 0, 1, "k"]),
       st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_block_walk_matches_serial_reference(table_counts, codewords, edge, k, seed):
    # streams one codeword short of, at and one past a block, and of k blocks
    table, counts = table_counts
    size = k * codewords if edge == "k" else codewords + edge
    symbols = stream_for(table, counts, size, seed)
    with mock.patch.object(codec, "_BLOCK_CODEWORDS", codewords):
        payload, bits, lengths = table.encode(symbols)
        assert lengths.size == max(0, -(-size // codewords) - 1)
        got = table.decode(payload, bits, lengths)
    want = serial_decode(table.lengths, payload, bits)
    assert got.dtype == np.uint8 and np.array_equal(got, want)


def two_bit_stream(symbols, lengths=(2, 2, 2, 2)):
    """Table, payload and bit count of 2-bit codewords; a table with a 0 length
    leaves a codeword that matches nothing."""
    table = HuffmanTable(np.array(lengths, dtype=np.uint8))
    return (table,) + serial_encode(np.array([2, 2, 2, 2]), symbols)


# 3 blocks of 4 two-bit codewords, then 2 more: block lengths 8, 8, 8
SYMBOLS_14 = [0, 1, 2, 3, 3, 2, 1, 0, 1, 1, 2, 2, 0, 3]


@pytest.mark.parametrize("lengths, message", [
    ([8, 7, 8], "block 1 ends inside a codeword"),  # one length off by -1
    ([8, 9, 8], "block 1 ends inside a codeword"),  # and by +1
    ([9, 7, 8], "block 0 ends inside a codeword"),  # one offset inside a codeword
    ([10, 6, 8], "block 0 holds 5 codewords, not 4"),  # one on another codeword's start
    ([8, 8, 8, 11], "block lengths run past the payload"),
    ([8, 8], "block 2 holds 6 codewords, not 1 to 4"),  # too few lengths
    ([8, 8, 8, 2], "block 3 holds 1 codewords, not 4"),  # too many
    ([8, 8, 8, 4], "block 3 holds 2 codewords, not 4"),
])
def test_block_lengths_that_do_not_fit_the_stream_are_refused(lengths, message):
    table, payload, bits = two_bit_stream(SYMBOLS_14)
    with mock.patch.object(codec, "_BLOCK_CODEWORDS", 4):
        assert table.decode(payload, bits, [8, 8, 8]).tolist() == SYMBOLS_14
        with pytest.raises(CorruptionError, match=message):
            table.decode(payload, bits, lengths)


def test_empty_last_block_is_refused():
    table, payload, bits = two_bit_stream(SYMBOLS_14[:12])
    with mock.patch.object(codec, "_BLOCK_CODEWORDS", 4):
        assert table.decode(payload, bits, [8, 8]).tolist() == SYMBOLS_14[:12]
        with pytest.raises(CorruptionError, match="block 3 holds 0 codewords, not 1 to 4"):
            table.decode(payload, bits, [8, 8, 8])


def test_unmatched_window_inside_a_lane_is_refused():
    # 11 matches no code of a table with 00, 01 and 10 only; it is the second
    # codeword of block 1
    symbols = SYMBOLS_14[:5] + [3] + [0] * 8
    table, payload, bits = two_bit_stream(symbols, lengths=(2, 2, 2, 0))
    with mock.patch.object(codec, "_BLOCK_CODEWORDS", 4):
        with pytest.raises(CorruptionError, match="bit pattern matches no codeword"):
            table.decode(payload, bits, [8, 8, 8])
    assert outcome(table.decode, payload, bits)[1] == "bit pattern matches no codeword"


def test_payload_ending_inside_the_last_block_is_refused():
    table, payload, bits = two_bit_stream(SYMBOLS_14)
    with mock.patch.object(codec, "_BLOCK_CODEWORDS", 4):
        with pytest.raises(CorruptionError, match="payload ends inside a codeword"):
            table.decode(payload, bits - 1, [8, 8, 8])


def test_lane_walk_stops_after_a_block_of_steps():
    # 40 codewords, of which the first block claims 38 with the block size at
    # 2: its lane cannot reach its end in 2 steps
    table, payload, bits = two_bit_stream([0] * 40)
    with mock.patch.object(codec, "_BLOCK_CODEWORDS", 2):
        with pytest.raises(CorruptionError, match="block 0 holds over 2 codewords"):
            table.decode(payload, bits, [76])


# --- record sizes, record checks, container version ---------------------------------


@pytest.mark.parametrize("mode, n_bits", [(MODE_SHIFT, b) for b in range(3, 9)]
                         + [(MODE_RECENTRALIZED, b) for b in range(4, 9)])
def test_report_sizes_equal_encoded_records(mode, n_bits):
    rng = np.random.default_rng(57 + n_bits)
    pick = rng.random(3000) < 0.5
    weights = np.where(pick, rng.normal(-0.3, 0.04, 3000), rng.normal(0.25, 0.05, 3000))
    mask = prune_by_magnitude(weights, 0.4)
    lq = quantize_layer(weights, mask, n_bits, w_sep=1e9 if mode == MODE_SHIFT else 0.0,
                        seed=n_bits, name=f"layer{n_bits}")
    assert lq.mode == mode
    spec = LayerSpec(name=lq.name, kind="conv2d", geometry=(1, 1, 1, lq.weight_count, 1, 1),
                     weight=np.zeros((1, 1, 1, lq.weight_count), dtype=np.float32))
    cm = CompressedModel([lq])
    rows = compression_report(ModelFile([spec]), cm)
    assert rows[0].comp_bytes == len(encode_layer(lq))
    assert rows[1].comp_bytes == len(encode_compressed(cm))


@pytest.mark.parametrize("n", [512, 513, 5000])
def test_report_size_counts_the_symbol_count_and_block_lengths(n):
    lq = _shift_layer("wide", n=n)
    spec = LayerSpec(name=lq.name, kind="conv2d", geometry=(1, 1, 1, n, 1, 1),
                     weight=np.zeros((1, 1, 1, n), dtype=np.float32))
    record = encode_layer(lq)
    payload, _, _ = codec._layer_table(lq)[0].encode(lq.symbols)
    # record length, name field, fixed fields, code lengths; then the symbol
    # count, a u16 per 512-codeword block but the last, the bit count, payload, CRC
    count_at = 4 + 2 + len(lq.name) + struct.calcsize("<BBfbbbbbff") + lq.alphabet_size
    assert struct.unpack_from("<I", record, count_at) == (n,)
    blocks = -(-n // 512) - 1
    assert len(record) == count_at + 4 + 2 * blocks + 8 + len(payload) + 4
    rows = compression_report(ModelFile([spec]), CompressedModel([lq]))
    assert rows[0].comp_bytes == len(record)


def test_record_whose_count_differs_from_its_symbols_is_refused():
    lq = _shift_layer("conv", n=300)
    record = bytearray(encode_layer(lq))
    count_at = 4 + 2 + len(lq.name) + struct.calcsize("<BBfbbbbbff") + lq.alphabet_size
    for count in (299, 301):  # the same single block, one symbol short or over
        record[count_at : count_at + 4] = struct.pack("<I", count)
        with pytest.raises(CorruptionError, match=f"300 symbols, the record counts {count}"):
            decode_layer(_with_crc(bytes(record)))


def test_record_with_more_bits_than_its_count_can_take_is_refused_unwalked():
    # 100 symbols, one block, so no block lengths cap the walk of its lane
    lq = _shift_layer("conv", n=100)
    table, _ = codec._layer_table(lq)
    longest = int(table.lengths.max())
    no_blocks = np.zeros(0, dtype=np.uint16)
    payload = np.random.default_rng(3).integers(0, 256, 1 << 16, dtype=np.uint8).tobytes()
    for bits in (100 * longest + 1, 8 * len(payload)):
        record = framing.pack_record(codec._body_head(lq, table, bits, no_blocks)
                                     + payload[: (bits + 7) // 8])
        with mock.patch.object(HuffmanTable, "decode", side_effect=AssertionError("walked")):
            with pytest.raises(CorruptionError, match=f"{bits} payload bits for 100 symbols"):
                decode_layer(record)
    # 100 codewords of the longest code: the record goes on to the walk
    bits = 100 * longest
    record = framing.pack_record(codec._body_head(lq, table, bits, no_blocks)
                                 + payload[: (bits + 7) // 8])
    with mock.patch.object(HuffmanTable, "decode", side_effect=AssertionError("walked")):
        with pytest.raises(AssertionError, match="walked"):
            decode_layer(record)


def test_record_round_trip_through_many_blocks():
    lq = _rec_layer("conv", n=512)
    with mock.patch.object(codec, "_BLOCK_CODEWORDS", 5):
        record = encode_layer(lq)
        decoded, _ = decode_layer(record)
    assert len(record) == len(encode_layer(lq)) + 2 * (103 - 1)  # 103 blocks of 5
    assert np.array_equal(decoded.symbols, lq.symbols)


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
