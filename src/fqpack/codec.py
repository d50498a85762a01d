"""Canonical Huffman coding of symbol streams and the compressed container.

Tree construction is deterministic: always merge the two lowest-count nodes,
breaking count ties by the smallest symbol value contained in the node. Code
assignment is canonical (shorter codes first, ties by ascending symbol), so a
layer's table is fully described by one code length per alphabet symbol. A
single-symbol alphabet gets a 1-bit code.

Both directions run as numpy array passes, not as Python steps per symbol
or per bit:

* encode looks up every symbol's code and length and places each code at
  the cumulative sum of the lengths before it. It scatters the code bits
  into a one-byte-per-bit array, one pass per code bit index over blocks of
  ``_ENCODE_SYMBOLS`` symbols, and packs the array once.
* decode reads the payload in chunks of ``_CHUNK_BYTES`` (2 KiB). For every
  bit offset of a chunk it forms a left-justified 63-bit window and finds
  the code length at that offset by searching the canonical per-length
  limits, in the style of Moffat & Turpin ("On the implementation of
  minimum redundancy prefix codes", IEEE TCOM 1997); no 2^L lookup table is
  built. A Python walk along jump tables of those lengths picks out the
  codeword starts, and canonical arithmetic maps each start's window to its
  symbol. The scratch arrays of one chunk come to about 1 MB, whatever the
  layer size.

The window holds any code of up to ``MAX_CODE_LEN`` (57) bits; a table with
longer codes is rejected when it is built. A Huffman code that long needs
more than 10^11 symbols.

A layer record's body after its name field (little-endian; the name field
and the framing around the body, with the header, record count and CRC32,
are described in ``fqpack.framing``):

    mode u8 (0 = shift, 1 = recentralized), n_bits u8
    alpha f32, bias i8
    mu_minus (sign i8, exponent i8), mu_plus (sign i8, exponent i8)
    sigma f32, wsep f32 (the separation measured when the layer was fitted)
    code lengths, u8 per alphabet symbol (2^n_bits bytes, 0 = absent)
    payload_bits u64, payload bytes (zero-padded to a byte boundary)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import framing
from .errors import CorruptionError, FormatError, ValidationError
from .focused_quant import MODE_RECENTRALIZED, MODE_SHIFT, LayerQuantization
from .model_store import ModelFile, NamedLayers, weight_payload_bytes

MAGIC = b"FQZ1"

_MODE_CODES = {MODE_SHIFT: 0, MODE_RECENTRALIZED: 1}
_MODE_NAMES = {code: name for name, code in _MODE_CODES.items()}

REPORT_HEADER = "layer,mode,bits,orig_bytes,comp_bytes,cr,sparsity"

_WINDOW = 63  # decode window bits: 8 payload bytes, shifted left up to 7 bits, then right 1
MAX_CODE_LEN = _WINDOW - 6  # bits of the window that always come from the payload
_ENCODE_SYMBOLS = 1 << 16  # symbols placed per encode step
_CHUNK_BYTES = 1 << 11  # payload bytes decoded per step
_JUMP_LEVELS = 3  # the decode walk steps 2**3 codewords at a time


def _huffman_lengths(counts: dict) -> dict:
    """Code length per symbol from positive counts (deterministic merges)."""
    import heapq

    items = sorted(counts.items())
    if not items:
        raise ValueError("no symbols to code")
    if len(items) == 1:
        return {items[0][0]: 1}
    # heap entries: (count, min symbol in subtree, symbols in subtree); no two
    # subtrees share a min symbol, so the symbol lists are never compared
    heap = [(cnt, sym, [sym]) for sym, cnt in items]
    heapq.heapify(heap)
    lengths = dict.fromkeys(counts, 0)
    while len(heap) > 1:
        c1, m1, s1 = heapq.heappop(heap)
        c2, m2, s2 = heapq.heappop(heap)
        merged = s1 + s2
        for sym in merged:  # each merge puts both subtrees one level deeper
            lengths[sym] += 1
        heapq.heappush(heap, (c1 + c2, min(m1, m2), merged))
    return lengths


@dataclass
class HuffmanTable:
    """Canonical prefix code over a fixed-size alphabet of small integers."""

    lengths: np.ndarray  # uint8 per alphabet symbol; 0 = symbol absent
    codes: dict = field(init=False, repr=False)
    _left_codes: np.ndarray = field(init=False, repr=False)
    _decode: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self.lengths = np.asarray(self.lengths, dtype=np.uint8)
        present = np.nonzero(self.lengths)[0]
        if present.size == 0:
            raise FormatError("code table has no symbols")
        max_len = int(self.lengths.max())
        if max_len > MAX_CODE_LEN:
            raise FormatError(
                f"code length {max_len} exceeds the {MAX_CODE_LEN}-bit decode window"
            )
        count = np.bincount(self.lengths[present], minlength=max_len + 1).tolist()
        # canonical numbering: the codes of each length continue, one bit
        # longer, from just past the last code of the length before
        first_code = [0] * (max_len + 1)
        first_index = [0] * (max_len + 1)
        for length in range(1, max_len + 1):
            first_code[length] = (first_code[length - 1] + count[length - 1]) << 1
            first_index[length] = first_index[length - 1] + count[length - 1]
        if first_code[max_len] + count[max_len] > 1 << max_len:
            kraft = float(np.sum(2.0 ** -self.lengths[present].astype(np.float64)))
            raise FormatError(f"Kraft sum {kraft} exceeds 1: not a prefix code")
        # symbols in canonical order (shorter codes first, ties by symbol);
        # the symbol at index i with an l-bit code has code i - base[l]
        ordered = present[np.lexsort((present, self.lengths[present]))]
        ordered_len = self.lengths[ordered].astype(np.int64)
        base = np.array(first_index, dtype=np.int64) - np.array(first_code, dtype=np.int64)
        codes = np.arange(ordered.size, dtype=np.int64) - base[ordered_len]
        self.codes = dict(zip(ordered.tolist(), codes.tolist()))
        left = np.zeros(self.lengths.size, dtype=np.uint64)
        left[ordered] = codes.astype(np.uint64) << (64 - ordered_len).astype(np.uint64)
        self._left_codes = left
        # every code of length <= l, left-justified in _WINDOW bits, lies
        # below limits[l - 1]
        limits = np.array(
            [(first_code[l] + count[l]) << (_WINDOW - l) for l in range(1, max_len + 1)],
            dtype=np.uint64,
        )
        # symbols stay in the narrowest dtype until the whole stream is decoded
        self._decode = (limits, base, ordered.astype(np.min_scalar_type(self.lengths.size - 1)))

    @classmethod
    def from_frequencies(cls, counts, alphabet_size: int) -> "HuffmanTable":
        """Build the table from symbol counts (mapping or dense array)."""
        if isinstance(counts, np.ndarray):
            counts = {int(s): int(c) for s, c in enumerate(counts) if c > 0}
        else:
            counts = {int(s): int(c) for s, c in counts.items() if c > 0}
        if any(not 0 <= s < alphabet_size for s in counts):
            raise ValueError("symbol outside the alphabet")
        lengths = np.zeros(alphabet_size, dtype=np.uint8)
        for sym, length in _huffman_lengths(counts).items():
            if length > 255:
                raise ValueError("code length exceeds u8")
            lengths[sym] = length
        return cls(lengths)

    def encode(self, symbols: np.ndarray):
        """Pack symbols MSB-first; returns (payload bytes, payload bit count).

        Each symbol's code starts where the previous one ends (a cumulative
        sum of code lengths). Working through _ENCODE_SYMBOLS symbols at a
        time, bit j of every code at least j + 1 bits long is scattered into
        a one-byte-per-bit array, one code bit index at a time; the array is
        packed once at the end.
        """
        symbols = np.asarray(symbols, dtype=np.int64).ravel()
        if symbols.size == 0:
            return b"", 0
        if symbols.min() < 0 or symbols.max() >= self.lengths.size:
            outside = (symbols < 0) | (symbols >= self.lengths.size)
            raise ValueError(f"symbol {int(symbols[np.argmax(outside)])} not in the code table")
        sym_len = self.lengths[symbols]
        if not sym_len.all():
            raise ValueError(f"symbol {int(symbols[np.argmin(sym_len)])} not in the code table")
        total_bits = int(sym_len.sum(dtype=np.int64))
        bits = np.zeros(total_bits, dtype=np.uint8)
        end = 0
        for first in range(0, symbols.size, _ENCODE_SYMBOLS):
            length = sym_len[first : first + _ENCODE_SYMBOLS]
            pos = np.cumsum(length, dtype=np.int64)
            pos += end
            end = int(pos[-1])
            pos -= length
            word = self._left_codes[symbols[first : first + _ENCODE_SYMBOLS]]
            for j in range(int(length.max())):
                if j:
                    longer = length > j
                    pos, word, length = pos[longer] + 1, word[longer] << np.uint64(1), length[longer]
                bits[pos] = word >> np.uint64(63)
        return np.packbits(bits).tobytes(), total_bits

    def decode(self, payload, payload_bits: int) -> np.ndarray:
        """Decode exactly payload_bits bits back into symbols.

        The payload is read _CHUNK_BYTES at a time. Within a chunk, the code
        length at every bit offset comes from a search of the canonical
        per-length limits; a walk along those lengths from the first codeword
        start finds the codeword starts, and canonical arithmetic turns each
        start's window into its symbol.
        """
        data = np.frombuffer(payload, dtype=np.uint8)
        if payload_bits > 8 * data.size:
            raise CorruptionError("payload shorter than its declared bit length")
        limits, base, ordered = self._decode
        max_len = limits.size
        shifts = np.arange(8, dtype=np.uint64)
        n_bytes = (payload_bits + 7) // 8
        pieces = []
        pos = 0  # bit offset of the next codeword
        for first in range(0, n_bytes, _CHUNK_BYTES):
            chunk = min(_CHUNK_BYTES, n_bytes - first)
            seg = data[first : first + chunk + 7]
            if seg.size < chunk + 7:  # zero bytes past the end keep windows full
                seg = np.concatenate([seg, np.zeros(chunk + 7 - seg.size, np.uint8)])
            words = sliding_window_view(seg, 8).view(">u8")[:, 0].astype(np.uint64)
            window = ((words[:, None] << shifts) >> np.uint64(64 - _WINDOW)).ravel()
            length = np.searchsorted(limits, window, side="right")
            length += 1
            offset = 8 * first
            n_offsets = min(8 * chunk, payload_bits - offset)
            starts, at = _codeword_starts(length[:n_offsets], pos - offset)
            pos = offset + at
            if not starts.size:
                continue
            start_len = length[starts]
            unmatched = start_len > max_len
            if unmatched.any():
                bad = offset + int(starts[np.argmax(unmatched)])
                if payload_bits - bad <= max_len:  # too few bits left to rule out every code
                    raise CorruptionError("payload ends inside a codeword")
                raise CorruptionError("bit pattern matches no codeword")
            code = window[starts] >> (_WINDOW - start_len).astype(np.uint64)
            pieces.append(ordered[code.astype(np.int64) + base[start_len]])
        if pos != payload_bits:
            raise CorruptionError("payload ends inside a codeword")
        return np.concatenate(pieces or [ordered[:0]]).astype(np.int64)


def _codeword_starts(length: np.ndarray, at: int):
    """Offsets below length.size reached by stepping from ``at`` by length[offset].

    Returns them in increasing order, with the first offset past the end. The
    Python walk takes 2**_JUMP_LEVELS codewords per step, along jump tables
    built by repeated gathers, and the skipped starts are filled in from the
    same tables.
    """
    n = length.size
    if at >= n:
        return np.zeros(0, dtype=np.int64), at
    # jumps[k][p]: the offset 2**k codewords after p, clamped to n
    step = np.arange(n + 1, dtype=np.int64)
    step[:n] += length
    np.minimum(step, n, out=step)
    jumps = [step]
    for _ in range(_JUMP_LEVELS):
        jumps.append(jumps[-1][jumps[-1]])
    far = memoryview(jumps[-1])
    blocks = []
    while at < n and far[at] < n:
        blocks.append(at)
        at = far[at]
    starts = np.array(blocks, dtype=np.int64)
    for jump in reversed(jumps[:-1]):
        starts = np.stack([starts, jump[starts]], axis=1).ravel()
    tail = []
    while at < n:
        tail.append(at)
        at += int(length[at])
    return np.concatenate([starts, tail]).astype(np.int64), at


def _encode_pow2(value: float):
    """Split an exact signed power of two (or 0) into (sign, exponent) bytes."""
    if value == 0.0:
        return 0, 0
    mant, exp = np.frexp(abs(value))
    if mant != 0.5:
        raise ValueError(f"{value} is not a signed power of two")
    exponent = int(exp) - 1
    if not -128 <= exponent <= 127:
        raise ValueError("power-of-two exponent outside i8 range")
    return (1 if value > 0 else -1), exponent


def _decode_pow2(sign: int, exponent: int) -> float:
    if sign == 0:
        return 0.0
    if sign not in (-1, 1):
        raise FormatError(f"bad mean sign byte {sign}")
    return float(sign) * float(np.ldexp(1.0, exponent))


_FIXED = "<BBfbbbbbff"  # mode, n_bits, alpha, bias, mu fields, sigma, wsep


def _layer_table(lq: LayerQuantization):
    """The layer's Huffman table and its symbol counts."""
    counts = np.bincount(lq.symbols, minlength=lq.alphabet_size)
    return HuffmanTable.from_frequencies(counts, lq.alphabet_size), counts


def _body_head(lq: LayerQuantization, table: HuffmanTable, payload_bits: int) -> bytes:
    """Every byte of a layer record's body before its payload."""
    ms, me = _encode_pow2(lq.mu[0])
    ps, pe = _encode_pow2(lq.mu[1])
    return b"".join((
        framing.pack_name(lq.name),
        struct.pack(
            _FIXED, _MODE_CODES[lq.mode], lq.n_bits, np.float32(lq.alpha), lq.bias,
            ms, me, ps, pe, np.float32(lq.sigma), np.float32(lq.wsep),
        ),
        table.lengths.tobytes(),
        struct.pack("<Q", payload_bits),
    ))


def encode_layer(lq: LayerQuantization) -> bytes:
    """Serialize one quantized layer to its framed container record."""
    table, _ = _layer_table(lq)
    payload, payload_bits = table.encode(lq.symbols)
    return framing.pack_record(_body_head(lq, table, payload_bits) + payload)


def _record_size(lq: LayerQuantization) -> int:
    """Exact byte length of ``encode_layer(lq)``, found without encoding."""
    table, counts = _layer_table(lq)
    payload_bits = int(np.dot(counts, table.lengths.astype(np.int64)))
    payload = (payload_bits + 7) // 8
    return framing.RECORD_OVERHEAD + len(_body_head(lq, table, payload_bits)) + payload


def decode_layer(data, offset: int = 0):
    """Verify and parse one framed layer record; returns (LayerQuantization, next offset)."""
    fields, end = framing.read_record(data, offset)
    name = fields.name()
    mode_code, n_bits, alpha, bias, ms, me, ps, pe, sigma, wsep = fields.unpack(_FIXED)
    if mode_code not in _MODE_NAMES:
        raise FormatError(f"layer {name!r}: bad mode byte {mode_code}")
    if not 3 <= n_bits <= 8:
        raise FormatError(f"layer {name!r}: bad bit width {n_bits}")
    table = HuffmanTable(np.frombuffer(fields.take(1 << n_bits), dtype=np.uint8).copy())
    (payload_bits,) = fields.unpack("<Q")
    payload = fields.take((payload_bits + 7) // 8)
    fields.done()
    symbols = table.decode(payload, payload_bits)
    try:
        lq = LayerQuantization(
            name=name, mode=_MODE_NAMES[mode_code], n_bits=n_bits,
            alpha=float(alpha), bias=int(bias),
            mu=(_decode_pow2(ms, me), _decode_pow2(ps, pe)),
            sigma=float(sigma), symbols=symbols, wsep=float(wsep),
        )
    except ValueError as exc:
        raise FormatError(f"layer {name!r}: {exc}") from exc
    return lq, end


@dataclass
class CompressedModel(NamedLayers):
    """Ordered quantized layers (LayerQuantization); the on-disk form of a compressed model."""

    _noun = "compressed model"


def encode_compressed(cm: CompressedModel) -> bytes:
    return framing.pack(MAGIC, [encode_layer(lq) for lq in cm.layers])


def decode_compressed(data: bytes) -> CompressedModel:
    return framing.read_container(data, MAGIC, decode_layer, CompressedModel)


def save_compressed(cm: CompressedModel, path) -> int:
    """Write a compressed container; returns the byte count written."""
    return Path(path).write_bytes(encode_compressed(cm))


def load_compressed(path) -> CompressedModel:
    return decode_compressed(Path(path).read_bytes())


def compression_ratio(orig_bytes: int, comp_bytes: int) -> float:
    if comp_bytes <= 0:
        raise ValueError("compressed size must be positive")
    return orig_bytes / comp_bytes


@dataclass
class ReportRow:
    layer: str
    mode: str
    bits: int
    orig_bytes: int
    comp_bytes: int
    cr: float
    sparsity: float


def pair_layers(model: ModelFile, cm: CompressedModel) -> list:
    """(LayerSpec, LayerQuantization) per model layer, in model order.

    The one check that a container belongs to a model: each model layer has a
    compressed layer of its name and weight count, and there is no other.
    """
    pairs = []
    for spec in model.layers:
        lq = cm.layer(spec.name)
        if lq.weight_count != spec.weight_count:
            raise ValidationError(f"layer {spec.name!r}: {lq.weight_count} symbols "
                                  f"for {spec.weight_count} weights")
        pairs.append((spec, lq))
    extra = {lq.name for lq in cm.layers} - {spec.name for spec in model.layers}
    if extra:
        raise ValidationError(f"compressed layers not in the model: {sorted(extra)}")
    return pairs


def compression_report(model: ModelFile, cm: CompressedModel):
    """Per-layer size rows plus a "total" row.

    Original bytes count 4 per weight (the dense float baseline); compressed
    bytes are the exact record sizes (computed from each layer's code lengths
    and symbol counts, without encoding), and the total row includes the
    container header. Sparsity is the fraction of symbols decoding to zero.
    """
    rows = []
    total_comp = framing.HEADER_SIZE
    total_zero = 0
    for layer, lq in pair_layers(model, cm):
        orig = 4 * layer.weight_count
        comp = _record_size(lq)
        rows.append(
            ReportRow(
                layer.name, lq.mode, lq.n_bits, orig, comp,
                compression_ratio(orig, comp), lq.zero_fraction,
            )
        )
        total_comp += comp
        total_zero += int(np.count_nonzero(lq.symbols == 0))
    rows.append(
        ReportRow(
            "total", "-", 0, weight_payload_bytes(model), total_comp,
            compression_ratio(weight_payload_bytes(model), total_comp),
            total_zero / model.weight_count if model.weight_count else 0.0,
        )
    )
    return rows


def report_to_csv(rows) -> str:
    lines = [REPORT_HEADER]
    for r in rows:
        lines.append(
            f"{r.layer},{r.mode},{r.bits},{r.orig_bytes},{r.comp_bytes},"
            f"{r.cr:.2f},{r.sparsity:.4f}"
        )
    return "\n".join(lines) + "\n"
