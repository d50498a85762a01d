"""Length-limited canonical Huffman coding of symbol streams, and the compressed container.

Code lengths come from package-merge (Larmore & Hirschberg, "A fast algorithm
for optimal length-limited Huffman codes", JACM 1990) with no code longer
than ``MAX_CODE_LEN`` (16) bits: a minimum-redundancy code under that limit,
so a Huffman-optimal one wherever the limit does not bind. Count ties break
by symbol, so the lengths are deterministic. Code assignment is canonical
(shorter codes first, ties by ascending symbol), so a layer's table is fully
described by one code length per alphabet symbol. A single-symbol alphabet
gets a 1-bit code. A table with a code longer than 16 bits is refused when
it is built, so a container written with longer codes does not load.

Both directions run as numpy array passes, not as Python steps per symbol
or per bit:

* encode works through blocks of ``_ENCODE_SYMBOLS`` symbols. One gather
  gives every symbol's code left-justified in 16 bits, one unpack turns
  those into rows of 16 bits, and a mask keeps each row's first
  code-length bits. In row order the kept bits are the block's stream;
  they go into one one-byte-per-bit array, packed once.
* decode reads the payload in chunks of ``_CHUNK_BYTES`` (2 KiB). Every bit
  offset of a chunk takes the 16 bits that start there from the three
  payload bytes around it, and one gather into a 2^16-entry table of
  ``length << 8 | symbol`` gives the code length and symbol at that offset.
  A Python walk along jump tables of those lengths, 2**``_JUMP_LEVELS``
  codewords a step, picks out the codeword starts; it runs past the end of
  the chunk rather than stopping short of it. The scratch arrays of one
  chunk come to under 1 MB, whatever the layer size, and the table to
  128 KiB.

Symbols are uint8 in both directions, as ``LayerQuantization`` holds them.
``HuffmanTable.encode`` range-checks a stream of a wider dtype before it
narrows it, so an out-of-range symbol is refused, not wrapped onto a valid
code; ``HuffmanTable.decode`` and :func:`decode_layer` return one byte per
symbol, and no full-length int64 copy of a stream is made on either side.

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
from functools import cached_property
from pathlib import Path

import numpy as np

from . import framing
from .errors import CorruptionError, FormatError, ValidationError
from .focused_quant import (
    MODE_RECENTRALIZED,
    MODE_SHIFT,
    LayerQuantization,
    gather,
    split_pow2,
    symbol_counts,
)
from .model_store import ModelFile, NamedLayers, weight_payload_bytes

MAGIC = b"FQZ1"

_MODE_CODES = {MODE_SHIFT: 0, MODE_RECENTRALIZED: 1}
_MODE_NAMES = {code: name for name, code in _MODE_CODES.items()}

REPORT_HEADER = "layer,mode,bits,orig_bytes,comp_bytes,cr,sparsity"

MAX_CODE_LEN = 16  # longest code; the decode table has 2**MAX_CODE_LEN entries
_ENCODE_SYMBOLS = 1 << 16  # symbols placed per encode step
_CHUNK_BYTES = 1 << 11  # payload bytes decoded per step
_JUMP_LEVELS = 3  # the decode walk steps 2**3 codewords at a time
_BIT_INDEX = np.arange(MAX_CODE_LEN)  # bit index within a left-justified code


def _huffman_lengths(counts: dict) -> dict:
    """Code length per symbol from positive counts, none over MAX_CODE_LEN bits.

    Package-merge: the leaves, sorted by (count, symbol), are merged with
    pairs of the list one level deeper, MAX_CODE_LEN - 1 times, a package
    going before a leaf of equal weight. The first 2n - 2 items of the top
    level are taken, and a package taken takes the two items it was made of
    one level down. A symbol's length is the number of levels at which its
    leaf is taken.
    """
    items = sorted(counts.items(), key=lambda item: (item[1], item[0]))
    if not items:
        raise ValueError("no symbols to code")
    n = len(items)
    if n == 1:
        return {items[0][0]: 1}
    leaf_weight = np.array([cnt for _, cnt in items], dtype=np.int64)
    leaf = np.arange(n)
    weight = leaf_weight
    levels = []  # per level above the deepest: leaf index per item, -1 for a package
    for _ in range(MAX_CODE_LEN - 1):
        pairs = weight.size // 2
        weight = np.concatenate([weight[0 : 2 * pairs : 2] + weight[1 : 2 * pairs : 2],
                                 leaf_weight])
        order = np.argsort(weight, kind="stable")
        weight = weight[order]
        levels.append(np.concatenate([np.full(pairs, -1), leaf])[order])
    depth = np.zeros(n, dtype=np.int64)
    take = 2 * n - 2
    for tags in reversed(levels):
        taken = tags[:take]
        depth[taken[taken >= 0]] += 1
        take = 2 * int(np.count_nonzero(taken < 0))  # a package takes in two items below
    depth[:take] += 1  # the deepest level holds only the leaves, in order
    return dict(zip((sym for sym, _ in items), depth.tolist()))


@dataclass
class HuffmanTable:
    """Canonical prefix code over an alphabet of at most 256 small integers."""

    lengths: np.ndarray  # uint8 per alphabet symbol; 0 = symbol absent
    codes: dict = field(init=False, repr=False)
    _left_codes: np.ndarray = field(init=False, repr=False)
    _ordered: np.ndarray = field(init=False, repr=False)  # symbols in canonical order

    def __post_init__(self):
        self.lengths = np.asarray(self.lengths, dtype=np.uint8)
        present = np.nonzero(self.lengths)[0]
        if present.size == 0:
            raise FormatError("code table has no symbols")
        max_len = int(self.lengths.max())
        if max_len > MAX_CODE_LEN:
            raise FormatError(f"code length {max_len} exceeds the {MAX_CODE_LEN}-bit limit")
        count = np.bincount(self.lengths[present], minlength=max_len + 1).tolist()
        # canonical numbering: the codes of each length continue, one bit
        # longer, from just past the last code of the length before
        first_code = [0] * (max_len + 1)
        for length in range(1, max_len + 1):
            first_code[length] = (first_code[length - 1] + count[length - 1]) << 1
        if first_code[max_len] + count[max_len] > 1 << max_len:
            kraft = float(np.sum(2.0 ** -self.lengths[present].astype(np.float64)))
            raise FormatError(f"Kraft sum {kraft} exceeds 1: not a prefix code")
        # symbols in canonical order (shorter codes first, ties by symbol)
        ordered = present[np.lexsort((present, self.lengths[present]))]
        ordered_len = self.lengths[ordered].astype(np.int64)
        codes = np.array(first_code, dtype=np.int64)[ordered_len]
        codes += np.arange(ordered.size) - np.searchsorted(ordered_len, ordered_len)
        self.codes = dict(zip(ordered.tolist(), codes.tolist()))
        # big-endian, so the bytes of a code read MSB first
        self._left_codes = np.zeros(self.lengths.size, dtype=">u2")
        self._left_codes[ordered] = codes << (MAX_CODE_LEN - ordered_len)
        self._ordered = ordered

    @cached_property
    def _lookup(self) -> np.ndarray:
        """The decode table, built by the first decode, since encoding never reads it.

        In canonical order the codes, left-justified in MAX_CODE_LEN bits,
        tile the table from 0: an l-bit code owns 2**(MAX_CODE_LEN - l)
        entries. Entries past the last code match none; their length
        max_len + 1 marks them.
        """
        ordered_len = self.lengths[self._ordered].astype(np.int64)
        lookup = np.full(1 << MAX_CODE_LEN, (int(self.lengths.max()) + 1) << 8, dtype=np.uint16)
        span = 1 << (MAX_CODE_LEN - ordered_len)
        lookup[: span.sum()] = np.repeat((ordered_len << 8 | self._ordered).astype(np.uint16), span)
        return lookup

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
        code_lengths = _huffman_lengths(counts)
        lengths[list(code_lengths)] = list(code_lengths.values())
        return cls(lengths)

    def encode(self, symbols: np.ndarray):
        """Pack symbols MSB-first; returns (payload bytes, payload bit count).

        Working through _ENCODE_SYMBOLS symbols at a time, each symbol's
        left-justified code is unpacked into a row of 16 bits. The first
        code-length bits of every row, taken in row order, are the block's
        bit stream; it goes into a one-byte-per-bit array, packed once at
        the end.
        """
        symbols = np.asarray(symbols).ravel()
        if symbols.size == 0:
            return b"", 0
        # in the given dtype, before the narrowing cast could wrap 256 onto 0
        if symbols.min() < 0 or symbols.max() >= self.lengths.size:
            outside = (symbols < 0) | (symbols >= self.lengths.size)
            raise ValueError(f"symbol {int(symbols[np.argmax(outside)])} not in the code table")
        symbols = symbols.astype(np.uint8, copy=False)
        sym_len = gather(self.lengths, symbols)
        if not sym_len.all():
            raise ValueError(f"symbol {int(symbols[np.argmin(sym_len)])} not in the code table")
        bits = np.empty(int(sym_len.sum(dtype=np.int64)), dtype=np.uint8)
        end = 0
        for first in range(0, symbols.size, _ENCODE_SYMBOLS):
            block = slice(first, first + _ENCODE_SYMBOLS)
            rows = np.unpackbits(gather(self._left_codes, symbols[block]).view(np.uint8))
            kept = rows.reshape(-1, MAX_CODE_LEN)[_BIT_INDEX < sym_len[block, None]]
            bits[end : end + kept.size] = kept
            end += kept.size
        return np.packbits(bits).tobytes(), bits.size

    def decode(self, payload, payload_bits: int) -> np.ndarray:
        """Decode exactly payload_bits bits back into uint8 symbols.

        The payload is read _CHUNK_BYTES at a time. Within a chunk, the 16
        bits at every bit offset index the lookup table, which gives the
        code length and symbol there; a walk along those lengths from the
        first codeword start finds the codeword starts, whose symbols are
        the stream.
        """
        data = np.frombuffer(payload, dtype=np.uint8)
        if payload_bits > 8 * data.size:
            raise CorruptionError("payload shorter than its declared bit length")
        max_len = int(self.lengths.max())
        shifts = np.arange(8, 0, -1, dtype=np.uint32)
        n_bytes = (payload_bits + 7) // 8
        data = np.concatenate([data[:n_bytes], np.zeros(2, np.uint8)])  # keep windows full
        pieces = []
        pos = 0  # bit offset of the next codeword
        for first in range(0, n_bytes, _CHUNK_BYTES):
            seg = data[first : first + _CHUNK_BYTES + 2].astype(np.uint32)
            word = seg[:-2] << 16 | seg[1:-1] << 8 | seg[2:]  # 24 bits from each byte
            entry = self._lookup[((word[:, None] >> shifts) & 0xFFFF).ravel()]
            offset = 8 * first
            starts, at = _codeword_starts(entry[: payload_bits - offset] >> 8, pos - offset)
            pos = offset + at
            found = entry[starts]
            unmatched = found >> 8 > max_len
            if unmatched.any():
                bad = offset + int(starts[np.argmax(unmatched)])
                if payload_bits - bad <= max_len:  # too few bits left to rule out every code
                    raise CorruptionError("payload ends inside a codeword")
                raise CorruptionError("bit pattern matches no codeword")
            pieces.append(found.astype(np.uint8))  # an entry's low byte is its symbol
        if pos != payload_bits:
            raise CorruptionError("payload ends inside a codeword")
        return np.concatenate(pieces or [np.zeros(0, np.uint8)])


def _codeword_starts(length: np.ndarray, at: int):
    """Offsets below length.size reached by stepping from ``at`` by length[offset].

    Returns them in increasing order, with the first offset past the end. A
    length is at most MAX_CODE_LEN + 1 (an unmatched window), so the step
    table runs that many identity entries past the end and the walk needs
    no clamp. The Python walk takes 2**_JUMP_LEVELS codewords per step,
    along jump tables built by repeated gathers, until it passes the end;
    the skipped starts are filled in from the same tables.
    """
    n = length.size
    # jumps[k][p]: the offset 2**k codewords after p, or the first one past the end
    step = np.arange(n + MAX_CODE_LEN + 1, dtype=np.int64)
    step[:n] += length
    jumps = [step]
    for _ in range(_JUMP_LEVELS):
        jumps.append(jumps[-1][jumps[-1]])
    far = memoryview(jumps[-1])
    blocks = []
    while at < n:
        blocks.append(at)
        at = far[at]
    starts = np.array(blocks, dtype=np.int64)
    for jump in reversed(jumps[:-1]):
        starts = np.stack([starts, jump[starts]], axis=1).ravel()
    return starts[starts < n], at


def _encode_pow2(value: float):
    """Split an exact signed power of two (or 0) into (sign, exponent) bytes."""
    sign, exponent = split_pow2(value)
    if not -128 <= exponent <= 127:
        raise ValueError("power-of-two exponent outside i8 range")
    return sign, exponent


def _decode_pow2(sign: int, exponent: int) -> float:
    if sign == 0:
        return 0.0
    if sign not in (-1, 1):
        raise FormatError(f"bad mean sign byte {sign}")
    return float(sign) * float(np.ldexp(1.0, exponent))


_FIXED = "<BBfbbbbbff"  # mode, n_bits, alpha, bias, mu fields, sigma, wsep


def _layer_table(lq: LayerQuantization):
    """The layer's Huffman table and its symbol counts."""
    counts = symbol_counts(lq.symbols, lq.alphabet_size)
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
    lengths = np.frombuffer(fields.take(1 << n_bits), dtype=np.uint8).copy()
    try:
        table = HuffmanTable(lengths)
    except FormatError as exc:  # such as a code over 16 bits from an earlier writer
        raise FormatError(f"layer {name!r}: {exc}") from exc
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
