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
  they go into one one-byte-per-bit array, packed once. The code lengths
  gathered for the mask, summed per block, are the record's block lengths.
* decode walks every block of ``_BLOCK_CODEWORDS`` (512) codewords as a
  lane, all lanes in lockstep; the record stores where each block starts.
  A decode table over the 2^16 16-bit windows holds, per window, the up to
  ``_WINDOW_CODEWORDS`` (8) whole codewords it starts with and the bits
  they take; one loop of 8 single-codeword lookups builds it. A Python
  step reads 64 bits at every lane's position from a big-endian word per
  payload byte, takes three windows from them in turn, and moves each lane
  past each window's whole codewords. A 512-codeword lane of a 5-bit layer
  takes about 115 windows, 39 steps, whatever the layer's size. The
  windows each lane read before its end then give its symbols, in order;
  of the last, the codewords of its table row that end by the lane's end.
  A lane that does not land exactly on the next block's start, a window
  that starts with no codeword, or a block of the wrong codeword count is
  refused. The table is filled at every window where
  the payload is 8 KiB or longer, and otherwise only at the windows the
  payload holds. Block lengths cost about 0.03 bits per weight; blocks of
  2048 codewords would cost a quarter of that, but would leave a layer of
  a few thousand weights about 450 windows to walk in one lane.

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
    count u32, the layer's symbol count
    block bits, u16 per block of 512 codewords but the last: the bit
        length of each (ceil(count / 512) - 1 of them; 512 * 16 < 2^16)
    payload_bits u64, payload bytes (zero-padded to a byte boundary)

A record is refused if its payload holds more bits than its count times
the longest code, before it is decoded, or if its decoded symbols do not
number its count.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
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
_BLOCK_CODEWORDS = 1 << 9  # codewords per block; 2**9 * 16 bits fit a u16 block length
_WINDOW_CODEWORDS = 8  # whole codewords a decode window holds at most: one uint64 of bytes
_OUTPUT_LANES = 128  # lanes whose symbols are gathered at once, to bound the scratch
# fill bytes of a window that keeps its first k codewords, k = 0..8
_PREFIX_FILL = (np.arange(_WINDOW_CODEWORDS) < np.arange(_WINDOW_CODEWORDS + 1)[:, None]
                ).view(np.uint64).ravel()
_BIT_INDEX = np.arange(MAX_CODE_LEN)  # bit index within a left-justified code
_BYTE_BITS = np.arange(8, dtype=np.uint64)  # bit offset within a byte


def _huffman_lengths(counts: np.ndarray) -> np.ndarray:
    """uint8 code length per symbol of a dense count array (0 where the count is
    0), none over MAX_CODE_LEN bits.

    Package-merge: the leaves, sorted by (count, symbol), are merged with
    pairs of the list one level deeper, MAX_CODE_LEN - 1 times, a package
    going before a leaf of equal weight. The first 2n - 2 items of the top
    level are taken, and a package taken takes the two items it was made of
    one level down. A symbol's length is the number of levels at which its
    leaf is taken, and a lone symbol's is 1.
    """
    present = np.flatnonzero(counts)
    if present.size == 0:
        raise ValueError("no symbols to code")
    symbols = present[np.argsort(counts[present], kind="stable")]  # by (count, symbol)
    n = symbols.size
    leaf_weight = counts[symbols].astype(np.int64)
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
    lengths = np.zeros(counts.size, dtype=np.uint8)
    lengths[symbols] = np.maximum(depth, 1)
    return lengths


@dataclass
class HuffmanTable:
    """Canonical prefix code over an alphabet of at most 256 small integers."""

    lengths: np.ndarray  # uint8 per alphabet symbol; 0 = symbol absent
    _ordered: np.ndarray = field(init=False, repr=False)  # symbols in canonical order
    _span: np.ndarray = field(init=False, repr=False)  # 2**(16 - length) per ordered symbol
    _left_codes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.lengths = np.asarray(self.lengths, dtype=np.uint8)
        if self.lengths.size > 256:  # a symbol is one byte
            raise ValueError(f"{self.lengths.size} symbols; an alphabet holds at most 256")
        present = np.nonzero(self.lengths)[0]
        if present.size == 0:
            raise FormatError("code table has no symbols")
        max_len = int(self.lengths.max())
        if max_len > MAX_CODE_LEN:
            raise FormatError(f"code length {max_len} exceeds the {MAX_CODE_LEN}-bit limit")
        # canonical numbering: in canonical order (shorter codes first, ties
        # by symbol) the codes, left-justified in MAX_CODE_LEN bits, tile the
        # windows from 0, an l-bit code spanning 2**(MAX_CODE_LEN - l) of them
        self._ordered = present[np.lexsort((present, self.lengths[present]))]
        self._span = 1 << (MAX_CODE_LEN - self.lengths[self._ordered].astype(np.int64))
        if self._span.sum() > 1 << MAX_CODE_LEN:
            kraft = int(self._span.sum()) / (1 << MAX_CODE_LEN)
            raise FormatError(f"Kraft sum {kraft} exceeds 1: not a prefix code")
        # big-endian, so the bytes of a code read MSB first
        self._left_codes = np.zeros(self.lengths.size, dtype=">u2")
        self._left_codes[self._ordered] = np.cumsum(self._span) - self._span

    def _window_table(self, words=None):
        """The decode table over the 16-bit windows: filled at every window,
        or, given ``words``, only at the windows those 64-bit words start with
        at each bit offset of their first byte.

        For each window and the up to _WINDOW_CODEWORDS whole codewords it
        starts with: ``used``, the bits they take (16 where the window starts
        with no codeword); ``count``, how many there are; and ``symbols``,
        one uint64 per window whose bytes are the symbol of each of them
        (the bytes after them are left over). One loop reads codeword j of
        every window from a single-codeword lookup at the window shifted past
        the first j: each code's span of windows holds ``length << 8 | symbol``,
        and the windows past the last code hold length 17. The first codeword
        that does not end within the window ends its row.
        """
        size = 1 << MAX_CODE_LEN
        first = np.full(size, (MAX_CODE_LEN + 1) << 8, dtype=np.uint16)
        entries = self.lengths[self._ordered].astype(np.uint16) << 8 | self._ordered
        first[: self._span.sum()] = np.repeat(entries, self._span)
        rows = (np.arange(size, dtype=np.uint16) if words is None
                else ((words[:, None] << _BYTE_BITS) >> 48).astype(np.uint16).ravel())
        count = np.zeros(rows.size, dtype=np.uint8)
        used = np.zeros(rows.size, dtype=np.uint16)
        symbols = np.empty((rows.size, _WINDOW_CODEWORDS), dtype=np.uint8)
        for j in range(_WINDOW_CODEWORDS):
            entry = first.take(rows << used)
            symbols[:, j] = entry  # its low byte
            length = entry >> 8
            fits = used + length <= MAX_CODE_LEN
            count += fits
            length *= fits
            used += length
        used[count == 0] = MAX_CODE_LEN
        table = (used.astype(np.uint8), count, symbols.view(np.uint64).ravel())
        if words is None:
            return table
        filled = [np.zeros(size, dtype=part.dtype) for part in table]
        for full, part in zip(filled, table):
            full[rows] = part
        return filled

    @classmethod
    def from_frequencies(cls, counts: np.ndarray) -> "HuffmanTable":
        """Build the table from a dense array of symbol counts, one per alphabet symbol."""
        return cls(_huffman_lengths(counts))

    def encode(self, symbols: np.ndarray):
        """Pack symbols MSB-first; returns (payload bytes, payload bit count,
        block bits), the last the uint16 bit length of each block of
        _BLOCK_CODEWORDS codewords but the last, from the same code lengths.

        Working through _ENCODE_SYMBOLS symbols at a time, each symbol's
        left-justified code is unpacked into a row of 16 bits. The first
        code-length bits of every row, taken in row order, are the block's
        bit stream; it goes into a one-byte-per-bit array, packed once at
        the end.
        """
        symbols = np.asarray(symbols).ravel()
        if symbols.size == 0:
            return b"", 0, np.zeros(0, dtype=np.uint16)
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
        firsts = np.arange(0, symbols.size, _BLOCK_CODEWORDS)
        block_bits = np.add.reduceat(sym_len, firsts, dtype=np.uint16)[:-1]
        return np.packbits(bits).tobytes(), bits.size, block_bits

    def decode(self, payload, payload_bits: int, block_bits=()) -> np.ndarray:
        """Decode exactly payload_bits bits back into uint8 symbols.

        ``block_bits`` are the bit lengths of the stream's blocks of
        _BLOCK_CODEWORDS codewords but the last, as a layer record stores
        them; with none, the stream is one block of any length. Each block is
        a lane of one walk. A Python step reads 64 bits at every lane's
        position and takes three 16-bit windows from them in turn, moving the
        lane past each window's whole codewords. The walk stops once every
        lane has reached the start of the next block, and after at most
        _BLOCK_CODEWORDS windows when there are blocks, since every window
        before a lane's end holds a codeword of it. A lone lane is bounded by
        its bits: any two windows in a row move it at least 16 bits, as a
        codeword one window cannot finish starts the next, and
        :func:`decode_layer` holds a one-block record to its count times the
        longest code (at most 8,192 bits, about 1,030 windows). Then each lane must end
        exactly on the next block's start, every window before it must hold
        a codeword, and each block but the last must hold exactly
        _BLOCK_CODEWORDS codewords, the last 1 to that many.
        """
        data = np.frombuffer(payload, dtype=np.uint8)
        if payload_bits > 8 * data.size:
            raise CorruptionError("payload shorter than its declared bit length")
        starts = np.zeros(len(block_bits) + 1, dtype=np.int64)
        np.cumsum(np.asarray(block_bits, dtype=np.int64), out=starts[1:])
        if starts[-1] > payload_bits:
            raise CorruptionError("block lengths run past the payload")
        stops = np.append(starts[1:], payload_bits)
        n_bytes = (payload_bits + 7) // 8
        padded = np.zeros(n_bytes + 8, dtype=np.uint8)
        padded[:n_bytes] = data[:n_bytes]
        # the 64 bits from each byte on; a window is 16 of them
        words = np.ndarray(n_bytes + 1, dtype=">u8", buffer=padded, strides=(1,)).astype(np.uint64)
        # a payload of fewer bit offsets than windows needs the table only at
        # the windows it holds, up to the last word the walk reads
        table = self._window_table(words if 8 * words.size < 1 << MAX_CODE_LEN else None)
        # every window moves a lane at least one bit
        limit = min(_BLOCK_CODEWORDS if starts.size > 1 else payload_bits,
                    int((stops - starts).max()))
        pos = starts.astype(np.uint64)
        reached = pos.view(np.int64)
        read = []  # the window of every lane, in the order read
        take_word, take_used = words.take, table[0].take
        check = 1
        while True:
            word = take_word(pos >> 3, mode="clip")
            word <<= pos & 7  # at least 57 bits from pos on: three windows
            for _ in range(3):
                window = word >> 48
                read.append(window)
                used = take_used(window)
                pos += used
                word <<= used
            if len(read) >= limit:
                break
            if len(read) >= check:  # no window moves a lane more than 16 bits
                gap = int((stops - reached).max())
                if gap <= 0:
                    break
                check = len(read) + -(-gap // MAX_CODE_LEN)
        return self._lane_symbols(table, np.stack(read).view(np.int64), starts, stops,
                                  reached, payload_bits)

    def _lane_symbols(self, table, read, starts, stops, reached, payload_bits):
        """The codewords of each lane from the windows it read, lane after lane.

        ``read`` holds the windows of every lane (column) in the order read
        (row), and ``reached`` where each lane stopped.
        """
        used, count, symbols = table
        lanes = starts.size
        lane = np.arange(lanes)
        taken = used.take(read)
        # each window's bit offset from its lane's start: blocks stay far below
        # 2**31 bits, and a lone lane of any length takes int64
        at = np.cumsum(taken, axis=0, dtype=np.int32 if lanes > 1 else np.int64)
        at -= taken
        live = at < stops - starts  # the window starts before the lane's end
        last = np.maximum(np.count_nonzero(live, axis=0) - 1, 0)
        # the window in which a lane reaches its end keeps the codewords of its
        # table row that end within the bits the lane has left
        left = stops - starts - at[last, lane]
        row = read[last, lane]
        ends = self.lengths.take(symbols.take(row).view(np.uint8)).reshape(lanes, -1)
        ends = ends.cumsum(axis=1, dtype=np.int64)
        in_row = np.arange(_WINDOW_CODEWORDS) < count.take(row)[:, None]
        within = (ends <= left[:, None]) & in_row
        kept = np.count_nonzero(within, axis=1)
        landed = ends.max(axis=1, where=within, initial=0) == left
        whole = count.take(read)
        unmatched = (whole == 0) & live
        whole *= live
        whole[last, lane] = kept  # codewords each window holds before its lane's end
        codewords = whole.sum(axis=0, dtype=np.int64)
        # the last block holds 1 to _BLOCK_CODEWORDS, every other exactly that
        miscounted = codewords != _BLOCK_CODEWORDS
        miscounted[-1] = lanes > 1 and not 0 < codewords[-1] <= _BLOCK_CODEWORDS
        bad = unmatched.any(axis=0) | (reached < stops) | ~landed | miscounted
        if bad.any():
            i = int(np.argmax(bad))
            final = i == lanes - 1
            if unmatched[:, i].any():
                bit = int(starts[i] + at[np.argmax(unmatched[:, i]), i])
                if final and payload_bits - bit <= int(self.lengths.max()):
                    raise CorruptionError("payload ends inside a codeword")
                raise CorruptionError("bit pattern matches no codeword")
            if reached[i] < stops[i]:
                raise CorruptionError(f"block {i} holds over {_BLOCK_CODEWORDS} codewords")
            if not landed[i]:
                if final:
                    raise CorruptionError("payload ends inside a codeword")
                raise CorruptionError(f"block {i} ends inside a codeword, not at its length")
            raise CorruptionError(f"block {i} holds {codewords[i]} codewords, "
                                  f"not {'1 to ' if final else ''}{_BLOCK_CODEWORDS}")
        out = np.empty(int(codewords.sum()), dtype=np.uint8)
        done = 0
        for first in range(0, lanes, _OUTPUT_LANES):
            rows = slice(first, first + _OUTPUT_LANES)
            # a flag byte per codeword a window holds before its lane's end
            flags = _PREFIX_FILL.take(whole[:, rows].T)
            # flatnonzero then take runs about twice as fast as a boolean index
            picked = symbols.take(read[:, rows].T).view(np.uint8).take(
                np.flatnonzero(flags.view(bool)))
            out[done : done + picked.size] = picked
            done += picked.size
        return out


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
    return HuffmanTable.from_frequencies(counts), counts


def _stored_blocks(count: int) -> int:
    """How many block lengths a record of ``count`` symbols stores: one per block but the last."""
    return max(0, -(-count // _BLOCK_CODEWORDS) - 1)


def _body_head(lq: LayerQuantization, table: HuffmanTable, payload_bits: int,
               block_bits: np.ndarray) -> bytes:
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
        struct.pack("<I", lq.weight_count),
        block_bits.astype("<u2").tobytes(),
        struct.pack("<Q", payload_bits),
    ))


def encode_layer(lq: LayerQuantization) -> bytes:
    """Serialize one quantized layer to its framed container record."""
    table, _ = _layer_table(lq)
    payload, payload_bits, block_bits = table.encode(lq.symbols)
    return framing.pack_record(_body_head(lq, table, payload_bits, block_bits) + payload)


def _record_size(lq: LayerQuantization) -> int:
    """Exact byte length of ``encode_layer(lq)``, found without encoding.

    The block lengths take two bytes each whatever their values, so zeros
    stand in for them.
    """
    table, counts = _layer_table(lq)
    payload_bits = int(np.dot(counts, table.lengths.astype(np.int64)))
    payload = (payload_bits + 7) // 8
    head = _body_head(lq, table, payload_bits,
                      np.zeros(_stored_blocks(lq.weight_count), dtype=np.uint16))
    return framing.RECORD_OVERHEAD + len(head) + payload


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
    (count,) = fields.unpack("<I")
    block_bits = np.frombuffer(fields.take(2 * _stored_blocks(count)), dtype="<u2")
    (payload_bits,) = fields.unpack("<Q")
    payload = fields.take((payload_bits + 7) // 8)
    fields.done()
    # refused before the walk, whose one lane in a record of a single block
    # is bounded only by these bits
    if payload_bits > count * int(table.lengths.max()):
        raise CorruptionError(f"layer {name!r}: {payload_bits} payload bits "
                              f"for {count} symbols")
    symbols = table.decode(payload, payload_bits, block_bits)
    if symbols.size != count:
        raise CorruptionError(f"layer {name!r}: {symbols.size} symbols, "
                              f"the record counts {count}")
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
