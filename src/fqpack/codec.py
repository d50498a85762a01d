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
* decode walks every block of ``_BLOCK_CODEWORDS`` (512) codewords as a
  lane, all lanes in lockstep; the record stores where each block starts.
  A decode table over the 2^16 16-bit windows holds, per window, the up to
  ``_WINDOW_CODEWORDS`` (8) whole codewords it starts with and the bits
  they take. A Python step reads 64 bits at every lane's position from a
  big-endian word per payload byte, takes three windows from them in turn,
  and moves each lane past each window's whole codewords. A 512-codeword
  lane of a 5-bit layer takes about 115 windows, 39 steps, whatever the
  layer's size. The windows each lane read before its end then give its
  symbols, in order; a lane that does not land exactly on the next block's
  start, a window that starts with no codeword, or a block of the wrong
  codeword count is refused. The table is filled at every window where
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
_BLOCK_CODEWORDS = 1 << 9  # codewords per block; 2**9 * 16 bits fit a u16 block length
_WINDOW_CODEWORDS = 8  # whole codewords a decode window holds at most: one uint64 of bytes
_OUTPUT_LANES = 128  # lanes whose symbols are gathered at once, to bound the scratch
# fill bytes of a window that keeps its first k codewords, k = 0..8
_PREFIX_FILL = (np.arange(_WINDOW_CODEWORDS) < np.arange(_WINDOW_CODEWORDS + 1)[:, None]
                ).view(np.uint64).ravel()
_BIT_INDEX = np.arange(MAX_CODE_LEN)  # bit index within a left-justified code
_BYTE_BITS = np.arange(8, dtype=np.uint64)  # bit offset within a byte


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
    def _first(self) -> np.ndarray:
        """The single-codeword lookup, built by the first decode, since encoding never reads it.

        In canonical order the codes, left-justified in MAX_CODE_LEN bits,
        tile the table from 0: an l-bit code owns 2**(MAX_CODE_LEN - l)
        entries of ``length << 8 | symbol``. Entries past the last code match
        none; their length MAX_CODE_LEN + 1 marks them.
        """
        ordered_len = self.lengths[self._ordered].astype(np.int64)
        first = np.full(1 << MAX_CODE_LEN, (MAX_CODE_LEN + 1) << 8, dtype=np.uint16)
        span = 1 << (MAX_CODE_LEN - ordered_len)
        first[: span.sum()] = np.repeat((ordered_len << 8 | self._ordered).astype(np.uint16), span)
        return first

    def _codewords(self, windows: np.ndarray, room):
        """The whole codewords each 16-bit window starts with, up to
        _WINDOW_CODEWORDS of them and within ``room`` bits of it.

        Returns their count, the bits they take and, per window, a row of
        their symbols (the bytes after them are left over). Codeword j is read
        from the single-codeword lookup at the window shifted past the first
        j; the bits shifted in are past the window, so only a codeword that
        ends within ``room`` counts, and the first that does not ends the row.
        """
        count = np.zeros(windows.size, dtype=np.uint8)
        used = np.zeros(windows.size, dtype=np.uint16)
        symbols = np.empty((windows.size, _WINDOW_CODEWORDS), dtype=np.uint8)
        for j in range(_WINDOW_CODEWORDS):
            entry = self._first.take(windows << used)
            symbols[:, j] = entry  # its low byte
            length = entry >> 8
            fits = used + length <= room
            count += fits
            length *= fits
            used += length
        return count, used, symbols

    def _window_table(self, windows=None):
        """The decode table over the 16-bit windows, filled at ``windows`` (default: all).

        For each window and the up to _WINDOW_CODEWORDS whole codewords it
        starts with: ``used``, the bits they take (16 where the window starts
        with no codeword); ``count``, how many there are; and ``symbols``,
        one uint64 per window whose bytes are the symbol of each of them
        (the bytes after them are left over). Its first symbol column is the
        single-codeword lookup.
        """
        size = 1 << MAX_CODE_LEN
        rows = np.arange(size, dtype=np.uint16) if windows is None else windows
        count, used, symbols = self._codewords(rows, MAX_CODE_LEN)
        used[count == 0] = MAX_CODE_LEN
        table = (used.astype(np.uint8), count, symbols.view(np.uint64).ravel())
        if windows is None:
            return table
        filled = []
        for part in table:
            filled.append(np.zeros(size, dtype=part.dtype))
            filled[-1][windows] = part
        return filled

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
        words = np.ndarray(n_bytes + 1, dtype=">u8", buffer=padded, strides=(1,))
        words = words.astype(np.uint64)
        # a payload of fewer bit offsets than windows needs the table only at
        # the windows it holds, up to the last word the walk reads
        if 8 * words.size < 1 << MAX_CODE_LEN:
            table = self._window_table(
                ((words[:, None] << _BYTE_BITS) >> 48).astype(np.uint16).ravel())
        else:
            table = self._window_table()
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
        # the window in which a lane reaches its end keeps the codewords before it
        left = stops - starts - at[last, lane]
        kept, reach, _ = self._codewords(read[last, lane].astype(np.uint16), left)
        landed = reach == left
        whole = count.take(read)
        unmatched = (whole == 0) & live
        whole *= live
        codewords = whole.sum(axis=0, dtype=np.int64) - whole[last, lane] + kept
        miscounted = np.zeros(lanes, dtype=bool)
        if lanes > 1:  # the last block holds 1 to _BLOCK_CODEWORDS, every other exactly that
            miscounted[:-1] = codewords[:-1] != _BLOCK_CODEWORDS
            miscounted[-1] = not 0 < codewords[-1] <= _BLOCK_CODEWORDS
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
            flags[lane[: flags.shape[0]], last[rows]] = _PREFIX_FILL[kept[rows]]
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
    return HuffmanTable.from_frequencies(counts, lq.alphabet_size), counts


def _stored_blocks(count: int) -> int:
    """How many block lengths a record of ``count`` symbols stores: one per block but the last."""
    return max(0, -(-count // _BLOCK_CODEWORDS) - 1)


def _block_bits(lengths: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """The bit length of each block of _BLOCK_CODEWORDS symbols but the last."""
    firsts = np.arange(0, symbols.size, _BLOCK_CODEWORDS)
    return np.add.reduceat(gather(lengths, symbols), firsts, dtype=np.uint16)[:-1]


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
    payload, payload_bits = table.encode(lq.symbols)
    block_bits = _block_bits(table.lengths, lq.symbols)
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
