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

* encode works through blocks of ``_ENCODE_SYMBOLS`` symbols, building the
  payload as 64-bit words. A cumsum of the gathered code lengths gives each
  code's start bit; each code, left-justified in a uint64, is shifted to its
  place in its word, the codes of a word are OR-ed together in one reduce,
  and the bits of a code that runs past its word go into the next. The
  same code lengths, summed per block, are the record's block lengths.
* decode walks every block of ``_BLOCK_CODEWORDS`` (512) codewords as a
  lane, all lanes in lockstep; the record stores where each block starts.
  :func:`decode_compressed` walks the lanes of every layer of a container
  in one walk, each lane reading its own layer's decode table: per 16-bit
  window, ``length << 8 | symbol`` of the codeword the window starts with,
  or 0 where it starts with none. A Python step reads 64 bits at every
  lane's position, from a big-endian word at every second payload byte,
  and takes ``_READ_CODEWORDS`` (3) codewords from them in turn, one per
  lane each, so a container of 512-codeword lanes takes 171 steps however
  many layers it holds. A lane that does not land exactly on the next
  block's start, a window that starts with no codeword, or a block of the
  wrong codeword count is refused, and the refusal names its layer. Block
  lengths cost about 0.03 bits per weight; blocks of 2048 codewords would
  cost a quarter of that, but would take four times the steps.

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
from functools import partial
from pathlib import Path

import numpy as np

from . import framing
from .errors import CorruptionError, FormatError, ValidationError
from .focused_quant import (
    MODE_RECENTRALIZED,
    MODE_SHIFT,
    ZERO,
    LayerQuantization,
    gather,
    split_pow2,
    symbol_counts,
)
from .model_store import ModelFile, NamedLayers, weight_payload_bytes

MAGIC = b"FQZ1"

_MODE_CODES = {MODE_SHIFT: 0, MODE_RECENTRALIZED: 1}
_MODE_NAMES = {code: name for name, code in _MODE_CODES.items()}

MAX_CODE_LEN = 16  # longest code; the decode table has 2**MAX_CODE_LEN entries
_ENCODE_SYMBOLS = 1 << 14  # symbols placed per encode step
_BLOCK_CODEWORDS = 1 << 9  # codewords per block; 2**9 * 16 bits fit a u16 block length
# codewords a lane takes per 64-bit read: a word starts at every second
# payload byte, so a read holds at least 64 - 15 bits from the lane's position
_READ_CODEWORDS = (64 - 15) // MAX_CODE_LEN


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
        self._left_codes = np.zeros(self.lengths.size, dtype=np.uint64)
        self._left_codes[self._ordered] = np.cumsum(self._span) - self._span
        self._left_codes <<= 48  # left-justified in 64 bits

    def _decode_table(self) -> np.ndarray:
        """``length << 8 | symbol`` of the codeword each 16-bit window starts
        with; 0 at the windows past the last code, which start with none."""
        table = np.zeros(1 << MAX_CODE_LEN, dtype=np.uint16)
        entries = self.lengths[self._ordered].astype(np.uint16) << 8 | self._ordered
        table[: self._span.sum()] = np.repeat(entries, self._span)
        return table

    @classmethod
    def from_frequencies(cls, counts: np.ndarray) -> "HuffmanTable":
        """Build the table from a dense array of symbol counts, one per alphabet symbol."""
        return cls(_huffman_lengths(counts))

    def encode(self, symbols: np.ndarray):
        """Pack symbols MSB-first; returns (payload bytes, payload bit count,
        block bits), the last the uint16 bit length of each block of
        _BLOCK_CODEWORDS codewords but the last, from the same code lengths.

        The payload is built as big-endian 64-bit words, _ENCODE_SYMBOLS
        symbols at a time, from a cumsum of the code lengths carried from
        block to block. Each code, left-justified in a uint64, is shifted
        right by its start bit within its word, one OR-reduce joins the codes
        that start in each word (codes of at most 16 bits start in every
        word), and the bits of a word's last code past the word go into the next.
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
        bits = int(sym_len.sum(dtype=np.int64))
        words = np.zeros(bits // 64 + 2, dtype=np.uint64)  # a spare word past the last
        end = 0
        for first in range(0, symbols.size, _ENCODE_SYMBOLS):
            block = slice(first, first + _ENCODE_SYMBOLS)
            # each code's start bit, then the block's end
            starts = np.cumsum(np.concatenate(([end], sym_len[block])), dtype=np.uint64)
            end = int(starts[-1])
            # the words the block's codes start in, and one more
            word = np.arange(int(starts[0]) >> 6, (int(starts[-2]) >> 6) + 2, dtype=np.uint64)
            edges = np.searchsorted(starts[:-1], word << 6)  # each word's first code, then n
            shift = starts[:-1] & 63
            codes = gather(self._left_codes, symbols[block])
            last = edges[1:] - 1  # each word's last code
            # its bits past the word, if any; numpy shifts by 64 (a code at bit 0) to 0
            spill = codes.take(last) << (64 - shift.take(last))
            codes >>= shift
            words[word[0] : word[-1]] |= np.bitwise_or.reduceat(codes, edges[:-1])
            words[word[1] : word[-1] + 1] |= spill
        firsts = np.arange(0, symbols.size, _BLOCK_CODEWORDS)
        block_bits = np.add.reduceat(sym_len, firsts, dtype=np.uint16)[:-1]
        return words.astype(">u8").view(np.uint8)[: (bits + 7) // 8].tobytes(), bits, block_bits

    def decode(self, payload, payload_bits: int, block_bits=()) -> np.ndarray:
        """Decode exactly payload_bits bits into uint8 symbols by the walk of one stream
        (:func:`_walk`); with no ``block_bits``, it is one block of any length."""
        return _walk([(self, payload, payload_bits, block_bits)])[0]


def _lane_ends(lengths: np.ndarray, lane_bits):
    """Each lane's (column's) codeword ends from 0 on, and how many start before its end."""
    ends = np.zeros((lengths.shape[0] + 1,) + lengths.shape[1:], dtype=np.int64)
    np.cumsum(lengths, axis=0, out=ends[1:])
    return ends, np.count_nonzero(ends[:-1] < lane_bits, axis=0)


def _walk(streams, names=None, refuse=False) -> list:
    """The uint8 symbols of each stream of (table, payload, payload bits,
    block bits), from one lockstep walk over the lanes of them all.

    Each block of _BLOCK_CODEWORDS codewords is a lane. For each codeword,
    every lane looks up the 16-bit window at its position in its stream's
    table, which moves it past one codeword, or leaves it where it is if
    the window starts with none. The walk stops once every lane has reached
    its end, and after _BLOCK_CODEWORDS codewords when there are several
    lanes; a lone lane is bounded by its bits. Each lane must land exactly
    on the next block's start, every codeword before it matched, and each
    block but the last must hold exactly _BLOCK_CODEWORDS codewords, the
    last 1 to that many. A stream that fails is walked again alone with
    ``refuse``, which makes room for twice as many codewords and refuses it
    from the column of its first failing lane, or gives the symbols of a
    lone lane longer than a walk of several lanes takes. ``names`` starts
    each refusal with ``layer 'NAME': ``.
    """
    n = _BLOCK_CODEWORDS
    label = (lambda s: "") if names is None else (lambda s: f"layer {names[s]!r}: ")
    datas, heads, size = [], [], 0
    for s, (_, payload, payload_bits, block_bits) in enumerate(streams):
        data = np.frombuffer(payload, dtype=np.uint8)
        if payload_bits > 8 * data.size:
            raise CorruptionError(label(s) + "payload shorter than its declared bit length")
        edge = np.concatenate(([0], np.cumsum(block_bits, dtype=np.int64), [payload_bits]))
        if edge[-2] > payload_bits:
            raise CorruptionError(label(s) + "block lengths run past the payload")
        datas.append(data[: (payload_bits + 7) // 8])
        heads.append(edge + 8 * size)  # the stream's lane edges in ``padded``
        size += datas[-1].size
    padded = np.frombuffer(b"".join(datas + [bytes(8)]), dtype=np.uint8)
    # the 64 bits from every second byte on
    words = np.ndarray(size // 2 + 1, dtype=">u8", buffer=padded, strides=(2,)).astype(np.uint64)
    tables = np.concatenate([table._decode_table() for table, *_ in streams])
    blocks = [edge.size - 2 for edge in heads]  # each stream's lanes but its last
    full = sum(blocks)
    starts = np.concatenate([edge[:-2] for edge in heads] + [[edge[-2] for edge in heads]])
    stops = np.concatenate([edge[1:-1] for edge in heads] + [[edge[-1] for edge in heads]])
    owner = np.r_[np.repeat(np.arange(len(heads)), blocks), : len(heads)]  # each lane's stream
    base = owner.astype(np.uint64) << MAX_CODE_LEN  # its table in ``tables``
    bits = stops - starts
    limit = int(bits.max()) if bits.size == 1 else min(int(bits.max()), (1 + refuse) * n)
    rows = np.empty((-(-limit // _READ_CODEWORDS) * _READ_CODEWORDS, bits.size), dtype=np.uint16)
    pos = starts.astype(np.uint64)
    reached = pos.view(np.int64)
    before_last = None  # the positions of the lanes of blocks but the last before codeword n
    step, check = 0, 1
    while step < limit:
        word = words.take(pos >> 4, mode="clip")
        word <<= pos & 15  # at least 49 bits from pos on
        for _ in range(_READ_CODEWORDS):
            if step == n - 1:
                before_last = reached[:full].copy()
            window = word >> 48
            window |= base  # below tables.size: "clip" only spares take a copy of out
            length = tables.take(window, out=rows[step], mode="clip") >> 8
            word <<= length
            pos += length
            step += 1
        if step >= check:  # no codeword moves a lane more than 16 bits
            gap = int((stops - reached).max())
            if gap <= 0:
                break
            check = step + -(-gap // MAX_CODE_LEN)
    del words, padded, tables  # freed before the symbols are copied out
    walked = min(step, limit)
    tail = rows[:walked, full:] >> 8
    ends, count = _lane_ends(tail, bits[full:])
    good = np.zeros(bits.size, dtype=bool)
    if before_last is not None:
        good[:full] = ((before_last < stops[:full])
                       & (before_last + (rows[n - 1, :full] >> 8) == stops[:full]))
    good[full:] = ((ends[count, np.arange(len(heads))] == bits[full:])
                   & ~((tail == 0) & (np.arange(walked)[:, None] < count)).any(axis=0)
                   & (((count > 0) & (count <= n)) | (np.array(blocks) == 0)))
    if refuse and not good.all():  # one stream, its lanes in block order
        i = int(np.argmax(~good))
        final, short = i == bits.size - 1, "payload ends inside a codeword"
        length = rows[:walked, i] >> 8
        ends, count = _lane_ends(length, bits[i])
        unmatched = np.flatnonzero(length[:count] == 0)
        if unmatched.size:  # the bits from its window on may end inside a codeword
            left = stops[-1] - starts[i] - ends[unmatched[0]]
            why = (short if final and left <= streams[0][0].lengths.max()
                   else "bit pattern matches no codeword")
        elif ends[-1] < bits[i]:
            why = f"block {i} holds over {n} codewords"
        elif ends[count] != bits[i]:
            why = short if final else f"block {i} ends inside a codeword, not at its length"
        else:
            why = f"block {i} holds {count} codewords, not {'1 to ' if final else ''}{n}"
        raise CorruptionError(label(0) + why)
    out = []
    for s, lanes in enumerate(blocks):
        first = sum(blocks[:s])
        if not (good[first : first + lanes].all() and good[full + s]):
            out.append(_walk([streams[s]], names and [names[s]], refuse=True)[0])
            continue
        symbols = np.empty(lanes * n + count[s], dtype=np.uint8)
        if lanes:  # row by row in the walk, lane by lane here
            symbols[: lanes * n].reshape(lanes, n)[...] = rows[:n, first : first + lanes].T
        symbols[lanes * n :] = rows[: count[s], full + s]
        out.append(symbols)
    return out


def _encode_pow2(value: float):
    """Split an exact signed power of two (or 0) into (sign, exponent) bytes."""
    sign, exponent = split_pow2(value)
    if not -128 <= exponent <= 127:
        raise ValueError("power-of-two exponent outside i8 range")
    return sign, exponent


def _decode_pow2(name: str, sign: int, exponent: int) -> float:
    if sign == 0:
        return 0.0
    if sign not in (-1, 1):
        raise FormatError(f"layer {name!r}: bad mean sign byte {sign}")
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


def _record_size(lq: LayerQuantization, table: HuffmanTable, counts: np.ndarray) -> int:
    """Exact byte length of ``encode_layer(lq)`` from its table and counts, without encoding.

    The block lengths take two bytes each whatever their values, so zeros
    stand in for them.
    """
    payload_bits = int(np.dot(counts, table.lengths.astype(np.int64)))
    head = _body_head(lq, table, payload_bits,
                      np.zeros(_stored_blocks(lq.weight_count), dtype=np.uint16))
    return framing.RECORD_OVERHEAD + len(head) + (payload_bits + 7) // 8


def _read_layer(data, offset: int):
    """Verify and parse one framed layer record but walk none of its payload; returns
    ((name, its LayerQuantization but for the symbols, stream, count), next offset)."""
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
    except FormatError as exc:  # such as a code over 16 bits, which no version 3 writer makes
        raise FormatError(f"layer {name!r}: {exc}") from exc
    (count,) = fields.unpack("<I")
    block_bits = np.frombuffer(fields.take(2 * _stored_blocks(count)), dtype="<u2")
    (payload_bits,) = fields.unpack("<Q")
    payload = fields.take((payload_bits + 7) // 8)
    fields.done()
    # refused before the walk, which walks a lone lane to the end of these bits
    if payload_bits > count * int(table.lengths.max()):
        raise CorruptionError(f"layer {name!r}: {payload_bits} payload bits "
                              f"for {count} symbols")
    make = partial(LayerQuantization, name=name, mode=_MODE_NAMES[mode_code], n_bits=n_bits,
                   alpha=float(alpha), bias=int(bias), sigma=float(sigma), wsep=float(wsep),
                   mu=(_decode_pow2(name, ms, me), _decode_pow2(name, ps, pe)))
    return (name, make, (table, payload, payload_bits, block_bits), count), end


def _layers(records) -> list:
    """The layers of records of ``_read_layer``, from one walk of them all."""
    walked = _walk([stream for *_, stream, _ in records], [name for name, *_ in records])
    layers = []
    for (name, make, _, count), symbols in zip(records, walked):
        if symbols.size != count:
            raise CorruptionError(f"layer {name!r}: {symbols.size} symbols, "
                                  f"the record counts {count}")
        try:
            layers.append(make(symbols=symbols))
        except ValueError as exc:
            raise FormatError(f"layer {name!r}: {exc}") from exc
    return layers


def decode_layer(data, offset: int = 0):
    """Verify and parse one framed layer record; returns (LayerQuantization, next offset)."""
    record, end = _read_layer(data, offset)
    return _layers([record])[0], end


@dataclass
class CompressedModel(NamedLayers):
    """Ordered quantized layers (LayerQuantization); the on-disk form of a compressed model."""

    _noun = "compressed model"


def encode_compressed(cm: CompressedModel) -> bytes:
    return framing.pack(MAGIC, [encode_layer(lq) for lq in cm.layers])


def decode_compressed(data: bytes) -> CompressedModel:
    """Verify and parse every record, then walk the payloads of them all at once."""
    return framing.read_container(data, MAGIC, _read_layer,
                                  lambda records: CompressedModel(records and _layers(records)))


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
        table, counts = _layer_table(lq)
        comp = _record_size(lq, table, counts)
        zeros = int(counts[ZERO])
        rows.append(ReportRow(layer.name, lq.mode, lq.n_bits, orig, comp,
                              compression_ratio(orig, comp), zeros / lq.weight_count))
        total_comp += comp
        total_zero += zeros
    orig = weight_payload_bytes(model)
    rows.append(ReportRow("total", "-", 0, orig, total_comp, compression_ratio(orig, total_comp),
                          total_zero / model.weight_count if model.weight_count else 0.0))
    return rows
