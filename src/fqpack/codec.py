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
  and the bits of a code that runs past its word go into the next.
* decode cuts each payload into lanes of bits and walks every lane of
  every layer of a container in one lockstep walk, each lane reading its
  own layer's decode table: per window of as many bits as the layer's
  longest code, ``length << 8 | symbol`` of the codeword the window starts
  with, or 0 where it starts with none. A Python step reads 64 bits at
  every lane's position, from a big-endian word at every second payload
  byte, and takes ``_READ_CODEWORDS`` (3) codewords from them in turn, one
  per lane each. The record stores no
  lane starts: the decoder picks them, a multiple of the gcd of the code
  lengths apart, so most lanes start inside a codeword. A Huffman decoder
  started at any bit falls onto the codeword boundaries within a few
  codewords (Klein & Wiseman, "Parallel Huffman decoding with
  applications to JPEG files", The Computer Journal 2003); each lane walks
  past its own bits until it stands on a codeword start of a later lane's
  first codewords, and the layer's symbols are stitched from lane to lane
  at those starts. A lane that meets no later lane is continued by itself,
  alone if need be, so a stream whose lanes never fall into step is walked
  as one serial lane. Lanes are sized for at most ``_LANE_CODEWORDS``
  codewords, fewer in a small container, so a container of ToyNet's size
  takes a few dozen steps. A window that starts no codeword on the way, a
  last codeword that runs past the payload's end, or a symbol count other
  than the record's shape holds is refused, and the refusal names its
  layer.

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
    rank u8, then u32 per dimension: the layer's weight shape
    payload_bits u64, payload bytes (zero-padded to a byte boundary)

A record is refused, before its payload is walked, if its shape holds no
weights, if its payload holds more bits than its weights times the
longest code, or if its code table codes a symbol no code of its mode
uses; and after, if its decoded symbols do not number its weights.
"""

from __future__ import annotations

import copy
import math
import struct
from dataclasses import dataclass, field
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

MAX_CODE_LEN = 16  # longest code; a decode table has at most 2**MAX_CODE_LEN entries
_ENCODE_SYMBOLS = 1 << 14  # symbols placed per encode step
# codewords a lane takes per 64-bit read: a word starts at every second
# payload byte, so a read holds at least 64 - 15 bits from the lane's position
_READ_CODEWORDS = (64 - 15) // MAX_CODE_LEN
_LANE_CODEWORDS = 512  # the most codewords, of the code's mean length, a lane is sized for
_LANES = 1024  # lanes a smaller container is cut into, down to lanes of one head
_HEAD_READS = 12  # reads whose codeword starts a lane flags for its predecessor
_CHECK_READS = 3  # reads between the checks of whether a lane is to leave
_FLAG, _END, _HALT, _STUCK = 1, 2, 4, 8  # why a lane leaves the walk
_SYMBOL_BYTE = 0 if np.little_endian else 1  # the byte of a ``length << 8 | symbol`` entry


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
        """``length << 8 | symbol`` of the codeword each window of the longest
        code's length starts with; 0 at the windows past the last code, which
        start with none."""
        width = int(self.lengths.max())
        table = np.zeros(1 << width, dtype=np.uint16)
        entries = self.lengths[self._ordered].astype(np.uint16) << 8 | self._ordered
        span = self._span >> (MAX_CODE_LEN - width)
        table[: span.sum()] = np.repeat(entries, span)
        return table

    @classmethod
    def from_frequencies(cls, counts: np.ndarray) -> "HuffmanTable":
        """Build the table from a dense array of symbol counts, one per alphabet symbol."""
        return cls(_huffman_lengths(counts))

    def encode(self, symbols: np.ndarray):
        """Pack symbols MSB-first; returns (payload bytes, payload bit count).

        The payload is built as big-endian 64-bit words, _ENCODE_SYMBOLS
        symbols at a time, from a cumsum of the code lengths carried from
        block to block. Each code, left-justified in a uint64, is shifted
        right by its start bit within its word, one OR-reduce joins the codes
        that start in each word (codes of at most 16 bits start in every
        word), and the bits of a word's last code past the word go into the next.
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
        return words.astype(">u8").view(np.uint8)[: (bits + 7) // 8].tobytes(), bits

    def decode(self, payload, payload_bits: int) -> np.ndarray:
        """Decode exactly payload_bits bits into uint8 symbols by the walk of one stream
        (:func:`_walk`)."""
        return _walk([(self, payload, payload_bits)])[0]


def _mean_length(table: HuffmanTable) -> float:
    """The mean length of a code, each l-bit code weighted 2**-l."""
    present = table.lengths[table.lengths > 0].astype(np.int64)
    weight = np.ldexp(1.0, -present)
    return float(np.dot(present, weight) / weight.sum())


def _lane_bits(table: HuffmanTable, payload_bits: int, wanted: float) -> int:
    """The bit length of each lane of a stream, the last lane's at most.

    A lane is sized for ``wanted`` bits, but holds at least a head of
    _HEAD_READS reads of the longest code, so that no lane's head reaches
    past its own bits. Its length is a multiple of the gcd of the code
    lengths, so every lane starts where a codeword can.
    """
    present = table.lengths[table.lengths > 0].astype(np.int64)
    unit = int(np.gcd.reduce(present))
    head = _HEAD_READS * _READ_CODEWORDS * int(present.max())
    lanes = max(1, payload_bits // max(head, int(wanted)))
    return max(1, -(-payload_bits // (lanes * unit))) * unit


@dataclass
class _Lanes:
    """What a lockstep walk leaves: each lane's steps, position and reason as it
    left, and the table entry of each codeword each lane took."""

    start: np.ndarray  # each lane's first bit
    steps: np.ndarray
    at: np.ndarray
    why: np.ndarray
    met: np.ndarray  # the lane whose head a lane left on, times the head size, plus the index
    heads: np.ndarray  # the codeword starts of each lane's head, lane by lane
    blocks: list = field(default_factory=list)  # (first step, lanes, entries row by step)

    def positions(self, lane: int) -> np.ndarray:
        """The start of each codeword the lane took, then the end of the last."""
        lengths = np.concatenate([rows[:, np.searchsorted(ids, lane)] >> 8
                                  for _, ids, rows in self.blocks if lane in ids])
        return int(self.start[lane]) + np.r_[0, np.cumsum(lengths[: self.steps[lane]],
                                                          dtype=np.int64)]

    def symbols(self, first: int, a, e) -> list:
        """The symbols of lanes ``first``, ``first`` + 1, ... from codeword a to e
        of each, as one buffer per lane."""
        width = int(e.max())
        lanes = np.empty((a.size, width), dtype=np.uint8)
        for step, ids, rows in self.blocks:  # row by step in the walk, lane by lane here
            if step >= width:
                break
            lo, hi = np.searchsorted(ids, (first, first + a.size))
            # each entry's symbol byte: numpy transposes bytes faster than it casts across
            rows = rows.view(np.uint8)[: width - step, 2 * lo + _SYMBOL_BYTE : 2 * hi : 2].T
            if hi - lo == a.size:
                lanes[:, step : step + rows.shape[1]] = rows
            else:
                lanes[ids[lo:hi] - first, step : step + rows.shape[1]] = rows
        flat = memoryview(lanes.ravel())
        offset = np.arange(a.size) * width
        return list(map(flat.__getitem__, map(slice, (offset + a).tolist(),
                                              (offset + e).tolist())))


def _lockstep(words, tables, start, table, bound, end, cap, expect: int, heads=None) -> _Lanes:
    """Walk lanes from bit positions ``start`` in lockstep, one codeword per lane
    per step, until every lane has left.

    Each step, every lane looks up the window at its position in its table
    (``table`` holds each lane's offset in ``tables`` and the shift that
    leaves a read's top bits, as many as its longest code), which moves it
    past one codeword, or leaves it where it is if the window starts with
    none. The first _HEAD_READS reads are each lane's head: the codeword
    starts of every head, lane by lane, are the flags, unless ``heads``
    gives them. From then on, every _CHECK_READS reads, a lane at or past
    its ``bound`` (the next lane's start), or stuck on a window that starts
    no codeword, leaves if it is on a flag (_FLAG), at or past its stream's
    ``end`` (_END), or stuck or at or past its ``cap`` (_HALT). Lanes that
    have left walk on until half of their block's lanes have; the rest go
    on in a new, narrower block. ``expect`` steps are made room for.
    """
    n = start.size
    head, check = _HEAD_READS * _READ_CODEWORDS, _CHECK_READS * _READ_CODEWORDS
    trail = None
    if heads is None:  # in order, as each lane's head lies in its own bits
        trail = np.empty((n, head), dtype=np.uint64)
        heads = trail.ravel()
    walk = _Lanes(start, np.zeros(n, np.int64), np.zeros(n, np.uint64), np.zeros(n, np.uint8),
                  np.zeros(n, np.int64), heads)
    ids, pos, (base, shift) = np.arange(n), start.copy(), table
    live = np.ones(n, dtype=bool)  # False once a lane of the block has left
    rows = np.empty((max(expect, head), n), dtype=np.uint16)
    window, length = np.empty(n, dtype=np.uint64), np.empty(n, dtype=np.uint64)
    step = first = left = 0
    while True:
        if step - first + _READ_CODEWORDS > rows.shape[0]:
            rows = np.concatenate((rows, np.empty_like(rows)))
        word = words.take(pos >> 4, mode="clip")
        word <<= pos & 15  # at least 49 bits from pos on
        for _ in range(_READ_CODEWORDS):
            if step < head and trail is not None:
                trail[:, step] = pos
            np.right_shift(word, shift, out=window)
            window += base  # below tables.size: "clip" only spares take a copy of out
            entry = tables.take(window, out=rows[step - first], mode="clip")
            np.right_shift(entry, 8, out=length, casting="unsafe")
            word <<= length
            pos += length
            step += 1
        if step < head or step % check:
            continue
        near = pos >= bound
        near |= length == 0
        near &= live
        near = np.flatnonzero(near)
        if not near.size:
            continue
        at = pos[near]
        met = heads.searchsorted(at)
        why = (heads.take(met, mode="clip") == at).view(np.uint8)
        why |= (at >= end[near]).view(np.uint8) * np.uint8(_END)
        stuck = length[near] == 0
        why |= (stuck | (at >= cap[near])).view(np.uint8) * np.uint8(_HALT)
        why |= stuck.view(np.uint8) * np.uint8(_STUCK)
        leave = why != 0
        if not leave.any():
            continue
        gone = near[leave]
        lanes = ids[gone]
        walk.steps[lanes], walk.at[lanes] = step, at[leave]
        walk.met[lanes], walk.why[lanes] = met[leave], why[leave]
        live[gone] = False
        left += gone.size
        if 2 * left >= ids.size:
            walk.blocks.append((first, ids, rows[: step - first]))
            ids, pos, base, shift = ids[live], pos[live], base[live], shift[live]
            bound, end, cap = bound[live], end[live], cap[live]
            if not ids.size:
                return walk
            live, left, first = live[live], 0, step
            rows = np.empty((max(expect - step, head), ids.size), dtype=np.uint16)
            window, length = window[: ids.size], length[: ids.size]


def _walk(streams, names=None) -> list:
    """The uint8 symbols of each stream of (table, payload, payload bits), from one
    lockstep walk (:func:`_lockstep`) over the lanes of them all.

    Each stream is cut into lanes of :func:`_lane_bits`, each starting at its
    first bit, most inside a codeword. A lane started off the codeword
    boundaries falls onto them within a few codewords, and from there takes
    the stream's own codewords. A lane walks on past its own bits until it
    is found on a codeword start of a later lane's head: from there the two
    take the same codewords. A stream's symbols are its first lane's up to
    that start, then the later lane's from it, and so on to the lane that
    reaches the stream's end. A lane that meets no later lane within the
    two past its own halts; if the stream runs through it, it is walked on
    alone from where it halted, so a stream whose lanes never fall into
    step decodes as one serial lane. The symbols must end exactly at the
    stream's end, every codeword before it matched, or the stream is
    refused; ``names`` starts each refusal with ``layer 'NAME': ``.
    """
    label = (lambda s: "") if names is None else (lambda s: f"layer {names[s]!r}: ")
    head = _HEAD_READS * _READ_CODEWORDS
    gap = bytes(head * MAX_CODE_LEN // 8 + 8)  # after each stream: room for a head past its end
    # lanes of _LANE_CODEWORDS codewords, or shorter ones for a small container
    means = [_mean_length(table) for table, *_ in streams]
    codewords = sum(bits / mean for (*_, bits), mean in zip(streams, means))
    codewords = min(_LANE_CODEWORDS, int(codewords) // _LANES)
    chunks, layout, size = [], [], 0
    for s, ((table, payload, payload_bits), mean) in enumerate(zip(streams, means)):
        data = np.frombuffer(payload, dtype=np.uint8)
        if payload_bits > 8 * data.size:
            raise CorruptionError(label(s) + "payload shorter than its declared bit length")
        chunks += [data[: (payload_bits + 7) // 8], gap]
        layout.append((8 * size, payload_bits, _lane_bits(table, payload_bits, codewords * mean)))
        size += chunks[-2].size + len(gap)
    padded = np.frombuffer(b"".join(chunks + [bytes(8)]), dtype=np.uint8)
    # the 64 bits from every second byte on
    words = np.ndarray(size // 2 + 1, dtype=">u8", buffer=padded, strides=(2,)).astype(np.uint64)
    tables = [table._decode_table() for table, *_ in streams]
    sizes = np.array([table.size for table in tables])
    tables = np.concatenate(tables)
    first, bits, lane = np.array(layout, dtype=np.int64).T
    count = np.maximum(1, -(-bits // lane))
    lead = np.r_[0, np.cumsum(count)]  # each stream's first lane
    owner = np.repeat(np.arange(len(streams)), count)
    k = np.arange(lead[-1]) - lead[owner]  # each lane's index in its stream
    base = (np.cumsum(sizes) - sizes)[owner].astype(np.uint64)  # its table in ``tables``
    # its window: as many of the top bits of its read as its longest code has
    shift = (64 - np.array([table.lengths.max() for table, *_ in streams], np.uint64))[owner]
    starts, ends = first[owner] + k * lane[owner], (first + bits)[owner]
    never = np.iinfo(np.int64).max
    bounds = np.minimum(starts + lane[owner], ends)
    caps = np.where(k + 3 < count[owner], starts + 3 * lane[owner], never)
    starts, bounds, ends, caps = (v.astype(np.uint64) for v in (starts, bounds, ends, caps))
    walk = _lockstep(words, tables, starts, (base, shift), bounds, ends, caps,
                     int(1.125 * max(lane / means)))
    # each lane but the last of a stream ends on the next lane's head, at index joins
    regular = (walk.why & (_FLAG | _END | _STUCK)) == _FLAG
    regular &= walk.met // head == np.arange(1, starts.size + 1)
    joins, odd = walk.met % head, np.flatnonzero(~regular)
    plans = []  # per stream: (walk, first lane, from codewords, to codewords) of runs of lanes
    for s, (first, bits, _) in enumerate(layout):
        end, k, a = first + bits, int(lead[s]), 0
        plan, lanes = [], walk
        plans.append(plan)
        while True:
            if lanes is walk:
                r = int(odd[np.searchsorted(odd, k)])
                if r > k:
                    plan.append((walk, k, np.r_[a, joins[k : r - 1]], walk.steps[k:r]))
                    k, a = r, int(joins[r - 1])
            steps, why = int(lanes.steps[k]), int(lanes.why[k])
            if why & _END:  # its codewords must end exactly at the stream's end
                edges = lanes.positions(k)
                e = int(np.searchsorted(edges, end))
                if e == edges.size or edges[e] != end:
                    raise CorruptionError(label(s) + "payload ends inside a codeword")
                plan.append((lanes, k, np.array([a]), np.array([e])))
                break
            if why & _STUCK:  # on a window that starts no codeword
                left = end - int(lanes.at[k])
                raise CorruptionError(label(s) + (
                    "payload ends inside a codeword" if left <= streams[s][0].lengths.max()
                    else "bit pattern matches no codeword"))
            plan.append((lanes, k, np.array([a]), np.array([steps])))
            if why & _FLAG:  # on to the lane whose head it is on
                k, a = divmod(int(lanes.met[k]), head)
                lanes = walk
            else:  # halted: on alone from where it stopped
                at, one = lanes.at[k : k + 1], slice(lead[s], lead[s] + 1)
                lanes = _lockstep(words, tables, at, (base[one], shift[one]), at, ends[one],
                                  np.full(1, never, dtype=np.uint64), 1, walk.heads)
                k, a = 0, 0
    del words, padded, tables  # freed before the symbols are copied out
    return [np.frombuffer(bytearray().join([piece for lanes, *run in plan
                                            for piece in lanes.symbols(*run)]), dtype=np.uint8)
            for plan in plans]


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
        struct.pack(f"<B{len(lq.shape)}I", len(lq.shape), *lq.shape),
        struct.pack("<Q", payload_bits),
    ))


def encode_layer(lq: LayerQuantization) -> bytes:
    """Serialize one quantized layer to its framed container record."""
    table, _ = _layer_table(lq)
    payload, payload_bits = table.encode(lq.symbols)
    return framing.pack_record(_body_head(lq, table, payload_bits) + payload)


def _record_size(lq: LayerQuantization, table: HuffmanTable, counts: np.ndarray) -> int:
    """Exact byte length of ``encode_layer(lq)`` from its table and counts, without encoding."""
    payload_bits = int(np.dot(counts, table.lengths.astype(np.int64)))
    head = _body_head(lq, table, payload_bits)
    return framing.RECORD_OVERHEAD + len(head) + (payload_bits + 7) // 8


def _read_layer(data, offset: int):
    """Verify and parse one framed layer record but walk none of its payload; returns
    ((the layer with its table's symbols in place of its own, stream, shape), next
    offset)."""
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
    except FormatError as exc:  # such as a code over 16 bits, which no version 4 writer makes
        raise FormatError(f"layer {name!r}: {exc}") from exc
    (rank,) = fields.unpack("<B")
    shape = fields.unpack(f"<{rank}I")
    (payload_bits,) = fields.unpack("<Q")
    payload = fields.take((payload_bits + 7) // 8)
    fields.done()
    if not math.prod(shape):
        raise FormatError(f"layer {name!r}: shape {shape} holds no weights")
    # refused before the walk, which walks a lone lane to the end of these bits
    if payload_bits > math.prod(shape) * int(table.lengths.max()):
        raise CorruptionError(f"layer {name!r}: {payload_bits} payload bits "
                              f"for shape {shape}")
    try:  # every symbol the walk can give has a code, so checking those checks them all
        coded = LayerQuantization(
            name=name, mode=_MODE_NAMES[mode_code], n_bits=n_bits, alpha=float(alpha),
            bias=int(bias), sigma=float(sigma), wsep=float(wsep),
            mu=(_decode_pow2(name, ms, me), _decode_pow2(name, ps, pe)),
            symbols=np.flatnonzero(table.lengths))
    except ValueError as exc:
        raise FormatError(f"layer {name!r}: {exc}") from exc
    return (coded, (table, payload, payload_bits), shape), end


def _layers(records) -> list:
    """The layers of records of ``_read_layer``, from one walk of them all."""
    walked = _walk([stream for _, stream, _ in records], [lq.name for lq, *_ in records])
    layers = []
    for (coded, _, shape), symbols in zip(records, walked):
        if symbols.size != math.prod(shape):
            raise CorruptionError(f"layer {coded.name!r}: {symbols.size} codewords, "
                                  f"its shape {shape} holds {math.prod(shape)}")
        layer = copy.copy(coded)  # its symbols were checked as the table's
        layer.symbols, layer.shape = symbols, shape
        layers.append(layer)
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
    compressed layer of its name and weight shape, and there is no other.
    """
    pairs = []
    for spec in model.layers:
        lq = cm.layer(spec.name)
        if lq.shape != spec.weight.shape:
            raise ValidationError(f"layer {spec.name!r}: shape {lq.shape} "
                                  f"for {spec.weight.shape}")
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
