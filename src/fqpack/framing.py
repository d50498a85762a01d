"""Record framing shared by the compressed (FQZ) and model (FQM) containers.

Both file formats are a header and a counted list of CRC-checked records
(all integers little-endian):

    magic   4 bytes   b"FQZ1" or b"FQM1"
    version u16       the magic's entry in VERSIONS; any other version is
                      rejected. FQZ is at 4, whose layer records hold their
                      layer's shape and no block lengths; FQM is at 2
    count   u32       number of records
    then count records, each:
        length u32    byte length of the body
        body          name_len u16, layer name UTF-8 (at most 65,535 bytes),
                      then fields laid out by the format's module
        crc32  u32    over the length field and the body

The reader checks the header, then each record's extent and CRC before any
field of its body is parsed. A file that ends before its ``count`` records
raises CorruptionError, and bytes after the last record raise FormatError.
Bodies are read through ``Fields``, a bounds-checked cursor.
"""

from __future__ import annotations

import struct
import zlib

from .errors import CorruptionError, FormatError, ValidationError

VERSIONS = {b"FQZ1": 4, b"FQM1": 2}  # the version each magic's files are written and read at

_HEADER = struct.Struct("<4sHI")  # magic, version, record count
_U32 = struct.Struct("<I")  # a record's body length, and its CRC32

HEADER_SIZE = _HEADER.size
RECORD_OVERHEAD = 2 * _U32.size  # framing bytes around each body


def pack(magic: bytes, records: list) -> bytes:
    """A whole container: the header, then the records ``pack_record`` framed."""
    return _HEADER.pack(magic, VERSIONS[magic], len(records)) + b"".join(records)


def pack_record(body: bytes) -> bytes:
    """One framed record: length, body, CRC32 over both."""
    head = _U32.pack(len(body)) + body
    return head + _U32.pack(zlib.crc32(head))


def pack_name(name: str) -> bytes:
    """The name field that starts every record body: u16 length, UTF-8 bytes."""
    raw = name.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ValidationError(f"layer name of {len(raw)} bytes exceeds the 65535-byte field")
    return struct.pack("<H", len(raw)) + raw


class Fields:
    """Bounds-checked cursor over one record body whose CRC has been verified.

    A verified body that ends inside a field, or has bytes left after its
    last one, was written wrongly rather than damaged: FormatError.
    """

    def __init__(self, body: memoryview, offset: int):
        self.body, self.pos, self.offset = body, 0, offset

    def take(self, count: int) -> memoryview:
        if self.pos + count > len(self.body):
            raise FormatError(f"record at byte {self.offset}: body ends inside a field")
        self.pos += count
        return self.body[self.pos - count : self.pos]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def name(self) -> str:
        (length,) = self.unpack("<H")
        try:
            return bytes(self.take(length)).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"layer record at byte {self.offset}: name is not UTF-8") from exc

    def done(self) -> None:
        if self.pos != len(self.body):
            raise FormatError(f"record at byte {self.offset}: "
                              f"{len(self.body) - self.pos} unread bytes at the end of its body")


def read_record(data, offset: int):
    """Verify the record at ``offset``; returns (Fields over its body, next offset)."""
    view = memoryview(data)
    if offset + _U32.size > len(view):
        raise CorruptionError(f"record at byte {offset}: file ends inside its length field")
    end = offset + _U32.size + _U32.unpack_from(view, offset)[0]
    if end + _U32.size > len(view):
        raise CorruptionError(f"record at byte {offset}: body runs past the end of the file")
    (stored,) = _U32.unpack_from(view, end)
    actual = zlib.crc32(view[offset:end])
    if stored != actual:
        raise CorruptionError(f"record at byte {offset}: checksum mismatch "
                              f"(stored {stored:#010x}, computed {actual:#010x})")
    return Fields(view[offset + _U32.size : end], offset), end + _U32.size


def read_container(data, magic: bytes, read_item, build):
    """Check the header, read every record, and return ``build(items)``.

    ``read_item(data, offset)`` starts with ``read_record`` and returns
    (item, next offset). A ValueError from ``build``, such as a repeated
    layer name, becomes a FormatError.
    """
    if len(data) < _HEADER.size:
        raise CorruptionError("file shorter than the container header")
    found, version, count = _HEADER.unpack_from(data)
    if found != magic:
        raise FormatError(f"bad magic {found!r}, expected {magic!r}")
    if version != VERSIONS[magic]:
        raise FormatError(f"unsupported container version {version}, "
                          f"expected {VERSIONS[magic]}")
    items = []
    offset = _HEADER.size
    for index in range(count):
        if offset == len(data):
            raise CorruptionError(f"container holds {index} of {count} records")
        item, offset = read_item(data, offset)
        items.append(item)
    if offset != len(data):
        raise FormatError(f"{len(data) - offset} trailing bytes after the last of {count} records")
    try:
        return build(items)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
