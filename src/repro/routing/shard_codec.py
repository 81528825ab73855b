"""Versioned binary codec for per-vertex :class:`NodeTable` shards.

The JSON persistence of :mod:`repro.routing.persistence` is fine for one
whole-scheme blob but wrong for serving: a node that only needs *its own*
table should not parse (or even read) megabytes of everyone else's.  This
codec packs one :class:`~repro.routing.tables.NodeTable` into one compact
byte string:

* 4-byte header: magic ``RT`` + format version + flags,
* varint-packed structure (zigzag for signed ints, ``struct``-packed
  IEEE doubles for floats, UTF-8 for strings),
* a tag byte per value; tuples/lists/dicts nest arbitrarily — the same
  value domain :func:`repro.routing.model.words_of` accepts, so anything
  a scheme can put into a :class:`SizedTable` round-trips,
* unit-weight neighbour lists (unweighted graphs) skip the 8-byte
  weights entirely (flag bit 0).

Decoding validates the magic and version and fails loudly on anything
else — a shard written by a future codec is rejected, never misread.
:func:`decode_node_table` accepts a :class:`memoryview` as well as
``bytes`` and never copies the payload while parsing, so a store that
maps a packed group file (``mmap``) can decode a vertex's record straight
from the mapped buffer (the zero-copy hot path of
:class:`repro.routing.serving.PackedShardStore`).

Packed groups (format v2 of the on-disk layout)
-----------------------------------------------
One file per *vertex* costs an inode each — a non-starter at
``n >= 10^5``.  The packed group format concatenates many v1 shard
payloads into one ``<g>.pack`` file:

* 10-byte header: magic ``RTPK`` + version + flags + entry count,
* a *sorted*, fixed-width per-vertex index (``vertex, offset, length``
  little-endian structs) that binary-searches directly over the mapped
  buffer — no parsing, no allocation,
* the concatenated v1 shard payloads (each still self-validating).

:func:`parse_pack_header` validates the header per mapping (O(1) for
pack v1; pack v2 adds one crc32 sweep of the index region);
:func:`find_in_pack` locates one vertex's payload in ``O(log count)``
buffer reads; :func:`check_pack` is the full O(count) index validation
(sorted, in-bounds, non-overlapping) the store runs on first anomaly
and on explicit ``verify()``.

Checksummed packs (pack v2, on-disk layout v3)
----------------------------------------------
A flipped bit in a stored double decodes to a structurally valid but
*wrong* table — the self-validating v1 payload cannot catch it.  Pack
version 2 closes that hole with CRC32 everywhere:

* each index entry grows a ``crc32(payload)`` field
  (``vertex, offset, length, crc`` little-endian structs),
* a ``crc32(header + index)`` trailer follows the index, verified on
  every mapping (:func:`parse_pack_header`), so a lying index is caught
  before the first binary search trusts it,
* :func:`find_pack_entry` hands the per-entry checksum to the store,
  which verifies the payload bytes *before* decoding them
  (:func:`payload_checksum_ok`), raising :class:`ChecksumError` —
  a corrupted table is never silently decoded,
* :func:`verify_pack` is the offline sweep: full index validation plus
  every payload checksum (v1 packs fall back to decoding each payload).

``encode_pack(..., checksums=True)`` writes pack v2; v1 packs (and v1
per-file shard dirs) still load unchanged.

Native-accelerated codec
------------------------
Under the ``native`` kernel mode (``REPRO_KERNEL=native``, or ``auto``
when the C library loads) both codecs run in C, both directions —
``repro_decode_table`` / ``repro_encode_table`` and
``repro_decode_value`` / ``repro_encode_value`` in
``repro/native/_kernels.c``, written against the CPython API:

* :func:`decode_node_table_fast` gets the record's owner, neighbour
  ids, weights, label and categories as Python objects built straight
  from the payload bytes in one pass (the buffer export is released
  before the call returns, so an mmap-backed store can close at once),
* :func:`encode_node_table` gets the payload bytes written straight
  from the record's objects,
* :func:`encode_value` / :func:`decode_value` — the payload codec of
  every cluster RPC (:mod:`repro.cluster.wire`), four calls per round
  trip — run the same tagged value reader/writer on one bare value
  (decode returns its hit boxed as ``(value,)``, so a decoded ``None``
  is not the fallback signal).

The C side covers the common domain — exact builtin types, ints within
int64, string category names, nesting up to 200 levels — and returns
``None`` for everything else; the pure functions then run and produce
the canonical bytes or raise the canonical error, so output *and*
error messages are identical in every kernel mode.  Neither side keeps
scratch between calls, so the threaded cluster server decodes
concurrently without per-thread state.

Size accounting
---------------
``encoded_size`` reports the exact byte cost of a record.  The shard
tests reconcile this against the word accounting of
:class:`~repro.routing.model.SizedTable`/``SchemeStats``: decoded shards
must reproduce the exact per-vertex word counts, and the bytes-per-word
ratio is recorded in the shard manifest so the benchmark tables can show
real on-disk cost next to the paper's word bounds.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Iterator, List, Optional, Sequence, Tuple, Union

from .tables import NodeTable

__all__ = [
    "CODEC_VERSION",
    "PACK_VERSION",
    "PACK_VERSION_CRC",
    "ShardCodecError",
    "ChecksumError",
    "encode_node_table",
    "decode_node_table",
    "decode_node_table_fast",
    "encoded_size",
    "encode_value",
    "decode_value",
    "encode_pack",
    "parse_pack_header",
    "check_pack",
    "verify_pack",
    "find_in_pack",
    "find_pack_entry",
    "payload_checksum_ok",
    "iter_pack_entries",
]

#: anything the decoders accept without copying
Buffer = Union[bytes, bytearray, memoryview]

MAGIC = b"RT"
CODEC_VERSION = 1

PACK_MAGIC = b"RTPK"
PACK_VERSION = 1
#: pack format with per-entry payload CRC32s and a whole-index CRC32
PACK_VERSION_CRC = 2
#: (vertex, payload offset, payload length), little-endian, fixed width
#: so binary search reads straight out of an mmap without parsing
_PACK_ENTRY = struct.Struct("<IQI")
#: pack v2 entry: (vertex, offset, length, crc32 of the payload bytes)
_PACK_ENTRY_CRC = struct.Struct("<IQII")
#: pack v2 index trailer: crc32 of header + index entries
_INDEX_CRC = struct.Struct("<I")
#: magic + version byte + flags byte + entry count
_PACK_HEADER = struct.Struct("<4sBBI")

#: flag bit 0: every incident edge weight is exactly 1.0 (skip weights)
_FLAG_UNIT_WEIGHTS = 0x01

# value tag bytes
_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_TUPLE = 0x06
_T_LIST = 0x07
_T_DICT = 0x08

_DOUBLE = struct.Struct("<d")


class ShardCodecError(ValueError):
    """Raised on malformed, foreign or future-versioned shard bytes."""


class ChecksumError(ShardCodecError):
    """Stored CRC32 disagrees with the bytes — corruption, not format."""


# ----------------------------------------------------------------------
# varints
# ----------------------------------------------------------------------
#: decode stops at shift 70, i.e. 11 varint bytes = 77 payload bits;
#: encoding enforces the same bound so everything written decodes back
_UVARINT_LIMIT = 1 << 77


def _write_uvarint(out: List[bytes], value: int) -> None:
    if value < 0:
        raise ShardCodecError(f"uvarint cannot encode {value}")
    if value >= _UVARINT_LIMIT:
        raise ShardCodecError(
            f"int {value} exceeds the codec's 77-bit varint range"
        )
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(bytes((byte | 0x80,)))
        else:
            out.append(bytes((byte,)))
            return


def _read_uvarint(data: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise ShardCodecError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 70:
            raise ShardCodecError("varint too long")


def _write_svarint(out: List[bytes], value: int) -> None:
    # zigzag: non-negative -> even, negative -> odd
    _write_uvarint(out, value << 1 if value >= 0 else ((-value) << 1) - 1)


def _read_svarint(data: bytes, pos: int) -> Tuple[int, int]:
    raw, pos = _read_uvarint(data, pos)
    return (raw >> 1) if not raw & 1 else -((raw + 1) >> 1), pos


# ----------------------------------------------------------------------
# values
# ----------------------------------------------------------------------
def _write_value(out: List[bytes], value: Any) -> None:
    if value is None:
        out.append(bytes((_T_NONE,)))
    elif value is True:
        out.append(bytes((_T_TRUE,)))
    elif value is False:
        out.append(bytes((_T_FALSE,)))
    elif isinstance(value, int):
        out.append(bytes((_T_INT,)))
        _write_svarint(out, value)
    elif isinstance(value, float):
        out.append(bytes((_T_FLOAT,)))
        out.append(_DOUBLE.pack(value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(bytes((_T_STR,)))
        _write_uvarint(out, len(raw))
        out.append(raw)
    elif isinstance(value, tuple):
        out.append(bytes((_T_TUPLE,)))
        _write_uvarint(out, len(value))
        for item in value:
            _write_value(out, item)
    elif isinstance(value, list):
        out.append(bytes((_T_LIST,)))
        _write_uvarint(out, len(value))
        for item in value:
            _write_value(out, item)
    elif isinstance(value, dict):
        out.append(bytes((_T_DICT,)))
        _write_uvarint(out, len(value))
        for k, v in value.items():
            _write_value(out, k)
            _write_value(out, v)
    else:
        raise ShardCodecError(
            f"cannot encode value of type {type(value)!r}"
        )


def _read_value(data: bytes, pos: int) -> Tuple[Any, int]:
    if pos >= len(data):
        raise ShardCodecError("truncated value")
    tag = data[pos]
    pos += 1
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_INT:
        return _read_svarint(data, pos)
    if tag == _T_FLOAT:
        end = pos + 8
        if end > len(data):
            raise ShardCodecError("truncated float")
        return _DOUBLE.unpack_from(data, pos)[0], end
    if tag == _T_STR:
        length, pos = _read_uvarint(data, pos)
        end = pos + length
        if end > len(data):
            raise ShardCodecError("truncated string")
        # bytes() copies only the string payload itself (str objects own
        # their storage anyway); the surrounding buffer is never copied.
        return bytes(data[pos:end]).decode("utf-8"), end
    if tag in (_T_TUPLE, _T_LIST):
        count, pos = _read_uvarint(data, pos)
        items = []
        for _ in range(count):
            item, pos = _read_value(data, pos)
            items.append(item)
        return (tuple(items) if tag == _T_TUPLE else items), pos
    if tag == _T_DICT:
        count, pos = _read_uvarint(data, pos)
        result = {}
        for _ in range(count):
            k, pos = _read_value(data, pos)
            v, pos = _read_value(data, pos)
            result[k] = v
        return result, pos
    raise ShardCodecError(f"unknown value tag 0x{tag:02x}")


# ----------------------------------------------------------------------
# node tables
# ----------------------------------------------------------------------
def encode_node_table(record: NodeTable) -> bytes:
    """Pack one :class:`NodeTable` into versioned shard bytes.

    Under the ``native`` kernel mode the C encoder writes the payload
    (see "Native-accelerated codec" in the module docstring); records
    outside its domain, and every record in the other modes, take the
    pure encoder.  The bytes are identical either way.
    """
    kernels = _native_codec()
    if kernels is not None:
        blob = kernels.encode_table(
            record.owner, record.neighbors, record.label, record.categories
        )
        if blob is not None:
            return blob
    return _encode_node_table_pure(record)


def _encode_node_table_pure(record: NodeTable) -> bytes:
    """The reference encoder (every kernel mode's fallback)."""
    unit = all(w == 1.0 for _, w in record.neighbors)
    flags = _FLAG_UNIT_WEIGHTS if unit else 0
    out: List[bytes] = [MAGIC, bytes((CODEC_VERSION, flags))]
    _write_uvarint(out, record.owner)
    _write_uvarint(out, len(record.neighbors))
    for nb, _ in record.neighbors:
        _write_uvarint(out, nb)
    if not unit:
        for _, w in record.neighbors:
            out.append(_DOUBLE.pack(w))
    _write_value(out, record.label)
    _write_uvarint(out, len(record.categories))
    for cat, entries in record.categories.items():
        _write_value(out, cat)
        _write_uvarint(out, len(entries))
        for k, v in entries.items():
            _write_value(out, k)
            _write_value(out, v)
    return b"".join(out)


def decode_node_table(data: Buffer) -> NodeTable:
    """Inverse of :func:`encode_node_table` (validates magic + version).

    Accepts ``bytes`` or a ``memoryview``; a view (e.g. a slice of an
    ``mmap``-ed pack file) is parsed in place — integers, floats and
    structure are read straight out of the buffer and only leaf string
    payloads are materialized.
    """
    if len(data) < 4 or data[:2] != MAGIC:
        raise ShardCodecError("not a routing-table shard (bad magic)")
    version, flags = data[2], data[3]
    if version != CODEC_VERSION:
        raise ShardCodecError(
            f"unsupported shard codec version {version} "
            f"(this build reads version {CODEC_VERSION})"
        )
    pos = 4
    owner, pos = _read_uvarint(data, pos)
    degree, pos = _read_uvarint(data, pos)
    ids = []
    for _ in range(degree):
        nb, pos = _read_uvarint(data, pos)
        ids.append(nb)
    if flags & _FLAG_UNIT_WEIGHTS:
        weights = [1.0] * degree
    else:
        end = pos + 8 * degree
        if end > len(data):
            raise ShardCodecError("truncated weights")
        weights = [
            _DOUBLE.unpack_from(data, pos + 8 * i)[0] for i in range(degree)
        ]
        pos = end
    label, pos = _read_value(data, pos)
    cat_count, pos = _read_uvarint(data, pos)
    categories = {}
    for _ in range(cat_count):
        cat, pos = _read_value(data, pos)
        if not isinstance(cat, str):
            raise ShardCodecError(f"category name {cat!r} is not a string")
        entry_count, pos = _read_uvarint(data, pos)
        entries = {}
        for _ in range(entry_count):
            k, pos = _read_value(data, pos)
            v, pos = _read_value(data, pos)
            entries[k] = v
        categories[cat] = entries
    if pos != len(data):
        raise ShardCodecError(
            f"{len(data) - pos} trailing bytes after shard payload"
        )
    return NodeTable(
        owner=owner,
        neighbors=tuple(zip(ids, weights)),
        label=label,
        categories=categories,
    )


# ----------------------------------------------------------------------
# native-accelerated codec
# ----------------------------------------------------------------------
def _native_codec() -> Any:
    """The native kernel handle, iff the resolved kernel mode is native."""
    from ..graph.shortest_paths import kernel_mode

    if kernel_mode() != "native":
        return None
    from .. import native

    return native.try_kernels()


def decode_node_table_fast(data: Buffer) -> NodeTable:
    """:func:`decode_node_table` through the native codec when on.

    Dispatches on the resolved ``REPRO_KERNEL`` mode: under ``native``
    the C decoder builds the record's fields in one pass over the
    buffer (releasing it before it returns, so an mmap can close right
    after).  *Any* payload outside its fast domain — truncation, a
    foreign version, a non-string category name, an int beyond int64,
    an unknown tag — makes it return ``None`` and this function re-run
    the pure decoder, so error messages and edge-case behaviour stay
    identical across kernel modes.  Pure/numpy modes call the pure
    decoder directly.
    """
    kernels = _native_codec()
    fields = None if kernels is None else kernels.decode_table(data)
    if fields is None:
        return decode_node_table(data)
    owner, ids, weights, label, categories = fields
    if weights is None:
        weights = [1.0] * len(ids)
    return NodeTable(
        owner=owner,
        neighbors=tuple(zip(ids, weights)),
        label=label,
        categories=categories,
    )


def encoded_size(record: NodeTable) -> int:
    """Exact on-disk byte cost of ``record``."""
    return len(encode_node_table(record))


def encode_value(value: Any) -> bytes:
    """Encode one value with the codec's self-describing tag scheme.

    The public face of the tagged value encoding the shard payloads use
    internally (``None``/bool/int/float/str/tuple/list/dict, nested
    arbitrarily) — the cluster wire protocol
    (:mod:`repro.cluster.wire`) frames every RPC body with it, so
    headers, labels and status dicts cross the wire in the exact format
    the shards already commit to (and CODEC001 already audits).  Under
    the ``native`` kernel mode the C encoder writes the bytes (see
    "Native-accelerated codec" in the module docstring); they are
    identical either way.
    """
    kernels = _native_codec()
    if kernels is not None:
        blob = kernels.encode_value(value)
        if blob is not None:
            return blob
    out: List[bytes] = []
    _write_value(out, value)
    return b"".join(out)


def decode_value(data: Buffer) -> Any:
    """Inverse of :func:`encode_value`; rejects trailing bytes."""
    kernels = _native_codec()
    if kernels is not None:
        boxed = kernels.decode_value(data)
        if boxed is not None:
            return boxed[0]
    value, pos = _read_value(data, 0)
    if pos != len(data):
        raise ShardCodecError(
            f"{len(data) - pos} trailing bytes after encoded value"
        )
    return value


# ----------------------------------------------------------------------
# packed groups (layout v2): many shard payloads in one mmap-able file
# ----------------------------------------------------------------------
def encode_pack(
    entries: Sequence[Tuple[int, bytes]], *, checksums: bool = False
) -> bytes:
    """Pack ``(vertex, shard bytes)`` pairs into one group-file blob.

    Entries are index-sorted by vertex id; payloads are laid out in the
    same order, concatenated directly after the index.  Each payload is
    an unmodified v1 shard (:func:`encode_node_table` output), so a
    packed group is exactly the per-file layout minus the inodes.

    ``checksums=True`` writes pack version 2: every index entry carries
    the CRC32 of its payload, and the index itself is sealed with a
    CRC32 trailer — the integrity substrate of the fault-tolerant
    serving layer (on-disk layout v3).
    """
    ordered = sorted(entries, key=lambda e: e[0])
    for (v, _), (w, _) in zip(ordered, ordered[1:]):
        if v == w:
            raise ShardCodecError(f"vertex {v} appears twice in the pack")
    version = PACK_VERSION_CRC if checksums else PACK_VERSION
    entry_struct = _PACK_ENTRY_CRC if checksums else _PACK_ENTRY
    out: List[bytes] = [
        _PACK_HEADER.pack(PACK_MAGIC, version, 0, len(ordered))
    ]
    offset = 0
    for v, blob in ordered:
        if checksums:
            out.append(
                entry_struct.pack(v, offset, len(blob), zlib.crc32(blob))
            )
        else:
            out.append(entry_struct.pack(v, offset, len(blob)))
        offset += len(blob)
    if checksums:
        out.append(_INDEX_CRC.pack(zlib.crc32(b"".join(out))))
    out.extend(blob for _, blob in ordered)
    return b"".join(out)


def parse_pack_header(buf: Buffer) -> Tuple[int, int]:
    """Validate the pack header; return ``(count, payload_start)``.

    The cheap half of validation run on every mapping: magic, version,
    and that the claimed index fits in the buffer — O(1) for pack v1.
    For pack v2 this also verifies the index CRC32 (one crc sweep of
    the index region, ~20 bytes/entry), so a mapped group's index is
    known-good before the first binary search trusts it.
    :func:`check_pack` is the full structural index check.
    """
    version, count, payload_start = _pack_bounds(buf)
    if version == PACK_VERSION_CRC:
        _check_index_crc(buf, count, payload_start)
    return count, payload_start


def _entry_struct(version: int) -> struct.Struct:
    return _PACK_ENTRY_CRC if version == PACK_VERSION_CRC else _PACK_ENTRY


def _check_index_crc(buf: Buffer, count: int, payload_start: int) -> None:
    """Verify the pack-v2 index trailer (crc32 of header + entries)."""
    crc_at = payload_start - _INDEX_CRC.size
    (stored,) = _INDEX_CRC.unpack_from(buf, crc_at)
    actual = zlib.crc32(memoryview(buf)[:crc_at])
    if stored != actual:
        raise ChecksumError(
            f"pack index checksum mismatch (stored 0x{stored:08x}, "
            f"bytes hash to 0x{actual:08x}) — the index is corrupt"
        )


def _pack_bounds(buf: Buffer) -> Tuple[int, int, int]:
    """Validate the pack header; return ``(version, count, payload_start)``."""
    if len(buf) < _PACK_HEADER.size:
        raise ShardCodecError("truncated pack header")
    magic, version, _flags, count = _PACK_HEADER.unpack_from(buf, 0)
    if magic != PACK_MAGIC:
        raise ShardCodecError("not a shard pack (bad magic)")
    if version not in (PACK_VERSION, PACK_VERSION_CRC):
        raise ShardCodecError(
            f"unsupported pack version {version} (this build reads "
            f"versions {PACK_VERSION} and {PACK_VERSION_CRC})"
        )
    payload_start = _PACK_HEADER.size + count * _entry_struct(version).size
    if version == PACK_VERSION_CRC:
        payload_start += _INDEX_CRC.size
    if payload_start > len(buf):
        raise ShardCodecError(
            f"pack index claims {count} entries but the file is too short"
        )
    return version, count, payload_start


_PACK_INDEX_DTYPE = [("v", "<u4"), ("off", "<u8"), ("len", "<u4")]
_PACK_INDEX_CRC_DTYPE = [
    ("v", "<u4"), ("off", "<u8"), ("len", "<u4"), ("crc", "<u4"),
]


def check_pack(buf: Buffer) -> int:
    """Validate a whole pack index; returns the entry count.

    Vectorized (numpy view over the index region — ~50us for a
    4096-entry group): the index must be strictly sorted by vertex,
    every payload must lie inside the payload region, and payloads must
    not overlap; a v2 index must additionally match its CRC32 trailer.
    The packed store keeps its cold path syscall-light by running only
    :func:`parse_pack_header` per mapping and deferring this full check
    to the first anomaly (a failed lookup or decode) and to explicit
    ``verify()`` calls — every corruption the index can carry still
    fails loudly, with this function's precise error.
    """
    import numpy as np

    version, count, payload_start = _pack_bounds(buf)
    if version == PACK_VERSION_CRC:
        _check_index_crc(buf, count, payload_start)
    payload_size = len(buf) - payload_start
    dtype = (
        _PACK_INDEX_CRC_DTYPE if version == PACK_VERSION_CRC
        else _PACK_INDEX_DTYPE
    )
    index = np.frombuffer(
        buf, dtype=dtype, count=count, offset=_PACK_HEADER.size,
    )
    vertices = index["v"].astype(np.int64)
    ends = index["off"].astype(np.int64) + index["len"]
    if count and not (np.diff(vertices) > 0).all():
        i = int(np.argmax(np.diff(vertices) <= 0)) + 1
        raise ShardCodecError(
            f"pack index not strictly sorted at entry {i} "
            f"(vertex {int(vertices[i])} after {int(vertices[i - 1])})"
        )
    if count and not (index["off"][1:] >= ends[:-1]).all():
        i = int(np.argmax(index["off"][1:] < ends[:-1])) + 1
        raise ShardCodecError(
            f"pack entry for vertex {int(vertices[i])} overlaps the "
            f"previous payload"
        )
    if count and not (ends <= payload_size).all():
        i = int(np.argmax(ends > payload_size))
        raise ShardCodecError(
            f"pack entry for vertex {int(vertices[i])} runs past the "
            f"payload region"
        )
    if version == PACK_VERSION_CRC:
        # v2 payloads are written back to back, so the exact file size
        # is known — trailing bytes mean appended garbage or a torn
        # rewrite (v1 packs stay tolerant: their spec never pinned it)
        expected = int(ends[-1]) if count else 0
        if payload_size != expected:
            raise ShardCodecError(
                f"pack holds {payload_size} payload bytes but the "
                f"index accounts for {expected} — trailing garbage "
                f"or a torn rewrite"
            )
    return count


def verify_pack(buf: Buffer) -> int:
    """The offline integrity sweep: index *and* every payload.

    Runs :func:`check_pack`, then verifies each payload: against its
    stored CRC32 for pack v2 (:class:`ChecksumError` names the first
    corrupt vertex), or — for checksum-less v1 packs — by decoding it
    (the payload's structural self-validation, which cannot catch a
    flipped weight bit but catches everything else).  Returns the entry
    count.  ``PackedShardStore.verify()`` and ``shard --verify`` run
    this per group.
    """
    count = check_pack(buf)
    version, _, _ = _pack_bounds(buf)
    view = memoryview(buf)
    for v, offset, length, crc in _iter_entries_crc(buf):
        if version == PACK_VERSION_CRC:
            if zlib.crc32(view[offset:offset + length]) != crc:
                raise ChecksumError(
                    f"payload of vertex {v} fails its CRC32 — "
                    f"{length} bytes at offset {offset} are corrupt"
                )
        else:
            decode_node_table(view[offset:offset + length])
    return count


def payload_checksum_ok(
    buf: Buffer, offset: int, length: int, crc: int
) -> bool:
    """Whether ``buf[offset:offset+length]`` hashes to ``crc``."""
    return zlib.crc32(memoryview(buf)[offset:offset + length]) == crc


def find_pack_entry(
    buf: Buffer, v: int
) -> Optional[Tuple[int, int, Optional[int]]]:
    """Binary-search the index for vertex ``v``.

    Returns ``(absolute offset, length, crc)`` of the payload inside
    ``buf`` — ``crc`` is the stored payload CRC32 for pack v2, ``None``
    for checksum-less v1 packs — or ``None`` when the pack holds no
    shard for ``v``.  Assumes a sorted index (what :func:`encode_pack`
    writes and :func:`check_pack` certifies); on an unsorted or corrupt
    index the search can only miss or surface a payload whose checksum
    or self-validating decode fails — callers diagnose that with
    :func:`check_pack`.
    """
    version, count, payload_start = _pack_bounds(buf)
    entry = _entry_struct(version)
    lo, hi = 0, count
    while lo < hi:
        mid = (lo + hi) // 2
        fields = entry.unpack_from(buf, _PACK_HEADER.size + mid * entry.size)
        vertex, offset, length = fields[0], fields[1], fields[2]
        if vertex == v:
            crc = fields[3] if version == PACK_VERSION_CRC else None
            return payload_start + offset, length, crc
        if vertex < v:
            lo = mid + 1
        else:
            hi = mid
    return None


def find_in_pack(buf: Buffer, v: int) -> Optional[Tuple[int, int]]:
    """:func:`find_pack_entry` without the checksum field."""
    found = find_pack_entry(buf, v)
    return None if found is None else found[:2]


def _iter_entries_crc(
    buf: Buffer,
) -> Iterator[Tuple[int, int, int, Optional[int]]]:
    """Yield ``(vertex, absolute offset, length, crc-or-None)``."""
    version, count, payload_start = _pack_bounds(buf)
    entry = _entry_struct(version)
    for i in range(count):
        fields = entry.unpack_from(buf, _PACK_HEADER.size + i * entry.size)
        crc = fields[3] if version == PACK_VERSION_CRC else None
        yield fields[0], payload_start + fields[1], fields[2], crc


def iter_pack_entries(buf: Buffer) -> Iterator[Tuple[int, int, int]]:
    """Yield ``(vertex, absolute offset, length)`` in index order."""
    for v, offset, length, _ in _iter_entries_crc(buf):
        yield v, offset, length
