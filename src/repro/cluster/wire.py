"""Length-prefixed binary RPC protocol between cluster client and workers.

One frame per message, in either direction::

    <2s magic "RC"> <B version> <B msg type> <I payload length> <payload>

The 8-byte header is packed with ``_FRAME`` (``"<2sBBI"``, declared in
:mod:`repro.analysis.layouts` and audited by CODEC001, exactly like the
shard codec's pack header) and versioned like the shard layouts: a
reader refuses a frame whose magic or version it does not speak, so a
protocol revision bumps ``WIRE_VERSION`` and old/new processes fail
loudly instead of misparsing each other.

Payloads reuse the shard codec's self-describing tagged value encoding
(:func:`repro.routing.shard_codec.encode_value`): headers, labels,
status dicts and per-hop traces cross the wire in the exact format the
shards on disk already commit to — no second serialization dialect to
audit.  Under the ``native`` kernel mode both directions of that codec
run in C (``repro_encode_value`` / ``repro_decode_value``, see
:mod:`repro.native`); a payload outside the C fast domain (ints beyond
int64, nesting past 200 levels, subclasses of the builtin types, bad
UTF-8, trailing bytes) falls back to the pure Python codec, which stays
the reference and raises every error.  The bytes on the wire are
identical in every kernel mode.  The one exception is the ``MSG_LOOKUP`` reply, whose payload is
the raw :func:`encode_node_table` bytes of the requested shard (the
value codec carries no bytes leaf, and the shard codec already *is* the
byte encoding of a record).

Message types
-------------
``MSG_STATUS``
    ``()`` -> the worker's status dict (store counters, header stats,
    request counters, health).
``MSG_LABEL``
    ``[v, ...]`` -> ``[label, ...]``, answered from the worker's owned
    shards (duplicates preserved — the counter-parity tests depend on
    one ``node(v)`` call per requested label, exactly like the
    single-process simulator).
``MSG_LOOKUP``
    ``v`` -> raw shard bytes of vertex ``v`` (spot checks, tooling).
``MSG_FORWARD``
    ``([drive group, ...], [(current, header, dest_label, budget),
    ...])`` -> per-packet segment results; the drive-group list names
    the groups the worker should step through this round (see
    :mod:`repro.cluster.worker` for the stepping contract).
``MSG_SHUTDOWN``
    ``()`` -> ``True``; the worker stops serving after replying.

Every reply is ``REPLY_OK`` or ``REPLY_ERROR``; an error payload is the
``(type name, message)`` of a **typed** exception —
:class:`~repro.routing.serving.ServingError` /
:class:`~repro.routing.shard_codec.ShardCodecError` subclasses or the
cluster errors below — and :func:`raise_remote` re-raises it as the
same type client-side (the contract ERR001 statically enforces on every
``raise`` in these modules).  An unknown type degrades to
:class:`ClusterError`, never to a silent string.
"""

from __future__ import annotations

import socket
import struct
from typing import Any, Dict, Optional, Tuple, Type

from ..routing.serving import (
    ReplicaExhaustedError,
    ServingError,
    ShardAccountingError,
    ShardIntegrityError,
    ShardUnavailableError,
    WireContractError,
)
from ..routing.shard_codec import (
    ChecksumError,
    ShardCodecError,
    decode_value,
    encode_value,
)

__all__ = [
    "WIRE_MAGIC",
    "WIRE_VERSION",
    "FRAME_BYTES",
    "MAX_PAYLOAD",
    "MSG_STATUS",
    "MSG_LABEL",
    "MSG_LOOKUP",
    "MSG_FORWARD",
    "MSG_SHUTDOWN",
    "REPLY_OK",
    "REPLY_ERROR",
    "ClusterError",
    "WireProtocolError",
    "NotOwnerError",
    "WorkerUnavailableError",
    "send_frame",
    "recv_frame",
    "send_value",
    "decode_error",
    "error_payload",
    "raise_remote",
    "msg_name",
]

WIRE_MAGIC = b"RC"
WIRE_VERSION = 1
#: frame header: magic, version, message type, payload byte length
_FRAME = struct.Struct("<2sBBI")
FRAME_BYTES = 8
#: refuse absurd frames before allocating for them (64 MiB)
MAX_PAYLOAD = 67108864

MSG_STATUS = 1
MSG_LABEL = 2
MSG_LOOKUP = 3
MSG_FORWARD = 4
MSG_SHUTDOWN = 5
REPLY_OK = 32
REPLY_ERROR = 33

_MSG_NAMES = {
    MSG_STATUS: "STATUS",
    MSG_LABEL: "LABEL",
    MSG_LOOKUP: "LOOKUP",
    MSG_FORWARD: "FORWARD",
    MSG_SHUTDOWN: "SHUTDOWN",
    REPLY_OK: "OK",
    REPLY_ERROR: "ERROR",
}


def msg_name(msg: int) -> str:
    """Human name of a message type byte (diagnostics only)."""
    return _MSG_NAMES.get(msg, f"msg 0x{msg:02x}")


class ClusterError(ServingError):
    """Base of cluster-serving failures (a :class:`ServingError`, so
    degraded-mode callers keyed on the serving hierarchy keep working
    across the RPC boundary)."""


class WireProtocolError(ClusterError):
    """A frame violates the protocol: bad magic, unknown version, a
    lying length, or a mid-frame disconnect."""


class NotOwnerError(ClusterError):
    """A worker was asked about a vertex outside its assignment — a
    routing/placement bug, never a data fault (failover will not
    help)."""


class WorkerUnavailableError(ClusterError, ConnectionError):
    """A worker cannot be reached: connection refused, reset, or closed.
    The client-side failover trigger, exactly as
    :class:`~repro.routing.serving.ShardUnavailableError` is for a
    replica file."""


#: exception types allowed to cross the wire by name — everything the
#: serving stack can legitimately raise at the RPC boundary
_WIRE_ERRORS: Dict[str, Type[Exception]] = {
    cls.__name__: cls
    for cls in (
        ServingError,
        ShardUnavailableError,
        ShardIntegrityError,
        WireContractError,
        ShardAccountingError,
        ReplicaExhaustedError,
        ShardCodecError,
        ChecksumError,
        ClusterError,
        WireProtocolError,
        NotOwnerError,
    )
}


def error_payload(exc: BaseException) -> bytes:
    """Encode ``exc`` for a ``REPLY_ERROR`` frame: (type name, message)."""
    return encode_value((type(exc).__name__, str(exc)))


def raise_remote(
    name: str, message: str, *, worker: Optional[int] = None
) -> "None":
    """Re-raise a remote error client-side as its typed class.

    ``worker`` (when known) is prefixed into the message so an operator
    reading a traceback knows *which* process failed.  An unrecognised
    type name degrades to :class:`ClusterError` — still typed, still a
    :class:`ServingError` — rather than losing the failure.
    """
    prefix = f"[worker {worker}] " if worker is not None else ""
    cls = _WIRE_ERRORS.get(name)
    if cls is None:
        raise ClusterError(f"{prefix}{name}: {message}")
    if cls is ReplicaExhaustedError:
        # its constructor requires the per-replica causes map, which
        # does not cross the wire (exceptions are not values) — the
        # textual message carries what the worker knew
        raise ReplicaExhaustedError(prefix + message, {})
    raise cls(prefix + message)


def send_frame(sock: socket.socket, msg: int, payload: bytes) -> int:
    """Send one frame; returns the total bytes written.

    A connection-level failure (peer gone, pipe broken) surfaces as
    :class:`WorkerUnavailableError` — the typed signal the router's
    failover is keyed on.
    """
    if len(payload) > MAX_PAYLOAD:
        raise WireProtocolError(
            f"{msg_name(msg)} payload of {len(payload)} bytes exceeds "
            f"the {MAX_PAYLOAD}-byte frame limit"
        )
    frame = _FRAME.pack(WIRE_MAGIC, WIRE_VERSION, msg, len(payload))
    try:
        sock.sendall(frame + payload)
    except OSError as exc:
        raise WorkerUnavailableError(
            f"connection lost sending {msg_name(msg)}: {exc}"
        ) from exc
    return len(frame) + len(payload)


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Exactly ``count`` bytes, ``None`` on clean EOF at byte 0.

    EOF *mid-read* is a torn frame (:class:`WireProtocolError`) — the
    peer died between header and payload, and whatever arrived cannot
    be trusted.
    """
    chunks = []
    got = 0
    while got < count:
        try:
            chunk = sock.recv(count - got)
        except OSError as exc:
            raise WorkerUnavailableError(
                f"connection lost receiving: {exc}"
            ) from exc
        if not chunk:
            if got == 0:
                return None
            raise WireProtocolError(
                f"connection closed mid-frame ({got}/{count} bytes)"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[Tuple[int, bytes]]:
    """Receive one frame: ``(msg type, payload)``, or ``None`` on a
    clean close at a frame boundary (how a peer ends the session)."""
    header = _recv_exact(sock, FRAME_BYTES)
    if header is None:
        return None
    magic, version, msg, length = _FRAME.unpack(header)
    if magic != WIRE_MAGIC:
        raise WireProtocolError(
            f"bad frame magic {magic!r} (want {WIRE_MAGIC!r}) — not a "
            f"cluster wire peer"
        )
    if version != WIRE_VERSION:
        raise WireProtocolError(
            f"unsupported wire version {version} (this build speaks "
            f"{WIRE_VERSION})"
        )
    if length > MAX_PAYLOAD:
        raise WireProtocolError(
            f"{msg_name(msg)} frame declares {length} payload bytes, "
            f"over the {MAX_PAYLOAD}-byte limit — refusing to allocate"
        )
    payload = b"" if length == 0 else _recv_exact(sock, length)
    if payload is None:
        raise WireProtocolError(
            f"connection closed before the {length}-byte "
            f"{msg_name(msg)} payload"
        )
    return msg, payload


def send_value(sock: socket.socket, msg: int, value: Any) -> int:
    """``send_frame`` of a value-codec payload; returns bytes written."""
    return send_frame(sock, msg, encode_value(value))


def decode_error(payload: bytes) -> Tuple[str, str]:
    """Validate and unpack a ``REPLY_ERROR`` payload."""
    value = decode_value(payload)
    if not (
        isinstance(value, tuple)
        and len(value) == 2
        and isinstance(value[0], str)
        and isinstance(value[1], str)
    ):
        raise WireProtocolError(
            f"malformed error payload {value!r} (want (type, message))"
        )
    return value
