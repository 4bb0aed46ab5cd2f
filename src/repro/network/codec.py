"""Length-prefixed binary wire codec for the real peer transport.

:mod:`repro.network.realnet` runs every CXK-means peer as a genuinely
concurrent process and moves the exact message types of
:mod:`repro.network.message` over localhost TCP.  This module defines the
wire format those processes speak:

Frame layout (all integers big-endian)::

    +-------+---------+-------+----------------+---------+-----------+
    | magic | version | kind  | payload length | payload | CRC32     |
    | 2 B   | 1 B     | 1 B   | 4 B            | N B     | 4 B       |
    +-------+---------+-------+----------------+---------+-----------+

* ``magic`` is the constant ``b"CX"`` -- a stream that does not start with
  it is not speaking this protocol and is rejected immediately;
* ``version`` pins the codec revision (:data:`VERSION`) so incompatible
  processes fail the handshake instead of mis-parsing payloads;
* ``kind`` is a :class:`FrameKind`: the algorithm messages travel as
  :attr:`FrameKind.MESSAGE`, while ``HELLO`` / ``SHARE`` / ``RESULT`` /
  ``ERROR`` / ``SHUTDOWN`` are transport-control frames of the driver
  topology (``SHARE`` carries a peer's data share, sent once after its
  ``HELLO``);
* ``payload length`` bounds the read (:data:`MAX_FRAME_PAYLOAD` guards
  against garbage lengths) and the trailing CRC32 -- computed over the
  header *and* payload bytes, so a flipped kind or length byte that still
  parses cannot masquerade as a different valid frame -- detects
  corruption.

Payload encodings are hand-rolled ``struct`` compositions -- **no pickle
ever crosses the wire**, the peers' shares included -- and are bit-exact:
floats travel as IEEE-754 doubles, so an encode/decode round trip
reproduces every :class:`~repro.transactions.transaction.Transaction`,
:class:`~repro.text.vector.SparseVector` weight and representative payload
exactly (locked in by the hypothesis suite in ``tests/test_wire_codec.py``).
Every decoder raises :class:`CodecError` with an actionable message on
truncated, corrupted or trailing bytes.
"""

from __future__ import annotations

import socket
import struct
import zlib
from dataclasses import dataclass
from enum import IntEnum
from typing import Any, Dict, List, Sequence, Tuple

from repro.network.message import LocalPhaseOutput, Message, MessageKind
from repro.text.vector import SparseVector
from repro.transactions.items import TreeTupleItem
from repro.transactions.transaction import Transaction
from repro.xmlmodel.paths import XMLPath

#: Protocol magic: every frame starts with these two bytes.
MAGIC = b"CX"
#: Wire-format revision; bump on any incompatible layout change.
VERSION = 3
#: Upper bound on a frame payload (guards against garbage length prefixes).
MAX_FRAME_PAYLOAD = 1 << 28  # 256 MiB

_HEADER = struct.Struct(">2sBBI")
_TRAILER = struct.Struct(">I")

#: Size in bytes of the fixed frame header (magic, version, kind, length).
HEADER_SIZE = _HEADER.size
#: Size in bytes of the frame trailer (CRC32 of header + payload).
TRAILER_SIZE = _TRAILER.size


class CodecError(ValueError):
    """A frame or payload could not be encoded / decoded.

    Raised on truncated streams, bad magic bytes, version mismatches,
    unknown frame or message kinds, CRC failures and trailing garbage --
    always with a message naming what was expected and what was found.
    """


class FrameKind(IntEnum):
    """Discriminator byte of a wire frame."""

    #: Peer handshake: carries the connecting peer's identifier.
    HELLO = 1
    #: An algorithm :class:`~repro.network.message.Message`.
    MESSAGE = 2
    #: A peer's local-phase output for one round, with the round index.
    RESULT = 3
    #: A remote failure: carries the peer id and its traceback text.
    ERROR = 4
    #: Driver-initiated orderly shutdown (empty payload).
    SHUTDOWN = 5
    #: A peer's data share ``S_i``: the driver's answer to its HELLO.
    SHARE = 6


_MESSAGE_KIND_CODES: Dict[MessageKind, int] = {
    MessageKind.SETUP: 1,
    MessageKind.GLOBAL_REPRESENTATIVES: 2,
    MessageKind.LOCAL_REPRESENTATIVES: 3,
    MessageKind.FLAG: 4,
}
_MESSAGE_KINDS_BY_CODE = {code: kind for kind, code in _MESSAGE_KIND_CODES.items()}

# flag/setup payload value type tags (small scalar dictionaries)
_TAG_STR = 1
_TAG_FLOAT = 2
_TAG_INT = 3


# --------------------------------------------------------------------------- #
# Primitive writers / readers
# --------------------------------------------------------------------------- #
class _Writer:
    """Append-only big-endian binary buffer."""

    __slots__ = ("_parts",)

    def __init__(self) -> None:
        self._parts = bytearray()

    def u8(self, value: int) -> None:
        self._parts += struct.pack(">B", value)

    def u32(self, value: int) -> None:
        self._parts += struct.pack(">I", value)

    def i32(self, value: int) -> None:
        self._parts += struct.pack(">i", value)

    def i64(self, value: int) -> None:
        self._parts += struct.pack(">q", value)

    def f64(self, value: float) -> None:
        self._parts += struct.pack(">d", value)

    def string(self, value: str) -> None:
        data = value.encode("utf-8")
        self.u32(len(data))
        self._parts += data

    def getvalue(self) -> bytes:
        return bytes(self._parts)


class _Reader:
    """Sequential big-endian reader that fails cleanly on truncation."""

    __slots__ = ("_data", "_offset", "_context")

    def __init__(self, data: bytes, context: str) -> None:
        self._data = data
        self._offset = 0
        self._context = context

    def _take(self, size: int) -> bytes:
        end = self._offset + size
        if end > len(self._data):
            raise CodecError(
                f"truncated {self._context}: needed {size} more bytes at "
                f"offset {self._offset}, only {len(self._data) - self._offset} left"
            )
        chunk = self._data[self._offset : end]
        self._offset = end
        return chunk

    def u8(self) -> int:
        return struct.unpack(">B", self._take(1))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self._take(4))[0]

    def i32(self) -> int:
        return struct.unpack(">i", self._take(4))[0]

    def i64(self) -> int:
        return struct.unpack(">q", self._take(8))[0]

    def f64(self) -> float:
        return struct.unpack(">d", self._take(8))[0]

    def string(self) -> str:
        size = self.u32()
        try:
            return self._take(size).decode("utf-8")
        except UnicodeDecodeError as error:
            raise CodecError(
                f"corrupted {self._context}: invalid UTF-8 string ({error})"
            ) from error

    def ensure_exhausted(self) -> None:
        if self._offset != len(self._data):
            raise CodecError(
                f"corrupted {self._context}: {len(self._data) - self._offset} "
                "trailing bytes after the payload"
            )


# --------------------------------------------------------------------------- #
# Frames
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class FrameHeader:
    """Parsed fixed-size frame header."""

    kind: FrameKind
    payload_length: int


def parse_frame_header(data: bytes) -> FrameHeader:
    """Parse and validate the fixed :data:`HEADER_SIZE`-byte frame header."""
    if len(data) < HEADER_SIZE:
        raise CodecError(
            f"truncated frame header: got {len(data)} of {HEADER_SIZE} bytes"
        )
    magic, version, kind_code, payload_length = _HEADER.unpack(data[:HEADER_SIZE])
    if magic != MAGIC:
        raise CodecError(
            f"bad frame magic {magic!r} (expected {MAGIC!r}): "
            "the remote end is not speaking the repro wire protocol"
        )
    if version != VERSION:
        raise CodecError(
            f"unsupported wire-format version {version} (this codec speaks "
            f"version {VERSION}); upgrade the older process"
        )
    try:
        kind = FrameKind(kind_code)
    except ValueError as error:
        raise CodecError(f"unknown frame kind byte {kind_code}") from error
    if payload_length > MAX_FRAME_PAYLOAD:
        raise CodecError(
            f"frame payload length {payload_length} exceeds the "
            f"{MAX_FRAME_PAYLOAD}-byte bound (corrupted length prefix?)"
        )
    return FrameHeader(kind=kind, payload_length=payload_length)


def check_frame_payload(header: bytes, payload: bytes, trailer: bytes) -> None:
    """Verify a frame's CRC32 *trailer* (:class:`CodecError` on mismatch).

    The checksum covers the raw *header* bytes as well as the *payload*,
    so corruption of the kind or length fields is caught even when the
    corrupted value still parses as a structurally valid header.
    """
    if len(trailer) < TRAILER_SIZE:
        raise CodecError(
            f"truncated frame trailer: got {len(trailer)} of {TRAILER_SIZE} bytes"
        )
    (expected,) = _TRAILER.unpack(trailer[:TRAILER_SIZE])
    actual = zlib.crc32(header[:HEADER_SIZE] + payload) & 0xFFFFFFFF
    if actual != expected:
        raise CodecError(
            f"frame CRC mismatch: frame checksum {actual:#010x} != "
            f"trailer {expected:#010x} (corrupted frame)"
        )


def encode_frame(kind: FrameKind, payload: bytes) -> bytes:
    """Encode one complete wire frame around *payload*."""
    if len(payload) > MAX_FRAME_PAYLOAD:
        raise CodecError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_PAYLOAD}-byte bound"
        )
    header = _HEADER.pack(MAGIC, VERSION, int(kind), len(payload))
    trailer = _TRAILER.pack(zlib.crc32(header + payload) & 0xFFFFFFFF)
    return header + payload + trailer


def read_frame(sock: socket.socket) -> Tuple[FrameKind, bytes]:
    """Read one complete frame from the blocking socket *sock*.

    Returns ``(kind, payload)``.  Raises :class:`EOFError` when the remote
    end closes the connection, between frames or mid-frame,
    :class:`CodecError` on a malformed header or a corrupted payload, and
    the socket's own :class:`OSError` otherwise (:class:`TimeoutError`
    once the socket's timeout expires).
    """
    header = _receive(sock, HEADER_SIZE)
    parsed = parse_frame_header(header)
    body = _receive(sock, parsed.payload_length + TRAILER_SIZE)
    payload = bytes(memoryview(body)[: parsed.payload_length])
    check_frame_payload(header, payload, body[parsed.payload_length :])
    return parsed.kind, payload


def _receive(sock: socket.socket, size: int) -> bytearray:
    """Read exactly *size* bytes from *sock* (:class:`EOFError` if it closes)."""
    buffer = bytearray(size)
    view = memoryview(buffer)
    received = 0
    while received < size:
        count = sock.recv_into(view[received:])
        if not count:
            raise EOFError(f"connection closed after {received} of {size} bytes")
        received += count
    return buffer


# --------------------------------------------------------------------------- #
# Transactions
# --------------------------------------------------------------------------- #
def _write_transaction(writer: _Writer, transaction: Transaction) -> None:
    writer.string(transaction.transaction_id)
    writer.string(transaction.doc_id)
    writer.string(transaction.tuple_id)
    writer.u32(len(transaction.items))
    for item in transaction.items:
        writer.i64(item.item_id)
        writer.u32(len(item.path.steps))
        for step in item.path.steps:
            writer.string(step)
        writer.string(item.answer)
        writer.u32(len(item.terms))
        for term in item.terms:
            writer.string(term)
        weights = item.vector.to_dict()
        writer.u32(len(weights))
        for term_id, weight in weights.items():
            writer.i64(term_id)
            writer.f64(weight)


def _read_transaction(reader: _Reader) -> Transaction:
    transaction_id = reader.string()
    doc_id = reader.string()
    tuple_id = reader.string()
    items: List[TreeTupleItem] = []
    for _ in range(reader.u32()):
        item_id = reader.i64()
        steps = tuple(reader.string() for _ in range(reader.u32()))
        answer = reader.string()
        terms = tuple(reader.string() for _ in range(reader.u32()))
        weights = {reader.i64(): reader.f64() for _ in range(reader.u32())}
        items.append(
            TreeTupleItem(
                item_id=item_id,
                path=XMLPath(steps),
                answer=answer,
                terms=terms,
                vector=SparseVector(weights),
            )
        )
    # items are re-assembled verbatim (no re-sorting): the wire must
    # reproduce the sender's object bit-exactly
    return Transaction(
        transaction_id=transaction_id,
        items=tuple(items),
        doc_id=doc_id,
        tuple_id=tuple_id,
    )


def _write_scalar_dict(writer: _Writer, payload: Dict[str, Any]) -> None:
    writer.u32(len(payload))
    for key, value in payload.items():
        writer.string(str(key))
        if isinstance(value, str):
            writer.u8(_TAG_STR)
            writer.string(value)
        elif isinstance(value, bool) or isinstance(value, int):
            writer.u8(_TAG_INT)
            writer.i64(int(value))
        elif isinstance(value, float):
            writer.u8(_TAG_FLOAT)
            writer.f64(value)
        else:
            raise CodecError(
                f"unsupported flag payload value {value!r} for key {key!r} "
                "(only str / int / float travel on the wire)"
            )


def _read_scalar_dict(reader: _Reader) -> Dict[str, Any]:
    payload: Dict[str, Any] = {}
    for _ in range(reader.u32()):
        key = reader.string()
        tag = reader.u8()
        if tag == _TAG_STR:
            payload[key] = reader.string()
        elif tag == _TAG_INT:
            payload[key] = reader.i64()
        elif tag == _TAG_FLOAT:
            payload[key] = reader.f64()
        else:
            raise CodecError(f"unknown scalar-dict value tag {tag}")
    return payload


# --------------------------------------------------------------------------- #
# Algorithm messages
# --------------------------------------------------------------------------- #
def encode_message(message: Message) -> bytes:
    """Encode an algorithm :class:`Message` as a MESSAGE-frame payload."""
    code = _MESSAGE_KIND_CODES.get(message.kind)
    if code is None:
        raise CodecError(f"unsupported message kind: {message.kind!r}")
    writer = _Writer()
    writer.i32(message.sender)
    writer.i32(message.recipient)
    writer.u32(max(message.round_index, 0))
    writer.u8(code)
    if message.payload is None:
        writer.u8(0)
        return writer.getvalue()
    writer.u8(1)
    if message.kind is MessageKind.SETUP:
        payload = dict(message.payload)
        responsibilities = payload.pop("responsibilities", [])
        writer.u32(int(payload.pop("k", 0)))
        writer.f64(float(payload.pop("gamma", 0.0)))
        writer.u32(len(responsibilities))
        for cluster_ids in responsibilities:
            writer.u32(len(cluster_ids))
            for cluster_id in cluster_ids:
                writer.u32(int(cluster_id))
        _write_scalar_dict(writer, payload)  # forward-compatible extras
    elif message.kind is MessageKind.FLAG:
        _write_scalar_dict(writer, dict(message.payload))
    else:  # GLOBAL_REPRESENTATIVES / LOCAL_REPRESENTATIVES
        entries = list(message.payload)
        writer.u32(len(entries))
        for cluster_id, transaction, weight in entries:
            writer.u32(int(cluster_id))
            writer.i64(int(weight))
            _write_transaction(writer, transaction)
    return writer.getvalue()


def decode_message(payload: bytes) -> Message:
    """Decode a MESSAGE-frame payload back into a :class:`Message`."""
    reader = _Reader(payload, "message payload")
    sender = reader.i32()
    recipient = reader.i32()
    round_index = reader.u32()
    code = reader.u8()
    kind = _MESSAGE_KINDS_BY_CODE.get(code)
    if kind is None:
        raise CodecError(f"unknown message kind code {code}")
    decoded: Any = None
    if reader.u8():
        if kind is MessageKind.SETUP:
            k = reader.u32()
            gamma = reader.f64()
            responsibilities = [
                [reader.u32() for _ in range(reader.u32())]
                for _ in range(reader.u32())
            ]
            decoded = {
                "responsibilities": responsibilities,
                "k": k,
                "gamma": gamma,
            }
            decoded.update(_read_scalar_dict(reader))
        elif kind is MessageKind.FLAG:
            decoded = _read_scalar_dict(reader)
        else:
            decoded = [
                (reader.u32(), reader.i64(), _read_transaction(reader))
                for _ in range(reader.u32())
            ]
            decoded = [
                (cluster_id, transaction, weight)
                for cluster_id, weight, transaction in decoded
            ]
    reader.ensure_exhausted()
    return Message(
        sender=sender,
        recipient=recipient,
        kind=kind,
        payload=decoded,
        round_index=round_index,
    )


# --------------------------------------------------------------------------- #
# Transport-control payloads
# --------------------------------------------------------------------------- #
def encode_hello(peer_id: int) -> bytes:
    """Encode the HELLO handshake payload (the connecting peer's id)."""
    writer = _Writer()
    writer.u32(peer_id)
    return writer.getvalue()


def decode_hello(payload: bytes) -> int:
    """Decode a HELLO payload; returns the peer id."""
    reader = _Reader(payload, "hello payload")
    peer_id = reader.u32()
    reader.ensure_exhausted()
    return peer_id


def encode_error(peer_id: int, text: str) -> bytes:
    """Encode an ERROR payload (peer id + traceback / reason text)."""
    writer = _Writer()
    writer.i32(peer_id)
    writer.string(text)
    return writer.getvalue()


def decode_error(payload: bytes) -> Tuple[int, str]:
    """Decode an ERROR payload; returns ``(peer_id, text)``."""
    reader = _Reader(payload, "error payload")
    peer_id = reader.i32()
    text = reader.string()
    reader.ensure_exhausted()
    return peer_id, text


def encode_share(transactions: Sequence[Transaction]) -> bytes:
    """Encode a peer's data share as a SHARE-frame payload."""
    writer = _Writer()
    writer.u32(len(transactions))
    for transaction in transactions:
        _write_transaction(writer, transaction)
    return writer.getvalue()


def decode_share(payload: bytes) -> List[Transaction]:
    """Decode a SHARE-frame payload back into the peer's transactions."""
    reader = _Reader(payload, "share payload")
    transactions = [_read_transaction(reader) for _ in range(reader.u32())]
    reader.ensure_exhausted()
    return transactions


def encode_result(round_index: int, output: LocalPhaseOutput) -> bytes:
    """Encode a peer's round-*round_index* :class:`LocalPhaseOutput` as a
    RESULT-frame payload (the round index lets the driver reject stale
    results)."""
    writer = _Writer()
    writer.u32(output.peer_id)
    writer.u32(round_index)
    writer.f64(output.compute_seconds)
    writer.u32(len(output.assignment))
    for transaction_id, cluster_index in output.assignment.items():
        writer.string(transaction_id)
        writer.i32(cluster_index)
    writer.u32(len(output.local_representatives))
    for transaction in output.local_representatives:
        _write_transaction(writer, transaction)
    writer.u32(len(output.cluster_sizes))
    for size in output.cluster_sizes:
        writer.i64(size)
    return writer.getvalue()


def decode_result(payload: bytes) -> Tuple[int, LocalPhaseOutput]:
    """Decode a RESULT-frame payload; returns ``(round_index, output)``."""
    reader = _Reader(payload, "result payload")
    peer_id = reader.u32()
    round_index = reader.u32()
    compute_seconds = reader.f64()
    assignment = {reader.string(): reader.i32() for _ in range(reader.u32())}
    local_representatives = [_read_transaction(reader) for _ in range(reader.u32())]
    cluster_sizes = [reader.i64() for _ in range(reader.u32())]
    reader.ensure_exhausted()
    return round_index, LocalPhaseOutput(
        peer_id=peer_id,
        assignment=assignment,
        local_representatives=local_representatives,
        cluster_sizes=cluster_sizes,
        compute_seconds=compute_seconds,
    )
