"""Property-based round-trip suite for the real-transport wire codec.

Hypothesis generates arbitrary transactions, representative payloads and
control frames and asserts that ``encode -> decode`` reproduces every field
bit-exactly (floats travel as IEEE-754 doubles, so exact equality is the
correct assertion, not approximate equality).  Because
``TreeTupleItem.__eq__`` deliberately compares only ``(item_id, path,
answer)``, the tests additionally compare ``terms`` and ``vector`` field by
field -- a codec that dropped the TCU vectors would otherwise pass.

The second half of the suite locks in the failure behaviour of
:func:`read_frame`, the socket reader the transport uses: corrupted bytes
(CRC), bad magic, version mismatches, unknown kind bytes and trailing
garbage raise :class:`CodecError` instead of mis-parsing, and a frame cut
short by a closed connection raises :class:`EOFError`.
"""

from __future__ import annotations

import socket

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.network.codec import (
    HEADER_SIZE,
    MAGIC,
    TRAILER_SIZE,
    VERSION,
    CodecError,
    FrameKind,
    check_frame_payload,
    decode_error,
    decode_hello,
    decode_message,
    decode_result,
    decode_share,
    encode_error,
    encode_frame,
    encode_hello,
    encode_message,
    encode_result,
    encode_share,
    parse_frame_header,
    read_frame,
)
from repro.network import codec
from repro.network.message import LocalPhaseOutput, Message, MessageKind
from repro.text.vector import SparseVector
from repro.transactions.items import TreeTupleItem
from repro.transactions.transaction import Transaction
from repro.xmlmodel.paths import XMLPath

# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
# Tag labels: valid XML names that are neither the 'S' sentinel nor
# '@'-prefixed (only the last step of a path may be an attribute or 'S').
tag_labels = st.from_regex(r"[A-Za-z_][A-Za-z0-9_\-]{0,7}", fullmatch=True).filter(
    lambda s: s != "S"
)
last_steps = st.one_of(
    tag_labels,
    st.just("S"),
    st.from_regex(r"@[A-Za-z_][A-Za-z0-9_\-]{0,7}", fullmatch=True),
)
xml_paths = st.builds(
    lambda prefix, last: XMLPath(tuple(prefix) + (last,)),
    st.lists(tag_labels, min_size=0, max_size=3),
    last_steps,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False)
nonzero_weights = finite_floats.filter(lambda x: x != 0.0)
sparse_vectors = st.builds(
    SparseVector,
    st.dictionaries(st.integers(min_value=0, max_value=2**31 - 1), nonzero_weights, max_size=4),
)

items = st.builds(
    TreeTupleItem,
    item_id=st.integers(min_value=-1, max_value=2**31 - 1),
    path=xml_paths,
    answer=st.text(max_size=20),
    terms=st.tuples() | st.lists(st.text(max_size=10), max_size=3).map(tuple),
    vector=sparse_vectors,
)

transactions = st.builds(
    Transaction,
    transaction_id=st.text(max_size=20),
    items=st.lists(items, max_size=4).map(tuple),
    doc_id=st.text(max_size=10),
    tuple_id=st.text(max_size=10),
)

peer_ids = st.integers(min_value=-1, max_value=2**31 - 1)
round_indexes = st.integers(min_value=0, max_value=2**31 - 1)

# FLAG / extras payloads: scalar dictionaries of str / int / float values
# (booleans deliberately excluded: the wire carries them as integers).
scalar_values = st.one_of(
    st.text(max_size=10),
    st.integers(min_value=-(2**62), max_value=2**62),
    finite_floats,
)
scalar_dicts = st.dictionaries(st.text(max_size=10), scalar_values, max_size=4)

representative_payloads = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2**31 - 1),  # cluster id
        transactions,
        st.integers(min_value=-(2**62), max_value=2**62),  # weight
    ),
    max_size=3,
)

setup_payloads = st.builds(
    lambda resp, k, gamma, extras: {
        "responsibilities": resp,
        "k": k,
        "gamma": gamma,
        **extras,
    },
    st.lists(
        st.lists(st.integers(min_value=0, max_value=2**31 - 1), max_size=4),
        max_size=4,
    ),
    st.integers(min_value=0, max_value=2**31 - 1),
    finite_floats,
    st.dictionaries(
        st.text(max_size=8).filter(
            lambda key: key not in ("responsibilities", "k", "gamma")
        ),
        scalar_values,
        max_size=2,
    ),
)


def assert_transactions_bit_exact(original: Transaction, decoded: Transaction) -> None:
    """Full-field transaction equality, beyond ``TreeTupleItem.__eq__``.

    Items compare equal on (item_id, path, answer) alone, so the dataclass
    ``==`` would not notice dropped terms or TCU vectors.
    """
    assert decoded == original
    assert decoded.transaction_id == original.transaction_id
    assert decoded.doc_id == original.doc_id
    assert decoded.tuple_id == original.tuple_id
    assert len(decoded.items) == len(original.items)
    for got, expected in zip(decoded.items, original.items):
        assert got.item_id == expected.item_id
        assert got.path == expected.path
        assert got.path.steps == expected.path.steps
        assert got.answer == expected.answer
        assert got.terms == expected.terms
        assert got.vector.to_dict() == expected.vector.to_dict()


# --------------------------------------------------------------------------- #
# Round trips: algorithm messages (every MessageKind)
# --------------------------------------------------------------------------- #
class TestMessageRoundTrip:
    @given(
        sender=peer_ids,
        recipient=peer_ids,
        round_index=round_indexes,
        payload=st.none() | setup_payloads,
    )
    @settings(max_examples=50, deadline=None)
    def test_setup(self, sender, recipient, round_index, payload):
        message = Message(
            sender=sender,
            recipient=recipient,
            kind=MessageKind.SETUP,
            payload=payload,
            round_index=round_index,
        )
        decoded = decode_message(encode_message(message))
        assert decoded.sender == sender
        assert decoded.recipient == recipient
        assert decoded.round_index == round_index
        assert decoded.kind is MessageKind.SETUP
        assert decoded.payload == payload

    @given(
        sender=peer_ids,
        recipient=peer_ids,
        round_index=round_indexes,
        payload=st.none() | scalar_dicts,
    )
    @settings(max_examples=50, deadline=None)
    def test_flag(self, sender, recipient, round_index, payload):
        message = Message(
            sender=sender,
            recipient=recipient,
            kind=MessageKind.FLAG,
            payload=payload,
            round_index=round_index,
        )
        decoded = decode_message(encode_message(message))
        assert decoded.kind is MessageKind.FLAG
        assert decoded.payload == payload

    @given(
        kind=st.sampled_from(
            [MessageKind.GLOBAL_REPRESENTATIVES, MessageKind.LOCAL_REPRESENTATIVES]
        ),
        sender=peer_ids,
        recipient=peer_ids,
        round_index=round_indexes,
        payload=st.none() | representative_payloads,
    )
    @settings(max_examples=50, deadline=None)
    def test_representatives(self, kind, sender, recipient, round_index, payload):
        message = Message(
            sender=sender,
            recipient=recipient,
            kind=kind,
            payload=payload,
            round_index=round_index,
        )
        decoded = decode_message(encode_message(message))
        assert decoded.kind is kind
        assert decoded.sender == sender
        assert decoded.recipient == recipient
        assert decoded.round_index == round_index
        if payload is None:
            assert decoded.payload is None
            return
        assert len(decoded.payload) == len(payload)
        for (got_cluster, got_rep, got_weight), (cluster, rep, weight) in zip(
            decoded.payload, payload
        ):
            assert got_cluster == cluster
            assert got_weight == weight
            assert_transactions_bit_exact(rep, got_rep)

    def test_unsupported_payload_value_raises(self):
        message = Message(
            sender=0, recipient=1, kind=MessageKind.FLAG, payload={"bad": [1, 2]}
        )
        try:
            encode_message(message)
        except CodecError as error:
            assert "unsupported flag payload value" in str(error)
        else:  # pragma: no cover - defensive
            raise AssertionError("expected CodecError")


# --------------------------------------------------------------------------- #
# Round trips: transport-control payloads
# --------------------------------------------------------------------------- #
class TestControlRoundTrip:
    @given(peer_id=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(deadline=None)
    def test_hello(self, peer_id):
        assert decode_hello(encode_hello(peer_id)) == peer_id

    @given(peer_id=peer_ids, text=st.text(max_size=200))
    @settings(deadline=None)
    def test_error(self, peer_id, text):
        assert decode_error(encode_error(peer_id, text)) == (peer_id, text)

    @given(
        round_index=round_indexes,
        result=st.builds(
            LocalPhaseOutput,
            peer_id=st.integers(min_value=0, max_value=2**31 - 1),
            assignment=st.dictionaries(
                st.text(max_size=12), st.integers(min_value=-1, max_value=2**31 - 1), max_size=5
            ),
            local_representatives=st.lists(transactions, max_size=3),
            cluster_sizes=st.lists(
                st.integers(min_value=0, max_value=2**62), max_size=4
            ),
            compute_seconds=finite_floats,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_local_result(self, round_index, result):
        decoded_round, decoded = decode_result(encode_result(round_index, result))
        assert decoded_round == round_index
        assert decoded.peer_id == result.peer_id
        assert decoded.assignment == result.assignment
        assert decoded.cluster_sizes == result.cluster_sizes
        assert decoded.compute_seconds == result.compute_seconds
        assert len(decoded.local_representatives) == len(result.local_representatives)
        for got, expected in zip(
            decoded.local_representatives, result.local_representatives
        ):
            assert_transactions_bit_exact(expected, got)

    @given(share=st.lists(transactions, max_size=5))
    @example(share=[])
    @settings(max_examples=50, deadline=None)
    def test_share(self, share):
        """A peer's share round-trips bit-exactly, the empty share too."""
        decoded = decode_share(encode_share(share))
        assert len(decoded) == len(share)
        for got, expected in zip(decoded, share):
            assert_transactions_bit_exact(expected, got)


# --------------------------------------------------------------------------- #
# Frame-level failure behaviour
# --------------------------------------------------------------------------- #
payloads = st.binary(max_size=64)
frame_kinds = st.sampled_from(list(FrameKind))


def _socket_reading(data: bytes) -> socket.socket:
    """A socket that yields *data* and then the end of the stream."""
    reader, writer = socket.socketpair()
    with writer:
        writer.sendall(data)
    return reader


class TestFrameFailures:
    @given(kind=frame_kinds, payload=payloads)
    @settings(deadline=None)
    def test_frame_round_trip(self, kind, payload):
        with _socket_reading(encode_frame(kind, payload)) as sock:
            got_kind, got_payload = read_frame(sock)
        assert got_kind is kind
        assert got_payload == payload

    @given(kind=frame_kinds, payload=payloads, data=st.data())
    @settings(deadline=None)
    def test_truncated_frame_rejected(self, kind, payload, data):
        frame = encode_frame(kind, payload)
        cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        with _socket_reading(frame[:cut]) as sock:
            with pytest.raises(EOFError):
                read_frame(sock)

    @given(kind=frame_kinds, payload=payloads, data=st.data())
    @settings(deadline=None)
    def test_corrupted_byte_rejected(self, kind, payload, data):
        frame = bytearray(encode_frame(kind, payload))
        index = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        mask = data.draw(st.integers(min_value=1, max_value=255))
        frame[index] ^= mask
        with _socket_reading(bytes(frame)) as sock:
            try:
                read_frame(sock)
            except CodecError:
                return
            except EOFError:
                # a length prefix corrupted upwards waits for bytes never sent
                assert parse_frame_header(bytes(frame)).payload_length > len(payload)
                return
        raise AssertionError(f"corrupted byte at {index} was not rejected")

    @given(kind=frame_kinds, payload=payloads, garbage=st.binary(min_size=1, max_size=8))
    @settings(deadline=None)
    def test_trailing_bytes_rejected(self, kind, payload, garbage):
        with _socket_reading(encode_frame(kind, payload) + garbage) as sock:
            assert read_frame(sock) == (kind, payload)
            with pytest.raises((CodecError, EOFError)):
                read_frame(sock)

    def test_bad_magic(self):
        frame = bytearray(encode_frame(FrameKind.MESSAGE, b"x"))
        frame[:2] = b"ZZ"
        try:
            parse_frame_header(bytes(frame))
        except CodecError as error:
            assert "magic" in str(error)
        else:  # pragma: no cover - defensive
            raise AssertionError("expected CodecError")

    def test_version_mismatch(self):
        frame = bytearray(encode_frame(FrameKind.MESSAGE, b"x"))
        frame[len(MAGIC)] = VERSION + 1
        try:
            parse_frame_header(bytes(frame))
        except CodecError as error:
            assert "version" in str(error)
        else:  # pragma: no cover - defensive
            raise AssertionError("expected CodecError")

    def test_unknown_frame_kind(self):
        frame = bytearray(encode_frame(FrameKind.MESSAGE, b"x"))
        frame[len(MAGIC) + 1] = 200
        try:
            parse_frame_header(bytes(frame))
        except CodecError as error:
            assert "kind" in str(error)
        else:  # pragma: no cover - defensive
            raise AssertionError("expected CodecError")

    def test_truncated_header(self):
        frame = encode_frame(FrameKind.MESSAGE, b"x")
        with pytest.raises(CodecError, match="truncated frame header"):
            parse_frame_header(frame[: HEADER_SIZE - 1])

    def test_truncated_trailer(self):
        frame = encode_frame(FrameKind.MESSAGE, b"xyz")
        header, payload = frame[:HEADER_SIZE], frame[HEADER_SIZE:-TRAILER_SIZE]
        check_frame_payload(header, payload, frame[-TRAILER_SIZE:])
        with pytest.raises(CodecError, match="truncated frame trailer"):
            check_frame_payload(header, payload, frame[-TRAILER_SIZE:-1])

    def test_checksum_covers_the_header(self):
        # a kind byte rewritten to another valid kind still fails the CRC
        frame = bytearray(encode_frame(FrameKind.MESSAGE, b"xyz"))
        frame[len(MAGIC) + 1] = int(FrameKind.HELLO)
        header = bytes(frame[:HEADER_SIZE])
        assert parse_frame_header(header).kind is FrameKind.HELLO
        with pytest.raises(CodecError, match="CRC"):
            check_frame_payload(header, b"xyz", bytes(frame[-TRAILER_SIZE:]))

    def test_encoder_refuses_payload_over_the_bound(self, monkeypatch):
        monkeypatch.setattr(codec, "MAX_FRAME_PAYLOAD", 4)
        assert parse_frame_header(encode_frame(FrameKind.MESSAGE, b"1234")).payload_length == 4
        with pytest.raises(CodecError, match="exceeds"):
            encode_frame(FrameKind.MESSAGE, b"12345")

    def test_header_constants(self):
        frame = encode_frame(FrameKind.HELLO, b"abc")
        assert frame.startswith(MAGIC)
        assert len(frame) == HEADER_SIZE + 3 + TRAILER_SIZE
        header = parse_frame_header(frame)
        assert header.kind is FrameKind.HELLO
        assert header.payload_length == 3


# --------------------------------------------------------------------------- #
# Payload-level failure behaviour
# --------------------------------------------------------------------------- #
class TestPayloadFailures:
    def test_unknown_message_kind_code(self):
        payload = bytearray(
            encode_message(Message(sender=0, recipient=1, kind=MessageKind.FLAG))
        )
        payload[12] = 99  # the kind byte follows sender/recipient/round (4+4+4)
        try:
            decode_message(bytes(payload))
        except CodecError as error:
            assert "message kind" in str(error)
        else:  # pragma: no cover - defensive
            raise AssertionError("expected CodecError")

    def test_unknown_flag_value_tag(self):
        payload = bytearray(
            encode_message(
                Message(sender=0, recipient=1, kind=MessageKind.FLAG, payload={"k": 7})
            )
        )
        payload[-9] = 99  # the tag byte before the trailing i64 value
        with pytest.raises(CodecError, match="value tag 99"):
            decode_message(bytes(payload))

    @given(payload=st.binary(max_size=10))
    @settings(deadline=None)
    def test_truncated_message_payload(self, payload):
        full = encode_message(
            Message(
                sender=0,
                recipient=1,
                kind=MessageKind.FLAG,
                payload={"state": "done"},
            )
        )
        if len(payload) >= len(full):
            return
        try:
            decode_message(full[: len(payload)])
        except CodecError:
            return
        raise AssertionError("truncated message payload was not rejected")

    def test_trailing_message_bytes(self):
        full = encode_message(Message(sender=0, recipient=1, kind=MessageKind.FLAG))
        try:
            decode_message(full + b"\x00")
        except CodecError as error:
            assert "trailing" in str(error)
        else:  # pragma: no cover - defensive
            raise AssertionError("expected CodecError")

    @given(share=st.lists(transactions, min_size=1, max_size=3), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_truncated_share_payload(self, share, data):
        full = encode_share(share)
        cut = data.draw(st.integers(min_value=0, max_value=len(full) - 1))
        try:
            decode_share(full[:cut])
        except CodecError:
            return
        raise AssertionError(f"share truncated at {cut} was not rejected")

    def test_trailing_share_bytes(self):
        try:
            decode_share(encode_share([]) + b"\x00")
        except CodecError as error:
            assert "trailing" in str(error)
        else:  # pragma: no cover - defensive
            raise AssertionError("expected CodecError")

    def test_truncated_hello(self):
        try:
            decode_hello(encode_hello(3)[:2])
        except CodecError as error:
            assert "truncated" in str(error)
        else:  # pragma: no cover - defensive
            raise AssertionError("expected CodecError")

    def test_invalid_utf8_string(self):
        payload = encode_error(1, "x")
        # overwrite the string bytes with invalid UTF-8 (length stays 1)
        corrupted = payload[:-1] + b"\xff"
        try:
            decode_error(corrupted)
        except CodecError as error:
            assert "UTF-8" in str(error)
        else:  # pragma: no cover - defensive
            raise AssertionError("expected CodecError")


# --------------------------------------------------------------------------- #
# Frames read from a socket
# --------------------------------------------------------------------------- #
class TestReadFrame:
    def test_frames_back_to_back_then_eof(self):
        hello = encode_frame(FrameKind.HELLO, encode_hello(3))
        with _socket_reading(hello + encode_frame(FrameKind.SHUTDOWN, b"")) as sock:
            assert read_frame(sock) == (FrameKind.HELLO, encode_hello(3))
            assert read_frame(sock) == (FrameKind.SHUTDOWN, b"")
            with pytest.raises(EOFError):
                read_frame(sock)

    def test_frame_cut_short_is_eof(self):
        frame = encode_frame(FrameKind.SHARE, encode_share([]))
        with _socket_reading(frame[:-1]) as sock:
            with pytest.raises(EOFError, match="connection closed"):
                read_frame(sock)

    def test_corrupted_frame_is_codec_error(self):
        frame = bytearray(encode_frame(FrameKind.ERROR, encode_error(1, "boom")))
        frame[HEADER_SIZE] ^= 0xFF
        with _socket_reading(bytes(frame)) as sock:
            with pytest.raises(CodecError, match="CRC"):
                read_frame(sock)
