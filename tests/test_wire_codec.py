"""Property-based round-trip suite for the real-transport wire codec.

Hypothesis generates arbitrary transactions, representative payloads and
control frames and asserts that ``encode -> decode`` reproduces every field
bit-exactly (floats travel as IEEE-754 doubles, so exact equality is the
correct assertion, not approximate equality).  Because
``TreeTupleItem.__eq__`` deliberately compares only ``(item_id, path,
answer)``, the tests additionally compare ``terms`` and ``vector`` field by
field -- a codec that dropped the TCU vectors would otherwise pass.

The second half of the suite locks in the failure behaviour: truncated
frames, corrupted bytes (CRC), bad magic, version mismatches, unknown kind
bytes and trailing garbage must all raise :class:`CodecError` instead of
mis-parsing.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.codec import (
    HEADER_SIZE,
    MAGIC,
    TRAILER_SIZE,
    VERSION,
    CodecError,
    FrameKind,
    LocalResult,
    decode_error,
    decode_frame,
    decode_hello,
    decode_message,
    decode_result,
    encode_error,
    encode_frame,
    encode_hello,
    encode_message,
    encode_result,
    parse_frame_header,
)
from repro.network.message import Message, MessageKind
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
        result=st.builds(
            LocalResult,
            peer_id=st.integers(min_value=0, max_value=2**31 - 1),
            round_index=round_indexes,
            assignment=st.dictionaries(
                st.text(max_size=12), st.integers(min_value=-1, max_value=2**31 - 1), max_size=5
            ),
            local_representatives=st.lists(transactions, max_size=3),
            cluster_sizes=st.lists(
                st.integers(min_value=0, max_value=2**62), max_size=4
            ),
            compute_seconds=finite_floats,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_local_result(self, result):
        decoded = decode_result(encode_result(result))
        assert decoded.peer_id == result.peer_id
        assert decoded.round_index == result.round_index
        assert decoded.assignment == result.assignment
        assert decoded.cluster_sizes == result.cluster_sizes
        assert decoded.compute_seconds == result.compute_seconds
        assert len(decoded.local_representatives) == len(result.local_representatives)
        for got, expected in zip(
            decoded.local_representatives, result.local_representatives
        ):
            assert_transactions_bit_exact(expected, got)


# --------------------------------------------------------------------------- #
# Frame-level failure behaviour
# --------------------------------------------------------------------------- #
payloads = st.binary(max_size=64)
frame_kinds = st.sampled_from(list(FrameKind))


class TestFrameFailures:
    @given(kind=frame_kinds, payload=payloads)
    @settings(deadline=None)
    def test_frame_round_trip(self, kind, payload):
        got_kind, got_payload = decode_frame(encode_frame(kind, payload))
        assert got_kind is kind
        assert got_payload == payload

    @given(kind=frame_kinds, payload=payloads, data=st.data())
    @settings(deadline=None)
    def test_truncated_frame_rejected(self, kind, payload, data):
        frame = encode_frame(kind, payload)
        cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        try:
            decode_frame(frame[:cut])
        except CodecError:
            return
        raise AssertionError(f"truncation at {cut} was not rejected")

    @given(kind=frame_kinds, payload=payloads, data=st.data())
    @settings(deadline=None)
    def test_corrupted_byte_rejected(self, kind, payload, data):
        frame = bytearray(encode_frame(kind, payload))
        index = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        mask = data.draw(st.integers(min_value=1, max_value=255))
        frame[index] ^= mask
        try:
            decode_frame(bytes(frame))
        except CodecError:
            return
        raise AssertionError(f"corrupted byte at {index} was not rejected")

    @given(kind=frame_kinds, payload=payloads, garbage=st.binary(min_size=1, max_size=8))
    @settings(deadline=None)
    def test_trailing_bytes_rejected(self, kind, payload, garbage):
        try:
            decode_frame(encode_frame(kind, payload) + garbage)
        except CodecError as error:
            assert "trailing" in str(error)
            return
        raise AssertionError("trailing garbage was not rejected")

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
