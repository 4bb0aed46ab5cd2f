"""Tests for network messages, peers and traffic statistics."""

import pytest

from repro.network.message import Message, MessageKind, representative_payload
from repro.network.peer import make_peers
from repro.network.stats import NetworkStats
from repro.text.vector import SparseVector
from repro.transactions.items import make_synthetic_item
from repro.transactions.transaction import make_transaction
from repro.xmlmodel.paths import XMLPath


def rep_transaction(n_items: int = 2):
    items = [
        make_synthetic_item(
            XMLPath.parse(f"r.p{i}.S"), f"value {i}", vector=SparseVector({i: 1.0, 100 + i: 2.0})
        )
        for i in range(n_items)
    ]
    return make_transaction("rep", items)


class TestMessage:
    def test_flag_messages_have_unit_size(self):
        message = Message(0, 1, MessageKind.FLAG, {"state": "done"})
        assert message.transaction_count() == 0
        assert message.item_count() == 0
        assert message.size_units() == 1.0

    def test_representative_message_size_accounts_items_and_vectors(self):
        payload = representative_payload([(0, rep_transaction(2), 5)])
        message = Message(0, 1, MessageKind.LOCAL_REPRESENTATIVES, payload)
        assert message.transaction_count() == 1
        assert message.item_count() == 2
        # 2 items + 2 vectors of 2 components each
        assert message.size_units() == 2 + 4

    def test_global_representative_payload(self):
        payload = representative_payload([(3, rep_transaction(1), 0), (4, rep_transaction(3), 0)])
        message = Message(2, 0, MessageKind.GLOBAL_REPRESENTATIVES, payload)
        assert message.transaction_count() == 2
        assert message.item_count() == 4

    def test_message_ids_are_unique(self):
        first = Message(0, 1, MessageKind.FLAG)
        second = Message(0, 1, MessageKind.FLAG)
        assert first.message_id != second.message_id

    def test_payload_normalisation_casts_types(self):
        payload = representative_payload([("3", rep_transaction(1), "7")])
        assert payload[0][0] == 3 and payload[0][2] == 7


class TestPeer:

    def test_make_peers_assigns_ids_and_responsibilities(self):
        peers = make_peers([[rep_transaction()], []], [[0, 2], [1]])
        assert [p.peer_id for p in peers] == [0, 1]
        assert peers[0].responsibilities == [0, 2]
        assert peers[1].transactions == []

    def test_make_peers_length_mismatch(self):
        with pytest.raises(ValueError):
            make_peers([[]], [[0], [1]])


class TestNetworkStats:
    def test_round_accounting(self):
        stats = NetworkStats()
        stats.start_round(0)
        stats.record_message(
            Message(0, 1, MessageKind.LOCAL_REPRESENTATIVES,
                    representative_payload([(0, rep_transaction(2), 1)]))
        )
        stats.record_compute(0, 0.5)
        stats.record_compute(1, 0.2)
        stats.start_round(1)
        stats.record_message(Message(1, 0, MessageKind.FLAG))
        stats.record_compute(0, 0.1)

        assert stats.round_count() == 2
        assert stats.total_messages() == 2
        assert stats.total_transferred_transactions() == 1
        assert stats.total_transferred_items() == 2
        assert stats.total_parallel_compute_seconds() == pytest.approx(0.6)
        assert stats.total_sequential_compute_seconds() == pytest.approx(0.8)

    def test_compute_times_accumulate_per_peer_within_round(self):
        stats = NetworkStats()
        stats.start_round(0)
        stats.record_compute(0, 0.25)
        stats.record_compute(0, 0.25)
        assert stats.current_round().compute_seconds[0] == pytest.approx(0.5)

    def test_current_round_opens_one_when_missing(self):
        stats = NetworkStats()
        stats.record_message(Message(0, 1, MessageKind.FLAG))
        assert stats.round_count() == 1

    def test_as_dict_is_flat_and_complete(self):
        stats = NetworkStats()
        stats.start_round(0)
        flat = stats.as_dict()
        assert set(flat) == {
            "rounds",
            "messages",
            "transferred_transactions",
            "transferred_items",
            "transferred_units",
            "parallel_compute_seconds",
            "sequential_compute_seconds",
        }
