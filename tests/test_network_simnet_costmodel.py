"""Tests for the simulated network and the cost model."""

import time

import pytest

from repro.network.costmodel import CostModel, saturation_point, speedup_curve
from repro.network.message import Message, MessageKind, representative_payload
from repro.network.peer import make_peers
from repro.network.simnet import SimulatedNetwork
from repro.transactions.items import make_synthetic_item
from repro.transactions.transaction import make_transaction
from repro.xmlmodel.paths import XMLPath


def rep_transaction(tid="rep"):
    return make_transaction(
        tid, [make_synthetic_item(XMLPath.parse("r.a.S"), "value")]
    )


def two_peer_network(cost_model=None):
    peers = make_peers([[rep_transaction("a")], [rep_transaction("b")]], [[0], [1]])
    return SimulatedNetwork(peers, cost_model=cost_model)


class TestSimulatedNetwork:
    def test_send_delivers_and_records(self):
        network = two_peer_network()
        with network.round():
            network.send(Message(0, 1, MessageKind.FLAG, {"state": "done"}))
        assert len(network.peer(1).inbox) == 1
        assert network.stats.total_messages() == 1

    def test_self_messages_are_not_counted(self):
        network = two_peer_network()
        with network.round():
            network.send(Message(0, 0, MessageKind.FLAG))
        assert network.stats.total_messages() == 0
        assert network.peer(0).inbox == []

    def test_broadcast_reaches_everyone_but_the_sender(self):
        network = two_peer_network()
        with network.round():
            count = network.broadcast(0, MessageKind.FLAG, {"state": "continue"})
        assert count == 1
        assert len(network.peer(1).inbox) == 1

    def test_round_time_is_max_compute_plus_communication(self):
        cost_model = CostModel(t_comm=1.0, unit_comm=0.0)
        network = two_peer_network(cost_model)
        network.begin_round()
        network.stats.record_compute(0, 2.0)
        network.stats.record_compute(1, 5.0)
        payload = representative_payload([(0, rep_transaction(), 1)])
        network.send(Message(0, 1, MessageKind.LOCAL_REPRESENTATIVES, payload))
        duration = network.end_round()
        # max compute (5.0) + 1 transferred transaction * t_comm (1.0)
        assert duration == pytest.approx(6.0)
        assert network.simulated_seconds == pytest.approx(6.0)

    def test_measure_compute_records_elapsed_time(self):
        network = two_peer_network()
        network.begin_round()
        with network.measure_compute(0):
            time.sleep(0.01)
        network.end_round()
        assert network.stats.rounds[0].compute_seconds[0] >= 0.01

    def test_end_round_without_begin_raises(self):
        network = two_peer_network()
        with pytest.raises(RuntimeError):
            network.end_round()

    def test_summary_contains_headline_metrics(self):
        network = two_peer_network()
        with network.round():
            network.broadcast(0, MessageKind.FLAG, None)
        summary = network.summary()
        assert summary["peers"] == 2.0
        assert summary["messages"] == 1.0
        assert "simulated_seconds" in summary and "communication_seconds" in summary


class TestCostModel:
    def test_predicted_time_decreases_then_increases(self):
        model = CostModel(t_mem=1e-6, t_comm=1e-2)
        curve = model.predicted_curve(
            range(1, 30), dataset_size=500, k=10, max_transaction_length=8, max_tcu_size=20
        )
        minimum_m = min(curve, key=curve.get)
        assert 1 < minimum_m < 29
        assert curve[1] > curve[minimum_m]
        assert curve[29] > curve[minimum_m]

    def test_optimal_nodes_matches_curve_minimum(self):
        model = CostModel(t_mem=1e-6, t_comm=1e-2)
        analytic = model.optimal_nodes(dataset_size=500, k=10, max_transaction_length=8)
        curve = model.predicted_curve(
            range(1, 60), dataset_size=500, k=10, max_transaction_length=8, max_tcu_size=20
        )
        empirical = min(curve, key=curve.get)
        assert abs(analytic - empirical) <= 2.0

    def test_larger_dataset_moves_optimum_right(self):
        model = CostModel()
        small = model.optimal_nodes(dataset_size=100, k=10, max_transaction_length=8)
        large = model.optimal_nodes(dataset_size=400, k=10, max_transaction_length=8)
        assert large > small

    def test_balanced_clusters_move_optimum_left(self):
        model = CostModel()
        balanced = model.optimal_nodes(dataset_size=200, k=10, max_transaction_length=8, h=10)
        skewed = model.optimal_nodes(dataset_size=200, k=10, max_transaction_length=8, h=1)
        assert skewed > balanced

    def test_invalid_nodes(self):
        with pytest.raises(ValueError):
            CostModel().predicted_time(0, 10, 2, 5, 5)

    def test_communication_seconds(self):
        model = CostModel(t_comm=2.0, unit_comm=0.5)
        assert model.communication_seconds(3, 4.0) == pytest.approx(3 * 2.0 + 4.0 * 0.5)

    def test_saturation_point_of_flat_then_rising_curve(self):
        curve = {1: 10.0, 3: 4.0, 5: 2.0, 7: 1.95, 9: 2.4}
        assert saturation_point(curve) == 5

    def test_saturation_point_requires_data(self):
        with pytest.raises(ValueError):
            saturation_point({})

    def test_speedup_curve(self):
        curve = {1: 10.0, 2: 5.0, 4: 2.5}
        speedups = speedup_curve(curve)
        assert speedups[1] == 1.0
        assert speedups[4] == pytest.approx(4.0)

    def test_speedup_requires_centralized_baseline(self):
        with pytest.raises(ValueError):
            speedup_curve({2: 5.0})


class RecordingCostModel(CostModel):
    """Cost model that records every ``communication_seconds`` input.

    Lets the round-accounting tests assert that the traffic recorded into
    the per-round statistics is exactly what the cost model is asked to
    price -- a phantom round or a message accounted outside its round would
    break the correspondence.
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.calls = []

    def communication_seconds(self, transferred_transactions, transferred_units):
        self.calls.append((transferred_transactions, transferred_units))
        return super().communication_seconds(
            transferred_transactions, transferred_units
        )


class TestRoundAccounting:
    """Per-round message accounting must match the cost-model inputs."""

    def test_send_outside_round_raises(self):
        network = two_peer_network()
        with pytest.raises(RuntimeError, match="no open round"):
            network.send(Message(0, 1, MessageKind.FLAG, {"state": "done"}))

    def test_broadcast_outside_round_raises(self):
        network = two_peer_network()
        with pytest.raises(RuntimeError, match="no open round"):
            network.broadcast(0, MessageKind.FLAG, {"state": "continue"})

    def test_round_stats_match_what_the_cost_model_prices(self):
        cost_model = RecordingCostModel()
        network = two_peer_network(cost_model)
        payload = representative_payload([(0, rep_transaction(), 1)])
        with network.round():
            network.send(Message(0, 1, MessageKind.LOCAL_REPRESENTATIVES, payload))
        with network.round():
            network.broadcast(0, MessageKind.FLAG, {"state": "continue"})
        expected = [
            (stats.transferred_transactions, stats.transferred_units)
            for stats in network.stats.rounds
        ]
        assert cost_model.calls == expected
        assert len(network.stats.rounds) == 2  # no phantom rounds

    def test_cxk_fit_prices_exactly_its_recorded_rounds(self, mini_dataset):
        from repro.core.config import ClusteringConfig
        from repro.core.cxkmeans import CXKMeans
        from repro.core.partition import partition_equally
        from repro.similarity.item import SimilarityConfig

        cost_model = RecordingCostModel()
        config = ClusteringConfig(
            k=3,
            similarity=SimilarityConfig(f=0.5, gamma=0.4),
            seed=0,
            max_iterations=4,
        )
        parts = partition_equally(mini_dataset.transactions, 3, seed=0)
        result = CXKMeans(config, cost_model=cost_model).fit(parts)

        rounds = int(result.network["rounds"])
        # the SETUP exchange is its own round, then one round per iteration
        assert rounds == result.iterations + 1
        # one pricing call per closed round plus the final summary total
        per_round, total = cost_model.calls[:-1], cost_model.calls[-1]
        assert len(per_round) == rounds
        assert total[0] == sum(t for t, _ in per_round)
        assert total[1] == pytest.approx(sum(u for _, u in per_round))
        assert total[0] == result.network["transferred_transactions"]
        assert total[1] == pytest.approx(result.network["transferred_units"])
