"""Sim-vs-real parity and fault injection for the TCP peer transport.

The parity tests run the same seeded CXK-means fit once on the simulated
network and once with every peer as a real process over localhost TCP, and
assert bit-identical clusterings -- the core guarantee of the transport
design (the driver keeps all algorithm state, so the two paths execute the
identical control flow).

The fault-injection tests replace the worker factory with
:class:`FaultyTransport`, a reusable helper whose fake "processes" misbehave
in controlled ways (never start, never connect, die or stall after the
handshake), and assert that every failure surfaces as a
:class:`RealNetworkError` with an actionable message within the configured
deadline -- the driver must never hang.
"""

from __future__ import annotations

import socket
import threading
import time
from types import SimpleNamespace

import pytest

from repro.core.config import ClusteringConfig
from repro.core.cxkmeans import CXKMeans
from repro.core.partition import partition_equally
from repro.core.representatives import representatives_equal
from repro.network.codec import FrameKind, encode_frame, encode_hello
from repro.network.message import Message, MessageKind
from repro.network.peer import make_peers
from repro.network.realnet import RealNetwork, RealNetworkError
from repro.similarity.corpus_store import prepare_engine_corpus
from repro.similarity.item import SimilarityConfig


# --------------------------------------------------------------------------- #
# FaultyTransport: a reusable worker-factory for failure testing
# --------------------------------------------------------------------------- #
class _FakeProcess:
    """Thread-backed stand-in for a worker ``multiprocessing.Process``.

    Implements exactly the surface :class:`RealNetwork` uses (``start`` /
    ``join`` / ``is_alive`` / ``terminate`` / ``kill``).  ``join`` and
    ``terminate`` both request the fault thread to stop, so a stalled fake
    never slows down ``RealNetwork.close()``.
    """

    def __init__(self, target, stop_event: threading.Event) -> None:
        self._stop = stop_event
        self._thread = threading.Thread(target=target, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def join(self, timeout=None) -> None:
        self._stop.set()
        self._thread.join(timeout)

    def is_alive(self) -> bool:
        return self._thread.is_alive()

    def terminate(self) -> None:
        self._stop.set()

    def kill(self) -> None:
        self._stop.set()


class FaultyTransport:
    """Worker factory injecting one failure mode into every peer worker.

    Modes
    -----
    ``"dead"``
        The worker exits immediately without ever connecting -- what a
        refused port or a startup crash looks like from the driver.
    ``"never-connect"``
        The worker stays alive but never opens the connection (a stalled
        startup).
    ``"die-after-hello"``
        The worker completes the HELLO handshake, then drops the connection
        (a peer dying mid-run).
    ``"stall-after-hello"``
        The worker completes the handshake, keeps the connection open and
        never answers (a stalled peer: the round deadline must fire).

    Use as ``RealNetwork(..., worker_factory=FaultyTransport("dead"))``.
    """

    def __init__(self, mode: str) -> None:
        self.mode = mode
        self._stop = threading.Event()

    def stop(self) -> None:
        self._stop.set()

    def __call__(self, spec) -> _FakeProcess:
        return _FakeProcess(lambda: self._run(spec), self._stop)

    # -- fault bodies --------------------------------------------------- #
    def _run(self, spec) -> None:
        if self.mode == "dead":
            return
        if self.mode == "never-connect":
            self._stop.wait()
            return
        connection = socket.create_connection((spec.host, spec.port), timeout=10.0)
        try:
            connection.sendall(
                encode_frame(FrameKind.HELLO, encode_hello(spec.peer_id))
            )
            if self.mode == "die-after-hello":
                return
            if self.mode == "stall-after-hello":
                self._stop.wait()
                return
            raise AssertionError(f"unknown FaultyTransport mode: {self.mode}")
        finally:
            connection.close()


def _make_network(mini_dataset, mode: str, **kwargs) -> RealNetwork:
    parts = partition_equally(mini_dataset.transactions, 2, seed=0)
    peers = make_peers(parts, [[0], [1]])
    return RealNetwork(peers, worker_factory=FaultyTransport(mode), **kwargs)


# --------------------------------------------------------------------------- #
# Fault injection
# --------------------------------------------------------------------------- #
class TestFaultInjection:
    def test_dead_worker_fails_handshake_with_exit_hint(self, mini_dataset):
        network = _make_network(mini_dataset, "dead", connect_timeout=1.0)
        started = time.perf_counter()
        with pytest.raises(RealNetworkError) as excinfo:
            network.start()
        assert time.perf_counter() - started < 30.0
        assert "never completed the HELLO handshake" in str(excinfo.value)
        assert "already exited" in str(excinfo.value)

    def test_never_connecting_worker_fails_handshake(self, mini_dataset):
        network = _make_network(mini_dataset, "never-connect", connect_timeout=1.0)
        try:
            with pytest.raises(RealNetworkError) as excinfo:
                network.start()
            assert "never completed the HELLO handshake" in str(excinfo.value)
            assert "stalled" in str(excinfo.value)
        finally:
            network.close()

    def test_worker_death_mid_round_raises_not_hangs(self, mini_dataset):
        network = _make_network(
            mini_dataset, "die-after-hello", connect_timeout=10.0, round_timeout=5.0
        )
        try:
            network.start()
            started = time.perf_counter()
            with pytest.raises(RealNetworkError) as excinfo:
                with network.round():
                    network.broadcast(0, MessageKind.GLOBAL_REPRESENTATIVES, None)
                    network.broadcast(1, MessageKind.GLOBAL_REPRESENTATIVES, None)
                    network.run_local_phases(
                        [SimpleNamespace(peer_id=0), SimpleNamespace(peer_id=1)]
                    )
            assert time.perf_counter() - started < 30.0
            assert "peer" in str(excinfo.value)
        finally:
            network.close()

    def test_stalled_worker_hits_round_deadline(self, mini_dataset):
        network = _make_network(
            mini_dataset, "stall-after-hello", connect_timeout=10.0, round_timeout=1.0
        )
        try:
            network.start()
            started = time.perf_counter()
            with pytest.raises(RealNetworkError) as excinfo:
                with network.round():
                    network.broadcast(0, MessageKind.GLOBAL_REPRESENTATIVES, None)
                    network.run_local_phases(
                        [SimpleNamespace(peer_id=0), SimpleNamespace(peer_id=1)]
                    )
            assert time.perf_counter() - started < 30.0
            assert "did not deliver" in str(excinfo.value)
            assert "network_timeout" in str(excinfo.value)
        finally:
            network.close()

    def test_send_outside_round_is_a_programming_error(self, mini_dataset):
        network = _make_network(mini_dataset, "dead")
        with pytest.raises(RuntimeError, match="no open round"):
            network.broadcast(0, MessageKind.FLAG, {"state": "done"})
        # as on the simulated network, a self-addressed send is dropped
        # before the round check: it never reaches the wire
        network.send(Message(0, 0, MessageKind.FLAG))
        assert network.stats.total_messages() == 0

    def test_closed_network_refuses_restart(self, mini_dataset):
        network = _make_network(mini_dataset, "dead")
        network.close()
        with pytest.raises(RealNetworkError, match="already closed"):
            network.start()


# --------------------------------------------------------------------------- #
# Sim-vs-real parity
# --------------------------------------------------------------------------- #
def _fit_both(dataset, peers: int, backend: str, prepare: bool = False):
    """Run the same seeded fit on both transports; returns (sim, real).

    With *prepare* each fit's engine first precomputes and compiles the
    whole corpus, as ``cluster`` does, while real-transport peer workers
    compile their own shares.
    """
    parts = partition_equally(dataset.transactions, peers, seed=0)
    base = ClusteringConfig(
        k=4,
        similarity=SimilarityConfig(f=0.5, gamma=0.4),
        seed=0,
        max_iterations=5,
        backend=backend,
    )
    results = []
    for config in (base, base.with_network("real", 120.0)):
        algorithm = CXKMeans(config)
        if prepare:
            prepare_engine_corpus(algorithm.engine, dataset.transactions)
        results.append(algorithm.fit(parts))
    return tuple(results)


def _assert_bit_identical(sim_result, real_result) -> None:
    assert real_result.iterations == sim_result.iterations
    assert real_result.converged == sim_result.converged
    assert real_result.assignments(include_trash=True) == sim_result.assignments(
        include_trash=True
    )
    assert real_result.partition(include_trash=True) == sim_result.partition(
        include_trash=True
    )
    for sim_cluster, real_cluster in zip(sim_result.clusters, real_result.clusters):
        assert representatives_equal(
            sim_cluster.representative, real_cluster.representative
        )
        assert [item.item_id for item in real_cluster.representative.items] == [
            item.item_id for item in sim_cluster.representative.items
        ]


class TestSimRealParity:
    @pytest.mark.parametrize(
        "peers,backend,prepare",
        [
            pytest.param(2, "numpy", False, id="2-numpy"),
            pytest.param(4, "numpy", False, id="4-numpy"),
            pytest.param(3, "numpy", False, id="3-numpy"),
            pytest.param(2, "numpy", True, id="2-numpy-prepared"),
        ],
    )
    def test_identical_clusterings(self, mini_dataset, peers, backend, prepare):
        sim_result, real_result = _fit_both(mini_dataset, peers, backend, prepare)
        _assert_bit_identical(sim_result, real_result)

    def test_accounting_predictions_match_and_measurements_exist(self, mini_dataset):
        sim_result, real_result = _fit_both(mini_dataset, 3, "numpy")
        _assert_bit_identical(sim_result, real_result)
        sim_net, real_net = sim_result.network, real_result.network
        # the NetworkStats lane of the real summary is the *prediction* and
        # must match the simulated run exactly (identical message trace)
        for key in ("rounds", "messages", "transferred_transactions",
                    "transferred_items", "transferred_units"):
            assert real_net[key] == sim_net[key], key
        assert real_net["communication_seconds"] == sim_net["communication_seconds"]
        # the measured lane only exists on the real transport
        assert "wire_bytes" not in sim_net
        assert real_net["wire_bytes"] > 0
        assert real_net["control_bytes"] > 0
        assert real_net["measured_wall_seconds"] > 0
