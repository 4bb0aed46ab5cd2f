"""Sim-vs-real parity and fault injection for the TCP peer transport.

The parity tests run the same seeded CXK-means fit once on the simulated
network and once with every peer as a real process over localhost TCP, and
assert bit-identical clusterings -- the core guarantee of the transport
design (the driver keeps all algorithm state, so the two paths execute the
identical control flow).

The fault-injection tests replace the worker factory with
:class:`FaultyTransport`, a reusable helper whose fake "processes" misbehave
in controlled ways (never start, never connect, die or stall after the
handshake, die during their share), and assert that every failure surfaces
as a :class:`RealNetworkError` with an actionable message within the
configured deadline -- the driver must never hang.

The worker tests run the worker's serving loop on a thread of this process
(what a coverage run can follow) and a fit from a script without an
``if __name__ == "__main__":`` guard.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro
from repro.core.config import ClusteringConfig
from repro.core.cxkmeans import CXKMeans
from repro.core.partition import partition_equally
from repro.core.representatives import representatives_equal
from repro.datasets.registry import get_dataset
from repro.network import realnet, worker
from repro.network.codec import FrameKind, encode_frame, encode_hello, encode_share
from repro.network.message import Message, MessageKind
from repro.network.peer import make_peers
from repro.network.realnet import RealNetwork, RealNetworkError, WorkerProcess
from repro.similarity.corpus_store import prepare_engine_corpus
from repro.similarity.item import SimilarityConfig


# --------------------------------------------------------------------------- #
# FaultyTransport: a reusable worker-factory for failure testing
# --------------------------------------------------------------------------- #
class _FakeProcess:
    """Thread-backed stand-in for a :class:`WorkerProcess`.

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
    ``"die-during-share"``
        The worker closes right after its HELLO, as ``"die-after-hello"``;
        given a share larger than the socket buffers, the driver's share
        write fails (a peer dying during the handshake).

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
            if self.mode in ("die-after-hello", "die-during-share"):
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
        # at once: the handshake does not wait out the connect timeout
        network = _make_network(mini_dataset, "dead", connect_timeout=30.0)
        started = time.perf_counter()
        with pytest.raises(RealNetworkError) as excinfo:
            network.start()
        assert time.perf_counter() - started < 5.0
        assert "never completed the HELLO handshake" in str(excinfo.value)
        assert "already exited" in str(excinfo.value)

    def test_worker_dying_during_its_share_fails_handshake_at_once(
        self, mini_dataset
    ):
        # a share larger than the socket buffers (4 MiB at most by default):
        # the write cannot finish once the worker has closed the connection
        copies = 320
        transactions = list(mini_dataset.transactions) * copies
        assert len(encode_share(mini_dataset.transactions)) * copies > 4 << 20
        network = RealNetwork(
            make_peers([transactions, transactions], [[0], [1]]),
            worker_factory=FaultyTransport("die-during-share"),
            connect_timeout=30.0,
        )
        started = time.perf_counter()
        with pytest.raises(RealNetworkError) as excinfo:
            network.start()
        assert time.perf_counter() - started < 5.0
        assert "never completed the HELLO handshake" in str(excinfo.value)
        assert "share write failed" in str(excinfo.value)

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
# Spawn spec
# --------------------------------------------------------------------------- #
class TestSpawnSpec:
    @pytest.mark.parametrize("caller_value", [None, "3"])
    def test_blas_pool_defaults_to_one_thread(self, monkeypatch, caller_value):
        """No kernel calls BLAS, so a worker starts without the thread pool,
        unless the caller's environment says otherwise."""
        if caller_value is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", caller_value)
        captured = {}

        def fake_popen(command, env, stdin):
            captured.update(env)

        monkeypatch.setattr(realnet.subprocess, "Popen", fake_popen)
        spec = realnet.PeerWorkerSpec(
            peer_id=0, host="127.0.0.1", port=1, config=ClusteringConfig(k=4)
        )
        WorkerProcess(spec).start()
        assert captured["OPENBLAS_NUM_THREADS"] == (caller_value or "1")
        assert captured["PYTHONPATH"].split(os.pathsep)[0] == realnet._SOURCE_ROOT

    def test_spawn_spec_carries_no_share(self):
        """A peer's share follows its HELLO as a SHARE frame, so the
        worker's command line stays small, however large the share: the
        workers start without waiting for it."""
        dataset = get_dataset("DBLP", scale=1, seed=0)
        parts = partition_equally(dataset.transactions, 2, seed=0)
        network = RealNetwork(
            make_peers(parts, [[0], [1]]), phase_config=ClusteringConfig(k=4)
        )
        for peer in network.peers:
            assert peer.transactions
            command = WorkerProcess(network._make_spec(peer)).command
            assert len(" ".join(command).encode("utf-8")) < 2048


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


# --------------------------------------------------------------------------- #
# The worker
# --------------------------------------------------------------------------- #
def _thread_worker(spec) -> _FakeProcess:
    """A worker handle serving *spec*'s peer on a thread of this process."""
    return _FakeProcess(lambda: worker.main(spec.argv()), threading.Event())


class TestWorker:
    def test_thread_worker_fit_is_bit_identical(self, mini_dataset, monkeypatch):
        monkeypatch.setattr(realnet, "WorkerProcess", _thread_worker)
        sim_result, real_result = _fit_both(mini_dataset, 2, "numpy")
        _assert_bit_identical(sim_result, real_result)

    def test_local_phase_failure_reaches_the_driver(self, mini_dataset, monkeypatch):
        def broken_phase(phase_input, engine):
            raise ValueError("local phase broke")

        monkeypatch.setattr(realnet, "WorkerProcess", _thread_worker)
        monkeypatch.setattr(worker, "run_local_phase", broken_phase)
        parts = partition_equally(mini_dataset.transactions, 2, seed=0)
        config = ClusteringConfig(k=4, seed=0, max_iterations=2)
        with pytest.raises(RealNetworkError, match="failed remotely") as excinfo:
            CXKMeans(config.with_network("real", 30.0)).fit(parts)
        assert "local phase broke" in str(excinfo.value)

    def test_workers_exit_cleanly_after_a_real_fit(self, mini_dataset, monkeypatch):
        """Every worker answers SHUTDOWN by exiting 0 on its own: close()
        never escalates to terminate() or kill()."""
        handles = []

        class RecordingWorker(WorkerProcess):
            def __init__(self, spec) -> None:
                super().__init__(spec)
                self.escalated = []
                handles.append(self)

            def terminate(self) -> None:
                self.escalated.append("terminate")
                super().terminate()

            def kill(self) -> None:
                self.escalated.append("kill")
                super().kill()

        monkeypatch.setattr(realnet, "WorkerProcess", RecordingWorker)
        parts = partition_equally(mini_dataset.transactions, 2, seed=0)
        config = ClusteringConfig(k=4, seed=0, max_iterations=2)
        CXKMeans(config.with_network("real", 30.0)).fit(parts)
        assert len(handles) == 2
        for handle in handles:
            assert handle._process.returncode == 0
            assert handle.escalated == []

    def test_script_without_main_guard_fits_on_the_real_transport(self, tmp_path):
        """The workers never re-run the script that started the fit."""
        source_root = str(Path(repro.__file__).resolve().parents[1])
        script = tmp_path / "fit_real.py"
        script.write_text(
            textwrap.dedent(
                f"""
                import sys
                sys.path.insert(0, {source_root!r})
                from repro.core.config import ClusteringConfig
                from repro.core.cxkmeans import CXKMeans
                from repro.core.partition import partition_equally
                from repro.datasets.registry import get_dataset

                dataset = get_dataset("DBLP", scale=0.3, seed=0)
                parts = partition_equally(dataset.transactions, 2, seed=0)
                config = ClusteringConfig(k=4, seed=0, max_iterations=2)
                result = CXKMeans(config.with_network("real", 10.0)).fit(parts)
                print("FIT-DONE", result.iterations)
                """
            ),
            encoding="utf-8",
        )
        env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
        completed = subprocess.run(
            [sys.executable, str(script)],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.count("FIT-DONE") == 1
