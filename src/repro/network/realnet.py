"""A real localhost TCP transport running CXK-means peers as processes.

Where :mod:`repro.network.simnet` *simulates* the collaborative rounds
sequentially and prices their traffic through the cost model, this module
runs every peer as a plain OS process (:mod:`repro.network.worker`) that
speaks the length-prefixed binary wire format of :mod:`repro.network.codec`
over one blocking localhost TCP socket, so the per-peer local phases of
CXK-means really do run in parallel.

Topology -- physical star, logical mesh
---------------------------------------
The driving process (the algorithm's ``N0``) binds a listening socket for
the handshake only and starts each worker with :class:`subprocess.Popen`,
its settings on the command line.  A worker connects and sends ``HELLO``;
the driver answers with the peer's data share ``S_i`` as a ``SHARE``
frame, then holds one blocking socket per peer.  Algorithm messages keep
their peer-to-peer ``sender``/``recipient`` semantics, but physically
every frame is relayed through the driver -- the classic coordinator
star.  The driver also keeps the algorithm state (flags, convergence, the
global merge), which is what guarantees *bit-exact parity* with the
simulated network: the two transports execute the identical control flow
and differ only in where the local phases run.

Accounting
----------
:class:`RealNetwork` is a :class:`~repro.network.simnet.SimulatedNetwork`:
its topology, rounds, messaging and :class:`~repro.network.stats.NetworkStats`
are the simulation's own, so the cost-model *predictions* are computed
exactly as in a simulated run.  On top of that it records what
actually happened on the wire: encoded frame bytes per round
(``wire_bytes`` for algorithm messages, ``control_bytes`` for the
HELLO/SHARE/RESULT/SHUTDOWN frames and the driver-relay self-copies) and
measured wall-clock per round -- surfaced through
:meth:`RealNetwork.summary` and, further up, the ``predicted_vs_measured``
fields of experiment records.

Failure semantics
-----------------
Every blocking socket operation has a deadline.  The handshake runs under
``connect_timeout`` and stops at once when a worker exits before its
``HELLO`` or a share write fails; writes and a round's results run under
``round_timeout``.  Every failure surfaces as :class:`RealNetworkError`
with an actionable message -- the driver never hangs.
:meth:`RealNetwork.close` is idempotent and best-effort: it sends
``SHUTDOWN`` frames, waits for the workers and escalates to
``terminate()``/``kill()``.
"""

from __future__ import annotations

import contextlib
import os
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.network.codec import (
    CodecError,
    FrameKind,
    HEADER_SIZE,
    TRAILER_SIZE,
    decode_error,
    decode_hello,
    decode_result,
    encode_frame,
    encode_message,
    encode_share,
    read_frame,
)
from repro.network.costmodel import CostModel
from repro.network.message import LocalPhaseOutput, Message, MessageKind
from repro.network.peer import Peer
from repro.network.simnet import SimulatedNetwork

#: Default deadline for the worker handshake (socket connect, HELLO, share).
DEFAULT_CONNECT_TIMEOUT = 30.0
#: Default deadline for one collaborative round's local-phase results.
DEFAULT_ROUND_TIMEOUT = 120.0
#: How often the handshake looks for workers that exited before their HELLO,
#: and the least time it gives one socket operation.
_POLL_S = 0.05
#: The directory that holds the ``repro`` package: first on a worker's path.
_SOURCE_ROOT = str(Path(__file__).resolve().parents[2])


class RealNetworkError(RuntimeError):
    """A failure of the real transport (handshake, round or shutdown)."""


# --------------------------------------------------------------------------- #
# Worker processes
# --------------------------------------------------------------------------- #
@dataclass
class PeerWorkerSpec:
    """Everything a peer worker process needs to join the network.

    The peer's share ``S_i`` is not part of it: the driver sends it as the
    ``SHARE`` frame answering the worker's ``HELLO``.
    """

    peer_id: int
    host: str
    port: int
    #: Per-phase :class:`~repro.core.config.ClusteringConfig` (duck-typed
    #: here: the network layer sits below the core layer).
    config: object
    connect_timeout: float = DEFAULT_CONNECT_TIMEOUT

    def argv(self) -> List[str]:
        """The worker's command-line arguments (:mod:`repro.network.worker`)."""
        similarity = self.config.similarity
        return [
            str(self.peer_id),
            self.host,
            str(self.port),
            repr(similarity.f),
            repr(similarity.gamma),
            self.config.backend,
            repr(self.connect_timeout),
        ]


class WorkerProcess:
    """The default worker handle: ``python -m repro.network.worker ARGS``.

    Offers the surface :class:`RealNetwork` uses of a worker (``start`` /
    ``join`` / ``is_alive`` / ``terminate`` / ``kill``); tests substitute
    thread-backed handles with the same surface.
    """

    def __init__(self, spec: PeerWorkerSpec) -> None:
        self.command = [sys.executable, "-m", "repro.network.worker", *spec.argv()]
        self._process: Optional[subprocess.Popen] = None

    def start(self) -> None:
        """Start the worker, the directory holding ``repro`` first on its path.

        Its OpenBLAS pool defaults to one thread: no kernel calls BLAS, and
        numpy imports in half the CPU time without the pool.  A value the
        caller's environment sets wins.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (_SOURCE_ROOT, env.get("PYTHONPATH")))
        )
        env.setdefault("OPENBLAS_NUM_THREADS", "1")
        self._process = subprocess.Popen(
            self.command, env=env, stdin=subprocess.DEVNULL
        )

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait up to *timeout* seconds for the worker to exit."""
        with contextlib.suppress(subprocess.TimeoutExpired):
            self._process.wait(timeout)

    def is_alive(self) -> bool:
        """Whether the worker is still running."""
        return self._process.poll() is None

    def terminate(self) -> None:
        """Ask the worker to stop (``SIGTERM``)."""
        self._process.terminate()

    def kill(self) -> None:
        """Stop the worker (``SIGKILL``)."""
        self._process.kill()


# --------------------------------------------------------------------------- #
# Driver-side connection state
# --------------------------------------------------------------------------- #
class _PeerLink:
    """Driver-side state of one worker connection."""

    __slots__ = ("peer_id", "sock", "failure")

    def __init__(self, peer_id: int, sock: socket.socket) -> None:
        self.peer_id = peer_id
        self.sock = sock
        self.failure: Optional[str] = None


class RealNetwork(SimulatedNetwork):
    """Localhost TCP network of genuinely concurrent peer processes.

    The simulated network plus the wire: topology, round management,
    messaging rules and the :class:`~repro.network.stats.NetworkStats` are
    inherited (so the algorithm drivers need no transport-specific
    branches), while every accounted message is encoded and written to its
    recipient's worker, each round's wall clock and wire bytes are
    measured, and :meth:`run_local_phases` collects the local phases the
    worker processes ran instead of running them in-process.

    Parameters
    ----------
    peers:
        The driver-side :class:`~repro.network.peer.Peer` objects (their
        partitions and responsibilities seed the worker specs).
    cost_model:
        Prices the recorded traffic exactly as the simulated network does,
        yielding the *predicted* side of ``predicted_vs_measured``.
    phase_config:
        Per-phase clustering configuration shipped to the workers.
    connect_timeout / round_timeout:
        Deadlines for the worker handshake and for one round's results.
    worker_factory:
        ``spec -> handle`` hook (default :class:`WorkerProcess`); tests
        inject faulty transports here (see ``FaultyTransport`` in
        ``tests/test_realnet.py``).
    """

    def __init__(
        self,
        peers: Sequence[Peer],
        cost_model: Optional[CostModel] = None,
        *,
        phase_config: Optional[object] = None,
        host: str = "127.0.0.1",
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
        round_timeout: float = DEFAULT_ROUND_TIMEOUT,
        worker_factory=None,
    ) -> None:
        super().__init__(peers, cost_model)
        self._round_started_at = 0.0

        self.phase_config = phase_config
        self.host = host
        self.port: Optional[int] = None
        self.connect_timeout = connect_timeout
        self.round_timeout = round_timeout
        self._worker_factory = worker_factory or WorkerProcess

        #: measured traffic: encoded bytes of the accounted algorithm frames
        self.wire_bytes = 0
        #: measured overhead: HELLO/RESULT/SHUTDOWN + driver-relay self-copies
        self.control_bytes = 0
        #: measured wall-clock, summed over closed rounds
        self.measured_wall_seconds = 0.0
        #: per-round (wire bytes, wall seconds) in round order
        self.round_measurements: List[Tuple[int, float]] = []
        self._round_wire_bytes = 0

        self._links: Dict[int, _PeerLink] = {}
        self._processes: Dict[int, object] = {}
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Bind the handshake socket, launch the workers and handshake.

        Raises :class:`RealNetworkError` when a worker does not complete
        the HELLO handshake: at once when its process exits first or its
        share write fails, otherwise after ``connect_timeout`` (the error
        names the missing peers and the reason).
        """
        if self._started:
            return
        if self._closed:
            raise RealNetworkError("this RealNetwork was already closed")
        try:
            with socket.create_server(
                (self.host, 0), backlog=max(len(self.peers), 8)
            ) as listener:
                self.port = listener.getsockname()[1]
                for peer in self.peers:
                    process = self._worker_factory(self._make_spec(peer))
                    process.start()
                    self._processes[peer.peer_id] = process
                # encoded while the workers boot, so each share is ready
                # when its HELLO arrives
                shares = {
                    peer.peer_id: encode_frame(
                        FrameKind.SHARE, encode_share(peer.transactions)
                    )
                    for peer in self.peers
                }
                self._handshake(listener, shares)
        except BaseException:
            self.close()
            raise
        self._started = True

    def close(self) -> None:
        """Shut the network down (idempotent, best-effort, never hangs).

        Sends ``SHUTDOWN`` to every connected worker, closes the sockets
        and waits for the processes (escalating to ``terminate()`` then
        ``kill()``).
        """
        if self._closed:
            return
        self._closed = True
        frame = encode_frame(FrameKind.SHUTDOWN, b"")
        for link in self._links.values():
            with contextlib.suppress(OSError):
                link.sock.settimeout(5.0)
                link.sock.sendall(frame)
                self.control_bytes += len(frame)
            link.sock.close()
        for process in self._processes.values():
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
                process.join(timeout=1.0)

    def _make_spec(self, peer: Peer) -> PeerWorkerSpec:
        """Build the worker spec for *peer* (its share follows its HELLO)."""
        return PeerWorkerSpec(
            peer_id=peer.peer_id,
            host=self.host,
            port=self.port,
            config=self.phase_config,
            connect_timeout=self.connect_timeout,
        )

    def _handshake(self, listener: socket.socket, shares: Dict[int, bytes]) -> None:
        """Accept every worker's ``HELLO`` and answer it with its ``SHARE``
        frame from *shares*.

        The workers' exits are read before each accept: a worker that
        connected before it exited has its connection queued already, so
        an empty accept means the exited ones never will.
        """
        deadline = time.monotonic() + self.connect_timeout
        listener.settimeout(_POLL_S)
        while len(self._links) < len(self.peers):
            exited = sorted(
                peer_id
                for peer_id, process in self._processes.items()
                if peer_id not in self._links and not process.is_alive()
            )
            try:
                connection, _ = listener.accept()
            except TimeoutError:
                if not exited and time.monotonic() < deadline:
                    continue
                missing = sorted(set(self.peer_ids()) - set(self._links))
                detail = (
                    f" (worker processes {exited} already exited: refused port "
                    "or startup crash; check their stderr)"
                    if exited
                    else f" within {self.connect_timeout:.1f}s (workers still "
                    "starting or stalled; raise the network timeout on slow "
                    "machines)"
                )
                raise RealNetworkError(
                    f"peers {missing} never completed the HELLO handshake{detail}"
                ) from None
            self._greet(connection, shares, deadline)

    def _greet(
        self, connection: socket.socket, shares: Dict[int, bytes], deadline: float
    ) -> None:
        """Read one worker's ``HELLO`` and write its ``SHARE`` frame from
        *shares* by *deadline*.

        A connection that fails before it names a known peer is dropped; a
        share write that fails or stalls ends the handshake at once.
        """
        connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        connection.settimeout(max(deadline - time.monotonic(), _POLL_S))
        try:
            kind, payload = read_frame(connection)
            if kind is not FrameKind.HELLO:
                raise CodecError(f"expected a HELLO frame, got {kind.name}")
            peer_id = decode_hello(payload)
            if peer_id not in self._processes or peer_id in self._links:
                raise CodecError(f"unexpected or duplicate HELLO from peer {peer_id}")
        except (OSError, EOFError, CodecError):
            connection.close()
            return
        self.control_bytes += HEADER_SIZE + len(payload) + TRAILER_SIZE
        self._links[peer_id] = _PeerLink(peer_id, connection)
        share = shares[peer_id]
        try:
            connection.sendall(share)
        except OSError as error:
            raise RealNetworkError(
                f"peer {peer_id} never completed the HELLO handshake: its share "
                f"write failed ({error}; worker process died or stalled?)"
            ) from error
        self.control_bytes += len(share)

    # ------------------------------------------------------------------ #
    # Rounds: measured wall clock and wire bytes
    # ------------------------------------------------------------------ #
    def begin_round(self) -> int:
        """Open a new collaborative round and start measuring it."""
        self._round_wire_bytes = 0
        self._round_started_at = time.perf_counter()
        return super().begin_round()

    def end_round(self) -> float:
        """Close the round; returns its *predicted* (cost-model) duration.

        The measured wall-clock and wire bytes of the round are appended to
        :attr:`round_measurements`.
        """
        duration = super().end_round()
        wall = time.perf_counter() - self._round_started_at
        self.measured_wall_seconds += wall
        self.round_measurements.append((self._round_wire_bytes, wall))
        return duration

    # ------------------------------------------------------------------ #
    # Messaging: the wire
    # ------------------------------------------------------------------ #
    def _transmit(self, message: Message) -> None:
        """Write an accounted *message* to its recipient's worker."""
        size = self._write(message)
        self.wire_bytes += size
        self._round_wire_bytes += size

    def broadcast(self, sender: int, kind: MessageKind, payload) -> int:
        """Send the same payload from *sender* to every other peer.

        Returns the number of accounted messages (``m - 1``), exactly as
        the simulated network.  For ``GLOBAL_REPRESENTATIVES`` broadcasts a
        *self-copy* additionally travels to the sender's own worker: in a
        real deployment the responsible node already holds those
        representatives locally, but with the algorithm state living in the
        driver the bytes must still reach the worker process -- they are
        accounted as ``control_bytes``, not network traffic, keeping the
        :class:`NetworkStats` identical to a simulated run.
        """
        count = super().broadcast(sender, kind, payload)
        if kind is MessageKind.GLOBAL_REPRESENTATIVES:
            message = Message(
                sender=sender, recipient=sender, kind=kind, payload=payload
            )
            message.round_index = max(self._round_index, 0)
            self.control_bytes += self._write(message)
        return count

    def _write(self, message: Message) -> int:
        """Encode *message* and write it to its recipient's worker under
        ``round_timeout``; returns the frame's size in bytes."""
        link = self._links.get(message.recipient)
        if link is None:
            raise RealNetworkError(
                f"peer {message.recipient} is not connected (transport not started?)"
            )
        if link.failure is not None:
            raise RealNetworkError(link.failure)
        frame = encode_frame(FrameKind.MESSAGE, encode_message(message))
        try:
            link.sock.settimeout(self.round_timeout)
            link.sock.sendall(frame)
        except OSError as error:
            link.failure = (
                f"peer {link.peer_id} connection broke while sending: {error}"
            )
            raise RealNetworkError(link.failure) from error
        return len(frame)

    # ------------------------------------------------------------------ #
    # Local phases
    # ------------------------------------------------------------------ #
    def run_local_phases(self, inputs, runner=None):
        """Collect this round's local-phase results from the workers.

        The *runner* argument of the simulated network's signature is
        accepted and ignored -- the phases already run inside the worker
        processes, fed by the ``GLOBAL_REPRESENTATIVES`` frames
        broadcast earlier in the round.  Each peer's ``RESULT`` is read in
        turn, in the input order, under one round deadline; the decoded
        :class:`~repro.network.message.LocalPhaseOutput` objects are
        returned in that order and their compute time is recorded into
        the round statistics (matching the simulated path).  Raises
        :class:`RealNetworkError` on worker death, remote failure or a
        round-timeout expiry.
        """
        if not self._started:
            raise RealNetworkError("run_local_phases() before start()")
        round_index = max(self._round_index, 0)
        deadline = time.monotonic() + self.round_timeout
        outputs = [
            self._read_result(self._links[phase_input.peer_id], round_index, deadline)
            for phase_input in inputs
        ]
        for output in outputs:
            self.stats.record_compute(output.peer_id, output.compute_seconds)
        return outputs

    def _read_result(
        self, link: _PeerLink, round_index: int, deadline: float
    ) -> LocalPhaseOutput:
        """Read *link*'s frames until its round-*round_index* ``RESULT``.

        Worker-to-driver frames are transport overhead of the star
        topology, not algorithm traffic: they count as ``control_bytes``.
        """
        while link.failure is None:
            try:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError
                link.sock.settimeout(remaining)
                kind, payload = read_frame(link.sock)
                self.control_bytes += HEADER_SIZE + len(payload) + TRAILER_SIZE
                if kind is FrameKind.RESULT:
                    result_round, output = decode_result(payload)
                    if result_round == round_index:
                        return output
                    # else: a stale result from an aborted round
                elif kind is FrameKind.ERROR:
                    _, text = decode_error(payload)
                    link.failure = f"peer {link.peer_id} failed remotely:\n{text}"
            except TimeoutError:
                link.failure = (
                    f"peer {link.peer_id} did not deliver its round-{round_index} "
                    f"local-phase result within {self.round_timeout:.1f}s "
                    "(stalled connection or dead worker); raise "
                    "ClusteringConfig.network_timeout if the phase is "
                    "legitimately slow"
                )
            except (EOFError, OSError):
                link.failure = (
                    f"peer {link.peer_id} connection closed unexpectedly "
                    "(worker process died?)"
                )
            except CodecError as error:
                link.failure = f"peer {link.peer_id} protocol failure: {error}"
        raise RealNetworkError(link.failure)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, float]:
        """Return the simulated-network aggregates plus the measured lane.

        The cost-model keys (``simulated_seconds``,
        ``communication_seconds`` and the :class:`NetworkStats` aggregates)
        are the simulated transport's -- they are the *predictions* --
        while ``wire_bytes`` / ``control_bytes`` /
        ``measured_wall_seconds`` report what actually crossed the wire.
        """
        summary = super().summary()
        summary["wire_bytes"] = float(self.wire_bytes)
        summary["control_bytes"] = float(self.control_bytes)
        summary["measured_wall_seconds"] = self.measured_wall_seconds
        return summary
