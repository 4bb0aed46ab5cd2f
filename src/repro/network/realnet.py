"""A real localhost TCP transport running CXK-means peers as processes.

Where :mod:`repro.network.simnet` *simulates* the collaborative rounds
sequentially and prices their traffic through the cost model, this module
stands up a genuinely concurrent runtime: every peer is a separate
``multiprocessing`` process speaking the length-prefixed binary wire format
of :mod:`repro.network.codec` over a localhost TCP connection, and the
per-peer local phases of CXK-means really do run in parallel.

Topology -- physical star, logical mesh
---------------------------------------
The driving process (the algorithm's ``N0``) binds a listening socket and
runs an asyncio event loop on a background thread; each worker process
connects to it and identifies itself with a ``HELLO`` frame, which the
driver answers with the peer's data share ``S_i`` as a ``SHARE`` frame.
The worker decodes it and builds the one
:class:`~repro.similarity.transaction.SimilarityEngine` it runs every
local phase on.  A spawn spec therefore carries only addresses and the
configuration, so ``Process.start()`` returns at once and the workers
start up side by side.  Algorithm messages keep their peer-to-peer
``sender``/``recipient`` semantics, but physically every frame is relayed
through the driver -- the classic coordinator star.  The driver also keeps
the algorithm state (flags, convergence, the global merge), which is what
guarantees *bit-exact parity* with the simulated network: the two
transports execute the identical control flow and differ only in where
the local phases run.

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
Every blocking interaction has a deadline: peers that never complete the
handshake (refused port, startup crash, a failed or stalled share write),
die mid-round (EOF) or stall past the round timeout surface as
:class:`RealNetworkError` with an actionable message -- the driver never
hangs.  :meth:`RealNetwork.close` is idempotent and best-effort: it sends
``SHUTDOWN`` frames, joins the worker processes and escalates to
``terminate()``/``kill()`` for the unresponsive ones.
"""

from __future__ import annotations

import asyncio
import contextlib
import multiprocessing
import socket
import threading
import time
import traceback
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.network.codec import (
    CodecError,
    FrameKind,
    HEADER_SIZE,
    TRAILER_SIZE,
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
)
from repro.network.costmodel import CostModel
from repro.network.message import LocalPhaseOutput, Message, MessageKind
from repro.network.peer import Peer
from repro.network.simnet import SimulatedNetwork
from repro.similarity.cache import TagPathSimilarityCache
from repro.similarity.transaction import SimilarityEngine
from repro.transactions.transaction import Transaction

#: Default deadline for the worker handshake (socket connect, HELLO, share).
DEFAULT_CONNECT_TIMEOUT = 30.0
#: Default deadline for one collaborative round's local-phase results.
DEFAULT_ROUND_TIMEOUT = 120.0


class RealNetworkError(RuntimeError):
    """A failure of the real transport (handshake, round or shutdown)."""


# --------------------------------------------------------------------------- #
# Frame I/O over asyncio streams
# --------------------------------------------------------------------------- #
async def read_frame(reader: asyncio.StreamReader) -> Tuple[FrameKind, bytes]:
    """Read one complete frame from *reader*; returns ``(kind, payload)``.

    Raises :class:`asyncio.IncompleteReadError` when the stream ends
    mid-frame (connection closed) and :class:`~repro.network.codec.CodecError`
    on malformed headers or corrupted payloads.
    """
    header_bytes = await reader.readexactly(HEADER_SIZE)
    header = parse_frame_header(header_bytes)
    body = await reader.readexactly(header.payload_length + TRAILER_SIZE)
    payload = body[: header.payload_length]
    check_frame_payload(header_bytes, payload, body[header.payload_length :])
    return header.kind, payload


async def write_frame(
    writer: asyncio.StreamWriter, kind: FrameKind, payload: bytes
) -> int:
    """Encode and send one frame; returns the frame's size in bytes."""
    frame = encode_frame(kind, payload)
    writer.write(frame)
    await writer.drain()
    return len(frame)


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


def default_worker_factory(spec: PeerWorkerSpec) -> multiprocessing.Process:
    """Create the standard worker process for *spec* (not yet started).

    Workers use the ``spawn`` start method (safe to launch while the driver
    thread runs) and are **non-daemonic**.
    """
    context = multiprocessing.get_context("spawn")
    return context.Process(
        target=_peer_worker_main,
        args=(spec,),
        name=f"realnet-peer-{spec.peer_id}",
        daemon=False,
    )


async def _peer_worker(spec: PeerWorkerSpec) -> None:
    """Asyncio body of a peer worker process.

    Connects to the driver, handshakes, receives its share (the ``SHARE``
    frame answering its ``HELLO``) and builds its one engine, then serves
    rounds until a ``SHUTDOWN`` frame (or EOF -- a vanished driver)
    arrives: it accumulates the ``GLOBAL_REPRESENTATIVES`` messages of the
    current round and, once all ``k`` clusters are covered, runs the local
    phase and answers with a ``RESULT`` frame.  ``FLAG`` and
    ``LOCAL_REPRESENTATIVES`` frames are received for wire fidelity; the
    driver-resident algorithm state consumes their content.
    """
    # imported lazily: the core layer sits above the network layer, and the
    # import must happen inside the worker process anyway
    from repro.core.cxkmeans import LocalPhaseInput, run_local_phase

    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(spec.host, spec.port), spec.connect_timeout
    )
    try:
        await write_frame(writer, FrameKind.HELLO, encode_hello(spec.peer_id))
        kind, payload = await read_frame(reader)
        if kind is not FrameKind.SHARE:
            raise CodecError(f"expected a SHARE frame after HELLO, got {kind.name}")
        transactions = decode_share(payload)
        engine = SimilarityEngine(
            spec.config.similarity,
            cache=TagPathSimilarityCache(),
            backend=spec.config.backend,
        )
        k: Optional[int] = None
        pending: Dict[int, Dict[int, Transaction]] = {}
        while True:
            try:
                kind, payload = await read_frame(reader)
            except (asyncio.IncompleteReadError, ConnectionResetError):
                return  # driver went away; nothing left to serve
            if kind is FrameKind.SHUTDOWN:
                return
            if kind is not FrameKind.MESSAGE:
                continue
            message = decode_message(payload)
            if message.kind is MessageKind.SETUP:
                k = int(message.payload["k"])
            elif message.kind is MessageKind.GLOBAL_REPRESENTATIVES:
                bucket = pending.setdefault(message.round_index, {})
                for cluster_id, transaction, _weight in message.payload or []:
                    bucket[cluster_id] = transaction
                if k is None or len(bucket) < k:
                    continue
                del pending[message.round_index]
                try:
                    output = run_local_phase(
                        LocalPhaseInput(
                            peer_id=spec.peer_id,
                            transactions=transactions,
                            global_representatives=[bucket[j] for j in range(k)],
                        ),
                        engine,
                    )
                except Exception:
                    await write_frame(
                        writer,
                        FrameKind.ERROR,
                        encode_error(spec.peer_id, traceback.format_exc()),
                    )
                    raise
                await write_frame(
                    writer, FrameKind.RESULT, encode_result(message.round_index, output)
                )
    finally:
        writer.close()
        with contextlib.suppress(Exception):
            await writer.wait_closed()


def _peer_worker_main(spec: PeerWorkerSpec) -> None:
    """Process entry point of a peer worker (see :func:`_peer_worker`)."""
    try:
        asyncio.run(_peer_worker(spec))
    except Exception:  # surfaced driver-side as EOF / ERROR frame
        traceback.print_exc()
        raise SystemExit(1)


# --------------------------------------------------------------------------- #
# Driver-side connection state
# --------------------------------------------------------------------------- #
class _PeerLink:
    """Driver-side state of one worker connection."""

    __slots__ = ("peer_id", "writer", "connected", "results", "failure")

    def __init__(self, peer_id: int) -> None:
        self.peer_id = peer_id
        self.writer: Optional[asyncio.StreamWriter] = None
        self.connected = asyncio.Event()
        #: Queue of ("result", (round index, LocalPhaseOutput)) /
        #: ("error", text) / ("closed", text)
        self.results: asyncio.Queue = asyncio.Queue()
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
        ``spec -> multiprocessing.Process`` hook; tests inject faulty
        transports here (see ``FaultyTransport`` in ``tests/test_realnet.py``).
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
        self._worker_factory = worker_factory or default_worker_factory

        #: measured traffic: encoded bytes of the accounted algorithm frames
        self.wire_bytes = 0
        #: measured overhead: HELLO/RESULT/SHUTDOWN + driver-relay self-copies
        self.control_bytes = 0
        #: measured wall-clock, summed over closed rounds
        self.measured_wall_seconds = 0.0
        #: per-round (wire bytes, wall seconds) in round order
        self.round_measurements: List[Tuple[int, float]] = []
        self._round_wire_bytes = 0

        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._links: Dict[int, _PeerLink] = {}
        self._processes: Dict[int, multiprocessing.Process] = {}
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Bind the server, launch the worker processes and handshake.

        Raises :class:`RealNetworkError` when any worker fails to complete
        the HELLO handshake within ``connect_timeout`` (the error names the
        missing peers and whether their processes already exited).
        """
        if self._started:
            return
        if self._closed:
            raise RealNetworkError("this RealNetwork was already closed")
        server_socket = socket.create_server(
            (self.host, 0), backlog=max(len(self.peers), 8)
        )
        self.port = server_socket.getsockname()[1]

        loop_ready = threading.Event()
        self._loop = asyncio.new_event_loop()

        def _run_loop() -> None:
            asyncio.set_event_loop(self._loop)
            self._loop.call_soon(loop_ready.set)
            self._loop.run_forever()

        self._thread = threading.Thread(
            target=_run_loop, name="realnet-driver", daemon=True
        )
        self._thread.start()
        loop_ready.wait(timeout=10.0)

        self._call(self._bootstrap(server_socket), timeout=10.0)
        for peer in self.peers:
            process = self._worker_factory(self._make_spec(peer))
            self._processes[peer.peer_id] = process
            process.start()
        try:
            self._call(
                self._await_connections(), timeout=self.connect_timeout + 10.0
            )
        except Exception:
            self.close()
            raise
        self._started = True

    def close(self) -> None:
        """Shut the network down (idempotent, best-effort, never hangs).

        Sends ``SHUTDOWN`` to every connected worker, joins the processes
        (escalating to ``terminate()`` then ``kill()``), and stops the
        driver loop thread.
        """
        if self._closed:
            return
        self._closed = True
        if self._loop is not None:
            with contextlib.suppress(Exception):
                self._call(self._shutdown_connections(), timeout=5.0)
        for process in self._processes.values():
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
                process.join(timeout=1.0)
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            if self._thread is not None:
                self._thread.join(timeout=5.0)
            with contextlib.suppress(Exception):
                self._loop.close()

    async def _shutdown_connections(self) -> None:
        """Orderly shutdown: stop accepting, SHUTDOWN every worker, close.

        Runs on the driver loop.  Workers answer a ``SHUTDOWN`` frame by
        exiting their serve loop, which lets ``close()`` join the processes
        promptly instead of escalating to ``terminate()``.
        """
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
        frame = encode_frame(FrameKind.SHUTDOWN, b"")
        for link in self._links.values():
            writer = link.writer
            if writer is None:
                continue
            with contextlib.suppress(Exception):
                writer.write(frame)
                await writer.drain()
                self.control_bytes += len(frame)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    def _call(self, coroutine, timeout: float):
        """Run *coroutine* on the driver loop from the caller thread."""
        future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        try:
            return future.result(timeout=timeout)
        except FutureTimeoutError:
            future.cancel()
            raise RealNetworkError(
                f"driver loop did not answer within {timeout:.1f}s"
            ) from None

    def _make_spec(self, peer: Peer) -> PeerWorkerSpec:
        """Build the worker spec for *peer* (its share follows its HELLO)."""
        return PeerWorkerSpec(
            peer_id=peer.peer_id,
            host=self.host,
            port=self.port,
            config=self.phase_config,
            connect_timeout=self.connect_timeout,
        )

    async def _bootstrap(self, server_socket: socket.socket) -> None:
        """Create the per-peer links and start serving (driver loop)."""
        for peer in self.peers:
            self._links[peer.peer_id] = _PeerLink(peer.peer_id)
        self._server = await asyncio.start_server(
            self._handle_connection, sock=server_socket
        )

    async def _await_connections(self) -> None:
        """Wait until every peer finished the HELLO handshake."""
        waits = [link.connected.wait() for link in self._links.values()]
        try:
            await asyncio.wait_for(asyncio.gather(*waits), self.connect_timeout)
        except asyncio.TimeoutError:
            missing = sorted(
                peer_id
                for peer_id, link in self._links.items()
                if not link.connected.is_set()
            )
            exited = sorted(
                peer_id
                for peer_id in missing
                if (process := self._processes.get(peer_id)) is not None
                and not process.is_alive()
            )
            detail = (
                f" (worker processes {exited} already exited: refused port or "
                "startup crash; check their stderr)"
                if exited
                else " (workers still starting or stalled; raise the network "
                "timeout on slow machines)"
            )
            raise RealNetworkError(
                f"peers {missing} never completed the HELLO handshake within "
                f"{self.connect_timeout:.1f}s{detail}"
            ) from None

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one worker connection: handshake and share, then collect
        its frames.

        The handshake completes (``link.connected``) only once the peer's
        ``SHARE`` frame is written; a share write that fails or stalls past
        ``connect_timeout`` is a broken connection.
        """
        link: Optional[_PeerLink] = None
        try:
            kind, payload = await asyncio.wait_for(
                read_frame(reader), self.connect_timeout
            )
            if kind is not FrameKind.HELLO:
                raise CodecError(f"expected a HELLO frame, got {kind.name}")
            self.control_bytes += HEADER_SIZE + len(payload) + TRAILER_SIZE
            peer_id = decode_hello(payload)
            link = self._links.get(peer_id)
            if link is None or link.writer is not None:
                raise CodecError(f"unexpected or duplicate HELLO from peer {peer_id}")
            link.writer = writer
            share = encode_frame(
                FrameKind.SHARE, encode_share(self.peer(peer_id).transactions)
            )
            writer.write(share)
            await asyncio.wait_for(writer.drain(), self.connect_timeout)
            self.control_bytes += len(share)
            link.connected.set()
            while True:
                kind, payload = await read_frame(reader)
                # worker -> driver frames are transport overhead of the star
                # topology, not algorithm traffic: account them as control
                self.control_bytes += HEADER_SIZE + len(payload) + TRAILER_SIZE
                if kind is FrameKind.RESULT:
                    await link.results.put(("result", decode_result(payload)))
                elif kind is FrameKind.ERROR:
                    _, text = decode_error(payload)
                    failure = f"peer {peer_id} failed remotely:\n{text}"
                    link.failure = failure
                    await link.results.put(("error", failure))
                # other frame kinds from a worker are ignored
        except (asyncio.IncompleteReadError, ConnectionResetError, BrokenPipeError):
            if link is not None and link.failure is None and not self._closed:
                link.failure = (
                    f"peer {link.peer_id} connection closed unexpectedly "
                    "(worker process died?)"
                )
        except (asyncio.TimeoutError, CodecError) as error:
            if link is not None and link.failure is None:
                link.failure = f"peer {link.peer_id} protocol failure: {error}"
        finally:
            if link is not None:
                await link.results.put(("closed", link.failure))
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

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
        """Encode *message* and write it to its recipient's worker
        connection (blocking); returns the frame's size in bytes."""
        link = self._links.get(message.recipient)
        if link is None:
            raise RealNetworkError(
                f"peer {message.recipient} is not connected (transport not started?)"
            )
        if link.failure is not None:
            raise RealNetworkError(link.failure)
        frame = encode_frame(FrameKind.MESSAGE, encode_message(message))
        self._call(self._write_link(link, frame), timeout=self.round_timeout)
        return len(frame)

    async def _write_link(self, link: _PeerLink, frame: bytes) -> None:
        """Driver-loop half of :meth:`_write`."""
        if link.writer is None:
            raise RealNetworkError(f"peer {link.peer_id} has no open connection")
        try:
            link.writer.write(frame)
            await link.writer.drain()
        except (ConnectionResetError, BrokenPipeError) as error:
            link.failure = (
                f"peer {link.peer_id} connection broke while sending: {error}"
            )
            raise RealNetworkError(link.failure) from error

    # ------------------------------------------------------------------ #
    # Local phases
    # ------------------------------------------------------------------ #
    def run_local_phases(self, inputs, runner=None):
        """Collect this round's local-phase results from the workers.

        The *runner* argument of the simulated network's signature is
        accepted and ignored -- the phases already run inside the worker
        processes, fed by the ``GLOBAL_REPRESENTATIVES`` frames
        broadcast earlier in the round.  The decoded
        :class:`~repro.network.message.LocalPhaseOutput` objects are
        returned in the input order and their compute time is recorded into
        the round statistics (matching the simulated path).  Raises
        :class:`RealNetworkError` on worker death, remote failure or a
        round-timeout expiry.
        """
        if not self._started:
            raise RealNetworkError("run_local_phases() before start()")
        round_index = max(self._round_index, 0)
        expected = [phase_input.peer_id for phase_input in inputs]
        outputs = self._call(
            self._collect_results(round_index, expected),
            timeout=self.round_timeout + 10.0,
        )
        for output in outputs:
            self.stats.record_compute(output.peer_id, output.compute_seconds)
        return outputs

    async def _collect_results(
        self, round_index: int, expected: Sequence[int]
    ) -> List[LocalPhaseOutput]:
        """Await one RESULT per expected peer, under the round deadline."""
        results: List[LocalPhaseOutput] = []
        deadline = self._loop.time() + self.round_timeout
        for peer_id in expected:
            link = self._links[peer_id]
            while True:
                if link.failure is not None:
                    raise RealNetworkError(link.failure)
                remaining = deadline - self._loop.time()
                if remaining <= 0:
                    raise RealNetworkError(
                        f"peer {peer_id} did not deliver its round-{round_index} "
                        f"local-phase result within {self.round_timeout:.1f}s "
                        "(stalled connection or dead worker); raise "
                        "ClusteringConfig.network_timeout if the phase is "
                        "legitimately slow"
                    )
                try:
                    tag, value = await asyncio.wait_for(
                        link.results.get(), remaining
                    )
                except asyncio.TimeoutError:
                    continue  # re-enters the deadline check above
                if tag == "result":
                    result_round, output = value
                    if result_round != round_index:
                        continue  # stale result from an aborted round
                    results.append(output)
                    break
                raise RealNetworkError(
                    value
                    or f"peer {peer_id} connection closed mid-round {round_index}"
                )
        return results

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
