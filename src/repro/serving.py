"""Serving layer: the stdin line protocol and the async HTTP server.

- :func:`serve_stdin` answers one XML file path per input line with one
  JSON verdict per output line (batch / pipe use) from one warm
  :class:`~repro.core.model_store.ClusterModel`.
- :class:`AsyncModelServer` is the one HTTP server: an
  :func:`asyncio.start_server` loop with a :class:`ModelRouter` resolving
  model names either through the durable registry (:mod:`repro.store`)
  or through static name -> directory routes (``serve --model DIR
  --port N`` is one static route).  It routes
  ``POST /models/<name>/classify`` (and ``POST /classify`` when one model
  is routed), serves per-model counters at ``GET /models/<name>/stats``,
  hot-reloads fingerprint-changed publishes with zero dropped in-flight
  requests, and drains gracefully on SIGTERM.  Every route's model is
  loaded in the server process and classify runs inline on the event
  loop.

Every classify response reports the latency of its own call, so a load
generator (``benchmarks/bench_serving.py``) can build latency histograms
without instrumenting the server.  The operations guide (lifecycle,
routing API, failure semantics) is ``docs/SERVING.md``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, TextIO, Tuple

from repro.core.model_store import ClusterModel, load_model
from repro.xmlmodel.errors import XMLError

#: Upper bound on accepted XML request bodies (16 MiB) -- a guard against
#: unbounded reads, not a tuning knob.
MAX_REQUEST_BYTES = 16 * 1024 * 1024

#: Longest accepted request line or header line (bytes): the stream
#: limit the server listens with.  A longer line answers 400.
MAX_LINE_BYTES = 64 * 1024

#: Most header lines one request may carry; one more answers 400.
MAX_HEADER_LINES = 100

#: Default per-connection read timeout (seconds): a client that connects
#: and then stalls is disconnected after this bound instead of holding a
#: connection slot forever.
DEFAULT_REQUEST_TIMEOUT = 30.0

#: How long a graceful drain waits for in-flight requests (seconds).
DEFAULT_DRAIN_TIMEOUT = 30.0

#: Per-model ring-buffer size for the /stats latency percentiles.
LATENCY_WINDOW = 1024


def _json_bytes(payload: dict) -> bytes:
    """Encode a response payload as UTF-8 JSON."""
    return (json.dumps(payload) + "\n").encode("utf-8")


def classify_payload(model: ClusterModel, xml_text: str, doc_id: Optional[str] = None) -> dict:
    """Classify *xml_text* and return the JSON-safe response payload.

    The payload is the :meth:`ClassifyResult.to_dict` encoding plus the
    latency of this call in milliseconds.
    """
    start = time.perf_counter()
    result = model.classify(xml_text, doc_id=doc_id)
    payload = result.to_dict()
    payload["latency_ms"] = (time.perf_counter() - start) * 1000.0
    return payload


# --------------------------------------------------------------------------- #
# The stdin line protocol
# --------------------------------------------------------------------------- #
def serve_stdin(
    model: ClusterModel,
    input_stream: TextIO,
    output_stream: TextIO,
) -> int:
    """Serve the line protocol: one XML file path in, one JSON verdict out.

    Blank lines are skipped; per-line errors (unreadable file, malformed
    XML) become JSON ``error`` lines so one bad document cannot kill a
    pipe.  Returns the number of lines answered.
    """
    answered = 0
    for line in input_stream:
        path = line.strip()
        if not path:
            continue
        try:
            start = time.perf_counter()
            result = model.classify_file(path)
            payload = result.to_dict()
            payload["latency_ms"] = (time.perf_counter() - start) * 1000.0
            payload["file"] = path
        except (OSError, XMLError) as error:
            payload = {"file": path, "error": str(error)}
        output_stream.write(json.dumps(payload) + "\n")
        output_stream.flush()
        answered += 1
    return answered


# --------------------------------------------------------------------------- #
# The model router
# --------------------------------------------------------------------------- #
@dataclass
class RouteTarget:
    """Where one model name currently points (directory + identity)."""

    name: str
    directory: str
    fingerprint: str
    version: Optional[int] = None


class ModelRouter:
    """Resolves model names to :class:`RouteTarget` entries.

    Two sources, same interface:

    - **registry mode** (``registry`` given): the routing table is the
      registry's active versions, optionally restricted to *names*; a
      :meth:`refresh` re-reads the registry, which is how a ``cxk models
      publish`` becomes visible to a running server (fingerprints come
      from the catalog -- no model directory is touched to detect a
      swap);
    - **static mode** (``model_dirs`` given): fixed name -> directory
      pairs for registry-less serving; :meth:`refresh` re-fingerprints
      the directories, so an in-place re-save is still detected.
    """

    def __init__(
        self,
        registry=None,
        names: Optional[List[str]] = None,
        model_dirs: Optional[Dict[str, str]] = None,
    ) -> None:
        """Build a router over a registry or a static name->dir mapping."""
        if (registry is None) == (model_dirs is None):
            raise ValueError(
                "ModelRouter needs exactly one source: a registry or "
                "a static model_dirs mapping"
            )
        self._registry = registry
        self._names = list(names) if names else None
        self._model_dirs = dict(model_dirs) if model_dirs else None

    def targets(self) -> Dict[str, RouteTarget]:
        """The current routing table, freshly resolved from the source.

        Raises :class:`~repro.store.registry.RegistryError` when a
        requested name has no active version, so a typo in ``--models``
        fails at startup instead of 404ing forever.
        """
        if self._registry is not None:
            records = self._registry.active_models()
            if self._names is not None:
                by_name = {record.name: record for record in records}
                missing = [name for name in self._names if name not in by_name]
                if missing:
                    from repro.store.registry import RegistryError

                    raise RegistryError(
                        f"no active registry version for: {', '.join(missing)}"
                    )
                records = [by_name[name] for name in self._names]
            return {
                record.name: RouteTarget(
                    name=record.name,
                    directory=record.directory,
                    fingerprint=record.fingerprint,
                    version=record.version,
                )
                for record in records
            }
        from repro.store.registry import model_fingerprint

        return {
            name: RouteTarget(
                name=name,
                directory=str(directory),
                fingerprint=model_fingerprint(directory),
            )
            for name, directory in self._model_dirs.items()
        }


# --------------------------------------------------------------------------- #
# The async multi-model server
# --------------------------------------------------------------------------- #
def _percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending-sorted non-empty list."""
    index = min(
        len(sorted_values) - 1, max(0, round(fraction * (len(sorted_values) - 1)))
    )
    return sorted_values[index]


@dataclass
class _RouteState:
    """One routed model: its current target, loaded model and counters."""

    target: RouteTarget
    model: ClusterModel
    requests: int = 0
    errors: int = 0
    reloads: int = 0
    latencies_ms: Deque[float] = field(
        default_factory=lambda: deque(maxlen=LATENCY_WINDOW)
    )

    def stats(self) -> Dict[str, object]:
        """JSON-safe per-model counters (the ``/models/<name>/stats`` body)."""
        ordered = sorted(self.latencies_ms)
        return {
            "model": self.target.name,
            "version": self.target.version,
            "fingerprint": self.target.fingerprint,
            "directory": self.target.directory,
            "requests": self.requests,
            "errors": self.errors,
            "reloads": self.reloads,
            "latency_ms_p50": _percentile(ordered, 0.50) if ordered else None,
            "latency_ms_p99": _percentile(ordered, 0.99) if ordered else None,
        }


class AsyncModelServer:
    """Asyncio HTTP server routing classify traffic to published models.

    Routes (all responses JSON):

    - ``POST /models/<name>/classify`` -- body is an XML document; the
      verdict of the named model.  ``POST /classify`` works when exactly
      one model is routed.
    - ``GET /models/<name>/stats`` -- per-model counters: requests,
      errors, reload count, p50/p99 latency over the last
      :data:`LATENCY_WINDOW` calls, routed version and fingerprint.
    - ``GET /models`` -- the routing table; ``GET /healthz`` -- overall
      status (``ok`` | ``draining``) and per-model summary.
    - ``POST /reload`` -- re-resolve the router and swap every route
      whose fingerprint changed; the response names swapped / added /
      removed models, and the routes whose new model failed to load
      (``failed``: name -> error; such a route keeps its old model).
      With *poll_interval* the same check also runs on a timer, so a
      registry publish hot-reloads without any call.

    Concurrency model: every route's model is loaded in the server
    process; request parsing, bookkeeping and the CPU-bound classify all
    run on the event loop, so classify calls serialise.  Hot reload swaps
    a route atomically between requests, so **zero requests are dropped**
    by a publish.  SIGTERM / SIGINT trigger a graceful drain: stop
    accepting, finish in-flight work (bounded by *drain_timeout*), then
    close the models.
    """

    def __init__(
        self,
        router: ModelRouter,
        host: str = "127.0.0.1",
        port: int = 8000,
        *,
        backend: Optional[str] = None,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
        poll_interval: Optional[float] = None,
        max_requests: Optional[int] = None,
    ) -> None:
        """Configure the server (no sockets are opened until :meth:`run`)."""
        self.router = router
        self.host = host
        self.port = port
        self.backend = backend
        self.request_timeout = request_timeout
        self.drain_timeout = drain_timeout
        self.poll_interval = poll_interval
        self.max_requests = max_requests
        self.routes: Dict[str, _RouteState] = {}
        self.started = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._inflight = 0
        self._handled = 0
        self._draining = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def _build_routes(self) -> None:
        """Resolve the initial routing table and load every model."""
        for name, target in self.router.targets().items():
            self.routes[name] = self._make_route(target)

    def _make_route(self, target: RouteTarget) -> _RouteState:
        """Materialise one route: load its model in this process."""
        return _RouteState(
            target=target, model=load_model(target.directory, backend=self.backend)
        )

    def reload_routes(self) -> Dict[str, object]:
        """Re-resolve the router; swap fingerprint-changed routes.

        Returns ``{"swapped": [...], "added": [...], "removed": [...],
        "failed": {name: error}}``.  The swap replaces the route entry
        atomically (a dict assignment on the event loop); requests already
        dispatched keep their old model, so none are dropped.  A model
        that fails to load leaves its route as it was (an added route
        stays absent) and lands in ``failed``; the other routes still
        swap, and the next refresh retries it.
        """
        fresh = self.router.targets()
        swapped: List[str] = []
        added: List[str] = []
        removed: List[str] = []
        failed: Dict[str, str] = {}
        for name, target in fresh.items():
            current = self.routes.get(name)
            if current is not None and current.target.fingerprint == target.fingerprint:
                continue
            try:
                replacement = self._make_route(target)
            except Exception as error:  # noqa: BLE001 - reported per route
                failed[name] = f"{type(error).__name__}: {error}"
                continue
            self.routes[name] = replacement
            if current is None:
                added.append(name)
                continue
            # carry the cumulative counters across the swap; /stats
            # reports the live version next to them
            replacement.requests = current.requests
            replacement.errors = current.errors
            replacement.latencies_ms = current.latencies_ms
            replacement.reloads = current.reloads + 1
            current.model.close()
            swapped.append(name)
        for name in list(self.routes):
            if name not in fresh:
                self.routes.pop(name).model.close()
                removed.append(name)
        return {"swapped": swapped, "added": added, "removed": removed, "failed": failed}

    def request_shutdown(self) -> None:
        """Begin a graceful drain (idempotent; callable from the loop)."""
        self._draining = True
        if self._shutdown is not None:
            self._shutdown.set()

    def shutdown_threadsafe(self) -> None:
        """Begin a graceful drain from any thread (tests, embedding code).

        A no-op when the event loop has already finished -- callers can
        always invoke it unconditionally on their way out.
        """
        loop = self._loop
        if loop is not None:
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(self.request_shutdown)

    async def run(self, install_signal_handlers: bool = True) -> None:
        """Serve until :meth:`request_shutdown` (or SIGTERM/SIGINT), then drain.

        The graceful-drain contract: after the shutdown signal the
        listening socket closes (new connections are refused and kept-
        alive connections get ``503``), every in-flight request still
        completes (bounded by *drain_timeout*), and only then are the
        models closed.
        """
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        if install_signal_handlers:
            # not available off the main thread (tests embed the server
            # in a background thread and use shutdown_threadsafe instead)
            with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
                for signum in (signal.SIGTERM, signal.SIGINT):
                    self._loop.add_signal_handler(signum, self.request_shutdown)
        self._build_routes()
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.started.set()
        poller = (
            asyncio.ensure_future(self._poll_registry())
            if self.poll_interval
            else None
        )
        try:
            await self._shutdown.wait()
        finally:
            if poller is not None:
                poller.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await poller
            self._server.close()
            await self._server.wait_closed()
            deadline = time.monotonic() + self.drain_timeout
            while self._inflight > 0 and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
            for state in self.routes.values():
                state.model.close()
            self.routes.clear()

    async def _poll_registry(self) -> None:
        """Timer task: hot-reload fingerprint changes every *poll_interval*."""
        while True:
            await asyncio.sleep(self.poll_interval)
            try:
                self.reload_routes()
            except Exception:  # noqa: BLE001 - keep serving on registry blips
                # a transient registry error (locked file, mid-publish
                # state) must not kill the server; the next tick retries
                continue

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _read_line(self, reader: asyncio.StreamReader, what: str) -> bytes:
        """Read one request or header line, bounded by *request_timeout*.

        A line over :data:`MAX_LINE_BYTES` (the stream limit, which asyncio
        reports as a ``ValueError``) is a bad request, not a crash.
        """
        try:
            return await asyncio.wait_for(
                reader.readline(), timeout=self.request_timeout
            )
        except ValueError as error:
            raise _BadRequest(
                f"{what} longer than {MAX_LINE_BYTES} bytes"
            ) from error

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        """Parse one HTTP/1.1 request; ``None`` on a cleanly closed socket.

        Every read is bounded by *request_timeout*, which is what keeps a
        stalled client from pinning a connection slot; lines, header count
        and body size are bounded by :data:`MAX_LINE_BYTES`,
        :data:`MAX_HEADER_LINES` and :data:`MAX_REQUEST_BYTES`.
        """
        line = await self._read_line(reader, "request line")
        if not line:
            return None
        try:
            method, path, _version = line.decode("ascii").split()
        except ValueError as error:
            raise _BadRequest(f"malformed request line: {line!r}") from error
        headers: Dict[str, str] = {}
        for _ in range(MAX_HEADER_LINES + 1):
            line = await self._read_line(reader, "header line")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _BadRequest(f"more than {MAX_HEADER_LINES} header lines")
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError as error:
            raise _BadRequest("invalid Content-Length") from error
        if length < 0:
            raise _BadRequest(f"negative Content-Length {length}")
        if length > MAX_REQUEST_BYTES:
            raise _BadRequest(
                f"request body of {length} bytes exceeds {MAX_REQUEST_BYTES}"
            )
        body = b""
        if length:
            body = await asyncio.wait_for(
                reader.readexactly(length), timeout=self.request_timeout
            )
        return method, path, headers, body

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve keep-alive requests on one connection until close/drain."""
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except (asyncio.TimeoutError, TimeoutError, asyncio.IncompleteReadError,
                        ConnectionError):
                    break
                except _BadRequest as error:
                    await self._respond(writer, 400, {"error": str(error)}, close=True)
                    break
                if request is None:
                    break
                if self._draining:
                    await self._respond(
                        writer, 503, {"error": "draining"}, close=True
                    )
                    break
                method, path, _headers, body = request
                self._inflight += 1
                try:
                    status, payload = await self._handle(method, path, body)
                finally:
                    self._inflight -= 1
                self._handled += 1
                if (
                    self.max_requests is not None
                    and self._handled >= self.max_requests
                ):
                    self.request_shutdown()
                await self._respond(writer, status, payload)
        except ConnectionError:  # pragma: no cover - client went away
            pass
        except asyncio.CancelledError:
            # loop teardown cancelled an idle keep-alive connection; exit
            # normally so the stream protocol's done-callback stays quiet
            pass
        finally:
            with contextlib.suppress(ConnectionError, asyncio.CancelledError):
                writer.close()
                await writer.wait_closed()

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        close: bool = False,
    ) -> None:
        """Write one JSON response (keep-alive unless *close*)."""
        reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
                   500: "Internal Server Error", 503: "Service Unavailable"}
        body = _json_bytes(payload)
        head = (
            f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n\r\n"
        )
        writer.write(head.encode("ascii") + body)
        await writer.drain()

    # ------------------------------------------------------------------ #
    # Request dispatch
    # ------------------------------------------------------------------ #
    async def _handle(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, dict]:
        """Route one parsed request to its handler."""
        parts = [part for part in path.split("/") if part]
        if method == "GET" and path in ("/", "/healthz"):
            return 200, self._health()
        if method == "GET" and path == "/models":
            return 200, {
                "models": [state.stats() for state in self.routes.values()]
            }
        if method == "POST" and path == "/reload":
            try:
                return 200, {"reloaded": self.reload_routes()}
            except Exception as error:  # noqa: BLE001 - a 500, not a drop
                # the routing table itself could not be resolved (registry
                # unreadable, static directory unfingerprintable)
                return 500, {"error": f"{type(error).__name__}: {error}"}
        if method == "POST" and path == "/classify" and len(self.routes) == 1:
            (state,) = self.routes.values()
            return await self._classify(state, body)
        if len(parts) == 3 and parts[0] == "models":
            state = self.routes.get(parts[1])
            if state is None:
                return 404, {
                    "error": f"no routed model named {parts[1]!r}",
                    "models": sorted(self.routes),
                }
            if method == "POST" and parts[2] == "classify":
                return await self._classify(state, body)
            if method == "GET" and parts[2] == "stats":
                return 200, state.stats()
        return 404, {"error": f"no route for {method} {path}"}

    def _health(self) -> dict:
        """The ``/healthz`` body: overall status plus per-model summary."""
        return {
            "status": "draining" if self._draining else "ok",
            "handled": self._handled,
            "models": {
                name: {
                    "version": state.target.version,
                    "fingerprint": state.target.fingerprint,
                    "requests": state.requests,
                    "errors": state.errors,
                }
                for name, state in self.routes.items()
            },
        }

    async def _classify(self, state: _RouteState, body: bytes) -> Tuple[int, dict]:
        """Classify *body* on *state*'s model."""
        try:
            text = body.decode("utf-8")
        except UnicodeDecodeError as error:
            state.errors += 1
            return 400, {"error": str(error)}
        try:
            payload = classify_payload(state.model, text)
        except (XMLError, ValueError) as error:
            state.errors += 1
            return 400, {"error": str(error)}
        except Exception as error:  # noqa: BLE001 - a 500, not a crash
            state.errors += 1
            return 500, {"error": f"{type(error).__name__}: {error}"}
        state.requests += 1
        state.latencies_ms.append(float(payload.get("latency_ms", 0.0)))
        payload["model"] = state.target.name
        payload["version"] = state.target.version
        return 200, payload


class _BadRequest(Exception):
    """An unparseable request (answered 400, connection closed)."""


def serve_async(
    *,
    registry_path: Optional[str] = None,
    model_names: Optional[List[str]] = None,
    model_dirs: Optional[Dict[str, str]] = None,
    host: str = "127.0.0.1",
    port: int = 8000,
    backend: Optional[str] = None,
    poll_interval: Optional[float] = None,
    max_requests: Optional[int] = None,
    request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
) -> None:
    """Run an :class:`AsyncModelServer` until it drains (CLI entry point).

    Exactly one of *registry_path* (route the registry's active models,
    optionally restricted to *model_names*) and *model_dirs* (static
    name -> directory routes) must be given; the rest mirrors the
    :class:`AsyncModelServer` constructor.
    """
    registry = None
    if registry_path is not None:
        from repro.store.registry import open_registry

        registry = open_registry(registry_path)
    router = ModelRouter(
        registry=registry, names=model_names, model_dirs=model_dirs
    )
    server = AsyncModelServer(
        router,
        host=host,
        port=port,
        backend=backend,
        poll_interval=poll_interval,
        max_requests=max_requests,
        request_timeout=request_timeout,
    )
    asyncio.run(server.run())
