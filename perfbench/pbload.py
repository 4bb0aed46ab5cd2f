"""HTTP load generation for the serve-http workload.

:func:`open_loop` sends seeded Poisson arrivals on a schedule over a few
keep-alive connections, whatever the server's pace: a request that
finds every connection busy waits in the client queue, and its latency
is timed from when it was *due*.  :func:`closed_loop` sends the next
request only after the previous reply (warm-up and correctness passes).
"""

from __future__ import annotations

import asyncio
import gc
import json
import random
import time
from typing import Dict, List, Optional, Sequence, Tuple

HOST = "127.0.0.1"


def arrival_offsets(rate: float, duration: float, seed: int) -> List[float]:
    """Seeded Poisson arrival times in ``[0, duration)`` at *rate* per second."""
    rng = random.Random(seed)
    offsets: List[float] = []
    moment = rng.expovariate(rate)
    while moment < duration:
        offsets.append(moment)
        moment += rng.expovariate(rate)
    return offsets


async def _request(reader, writer, method: str, path: str, body: bytes) -> Tuple[int, dict]:
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: {HOST}\r\n"
        f"Content-Type: application/xml\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    writer.write(head.encode("ascii") + body)
    await writer.drain()
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("connection closed before a response")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    payload = await reader.readexactly(length) if length else b"{}"
    return status, json.loads(payload)


async def _connect(port: int):
    return await asyncio.open_connection(HOST, port)


async def healthy(port: int, timeout: float) -> bool:
    """Poll ``GET /healthz`` until it answers 200 or *timeout* passes."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            reader, writer = await _connect(port)
        except OSError:
            await asyncio.sleep(0.01)
            continue
        try:
            status, _ = await _request(reader, writer, "GET", "/healthz", b"")
            if status == 200:
                return True
        except (OSError, ValueError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
        await asyncio.sleep(0.01)
    return False


async def _worker(port: int, bodies: Sequence[bytes], queue, records, counts) -> None:
    reader = writer = None
    try:
        while True:
            index = await queue.get()
            if index is None:
                return
            record = records[index]
            record["sent"] = time.perf_counter()
            try:
                if writer is None:
                    reader, writer = await _connect(port)
                status, payload = await _request(
                    reader, writer, "POST", "/classify", bodies[record["doc"]]
                )
            except (OSError, ValueError, asyncio.IncompleteReadError) as error:
                counts["refused"] += 1
                record["error"] = repr(error)
                if writer is not None:
                    writer.close()
                reader = writer = None
                continue
            record["done"] = time.perf_counter()
            record["status"] = status
            record["ok"] = status == 200
            record["cluster_id"] = payload.get("cluster_id")
            record["latency_ms"] = payload.get("latency_ms")
    finally:
        if writer is not None:
            writer.close()


async def _open_loop(port, bodies, rate, duration, seed, connections, grace):
    offsets = arrival_offsets(rate, duration, seed)
    rng = random.Random(seed + 1)
    records: List[Dict[str, object]] = [
        {"doc": rng.randrange(len(bodies)), "ok": False} for _ in offsets
    ]
    counts = {"refused": 0}
    queue: asyncio.Queue = asyncio.Queue()
    workers = [
        asyncio.ensure_future(_worker(port, bodies, queue, records, counts))
        for _ in range(connections)
    ]
    start = time.perf_counter() + 0.05
    for index, offset in enumerate(offsets):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        records[index]["due"] = due
        records[index]["dispatched"] = time.perf_counter()
        queue.put_nowait(index)
    for _ in workers:
        queue.put_nowait(None)
    done, pending = await asyncio.wait(workers, timeout=grace + 10.0)
    for task in pending:
        task.cancel()
    for task in done:
        task.result()
    if pending:
        await asyncio.wait(pending)
    return records, counts


def open_loop(
    port: int,
    bodies: Sequence[bytes],
    rate: float,
    duration: float,
    seed: int,
    connections: int = 2,
    grace: float = 1.0,
):
    """One open-loop rung: ``(records, counts)`` for every scheduled request.

    Each record carries ``doc`` (the body index), ``due``, ``dispatched``
    (when the generator queued it), ``sent`` (when a connection took it),
    ``done``, ``status``, ``ok``, ``cluster_id`` and the server-reported
    ``latency_ms``; ``counts["refused"]`` counts connection failures.
    The generator's own garbage collector is paused during the rung, so
    its collections cannot delay requests and be charged to the server.
    """
    gc.collect()
    gc.disable()
    try:
        return asyncio.run(_open_loop(port, bodies, rate, duration, seed, connections, grace))
    finally:
        gc.enable()


async def _closed_loop_one(port, bodies):
    reader, writer = await _connect(port)
    results = []
    try:
        for body in bodies:
            status, payload = await _request(reader, writer, "POST", "/classify", body)
            results.append((status, payload.get("cluster_id")))
    finally:
        writer.close()
    return results


async def _closed_loop(port, bodies, connections):
    shares = await asyncio.gather(
        *(_closed_loop_one(port, bodies[lane::connections]) for lane in range(connections))
    )
    results = [None] * len(bodies)
    for lane, share in enumerate(shares):
        results[lane::connections] = share
    return results


def closed_loop(
    port: int, bodies: Sequence[bytes], connections: int = 1, timeout: float = 60.0
) -> List[Tuple[int, Optional[int]]]:
    """Classify *bodies*, each connection sending its next request on reply.

    Bodies are dealt round-robin over *connections*; results come back
    in body order as ``(status, cluster_id)``.  Raises
    :class:`asyncio.TimeoutError` when the pass takes over *timeout* s.
    """
    return asyncio.run(
        asyncio.wait_for(_closed_loop(port, list(bodies), connections), timeout)
    )


def wait_healthy(port: int, timeout: float) -> bool:
    """Blocking form of :func:`healthy`."""
    return asyncio.run(healthy(port, timeout))
