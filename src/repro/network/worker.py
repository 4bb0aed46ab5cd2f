"""One CXK-means peer of the real transport, as a plain OS process.

:class:`~repro.network.realnet.RealNetwork` starts one per peer::

    python -m repro.network.worker PEER_ID HOST PORT F GAMMA BACKEND CONNECT_TIMEOUT

Floats travel as their ``repr``, which round-trips exactly.  The worker
imports the wire codec and the local phase, and neither
:mod:`multiprocessing` nor :mod:`asyncio`; it never re-runs the script
that started the fit, so that script needs no
``if __name__ == "__main__":`` guard.
"""

from __future__ import annotations

import os
import socket
import sys
import traceback
from typing import Dict, Optional, Sequence

from repro.core.cxkmeans import LocalPhaseInput, run_local_phase
from repro.network.codec import (
    CodecError,
    FrameKind,
    decode_message,
    decode_share,
    encode_error,
    encode_frame,
    encode_hello,
    encode_result,
    read_frame,
)
from repro.network.message import MessageKind
from repro.similarity.item import SimilarityConfig
from repro.similarity.transaction import SimilarityEngine
from repro.transactions.transaction import Transaction


def serve(
    peer_id: int,
    host: str,
    port: int,
    similarity: SimilarityConfig,
    backend: str,
    connect_timeout: float,
) -> None:
    """Join the driver at ``host:port`` as *peer_id* and serve its rounds.

    Connects, sends ``HELLO`` and reads the peer's share from the
    ``SHARE`` answer under *connect_timeout*, builds the one engine every
    local phase runs on, then waits for the driver without a deadline.
    Once a round's ``GLOBAL_REPRESENTATIVES`` cover all ``k`` clusters it
    runs the local phase and answers ``RESULT`` (``ERROR`` with the
    traceback if the phase raises); ``FLAG`` and ``LOCAL_REPRESENTATIVES``
    frames are read for wire fidelity only.  Returns on ``SHUTDOWN`` or
    when the driver goes away.
    """
    with socket.create_connection((host, port), timeout=connect_timeout) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.sendall(encode_frame(FrameKind.HELLO, encode_hello(peer_id)))
        kind, payload = read_frame(sock)
        if kind is not FrameKind.SHARE:
            raise CodecError(f"expected a SHARE frame after HELLO, got {kind.name}")
        sock.settimeout(None)
        transactions = decode_share(payload)
        engine = SimilarityEngine(similarity, backend=backend)
        engine.fix_row_sets([transactions])
        k: Optional[int] = None
        pending: Dict[int, Dict[int, Transaction]] = {}
        while True:
            try:
                kind, payload = read_frame(sock)
            except (EOFError, ConnectionError):
                return  # the driver went away; nothing left to serve
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
                            peer_id=peer_id,
                            transactions=transactions,
                            global_representatives=[bucket[j] for j in range(k)],
                        ),
                        engine,
                    )
                except Exception:
                    error = encode_error(peer_id, traceback.format_exc())
                    sock.sendall(encode_frame(FrameKind.ERROR, error))
                    raise
                result = encode_result(message.round_index, output)
                sock.sendall(encode_frame(FrameKind.RESULT, result))


def main(argv: Sequence[str]) -> int:
    """Serve one peer from ``PEER_ID HOST PORT F GAMMA BACKEND CONNECT_TIMEOUT``.

    Returns the exit status: 1 after printing the traceback of a failure,
    which the driver sees as a closed connection or an ``ERROR`` frame.
    """
    try:
        peer_id, host, port, f, gamma, backend, connect_timeout = argv
        serve(
            int(peer_id),
            host,
            int(port),
            SimilarityConfig(f=float(f), gamma=float(gamma)),
            backend,
            float(connect_timeout),
        )
    except Exception:
        traceback.print_exc()
        return 1
    return 0


if __name__ == "__main__":
    # End as forked multiprocessing children do: without the interpreter's
    # teardown, which only frees what the process exit frees anyway.
    # Never inside main() or serve(): tests run those on threads.
    code = main(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
