"""Serving quickstart: fit, publish, and query two models through the router.

This example walks the registry-backed serving lifecycle of
``docs/SERVING.md`` end to end, entirely in-process:

1. fit two differently-shaped XK-means clusterings on the synthetic DBLP
   corpus (a content-leaning blend and a structure-leaning one),
2. persist each with ``save_model`` and publish it into a durable sqlite
   registry in the same call,
3. start the async multi-model server on the registry's active models,
4. query both models through their routes
   (``POST /models/<name>/classify``) and read the per-model ``/stats``,
5. publish a new version of one model and hot-reload it into the running
   server — zero requests dropped, the route's version just changes.

Run with ``PYTHONPATH=src python examples/serving_quickstart.py``.
"""

from __future__ import annotations

import asyncio
import json
import socket
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro import ClusteringConfig, SimilarityConfig, XKMeans
from repro.core.model_store import save_model
from repro.datasets.registry import get_corpus, get_dataset
from repro.serving import AsyncModelServer, ModelRouter
from repro.store.registry import SqliteModelRegistry
from repro.xmlmodel.serializer import serialize

SCALE = 0.2  # raise for a bigger corpus (and a slower example)


def fit_and_publish(registry, directory: Path, name: str, *, f: float, k: int):
    """Fit one XK-means model and publish it into *registry* as *name*."""
    dataset = get_dataset("DBLP", scale=SCALE, seed=0)
    config = ClusteringConfig(
        k=k,
        similarity=SimilarityConfig(f=f, gamma=0.8),
        seed=0,
        max_iterations=3,
    )
    algorithm = XKMeans(config)
    result = algorithm.fit(dataset.transactions)
    manifest = save_model(
        directory, result, config, dataset=dataset,
        registry=registry, model_name=name,
    )
    published = manifest["registry"]
    print(
        f"published {published['name']} v{published['version']} "
        f"({published['fingerprint'][:12]}) <- f={f} k={k}"
    )


def http(method: str, url: str, body: bytes = b"", attempts: int = 100):
    """One JSON request against the router (retrying while it boots)."""
    request = urllib.request.Request(url, data=body, method=method)
    for attempt in range(attempts):
        try:
            with urllib.request.urlopen(request, timeout=10) as response:
                return json.loads(response.read())
        except urllib.error.URLError:
            if attempt == attempts - 1:
                raise
            time.sleep(0.05)


def main() -> None:
    """Run the fit -> publish -> serve -> hot-reload lifecycle."""
    with tempfile.TemporaryDirectory(prefix="serving-quickstart-") as tmp:
        base = Path(tmp)

        # 1-2. fit two blends of the same corpus, publish both ------------- #
        registry = SqliteModelRegistry(base / "registry.db")
        fit_and_publish(registry, base / "content-model", "dblp-content",
                        f=0.2, k=4)
        fit_and_publish(registry, base / "structure-model", "dblp-structure",
                        f=0.8, k=4)

        # 3. serve the registry's active models ---------------------------- #
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        server = AsyncModelServer(
            ModelRouter(registry=SqliteModelRegistry(base / "registry.db")),
            port=port,
        )
        thread = threading.Thread(
            target=lambda: asyncio.run(server.run(install_signal_handlers=False)),
        )
        thread.start()
        server.started.wait(timeout=30)
        root = f"http://127.0.0.1:{port}"
        print(f"serving {root} ->",
              ", ".join(http("GET", f"{root}/healthz")["models"]))

        # 4. query both models through their routes ------------------------ #
        document = serialize(get_corpus("DBLP", scale=SCALE, seed=0).trees[0])
        for name in ("dblp-content", "dblp-structure"):
            verdict = http(
                "POST", f"{root}/models/{name}/classify",
                document.encode("utf-8"),
            )
            print(
                f"{name}: cluster={verdict['cluster_id']} "
                f"score={verdict['score']:.4f} v{verdict['version']} "
                f"({verdict['latency_ms']:.2f} ms)"
            )
        stats = http("GET", f"{root}/models/dblp-content/stats")
        print(
            f"stats dblp-content: requests={stats['requests']} "
            f"errors={stats['errors']} p50={stats['latency_ms_p50']:.2f} ms"
        )

        # 5. publish new content under an existing name, hot-reload -------- #
        fit_and_publish(registry, base / "content-model-v2", "dblp-content",
                        f=0.3, k=5)
        reloaded = http("POST", f"{root}/reload", b"")
        print(f"hot reload swapped: {reloaded['reloaded']['swapped']}")
        stats = http("GET", f"{root}/models/dblp-content/stats")
        print(
            f"route dblp-content now serves v{stats['version']} "
            f"(reloads={stats['reloads']}, counters carried: "
            f"requests={stats['requests']})"
        )

        server.shutdown_threadsafe()
        thread.join(timeout=30)
        print("drained cleanly")


if __name__ == "__main__":
    main()
