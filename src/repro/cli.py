"""Command line interface for the CXK-means reproduction.

``python -m repro.cli`` exposes the main workflows as subcommands:

* ``cluster`` -- cluster an XML directory (or a synthetic corpus) with
  CXK-means / PK-means / XK-means and print the resulting clusters
  (``--save-model DIR`` persists the fitted model for serving);
* ``classify`` -- classify XML documents against a saved model
  (``--stdin`` streams file paths line by line with bounded memory);
* ``stream`` -- ingest XML documents incrementally into a saved model
  (chunked streaming clustering, ``--out-of-core`` block store, periodic
  checkpoints);
* ``serve`` -- serve a saved model (stdin line protocol or HTTP), or
  serve every active model of a registry through the async multi-model
  router (``--registry``);
* ``models`` -- catalog fitted models in the durable registry
  (``list`` / ``show`` / ``publish`` / ``retire``);
* ``figure7`` / ``table1`` / ``table2`` / ``figure8`` --
  regenerate the paper's tables and figures as text reports;
* ``datasets`` -- print the profile of the synthetic corpora.

Every experiment command accepts ``--scale`` so users can trade fidelity for
runtime; the defaults keep each command within a few minutes on a laptop.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import List, Optional

from repro.core.config import ClusteringConfig
from repro.core.partition import PartitioningScheme, partition
from repro.datasets.registry import DATASET_NAMES, get_corpus, get_dataset
from repro.evaluation.fmeasure import overall_f_measure
from repro.evaluation.reporting import format_table
from repro.experiments.figure7 import Figure7Config, run_figure7
from repro.experiments.figure8 import Figure8Config, run_figure8
from repro.experiments.runner import make_algorithm
from repro.experiments.table1 import AccuracyTableConfig, run_table1
from repro.experiments.table2 import run_table2
from repro.similarity.backend import (
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    BackendUnavailableError,
    validate_backend_spec,
)
from repro.similarity.corpus_store import prepare_engine_corpus
from repro.similarity.item import SimilarityConfig
from repro.transactions.builder import build_dataset
from repro.xmlmodel.errors import XMLError
from repro.xmlmodel.parser import parse_xml_file


def _add_backend_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        default=DEFAULT_BACKEND,
        metavar="NAME[:OPTIONS]",
        help="similarity backend for the clustering hot path "
        f"(registered: {', '.join(BACKEND_NAMES)}; "
        "'numpy:block=N' sets the tile budget of the batched kernels, "
        "0 = untiled, results are bit-exact for every budget; unknown "
        "specs list the registered alternatives)",
    )


def _add_network_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--network",
        default="sim",
        choices=["sim", "real"],
        help="transport of the collaborative rounds: 'sim' runs the peers "
        "sequentially on the simulated network (cost-model timing), 'real' "
        "runs every peer as a concurrent process over localhost TCP and "
        "reports measured wire bytes and wall-clock next to the cost-model "
        "predictions (CXK-means only; default: sim)",
    )
    parser.add_argument(
        "--network-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-round deadline of the real transport: a stalled or dead "
        "peer fails the run with an actionable error within this bound "
        "instead of hanging (default: %(default)s -> the ClusteringConfig "
        "default)",
    )


def _resolve_network_timeout(args: argparse.Namespace) -> Optional[float]:
    """Validate and return ``--network-timeout`` (None = config default)."""
    network_timeout = getattr(args, "network_timeout", None)
    if network_timeout is not None and network_timeout <= 0:
        raise SystemExit(
            f"--network-timeout must be positive, got {network_timeout}"
        )
    return network_timeout


def _resolve_backend(args: argparse.Namespace) -> str:
    """Validate ``--backend`` and return the normalised spec.

    Validation happens here -- config-resolution time -- so a misspelled
    backend exits with the registered alternatives before any corpus is
    loaded or fit is started.
    """
    try:
        # ValueError (unknown name, malformed options) and
        # BackendUnavailableError (numpy missing) both exit cleanly with
        # validate_backend_spec's message -- the same text a
        # ClusteringConfig constructed with this spec raises, so CLI and
        # library users see identical diagnostics
        return validate_backend_spec(args.backend)
    except (ValueError, BackendUnavailableError) as error:
        raise SystemExit(f"error: {error}") from error


def _add_common_experiment_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=0.5, help="corpus scale factor")
    _add_backend_argument(parser)
    parser.add_argument("--gamma", type=float, default=0.85, help="gamma threshold")
    parser.add_argument(
        "--nodes",
        type=int,
        nargs="+",
        default=[1, 3, 5, 7, 9],
        help="node counts to sweep",
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--max-iterations", type=int, default=6, help="maximum collaborative rounds"
    )


def _cmd_datasets(args: argparse.Namespace) -> int:
    rows = []
    for name in DATASET_NAMES:
        corpus = get_corpus(name, scale=args.scale, seed=args.seed)
        dataset = corpus.to_dataset()
        summary = dataset.summary()
        rows.append(
            [
                name,
                corpus.document_count(),
                summary["transactions"],
                summary["distinct_items"],
                summary["vocabulary"],
                corpus.class_counts.get("content", ""),
                corpus.class_counts.get("structure", ""),
                corpus.class_counts.get("hybrid", ""),
            ]
        )
    print(
        format_table(
            [
                "corpus",
                "documents",
                "transactions",
                "items",
                "vocabulary",
                "content classes",
                "structure classes",
                "hybrid classes",
            ],
            rows,
            title=f"Synthetic corpora (scale={args.scale})",
        )
    )
    return 0


def _load_xml_directory(path: str) -> List:
    files = sorted(glob.glob(os.path.join(path, "**", "*.xml"), recursive=True))
    if not files:
        raise SystemExit(f"no .xml files found under {path}")
    return [parse_xml_file(file) for file in files]


def _cmd_cluster(args: argparse.Namespace) -> int:
    # resolve (and validate) the backend before loading any corpus, so an
    # unavailable backend fails immediately with its actionable message
    backend = _resolve_backend(args)
    if args.registry and not args.save_model:
        raise SystemExit("--registry requires --save-model DIR")
    network = getattr(args, "network", "sim")
    network_timeout = _resolve_network_timeout(args)
    if network == "real" and args.algorithm != "cxk":
        raise SystemExit(
            "--network real is implemented for CXK-means only; drop the "
            "flag or use --algorithm cxk"
        )
    if args.xml_dir:
        trees = _load_xml_directory(args.xml_dir)
        dataset = build_dataset(os.path.basename(args.xml_dir.rstrip("/")), trees)
        reference = None
    else:
        dataset = get_dataset(args.corpus, scale=args.scale, seed=args.seed)
        reference = dataset.labels_for(args.goal) if args.goal in dataset.labelings else None

    k = args.k or (len(set(reference.values())) if reference else 4)
    config = ClusteringConfig(
        k=k,
        similarity=SimilarityConfig(f=args.f, gamma=args.gamma),
        seed=args.seed,
        max_iterations=args.max_iterations,
        backend=backend,
        network=network,
        **({"network_timeout": network_timeout} if network_timeout is not None else {}),
    )
    algorithm = make_algorithm(args.algorithm, config)
    # populate the tag-path cache (and compile the backend corpus) up front,
    # the strategy prescribed by the paper's complexity analysis (Sec. 4.3.2)
    prepare_engine_corpus(algorithm.engine, dataset.transactions)
    if args.algorithm.lower().startswith("xk"):
        result = algorithm.fit(dataset.transactions)
    else:
        scheme = PartitioningScheme(args.partitioning)
        parts = partition(dataset.transactions, args.peers, scheme, seed=args.seed)
        result = algorithm.fit(parts)

    cache_stats = algorithm.engine.cache.stats()
    print(f"algorithm : {result.metadata.get('algorithm')}")
    print(f"backend   : {backend}")
    network_stats = result.network or {}
    if network == "real":
        print(
            "network   : real (wire_bytes={wire} control_bytes={control} "
            "measured_wall={wall:.2f}s)".format(
                wire=int(network_stats.get("wire_bytes", 0)),
                control=int(network_stats.get("control_bytes", 0)),
                wall=float(network_stats.get("measured_wall_seconds", 0.0)),
            )
        )
    else:
        print(f"network   : {network}")
    print(
        "cache     : entries={entries} hits={hits} misses={misses} "
        "precomputed={precomputed}".format(**cache_stats)
    )
    print(f"clusters  : {result.k}  (trash: {result.trash_size()} transactions)")
    print(f"iterations: {result.iterations} (converged: {result.converged})")
    print(f"elapsed   : {result.elapsed_seconds:.2f}s")
    if result.simulated_seconds is not None:
        print(f"simulated : {result.simulated_seconds:.2f}s over {args.peers} peers")
    if reference is not None:
        print(f"F-measure : {overall_f_measure(result.partition(), reference):.3f}")
    if args.save_model:
        from repro.core.model_store import ModelStoreError, save_model

        registry = None
        if args.registry:
            from repro.store import open_registry

            registry = open_registry(args.registry)
        try:
            manifest = save_model(
                args.save_model,
                result,
                config,
                dataset=dataset,
                registry=registry,
                model_name=args.model_name,
            )
            print(f"model     : saved -> {args.save_model}")
            published = manifest.get("registry")
            if published:
                print(
                    "registry  : published {name} v{version} "
                    "({fingerprint})".format(
                        name=published["name"],
                        version=published["version"],
                        fingerprint=published["fingerprint"][:12],
                    )
                )
        except ModelStoreError as error:
            # persistence is best effort: the clustering itself succeeded
            print(f"model     : error ({error})")
    rows = [
        [cluster.cluster_id, cluster.size(), ", ".join(cluster.member_ids()[:4]) + ("..." if cluster.size() > 4 else "")]
        for cluster in result.clusters
    ]
    print(format_table(["cluster", "size", "sample members"], rows))
    return 0


def _load_cluster_model(args: argparse.Namespace):
    """Load the model named by ``--model`` or exit with a clean message."""
    from repro.core.model_store import ModelStoreError, load_model

    try:
        return load_model(args.model, backend=args.backend)
    except (ModelStoreError, BackendUnavailableError, ValueError) as error:
        raise SystemExit(f"error: {error}") from error


def _print_model_header(model) -> None:
    """Print the shared model banner of ``classify`` / ``serve``."""
    print(f"model     : {model.directory}")
    print(f"backend   : {model.engine.backend_name}")


def _iter_classify_paths(args: argparse.Namespace):
    """Yield the file paths to classify, one at a time.

    With ``--stdin``, paths are read from standard input *line by line* --
    each path is yielded (and classified) as soon as its line arrives, so
    an arbitrarily long pipe is processed with bounded memory instead of
    being slurped up front.  Blank lines are skipped.
    """
    for path in args.files:
        yield path
    if getattr(args, "stdin", False):
        for line in sys.stdin:
            path = line.strip()
            if path:
                yield path


def _cmd_classify(args: argparse.Namespace) -> int:
    if not args.files and not args.stdin:
        raise SystemExit("classify needs FILE arguments or --stdin")
    model = _load_cluster_model(args)
    try:
        _print_model_header(model)
        for path in _iter_classify_paths(args):
            try:
                result = model.classify_file(path)
            except OSError as error:
                raise SystemExit(f"error: {error}") from error
            except XMLError as error:
                raise SystemExit(f"error: {path}: {error}") from error
            print(
                f"{path}: cluster={result.cluster_id} "
                f"score={result.score:.4f} transactions={result.transactions}",
                flush=True,
            )
    finally:
        model.close()
    return 0


def _iter_stream_chunks(args: argparse.Namespace, chunk_size: int, dataset=None):
    """Yield ``(name, transactions)`` ingestion chunks for ``cxk stream``.

    Corpus mode (``--corpus``) replays *dataset*, the synthetic corpus, in
    order with its frozen whole-corpus term statistics, so the streamed
    clustering is comparable to (and at one big chunk bit-exact with) the
    batch fit.  File/stdin mode parses XML documents chunk by chunk and builds each
    chunk's transactions with :func:`build_dataset` -- content weighting is
    then per-chunk rather than corpus-wide (a documented approximation of
    the collection statistics a batch build would use); paths stream
    through bounded memory, one chunk of parsed trees at a time.
    """
    if dataset is not None:
        transactions = dataset.transactions
        for start in range(0, len(transactions), chunk_size):
            yield args.corpus, transactions[start : start + chunk_size]
        return

    def paths():
        for path in args.files:
            yield path
        if args.stdin:
            for line in sys.stdin:
                path = line.strip()
                if path:
                    yield path

    pending: List[str] = []
    index = 0
    for path in paths():
        pending.append(path)
        if len(pending) >= chunk_size:
            trees = [parse_xml_file(file) for file in pending]
            yield f"chunk-{index}", build_dataset(f"chunk-{index}", trees).transactions
            pending, index = [], index + 1
    if pending:
        trees = [parse_xml_file(file) for file in pending]
        yield f"chunk-{index}", build_dataset(f"chunk-{index}", trees).transactions


def _cmd_stream(args: argparse.Namespace) -> int:
    backend = _resolve_backend(args)
    if not args.corpus and not args.files and not args.stdin:
        raise SystemExit("stream needs --corpus NAME, FILE arguments or --stdin")
    if args.corpus and (args.files or args.stdin):
        raise SystemExit("--corpus replaces FILE/--stdin input; use one or the other")
    if args.checkpoint_every is not None and args.checkpoint_every < 1:
        raise SystemExit(
            f"--checkpoint-every must be positive, got {args.checkpoint_every}"
        )
    from repro.core.model_store import ModelStoreError, save_model
    from repro.core.streaming import StreamingClusterer

    config = ClusteringConfig(
        k=args.k,
        similarity=SimilarityConfig(f=args.f, gamma=args.gamma),
        seed=args.seed,
        max_iterations=args.max_iterations,
        backend=backend,
        chunk_size=args.chunk_size,
        retain_threshold=args.retain_threshold,
        drift_threshold=args.drift_threshold,
    )
    store = None
    if args.out_of_core:
        from repro.similarity.corpus_store import BlockCorpusStore

        store = BlockCorpusStore.create(
            os.path.join(args.model, "blocks"), config.similarity
        )
    clusterer = StreamingClusterer(config, store=store)
    # corpus mode streams a whole dataset, so the model keeps its vocabulary
    # and collection counts; file/stdin chunks are built one at a time
    dataset = (
        get_dataset(args.corpus, scale=args.scale, seed=args.seed)
        if args.corpus
        else None
    )
    print(f"algorithm : Streaming-XK-means (k={args.k}, chunk={args.chunk_size})")
    print(f"backend   : {backend}")
    print(
        "blocks    : {mode}".format(
            mode=f"out-of-core -> {store.directory}" if store else "in-memory"
        )
    )

    def save_checkpoint(result, label: str) -> None:
        try:
            save_model(args.model, result, config, dataset=dataset)
            stats = clusterer.stats
            print(
                f"checkpoint: saved -> {args.model} "
                f"({label}, chunks={stats.chunks_ingested}, "
                f"transactions={stats.transactions_ingested}, "
                f"retained={stats.retained}, "
                f"re_refinements={stats.re_refinements})",
                flush=True,
            )
        except ModelStoreError as error:
            print(f"checkpoint: error ({error})", flush=True)

    chunks_seen = 0
    for name, chunk in _iter_stream_chunks(args, args.chunk_size, dataset):
        clusterer.ingest(chunk)
        chunks_seen += 1
        if (
            args.checkpoint_every
            and clusterer.bootstrapped
            and chunks_seen % args.checkpoint_every == 0
        ):
            save_checkpoint(clusterer.checkpoint_result(), name)
    try:
        result = clusterer.finalize()
    except RuntimeError as error:
        raise SystemExit(f"error: {error}") from error
    save_checkpoint(result, "final")
    stats = clusterer.stats
    print(f"chunks    : {stats.chunks_ingested} post-bootstrap")
    print(f"ingested  : {stats.transactions_ingested} transactions")
    print(
        f"refine    : {stats.re_refinements} re-refinements "
        f"(churn {stats.churn:.2f}, retained peak {stats.retained_peak})"
    )
    print(f"clusters  : {result.k}  (trash: {result.trash_size()} transactions)")
    print(f"elapsed   : {result.elapsed_seconds:.2f}s")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """The ``serve`` command: stdin line protocol, or HTTP with ``--port``."""
    from repro.core.model_store import ModelStoreError
    from repro.serving import DEFAULT_REQUEST_TIMEOUT, serve_async, serve_stdin
    from repro.store.registry import RegistryError

    if args.port is None:
        if args.registry:
            raise SystemExit("the HTTP server needs --port: --registry serves HTTP only")
        if not args.model:
            raise SystemExit("serve needs --model DIR (or --registry PATH)")
        model = _load_cluster_model(args)
        try:
            _print_model_header(model)
            print("serving   : stdin (one XML file path per line)")
            serve_stdin(model, sys.stdin, sys.stdout)
        except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
            pass
        finally:
            model.close()
        return 0
    if args.registry:
        if args.model:
            raise SystemExit(
                "--registry routes published models; drop --model or use "
                "--models NAME to restrict the routes"
            )
        registry_path, model_dirs = args.registry, None
    else:
        if not args.model:
            raise SystemExit("serve needs --model DIR (or --registry PATH)")
        if args.models:
            raise SystemExit("--models filters registry routes; use --registry")
        registry_path = None
        model_dirs = {os.path.basename(os.path.normpath(args.model)): args.model}
    routes = args.models or (["<active models>"] if registry_path else list(model_dirs))
    print(f"serving   : http://{args.host}:{args.port} (async router)")
    print(f"routes    : {', '.join(routes)}  (POST /models/<name>/classify)")
    try:
        serve_async(
            registry_path=registry_path,
            model_names=args.models,
            model_dirs=model_dirs,
            host=args.host,
            port=args.port,
            backend=args.backend,
            poll_interval=args.poll_interval,
            max_requests=args.max_requests,
            request_timeout=(
                args.timeout if args.timeout is not None else DEFAULT_REQUEST_TIMEOUT
            ),
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    except (RegistryError, ModelStoreError, BackendUnavailableError, ValueError) as error:
        raise SystemExit(f"error: {error}") from error
    return 0


def _open_cli_registry(args: argparse.Namespace):
    """Open the registry named by ``--registry`` for a ``models`` command."""
    from repro.store import open_registry
    from repro.store.registry import RegistryError

    try:
        return open_registry(args.registry)
    except RegistryError as error:
        raise SystemExit(f"error: {error}") from error


def _print_model_records(records) -> None:
    """Render registry records as the shared ``models`` table."""
    rows = [
        [
            record.name,
            record.version,
            record.status,
            record.fingerprint[:12],
            record.created_at,
            record.directory,
        ]
        for record in records
    ]
    print(
        format_table(
            ["name", "version", "status", "fingerprint", "created", "directory"],
            rows,
        )
    )


def _cmd_models(args: argparse.Namespace) -> int:
    """Handle ``cxk models list|show|publish|retire``."""
    from repro.store.registry import RegistryError

    registry = _open_cli_registry(args)
    try:
        if args.models_command == "list":
            records = registry.list_models(
                args.name, include_retired=args.all
            )
            if not records:
                scope = f"name {args.name!r}" if args.name else "registry"
                print(f"no models cataloged for {scope} ({args.registry})")
                return 0
            _print_model_records(records)
        elif args.models_command == "show":
            record = registry.show(args.name, args.version)
            print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
        elif args.models_command == "publish":
            record = registry.publish(args.name, args.directory)
            print(
                f"published {record.name} v{record.version} "
                f"({record.fingerprint[:12]}) -> {record.directory}"
            )
        else:  # retire
            record = registry.retire(args.name, args.version)
            print(f"retired {record.name} v{record.version}")
    except RegistryError as error:
        raise SystemExit(f"error: {error}") from error
    return 0


def _cmd_figure7(args: argparse.Namespace) -> int:
    config = Figure7Config(
        node_counts=tuple(args.nodes),
        scales=(args.scale, args.scale / 2.0),
        gamma=args.gamma,
        seeds=(args.seed,),
        max_iterations=args.max_iterations,
        backend=_resolve_backend(args),
        network=getattr(args, "network", "sim"),
        network_timeout=_resolve_network_timeout(args),
    )
    print(run_figure7(config).report())
    return 0


def _cmd_figure8(args: argparse.Namespace) -> int:
    config = Figure8Config(
        node_counts=tuple(args.nodes),
        scale=args.scale,
        gamma=args.gamma,
        seeds=(args.seed,),
        max_iterations=args.max_iterations,
        backend=_resolve_backend(args),
    )
    print(run_figure8(config).report())
    return 0


def _cmd_table(args: argparse.Namespace, table_number: int) -> int:
    config = AccuracyTableConfig(
        node_counts=tuple(args.nodes),
        gamma=args.gamma,
        scale=args.scale,
        seeds=(args.seed,),
        max_iterations=args.max_iterations,
        goals=tuple(args.goals),
        backend=_resolve_backend(args),
        network=getattr(args, "network", "sim"),
        network_timeout=_resolve_network_timeout(args),
    )
    if table_number == 1:
        result = run_table1(config)
    else:
        result = run_table2(config)
    print(result.report(table_number=table_number))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cxk",
        description="Collaborative clustering of XML documents (CXK-means) reproduction",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    datasets_parser = subparsers.add_parser("datasets", help="describe the synthetic corpora")
    datasets_parser.add_argument("--scale", type=float, default=0.5)
    datasets_parser.add_argument("--seed", type=int, default=0)
    datasets_parser.set_defaults(handler=_cmd_datasets)

    cluster_parser = subparsers.add_parser("cluster", help="cluster XML documents")
    cluster_parser.add_argument("--corpus", default="DBLP", help="synthetic corpus name")
    cluster_parser.add_argument("--xml-dir", default=None, help="directory of .xml files to cluster instead")
    cluster_parser.add_argument("--algorithm", default="cxk", choices=["cxk", "pk", "xk"])
    cluster_parser.add_argument("--goal", default="hybrid", choices=["content", "hybrid", "structure"])
    cluster_parser.add_argument("--k", type=int, default=None, help="number of clusters")
    cluster_parser.add_argument("--peers", type=int, default=3, help="number of peers")
    cluster_parser.add_argument("--partitioning", default="equal", choices=["equal", "unequal"])
    cluster_parser.add_argument("--f", type=float, default=0.5, help="structure/content blend factor")
    cluster_parser.add_argument("--gamma", type=float, default=0.85)
    cluster_parser.add_argument("--scale", type=float, default=0.5)
    cluster_parser.add_argument("--seed", type=int, default=0)
    cluster_parser.add_argument("--max-iterations", type=int, default=6)
    cluster_parser.add_argument(
        "--save-model",
        default=None,
        metavar="DIR",
        help="persist the fitted model (representatives, config, vocabulary, "
        "registries) to DIR for later `cxk classify` / `cxk serve`",
    )
    cluster_parser.add_argument(
        "--registry",
        default=None,
        metavar="PATH",
        help="also publish the saved model into this sqlite registry "
        "(requires --save-model; see `cxk models`)",
    )
    cluster_parser.add_argument(
        "--model-name",
        default=None,
        metavar="NAME",
        help="registry name to publish under (default: the --save-model "
        "directory's basename)",
    )
    _add_backend_argument(cluster_parser)
    _add_network_arguments(cluster_parser)
    cluster_parser.set_defaults(handler=_cmd_cluster)

    classify_parser = subparsers.add_parser(
        "classify", help="classify XML documents against a saved model"
    )
    classify_parser.add_argument(
        "--model", required=True, metavar="DIR", help="model directory (from --save-model)"
    )
    classify_parser.add_argument(
        "--backend",
        default=None,
        metavar="NAME[:OPTIONS]",
        help="override the backend spec recorded in the model manifest",
    )
    classify_parser.add_argument(
        "--stdin",
        action="store_true",
        help="additionally read file paths from standard input, one per "
        "line, classifying each as it arrives (bounded memory on long "
        "pipes)",
    )
    classify_parser.add_argument("files", nargs="*", metavar="FILE", help="XML files")
    classify_parser.set_defaults(handler=_cmd_classify)

    stream_parser = subparsers.add_parser(
        "stream",
        help="ingest XML documents incrementally into a saved model "
        "(streaming out-of-core clustering)",
    )
    stream_parser.add_argument(
        "--model",
        required=True,
        metavar="DIR",
        help="model directory to write (checkpoints and the final model "
        "are persisted here for `cxk classify` / `cxk serve`)",
    )
    stream_parser.add_argument(
        "--corpus",
        default=None,
        metavar="NAME",
        help="replay a synthetic corpus in chunks instead of reading files",
    )
    stream_parser.add_argument("--scale", type=float, default=0.5)
    stream_parser.add_argument("--seed", type=int, default=0)
    stream_parser.add_argument(
        "--stdin",
        action="store_true",
        help="additionally read XML file paths from standard input, one "
        "per line, ingesting chunk by chunk with bounded memory",
    )
    stream_parser.add_argument("--k", type=int, default=4, help="number of clusters")
    stream_parser.add_argument("--f", type=float, default=0.5)
    stream_parser.add_argument("--gamma", type=float, default=0.85)
    stream_parser.add_argument("--max-iterations", type=int, default=6)
    stream_parser.add_argument(
        "--chunk-size",
        type=int,
        default=32,
        metavar="N",
        help="transactions per ingested chunk (default: %(default)s)",
    )
    stream_parser.add_argument(
        "--retain-threshold",
        type=float,
        default=0.25,
        metavar="S",
        help="similarity below which a transaction is parked in the "
        "retained set instead of committed (default: %(default)s)",
    )
    stream_parser.add_argument(
        "--drift-threshold",
        type=float,
        default=0.5,
        metavar="D",
        help="retained-set fill fraction that triggers a bounded "
        "re-refinement (default: %(default)s)",
    )
    stream_parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="persist a light checkpoint of the model every N chunks "
        "(default: only the final model is saved)",
    )
    stream_parser.add_argument(
        "--out-of-core",
        action="store_true",
        help="append each chunk to a block-structured corpus store under "
        "<model>/blocks; older blocks stay on disk, a re-refinement "
        "unpickles only the blocks holding its sampled rows, and only the "
        "active tail is held in memory",
    )
    stream_parser.add_argument("files", nargs="*", metavar="FILE", help="XML files")
    _add_backend_argument(stream_parser)
    stream_parser.set_defaults(handler=_cmd_stream)

    serve_parser = subparsers.add_parser(
        "serve",
        help="serve a saved model (stdin or HTTP) or a registry's models (HTTP)",
    )
    serve_parser.add_argument(
        "--model", default=None, metavar="DIR", help="model directory (from --save-model)"
    )
    serve_parser.add_argument(
        "--registry",
        default=None,
        metavar="PATH",
        help="route every active model of this registry through the async "
        "server (POST /models/<name>/classify; restrict with --models)",
    )
    serve_parser.add_argument(
        "--models",
        nargs="+",
        default=None,
        metavar="NAME",
        help="restrict --registry routing to these published names",
    )
    serve_parser.add_argument(
        "--poll-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="async server: re-read the registry this often and hot-reload "
        "fingerprint-changed models (default: reload only on POST /reload)",
    )
    serve_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-connection request timeout; a stalled client is dropped "
        "after this bound instead of blocking the server (default: 30)",
    )
    serve_parser.add_argument(
        "--backend",
        default=None,
        metavar="NAME[:OPTIONS]",
        help="override the backend spec recorded in the model manifest",
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="N",
        help="serve HTTP on this port (default: stdin line protocol)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="HTTP bind host")
    serve_parser.add_argument(
        "--max-requests",
        type=int,
        default=None,
        metavar="N",
        help="stop after N HTTP requests (smoke runs; default: serve forever)",
    )
    serve_parser.set_defaults(handler=_cmd_serve)

    models_parser = subparsers.add_parser(
        "models", help="catalog fitted models in the durable registry"
    )
    models_parser.add_argument(
        "--registry",
        required=True,
        metavar="PATH",
        help="path of the sqlite registry database (created on first use)",
    )
    models_subparsers = models_parser.add_subparsers(
        dest="models_command", required=True
    )
    models_list = models_subparsers.add_parser(
        "list", help="list cataloged models (active versions by default)"
    )
    models_list.add_argument(
        "name", nargs="?", default=None, help="restrict to one model name"
    )
    models_list.add_argument(
        "--all", action="store_true", help="include retired versions"
    )
    models_show = models_subparsers.add_parser(
        "show", help="print one version's full record as JSON"
    )
    models_show.add_argument("name", help="model name")
    models_show.add_argument(
        "--version", type=int, default=None, help="version (default: active)"
    )
    models_publish = models_subparsers.add_parser(
        "publish", help="catalog a saved model directory under a name"
    )
    models_publish.add_argument("name", help="model name to publish under")
    models_publish.add_argument(
        "directory", metavar="DIR", help="model directory (from --save-model)"
    )
    models_retire = models_subparsers.add_parser(
        "retire", help="retire a version (status flip; never deletes)"
    )
    models_retire.add_argument("name", help="model name")
    models_retire.add_argument(
        "--version", type=int, default=None, help="version (default: active)"
    )
    models_parser.set_defaults(handler=_cmd_models)

    figure7_parser = subparsers.add_parser("figure7", help="reproduce Figure 7")
    _add_common_experiment_arguments(figure7_parser)
    # Figure 8 compares CXK-means against PK-means, which only runs on the
    # simulated network -- the transport switch is deliberately absent there.
    _add_network_arguments(figure7_parser)
    figure7_parser.set_defaults(handler=_cmd_figure7)

    figure8_parser = subparsers.add_parser("figure8", help="reproduce Figure 8")
    _add_common_experiment_arguments(figure8_parser)
    figure8_parser.set_defaults(handler=_cmd_figure8)

    for number in (1, 2):
        table_parser = subparsers.add_parser(f"table{number}", help=f"reproduce Table {number}")
        _add_common_experiment_arguments(table_parser)
        _add_network_arguments(table_parser)
        table_parser.add_argument(
            "--goals",
            nargs="+",
            default=["content", "hybrid", "structure"],
            choices=["content", "hybrid", "structure"],
        )
        table_parser.set_defaults(handler=lambda args, n=number: _cmd_table(args, n))

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``python -m repro.cli``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
