"""Versioned persistence for fitted clustering models and their query path.

A fitted clustering (XK / PK / CXK-means) is worth keeping: the expensive
part of answering "which cluster does this XML document belong to?" is the
fit, not the query.  This module turns a :class:`~repro.core.results.\
ClusteringResult` into an on-disk **model directory** and back into a live
:class:`ClusterModel` that serves classification queries on a warm compiled
similarity engine.

Layout of a model directory (all JSON, UTF-8)::

    model-dir/
        representatives.json   # serialized representative transactions
        vocabulary.json        # term list (id order) + collection stats
        registries.json        # tag-path registry (first-occurrence order)
        model.json             # manifest -- written LAST, marks completeness

Mirroring :mod:`repro.similarity.corpus_store`, the manifest is written
last so a crash mid-save leaves a directory that :func:`load_model`
rejects instead of half-loading.  The manifest records the format version,
the full :class:`~repro.core.config.ClusteringConfig` (backend spec, seed,
``f``/``gamma``, streaming options), the preprocessing
configuration, fit metadata and the corpus size.  A model directory is
self-contained: :func:`load_model` reads only its own files and never
opens a corpus store.

What is *not* persisted: the content-class and uid registries and the
transient similarity caches.  Those are pure value functions of the items
(rebuilt lazily by the backend on first use), so their identifier order
cannot affect scores; persisting the tag-path registry alone is enough to
warm the structural cache on a cold load.

Round-trip guarantee: ``fit -> save_model -> load_model -> assign_all``
is bit-exact against the in-memory result on the python / numpy / tiled
numpy backends, pinned by ``tests/test_model_store.py``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import ClusteringConfig
from repro.core.results import ClusteringResult
from repro.similarity.backend import validate_backend_spec
from repro.similarity.item import SimilarityConfig
from repro.similarity.transaction import SimilarityEngine
from repro.text.preprocess import PreprocessingConfig
from repro.text.vector import SparseVector
from repro.text.vocabulary import Vocabulary
from repro.text.weighting import CorpusTermStatistics
from repro.transactions.builder import BuilderConfig, TransactionDatasetBuilder
from repro.transactions.items import TreeTupleItem
from repro.transactions.transaction import Transaction, make_transaction
from repro.xmlmodel.parser import parse_xml, parse_xml_file
from repro.xmlmodel.paths import XMLPath
from repro.xmlmodel.tree import XMLTree

#: Bump on any change to the directory layout or payload encoding.
MODEL_FORMAT_VERSION = 1

#: The manifest file name; its presence marks a complete save.
MODEL_MANIFEST_NAME = "model.json"

#: Data files written before the manifest, in write order.
MODEL_DATA_FILES = ("representatives.json", "vocabulary.json", "registries.json")


class ModelStoreError(RuntimeError):
    """A model directory could not be written, read or validated."""


# --------------------------------------------------------------------------- #
# Value serialization (JSON, order-preserving)
# --------------------------------------------------------------------------- #
def vector_payload(vector: SparseVector) -> List[List[float]]:
    """Encode *vector* as an ordered ``[[term_id, weight], ...]`` list.

    Insertion order is preserved because dot products accumulate in that
    order on the reference backend; floats survive JSON exactly (repr
    round-trip), which the bit-exactness guarantee relies on.
    """
    return [[int(term), float(weight)] for term, weight in vector.items()]


def vector_from_payload(pairs: Sequence[Sequence[float]]) -> SparseVector:
    """Rebuild a :class:`SparseVector` from :func:`vector_payload` output."""
    return SparseVector({int(term): float(weight) for term, weight in pairs})


def item_payload(item: TreeTupleItem) -> Dict[str, object]:
    """Encode one :class:`TreeTupleItem` (path steps, answer, terms, vector)."""
    return {
        "item_id": item.item_id,
        "path": list(item.path.steps),
        "answer": item.answer,
        "terms": list(item.terms),
        "vector": vector_payload(item.vector),
    }


def item_from_payload(payload: Dict[str, object]) -> TreeTupleItem:
    """Rebuild one :class:`TreeTupleItem` from :func:`item_payload` output."""
    return TreeTupleItem(
        item_id=int(payload["item_id"]),
        path=XMLPath(tuple(payload["path"])),
        answer=str(payload["answer"]),
        terms=tuple(payload["terms"]),
        vector=vector_from_payload(payload["vector"]),
    )


def transaction_payload(transaction: Transaction) -> Dict[str, object]:
    """Encode one :class:`Transaction`, preserving item order."""
    return {
        "transaction_id": transaction.transaction_id,
        "doc_id": transaction.doc_id,
        "tuple_id": transaction.tuple_id,
        "items": [item_payload(item) for item in transaction.items],
    }


def transaction_from_payload(payload: Dict[str, object]) -> Transaction:
    """Rebuild one :class:`Transaction` from :func:`transaction_payload`."""
    return Transaction(
        transaction_id=str(payload["transaction_id"]),
        items=tuple(item_from_payload(item) for item in payload["items"]),
        doc_id=str(payload["doc_id"]),
        tuple_id=str(payload["tuple_id"]),
    )


def _first_occurrence_tag_paths(
    transaction_groups: Sequence[Sequence[Optional[Transaction]]],
) -> List[XMLPath]:
    """Distinct item tag paths in first-occurrence order over the groups."""
    seen: Dict[XMLPath, None] = {}
    for group in transaction_groups:
        for transaction in group:
            if transaction is None:
                continue
            for item in transaction.items:
                seen.setdefault(item.tag_path, None)
    return list(seen)


# --------------------------------------------------------------------------- #
# Save
# --------------------------------------------------------------------------- #
def save_model(
    directory,
    result: ClusteringResult,
    config: ClusteringConfig,
    *,
    dataset=None,
    engine=None,
    preprocessing: Optional[PreprocessingConfig] = None,
    registry=None,
    model_name: Optional[str] = None,
) -> Dict[str, object]:
    """Persist a fitted model under *directory*; return the manifest.

    Parameters
    ----------
    directory:
        Target directory (created if missing; files are overwritten).
    result:
        The fitted :class:`ClusteringResult` whose representatives are
        serialized.
    config:
        The :class:`ClusteringConfig` the fit ran with; reconstructed
        verbatim on load.
    dataset:
        Optional :class:`~repro.transactions.dataset.TransactionDataset`
        the fit consumed.  Supplies the vocabulary + collection term
        statistics (required for content-aware ``classify``) and the
        corpus tag-path registry.
    engine:
        Ignored: the model records nothing engine-specific.  Accepted so
        callers that pass the fit's engine keep working.
    preprocessing:
        The :class:`PreprocessingConfig` the corpus was built with
        (defaults to the standard configuration).
    registry:
        Optional :class:`~repro.store.registry.ModelRegistry`.  After a
        successful save the directory is published to it as the next
        version of *model_name*, making the saved model visible to
        ``cxk models`` and routable by the async server in one step.
    model_name:
        Registry name to publish under (defaults to the directory's
        base name).  Ignored without *registry*.

    Raises
    ------
    ModelStoreError
        When the directory cannot be created or any file cannot be
        written/encoded.  Callers with a fallback (CLI, runner) degrade to
        an error status instead of failing the run.
    """
    directory = Path(directory)
    preprocessing = preprocessing if preprocessing is not None else PreprocessingConfig()
    representatives = result.representatives()

    statistics = getattr(dataset, "statistics", None)
    vocabulary_doc: Dict[str, object] = {"terms": [], "total_tcus": 0, "term_tcus": {}}
    if statistics is not None:
        vocabulary_doc = {
            "terms": statistics.vocabulary.terms(),
            "total_tcus": statistics.total_tcus,
            "term_tcus": dict(statistics._term_tcus_collection),
        }

    corpus_transactions = list(getattr(dataset, "transactions", ()) or ())
    tag_paths = _first_occurrence_tag_paths([corpus_transactions, representatives])
    registries_doc = {
        "tag_paths": [list(path.steps) for path in tag_paths],
        "source": "corpus" if corpus_transactions else "representatives",
    }

    corpus_doc = {"transactions": len(corpus_transactions)}

    stopwords = preprocessing.stopwords
    manifest: Dict[str, object] = {
        "format_version": MODEL_FORMAT_VERSION,
        "config": {
            "k": config.k,
            "f": config.similarity.f,
            "gamma": config.similarity.gamma,
            "seed": config.seed,
            "max_iterations": config.max_iterations,
            "max_representative_items": config.max_representative_items,
            "backend": config.backend,
            "chunk_size": config.chunk_size,
            "retain_threshold": config.retain_threshold,
            "drift_threshold": config.drift_threshold,
        },
        "preprocessing": {
            "min_token_length": preprocessing.min_token_length,
            "keep_numbers": preprocessing.keep_numbers,
            "remove_stopwords": preprocessing.remove_stopwords,
            "stem": preprocessing.stem,
            "stopwords": sorted(stopwords) if stopwords is not None else None,
        },
        "fit": {
            "iterations": result.iterations,
            "converged": result.converged,
            "metadata": dict(result.metadata),
        },
        "corpus": corpus_doc,
        "counts": {
            "representatives": len(representatives),
            "vocabulary": len(vocabulary_doc["terms"]),
            "tag_paths": len(tag_paths),
        },
        "files": list(MODEL_DATA_FILES),
    }

    documents = {
        "representatives.json": {
            "representatives": [
                transaction_payload(rep) if rep is not None else None
                for rep in representatives
            ]
        },
        "vocabulary.json": vocabulary_doc,
        "registries.json": registries_doc,
    }
    try:
        directory.mkdir(parents=True, exist_ok=True)
        for name in MODEL_DATA_FILES:
            with open(directory / name, "w", encoding="utf-8") as handle:
                json.dump(documents[name], handle)
                handle.write("\n")
        # last write: the manifest's presence marks the directory complete
        with open(directory / MODEL_MANIFEST_NAME, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except (OSError, TypeError, ValueError) as error:
        raise ModelStoreError(
            f"cannot save model to {directory}: {error}"
        ) from error
    if registry is not None:
        # the registry hook rides on a *complete* save: any publish
        # failure surfaces as the same error family callers already
        # degrade on, and never leaves a half-written directory behind
        from repro.store.registry import RegistryError

        try:
            record = registry.publish(model_name or directory.name, directory)
        except RegistryError as error:
            raise ModelStoreError(
                f"model saved to {directory} but registry publish failed: "
                f"{error}"
            ) from error
        manifest["registry"] = {
            "name": record.name,
            "version": record.version,
            "fingerprint": record.fingerprint,
        }
    return manifest


# --------------------------------------------------------------------------- #
# Load
# --------------------------------------------------------------------------- #
def _read_json(directory: Path, name: str) -> Dict[str, object]:
    """Read one JSON object of the model directory or raise."""
    path = directory / name
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except FileNotFoundError as error:
        raise ModelStoreError(f"model file missing: {path}") from error
    except (OSError, json.JSONDecodeError) as error:
        raise ModelStoreError(f"cannot read model file {path}: {error}") from error
    if not isinstance(document, dict):
        raise ModelStoreError(
            f"model file {path} holds a {type(document).__name__}, "
            "not a JSON object"
        )
    return document


#: Marks a manifest key without a default (see _section_reader).
_REQUIRED = object()


def _section_reader(raw: Dict[str, object], where: str):
    """Typed key reader over one manifest section.

    ``read(key, cast, default)`` returns ``cast(raw[key])``, or *default*
    when the key is absent; a missing required key or a value *cast*
    rejects with ``TypeError`` / ``ValueError`` raises
    :class:`ModelStoreError` naming *where* (the section and the model
    directory) and the key.
    """

    def read(key: str, cast, default=_REQUIRED):
        if key not in raw:
            if default is _REQUIRED:
                raise ModelStoreError(f"{where} lacks key {key!r}")
            return default
        value = raw[key]
        try:
            return cast(value)
        except (TypeError, ValueError) as error:
            raise ModelStoreError(
                f"{where} has a bad {key!r} value {value!r}: {error}"
            ) from error

    return read


def _optional(cast):
    """*cast* that passes ``None`` through."""
    return lambda value: None if value is None else cast(value)


def _exactly(kind):
    """A cast accepting only values that already are of type *kind*."""

    def cast(value):
        if not isinstance(value, kind):
            raise TypeError(f"expected {kind.__name__}, got {type(value).__name__}")
        return value

    return cast


def _config_from_manifest(
    raw: Dict[str, object], directory: Path, backend: Optional[str]
) -> ClusteringConfig:
    """Decode the manifest's ``config`` section.

    A missing key, a value of the wrong type or a value
    :class:`ClusteringConfig` rejects raises :class:`ModelStoreError`
    naming *directory* and the key.  A recorded backend spec naming no
    registered backend keeps raising the unknown-backend ``ValueError``
    (see :func:`load_model`).  Unknown keys are ignored -- among them the
    retired tile-budget, refinement-worker, ``streaming`` and
    ``corpus_cache_dir`` keys older manifests carry: tiling is bit-exact,
    refinement always runs in process, the streaming flag was advisory and
    the compiled-corpus cache only skipped a compile, so none changed a
    verdict.
    """

    read = _section_reader(raw, f"model config in {directory}")
    spec = backend if backend is not None else read("backend", str)
    validate_backend_spec(spec)
    try:
        return ClusteringConfig(
            k=read("k", int),
            similarity=SimilarityConfig(
                f=read("f", float), gamma=read("gamma", float)
            ),
            max_iterations=read("max_iterations", int),
            seed=read("seed", int),
            max_representative_items=read(
                "max_representative_items", _optional(int), None
            ),
            backend=spec,
            # pre-streaming manifests simply fall back to the batch defaults
            chunk_size=read("chunk_size", _optional(int), None),
            retain_threshold=read("retain_threshold", float, 0.25),
            drift_threshold=read("drift_threshold", float, 0.5),
        )
    except ValueError as error:
        raise ModelStoreError(
            f"invalid model config in {directory}: {error}"
        ) from error


def load_model(directory, *, backend: Optional[str] = None) -> "ClusterModel":
    """Load a model directory into a query-ready :class:`ClusterModel`.

    Validates the manifest (format version, file inventory, config
    section) before touching any data file, then pre-warms the fresh
    engine's structural tag-path cache from the persisted registry and the
    representatives.  Only the model directory is read: the corpus store
    linkage older manifests carry (``corpus.fingerprint`` /
    ``corpus.store_dir``) is ignored.  A data file that is not a JSON
    object or a malformed manifest section raises :class:`ModelStoreError`
    naming the directory and the file or key.

    Parameters
    ----------
    directory:
        A directory previously written by :func:`save_model`.
    backend:
        Optional backend-spec override (e.g. serve a python-fitted model
        on ``numpy``); defaults to the spec recorded in the manifest.  A
        recorded spec that names no registered backend raises the
        unknown-backend ``ValueError`` before any data file is read; an
        override loads such a model anyway.
    """
    directory = Path(directory)
    manifest = _read_json(directory, MODEL_MANIFEST_NAME)

    version = manifest.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelStoreError(
            f"unsupported model format version {version!r} "
            f"(expected {MODEL_FORMAT_VERSION}) in {directory}"
        )
    read = _section_reader(manifest, f"model manifest in {directory}")
    for name in read("files", _exactly(list), list(MODEL_DATA_FILES)):
        if not (directory / str(name)).exists():
            raise ModelStoreError(f"model file missing: {directory / str(name)}")

    raw = manifest.get("config")
    if not isinstance(raw, dict):
        raise ModelStoreError(f"model manifest has no config section: {directory}")
    config = _config_from_manifest(raw, directory, backend)
    read_pre = _section_reader(
        read("preprocessing", _optional(_exactly(dict)), None) or {},
        f"model preprocessing in {directory}",
    )
    preprocessing = PreprocessingConfig(
        min_token_length=read_pre("min_token_length", int, 2),
        keep_numbers=read_pre("keep_numbers", bool, False),
        remove_stopwords=read_pre("remove_stopwords", bool, True),
        stem=read_pre("stem", bool, True),
        stopwords=read_pre("stopwords", _optional(frozenset), None),
    )
    reps_doc = _read_json(directory, "representatives.json")
    try:
        representatives = [
            transaction_from_payload(payload) if payload is not None else None
            for payload in reps_doc["representatives"]
        ]
    except (KeyError, TypeError, ValueError) as error:
        raise ModelStoreError(
            f"corrupt representatives block in {directory}: {error}"
        ) from error

    vocab_doc = _read_json(directory, "vocabulary.json")
    try:
        vocabulary = Vocabulary(vocab_doc.get("terms", ()))
        total_tcus = int(vocab_doc.get("total_tcus", 0))
        term_tcus = _exactly(dict)(vocab_doc.get("term_tcus") or {})
        term_tcus = {str(term): int(count) for term, count in term_tcus.items()}
    except (TypeError, ValueError) as error:
        raise ModelStoreError(
            f"corrupt vocabulary block {directory / 'vocabulary.json'}: {error}"
        ) from error
    registries_doc = _read_json(directory, "registries.json")
    try:
        tag_paths = [
            XMLPath(tuple(steps)) for steps in registries_doc.get("tag_paths", ())
        ]
    except (TypeError, ValueError) as error:
        raise ModelStoreError(
            f"corrupt registry block {directory / 'registries.json'}: {error}"
        ) from error

    engine = SimilarityEngine(config.similarity, backend=config.backend)
    rep_paths = _first_occurrence_tag_paths([representatives])
    engine.cache.precompute(list(dict.fromkeys(tag_paths + rep_paths)))

    return ClusterModel(
        directory=directory,
        manifest=manifest,
        config=config,
        representatives=representatives,
        engine=engine,
        vocabulary=vocabulary,
        total_tcus=total_tcus,
        term_tcus=term_tcus,
        builder=TransactionDatasetBuilder(
            "query", BuilderConfig(preprocessing=preprocessing)
        ),
    )


# --------------------------------------------------------------------------- #
# Serving-side term statistics
# --------------------------------------------------------------------------- #
class ServingTermStatistics(CorpusTermStatistics):
    """Per-query term statistics over a persisted collection scope.

    The ttf.itf weight mixes three scopes: tuple and document counts come
    from the *query* document (accumulated per classify call, exactly as
    the corpus builder accumulates them per document), while the
    collection scope (``N_T``, ``n_{j,T}``) is pinned to the fitted
    corpus' persisted statistics.  Terms unknown to the fitted collection
    have ``n_{j,T} == 0`` and therefore weight 0.0 -- they vanish from
    query vectors instead of polluting norms, matching how an unseen term
    could never have entered a fitted representative.
    """

    def __init__(
        self,
        vocabulary: Vocabulary,
        total_tcus: int,
        term_tcus: Dict[str, int],
    ) -> None:
        """Share the model-level *vocabulary*; pin collection counters."""
        super().__init__()
        self.vocabulary = vocabulary
        self._collection_tcus = int(total_tcus)
        self._collection_term_tcus = term_tcus

    def tcus_in_collection(self) -> int:
        """``N_T`` of the *fitted* corpus, not of the query document."""
        return self._collection_tcus

    def term_tcus_in_collection(self, term: str) -> int:
        """``n_{j,T}`` of the fitted corpus; 0 for terms it never saw."""
        return self._collection_term_tcus.get(term, 0)


# --------------------------------------------------------------------------- #
# The query object
# --------------------------------------------------------------------------- #
@dataclass
class ClassifyResult:
    """Outcome of classifying one XML document against a fitted model.

    ``cluster_id`` is the best-matching cluster index or ``-1`` when every
    extracted transaction has zero similarity to every representative (the
    trash convention of the fit loop).  ``assignments`` holds the
    per-transaction ``(transaction_id, cluster_index, score)`` rows the
    document decomposed into; ``score`` is the best row's similarity.
    """

    doc_id: str
    cluster_id: int
    score: float
    transactions: int
    assignments: List[Tuple[str, int, float]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe encoding (used by the serving layer)."""
        return {
            "doc_id": self.doc_id,
            "cluster_id": self.cluster_id,
            "score": self.score,
            "transactions": self.transactions,
            "assignments": [
                {"transaction_id": tid, "cluster_id": cid, "score": score}
                for tid, cid, score in self.assignments
            ],
        }


class ClusterModel:
    """A loaded fitted model serving warm classification queries.

    ``classify`` is parse -> transact -> one warm-engine ``assign_all``
    row block.  Representatives are compiled once through the backend's
    transient cache on first use; no corpus is compiled at load or query
    time (``backend.corpus_compile_count`` stays 0).
    """

    def __init__(
        self,
        directory: Path,
        manifest: Dict[str, object],
        config: ClusteringConfig,
        representatives: List[Optional[Transaction]],
        engine,
        vocabulary: Vocabulary,
        total_tcus: int,
        term_tcus: Dict[str, int],
        builder: TransactionDatasetBuilder,
    ) -> None:
        """Assemble a loaded model; use :func:`load_model` instead."""
        self.directory = Path(directory)
        self.manifest = manifest
        self.config = config
        self.representatives = representatives
        self.engine = engine
        self._vocabulary = vocabulary
        self._total_tcus = total_tcus
        self._term_tcus = term_tcus
        self._builder = builder
        self._queries = 0
        self._query_seconds = 0.0
        empty = 0
        assignment_reps: List[Transaction] = []
        for index, rep in enumerate(representatives):
            if rep is None:
                empty += 1
                rep = make_transaction(f"__rep_empty_{index}__", [])
            assignment_reps.append(rep)
        self._assignment_representatives = assignment_reps
        self._empty_representatives = empty

    # ------------------------------------------------------------------ #
    @property
    def assignment_representatives(self) -> List[Transaction]:
        """Representatives with ``None`` slots replaced by empty stand-ins.

        An empty transaction has zero similarity to everything, so an
        empty cluster can never win an assignment -- the same semantics an
        empty local representative has inside the fit loop.
        """
        return self._assignment_representatives

    @property
    def backend_spec(self) -> str:
        """The backend spec the model's engine runs on."""
        return self.engine.backend_name

    # ------------------------------------------------------------------ #
    def transact(self, tree: XMLTree) -> List[Transaction]:
        """Decompose *tree* into weighted transactions (query-side build).

        The corpus builder run on a single document, with per-query term
        statistics whose collection scope is pinned to the fitted corpus:
        tree tuples -> TCUs -> ttf.itf vectors, with items interned in a
        query-local item domain (dense ids, vectors averaged over the
        item's occurrences *within this document*).
        """
        statistics = ServingTermStatistics(
            self._vocabulary, self._total_tcus, self._term_tcus
        )
        return self._builder.build([tree], statistics=statistics).transactions

    # ------------------------------------------------------------------ #
    def classify_tree(self, tree: XMLTree) -> ClassifyResult:
        """Classify an already-parsed :class:`XMLTree`."""
        start = time.perf_counter()
        transactions = self.transact(tree)
        doc_id = tree.doc_id or "doc"
        if not transactions:
            self._queries += 1
            self._query_seconds += time.perf_counter() - start
            return ClassifyResult(
                doc_id=doc_id, cluster_id=-1, score=0.0, transactions=0
            )
        rows = self.engine.assign_all(
            transactions, self._assignment_representatives
        )
        assignments: List[Tuple[str, int, float]] = []
        best_cluster, best_score = -1, 0.0
        for transaction, (index, score) in zip(transactions, rows):
            cluster = index if score > 0.0 else -1
            assignments.append(
                (transaction.transaction_id, cluster, float(score))
            )
            if score > best_score:
                best_cluster, best_score = cluster, float(score)
        self._queries += 1
        self._query_seconds += time.perf_counter() - start
        return ClassifyResult(
            doc_id=doc_id,
            cluster_id=best_cluster,
            score=best_score,
            transactions=len(transactions),
            assignments=assignments,
        )

    def classify(self, xml_text: str, doc_id: Optional[str] = None) -> ClassifyResult:
        """Classify an XML document given as text: parse -> transact -> assign."""
        return self.classify_tree(parse_xml(xml_text, doc_id=doc_id))

    def classify_file(self, path, doc_id: Optional[str] = None) -> ClassifyResult:
        """Classify the XML document stored at *path*."""
        return self.classify_tree(parse_xml_file(str(path), doc_id=doc_id))

    def assign_all(self, transactions: Sequence[Transaction]):
        """Assign prepared *transactions* against the model's representatives.

        This is the round-trip parity surface: on a reloaded model it must
        reproduce the fit-time assignment bit-exactly.
        """
        return self.engine.assign_all(
            transactions, self._assignment_representatives
        )

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        """Serving counters: query count/time, compile count, model sizes."""
        return {
            "backend": self.engine.backend_name,
            "queries": self._queries,
            "query_seconds": self._query_seconds,
            "corpus_compile_count": getattr(
                self.engine.backend, "corpus_compile_count", 0
            ),
            "representatives": len(self.representatives),
            "empty_representatives": self._empty_representatives,
            "vocabulary": len(self._vocabulary),
        }

    def close(self) -> None:
        """Release the model (a no-op: no backend holds resources to free).

        Kept so servers and scripts can retire a model uniformly when they
        swap or drop it.
        """
