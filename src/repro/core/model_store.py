"""Versioned persistence for fitted clustering models and a warm query path.

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
``f``/``gamma``, tiling/refinement options), the preprocessing
configuration, fit metadata, and -- when the fitted engine had a compiled
corpus store attached -- the corpus fingerprint and store directory so a
reload can re-attach the mmap-backed arrays with **zero compile work**.

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
from repro.similarity.item import SimilarityConfig
from repro.text.preprocess import PreprocessingConfig, TextPreprocessor
from repro.text.vector import SparseVector, merge_vectors
from repro.text.vocabulary import Vocabulary
from repro.text.weighting import CorpusTermStatistics, TtfItfWeighter
from repro.transactions.items import ItemDomain, TreeTupleItem
from repro.transactions.transaction import Transaction, make_transaction
from repro.treetuples.decompose import extract_tree_tuples
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
        Optional :class:`~repro.similarity.transaction.SimilarityEngine`
        used by the fit.  When its backend has a compiled corpus store
        attached, the store fingerprint + directory are recorded so
        :func:`load_model` re-attaches it with zero compile work.
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

    # read the private slot instead of the lazy property so saving never
    # forces the construction of a backend the fit did not use
    backend = getattr(engine, "_backend", None) if engine is not None else None
    store = getattr(backend, "attached_store", None)
    corpus_doc = {
        "fingerprint": store.fingerprint if store is not None else None,
        "store_dir": str(store.directory) if store is not None else None,
        "transactions": len(corpus_transactions),
    }

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
            "batch_block_items": config.batch_block_items,
            "refine_workers": config.refine_workers,
            "corpus_cache_dir": (
                str(config.corpus_cache_dir)
                if config.corpus_cache_dir is not None
                else None
            ),
            "streaming": config.streaming,
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
    """Read one JSON document of the model directory or raise."""
    path = directory / name
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError as error:
        raise ModelStoreError(f"model file missing: {path}") from error
    except (OSError, json.JSONDecodeError) as error:
        raise ModelStoreError(f"cannot read model file {path}: {error}") from error


def load_model(directory, *, backend: Optional[str] = None) -> "ClusterModel":
    """Load a model directory into a query-ready :class:`ClusterModel`.

    Validates the manifest (format version, file inventory) before
    touching any data file.  When the manifest records a compiled corpus
    store, the store is re-attached to the fresh engine (``store: hit`` --
    zero compile work); on any store failure or fingerprint mismatch the
    model degrades to a cold load (``store: cold``) that pre-warms the
    structural tag-path cache from the persisted registry instead.

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
    for name in manifest.get("files", list(MODEL_DATA_FILES)):
        if not (directory / str(name)).exists():
            raise ModelStoreError(f"model file missing: {directory / str(name)}")

    raw = manifest.get("config")
    if not isinstance(raw, dict):
        raise ModelStoreError(f"model manifest has no config section: {directory}")
    config = ClusteringConfig(
        k=int(raw["k"]),
        similarity=SimilarityConfig(f=float(raw["f"]), gamma=float(raw["gamma"])),
        max_iterations=int(raw["max_iterations"]),
        seed=int(raw["seed"]),
        max_representative_items=(
            int(raw["max_representative_items"])
            if raw.get("max_representative_items") is not None
            else None
        ),
        backend=str(backend if backend is not None else raw["backend"]),
        batch_block_items=(
            int(raw["batch_block_items"])
            if raw.get("batch_block_items") is not None and backend is None
            else None
        ),
        refine_workers=(
            int(raw["refine_workers"])
            if raw.get("refine_workers") is not None
            else None
        ),
        corpus_cache_dir=raw.get("corpus_cache_dir"),
        # pre-streaming manifests simply fall back to the batch defaults
        streaming=bool(raw.get("streaming", False)),
        chunk_size=(
            int(raw["chunk_size"]) if raw.get("chunk_size") is not None else None
        ),
        retain_threshold=float(raw.get("retain_threshold", 0.25)),
        drift_threshold=float(raw.get("drift_threshold", 0.5)),
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
    registries_doc = _read_json(directory, "registries.json")
    try:
        vocabulary = Vocabulary(vocab_doc.get("terms", ()))
        total_tcus = int(vocab_doc.get("total_tcus", 0))
        term_tcus = {
            str(term): int(count)
            for term, count in (vocab_doc.get("term_tcus") or {}).items()
        }
        tag_paths = [
            XMLPath(tuple(steps)) for steps in registries_doc.get("tag_paths", ())
        ]
    except (TypeError, ValueError) as error:
        raise ModelStoreError(
            f"corrupt vocabulary/registry block in {directory}: {error}"
        ) from error

    raw_pre = manifest.get("preprocessing") or {}
    stopwords = raw_pre.get("stopwords")
    preprocessing = PreprocessingConfig(
        min_token_length=int(raw_pre.get("min_token_length", 2)),
        keep_numbers=bool(raw_pre.get("keep_numbers", False)),
        remove_stopwords=bool(raw_pre.get("remove_stopwords", True)),
        stem=bool(raw_pre.get("stem", True)),
        stopwords=frozenset(stopwords) if stopwords is not None else None,
    )

    # local import: corpus_store pulls in the numpy-backed store machinery,
    # which model saving/encoding must not depend on
    from repro.similarity.corpus_store import CorpusStoreError, cached_store
    from repro.similarity.transaction import SimilarityEngine

    engine = SimilarityEngine(config.similarity, backend=config.effective_backend)
    corpus_doc = manifest.get("corpus") or {}
    store_status = "off"
    store_dir = corpus_doc.get("store_dir")
    if store_dir is not None:
        store_status = "cold"
        try:
            store = cached_store(store_dir)
            if store.fingerprint == corpus_doc.get("fingerprint") and store.attach(
                engine.backend
            ):
                store_status = "hit"
        except (CorpusStoreError, OSError):
            store_status = "cold"
    if store_status != "hit":
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
        preprocessor=TextPreprocessor(preprocessing),
        store_status=store_status,
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
    transient cache on first use; on a corpus-store hit the engine's
    compiled registries are the attached mmap arrays, so no corpus
    compile work happens at load or query time
    (``backend.corpus_compile_count`` stays 0).
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
        preprocessor: TextPreprocessor,
        store_status: str,
    ) -> None:
        """Assemble a loaded model; use :func:`load_model` instead."""
        self.directory = Path(directory)
        self.manifest = manifest
        self.config = config
        self.representatives = representatives
        self.engine = engine
        self.store_status = store_status
        self._vocabulary = vocabulary
        self._total_tcus = total_tcus
        self._term_tcus = term_tcus
        self._preprocessor = preprocessor
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
        """Decompose *tree* into weighted transactions (query-side builder).

        Mirrors :class:`~repro.transactions.builder.TransactionBuilder`
        restricted to a single document: tree tuples -> TCUs -> per-query
        term statistics (collection scope pinned to the fitted corpus) ->
        ttf.itf vectors, with items interned in a query-local
        :class:`ItemDomain` (dense ids, vectors averaged over the item's
        occurrences *within this document*).
        """
        tuples = extract_tree_tuples(tree)
        statistics = ServingTermStatistics(
            self._vocabulary, self._total_tcus, self._term_tcus
        )
        tuple_tcus: Dict[str, List[Tuple[XMLPath, str, Tuple[str, ...]]]] = {}
        for tree_tuple in tuples:
            tcus = []
            for path, answer in tree_tuple.as_pairs():
                terms = tuple(self._preprocessor.process(answer))
                statistics.add_tcu(
                    tree_tuple.tuple_id, tree_tuple.source_doc_id, terms
                )
                tcus.append((path, answer, terms))
            tuple_tcus[tree_tuple.tuple_id] = tcus

        weighter = TtfItfWeighter(statistics)
        domain = ItemDomain()
        occurrence_vectors: Dict[int, List[SparseVector]] = {}
        transactions: List[Transaction] = []
        for tree_tuple in tuples:
            items = []
            for path, answer, terms in tuple_tcus[tree_tuple.tuple_id]:
                item = domain.intern(path, answer, terms)
                vector = weighter.vector(
                    terms, tree_tuple.tuple_id, tree_tuple.source_doc_id
                )
                occurrence_vectors.setdefault(item.item_id, []).append(vector)
                items.append(item)
            if not items:
                continue
            transactions.append(
                make_transaction(
                    transaction_id=tree_tuple.tuple_id,
                    items=items,
                    doc_id=tree_tuple.source_doc_id,
                    tuple_id=tree_tuple.tuple_id,
                )
            )
        for item_id, vectors in occurrence_vectors.items():
            averaged = merge_vectors(vectors).scaled(1.0 / len(vectors))
            domain.replace(domain.get(item_id).with_vector(averaged))
        return [
            transaction.with_items(
                [domain.get(item.item_id) for item in transaction.items]
            )
            for transaction in transactions
        ]

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
        """Serving counters: store status, query count/time, compile count."""
        return {
            "store": self.store_status,
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
