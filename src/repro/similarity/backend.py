"""Pluggable similarity backends and the vectorized batch engine.

Every clustering algorithm of the reproduction (XK-means, PK-means,
CXK-means) spends nearly all of its runtime evaluating the transaction
similarity ``sim^gamma_J`` between data transactions and cluster
representatives.  The reference implementation walks every item pair in
Python, which is faithful to the paper but far from "as fast as the
hardware allows".  This module turns the similarity layer into a pluggable
architecture:

* :class:`SimilarityBackend` -- the protocol every backend implements:
  scalar item / transaction similarity, a batched
  ``pairwise_transaction_similarity`` and the bulk ``assign_all`` entry
  point used by the assignment step of the clustering loops;
* ``"python"`` -- :class:`PythonBackend`, a thin wrapper around the
  reference loops of :class:`~repro.similarity.transaction.SimilarityEngine`
  (byte-for-byte the historical behaviour);
* ``"numpy"`` -- :class:`NumpyBackend`, which compiles transactions once
  into feature blocks (tag-path id arrays indexing a dense precomputed
  structural-similarity matrix, content-class id arrays indexing a memoised
  content-similarity block, item-uid arrays for the union counts) and
  evaluates the two directed gamma-match passes as vectorized row/column
  reductions over ``(row_tile x column_tile)`` blocks of bounded item
  budget (``"numpy[:block=N]"``, default :data:`DEFAULT_BLOCK_ITEMS`;
  ``block=0`` = unbounded), so peak scratch memory never grows with the
  corpus.

Since this PR the protocol also covers the CXK-means *summarisation*
machinery: :meth:`SimilarityBackend.score_candidates` evaluates every
candidate tree tuple of one ``GenerateTreeTuple`` refinement as a batched
cluster-vs-candidates block, and :meth:`SimilarityBackend.rank_items_batch`
computes the blended structural/content item ranks of a whole item pool at
once (the numpy backend reuses the compiled tag-path matrix and memoises
TCU cosines per content class).

Bit-exact parity
----------------
The numpy backend is *bit-exact* with the python reference, not merely
approximately equal:

* structural similarities are read from the same shared
  :class:`~repro.similarity.cache.TagPathSimilarityCache`;
* content similarities are computed by the same scalar
  :func:`~repro.similarity.content.content_similarity` function, memoised
  per ordered pair of *content classes* (the ordered term/weight tuple of a
  TCU vector, or the raw answer for empty TCUs -- exactly the information
  that function consumes);
* the blend ``f * sim_S + (1 - f) * sim_C`` is evaluated elementwise with
  the same IEEE-754 operation order as the scalar code, including the
  ``f == 0`` / ``f == 1`` short-circuits.

Because every item similarity is therefore the *same float* in both
backends, all gamma-threshold comparisons, argmax tie sets, match counts
and the final integer-ratio transaction similarities coincide, and a
clustering run with a fixed seed produces identical assignments under
either backend.  The parity suite in ``tests/test_similarity_backend.py``
asserts this property.

Backends are registered by name; third parties can plug in their own
through :func:`register_backend`.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

try:  # pragma: no cover - Protocol exists on every supported Python
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[no-redef]
        """Fallback no-op decorator for Pythons without typing.Protocol."""
        return cls

from repro.similarity.content import content_similarity
from repro.transactions.items import TreeTupleItem
from repro.transactions.transaction import Transaction
from repro.xmlmodel.paths import XMLPath

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.similarity.transaction import SimilarityEngine

#: Name of the backend used when none is requested explicitly.
DEFAULT_BACKEND = "python"

#: Default item budget per tile side of the batched kernels.  Every batch
#: backend evaluates its similarity blocks in ``(row_tile x column_tile)``
#: tiles whose row-item and column-item totals each stay within this
#: budget, so peak scratch memory is bounded by roughly
#: ``budget**2 * 8`` bytes per scratch array regardless of corpus size.
#: Overridable per backend spec (``numpy:block=N``) or through
#: :attr:`~repro.core.config.ClusteringConfig.batch_block_items`;
#: ``block=0`` selects the unbounded single-tile (untiled) path.
DEFAULT_BLOCK_ITEMS = 2048


class BackendUnavailableError(RuntimeError):
    """Raised when a registered backend cannot run in this environment."""


def _unknown_backend_message(spec) -> str:
    """The single unknown-backend error message shared by every entry point.

    :func:`create_backend`, :func:`validate_backend_spec` (and through it
    ``ClusteringConfig`` and the CLI) all raise exactly this text, so a
    misspelled spec lists the same registered alternatives no matter where
    the user wrote it.
    """
    return (
        f"unknown similarity backend: {spec!r} "
        f"(registered: {', '.join(sorted(_REGISTRY))})"
    )


def split_block_option(
    options: Optional[str], spec: str
) -> Tuple[List[str], Optional[int]]:
    """Split ``block=N`` parts out of a backend option string.

    Returns ``(remaining_parts, block_items)`` where *remaining_parts* are
    the non-empty, non-``block=`` option parts in order and *block_items*
    is ``None`` when the spec carries no block option.  ``block=0`` is the
    explicit unbounded (untiled single-tile) selection; negative or
    non-integer values and duplicate ``block=`` parts raise ``ValueError``
    naming *spec* so config-resolution-time validation points at the spec
    the user wrote.
    """
    block: Optional[int] = None
    rest: List[str] = []
    if not options:
        return rest, block
    for part in options.split(":"):
        if part.startswith("block="):
            if block is not None:
                raise ValueError(
                    f"duplicate 'block=' option in backend spec {spec!r}"
                )
            value = part[len("block="):]
            try:
                block = int(value)
            except ValueError:
                raise ValueError(
                    f"invalid batch block size {value!r} in backend spec "
                    f"{spec!r} (expected 'block=N' with an integer N >= 0; "
                    "0 selects the unbounded untiled path)"
                ) from None
            if block < 0:
                raise ValueError(
                    f"batch block size must be >= 0 (0 = unbounded), got "
                    f"{block} in backend spec {spec!r}"
                )
        elif part:
            rest.append(part)
    return rest, block


def spec_block_items(spec: Optional[str]) -> Optional[int]:
    """The ``block=`` budget a backend spec will actually run with.

    Resolves the spec the way the factory does: ``numpy`` specs are
    scanned for a ``block=`` option, and specs without batch kernels
    (``python``) or without a ``block=`` option return ``None`` (backend
    default).  Malformed specs also return ``None`` -- this is a read-only
    resolver; validation stays with :func:`validate_backend_spec`.
    """
    key = (spec or DEFAULT_BACKEND).lower()
    base, _, options = key.partition(":")
    if base != "numpy":
        return None
    try:
        _, block = split_block_option(options or None, key)
    except ValueError:
        return None
    return block


def merge_block_option(spec: Optional[str], block_items: Optional[int]) -> str:
    """Merge a tile budget into a backend spec string.

    The spec-level threading used by
    :attr:`~repro.core.config.ClusteringConfig.effective_backend`: the
    returned (normalised, lower-cased) spec carries ``block={block_items}``
    wherever the tiled batch kernels will actually run --

    * ``numpy`` specs gain a trailing ``:block=N`` part unless they
      already carry an explicit ``block=`` option (the more specific
      spec-level option wins);
    * the ``python`` reference backend has no batch scratch blocks to
      bound, so its spec is returned unchanged.

    ``block_items=None`` leaves the spec untouched (backend default).
    """
    key = (spec or DEFAULT_BACKEND).lower()
    if block_items is None:
        return key
    base, _, options = key.partition(":")
    if base != "numpy":
        return key
    if options and any(
        part.startswith("block=") for part in options.split(":")
    ):
        return key
    return f"{key}:block={block_items}"


def _load_numpy():
    """Import numpy, raising a :class:`BackendUnavailableError` if absent."""
    try:
        import numpy
    except ImportError as error:  # pragma: no cover - numpy ships in the image
        raise BackendUnavailableError(
            "the 'numpy' similarity backend requires numpy; install numpy or "
            "select backend='python'"
        ) from error
    return numpy


def _numpy_importable() -> bool:
    try:
        _load_numpy()
    except BackendUnavailableError:  # pragma: no cover - see above
        return False
    return True


# --------------------------------------------------------------------------- #
# The backend protocol
# --------------------------------------------------------------------------- #
@runtime_checkable
class SimilarityBackend(Protocol):
    """Interface of a similarity backend.

    A backend answers the same questions as the reference
    :class:`~repro.similarity.transaction.SimilarityEngine`, plus two batch
    entry points that let implementations amortise per-call work across a
    whole corpus:

    * :meth:`pairwise_transaction_similarity` evaluates a block of
      ``sim^gamma_J`` values at once;
    * :meth:`assign_all` performs the complete assignment step (every
      transaction against every representative) of one clustering
      iteration.
    """

    name: str

    def item_similarity(self, item_a: TreeTupleItem, item_b: TreeTupleItem) -> float:
        """Combined item similarity (Eq. 1)."""
        ...

    def gamma_shared_items(
        self, tr1: Transaction, tr2: Transaction
    ) -> Set[TreeTupleItem]:
        """The gamma-shared item set ``match_gamma(tr1, tr2)`` (Eq. 2)."""
        ...

    def transaction_similarity(self, tr1: Transaction, tr2: Transaction) -> float:
        """XML transaction similarity ``sim^gamma_J`` (Eq. 4)."""
        ...

    def pairwise_transaction_similarity(
        self, rows: Sequence[Transaction], columns: Sequence[Transaction]
    ) -> List[List[float]]:
        """Matrix of ``sim^gamma_J(rows[i], columns[j])`` values."""
        ...

    def nearest_representative(
        self, transaction: Transaction, representatives: Sequence[Transaction]
    ) -> Tuple[int, float]:
        """(index, similarity) of the most similar representative."""
        ...

    def assign_all(
        self,
        transactions: Sequence[Transaction],
        representatives: Sequence[Transaction],
    ) -> List[Tuple[int, float]]:
        """Bulk assignment: one (index, similarity) pair per transaction."""
        ...

    def compile_corpus(self, transactions: Sequence[Transaction]) -> int:
        """Pre-compile *transactions* for reuse across iterations.

        Returns the number of transactions compiled (0 for backends that
        have nothing to precompute).
        """
        ...

    def extend_corpus(
        self, transactions: Sequence[Transaction], *, pin: bool = False
    ) -> int:
        """Delta-compile *transactions* on top of the existing corpus.

        Only transactions the backend has not already compiled (pinned or
        covered by an attached store) are processed; registries and
        feature blocks grow by the delta with first-occurrence numbering
        preserved, so fingerprints stay stable across chunked ingestion.
        ``pin=True`` additionally pins the new compilations (batch-corpus
        semantics); the default leaves them evictable so a streaming
        caller's memory stays bounded.  Returns the number of newly
        compiled transactions (0 for backends with nothing to precompute).
        """
        ...

    def score_candidates(
        self, cluster: Sequence[Transaction], candidates: Sequence[Transaction]
    ) -> List[float]:
        """Cohesion score of each candidate representative against *cluster*.

        The score of a candidate is the sum of its ``sim^gamma_J``
        similarities to every cluster member (the objective GenerateTreeTuple
        maximises); one call evaluates all candidate tree tuples of a
        refinement step.
        """
        ...

    def rank_items_batch(self, items: Sequence[TreeTupleItem]) -> List[float]:
        """Blended (pre-weight) structural/content ranks of *items*.

        Returns one ``f * rank_S + (1 - f) * rank_C`` value per item, in
        input order; sorting, tie-breaking and the global-case weights stay
        in :func:`repro.core.representatives.rank_items`.
        """
        ...


# --------------------------------------------------------------------------- #
# Reference backend
# --------------------------------------------------------------------------- #
class PythonBackend:
    """The reference backend: pure-Python loops, no compilation.

    Delegates every scalar computation to the owning
    :class:`~repro.similarity.transaction.SimilarityEngine`, whose methods
    carry the historical reference implementation; the batch entry points
    are plain loops over the scalar ones, so behaviour is byte-for-byte
    identical to the pre-backend code.
    """

    name = "python"

    def __init__(self, engine: "SimilarityEngine") -> None:
        self.engine = engine

    def item_similarity(self, item_a: TreeTupleItem, item_b: TreeTupleItem) -> float:
        """Combined item similarity (Eq. 1), the scalar reference loop."""
        return self.engine.item_similarity(item_a, item_b)

    def gamma_shared_items(
        self, tr1: Transaction, tr2: Transaction
    ) -> Set[TreeTupleItem]:
        """Gamma-shared item set ``match_gamma(tr1, tr2)`` (Eq. 2)."""
        return self.engine.gamma_shared_items(tr1, tr2)

    def transaction_similarity(self, tr1: Transaction, tr2: Transaction) -> float:
        """Transaction similarity ``sim^gamma_J`` (Eq. 4), reference loop."""
        return self.engine.transaction_similarity(tr1, tr2)

    def pairwise_transaction_similarity(
        self, rows: Sequence[Transaction], columns: Sequence[Transaction]
    ) -> List[List[float]]:
        """Similarity block as nested lists: one scalar call per pair."""
        similarity = self.engine.transaction_similarity
        return [[similarity(row, column) for column in columns] for row in rows]

    def nearest_representative(
        self, transaction: Transaction, representatives: Sequence[Transaction]
    ) -> Tuple[int, float]:
        """(index, similarity) of the best representative; ties break to
        the lowest index (strictly-greater update rule)."""
        return self.engine.nearest_representative(transaction, representatives)

    def assign_all(
        self,
        transactions: Sequence[Transaction],
        representatives: Sequence[Transaction],
    ) -> List[Tuple[int, float]]:
        """Bulk assignment as a plain loop over
        :meth:`nearest_representative`, one result per transaction in input
        order (byte-for-byte the historical behaviour)."""
        # hoist the representatives' item sets out of the transaction loop
        representative_item_sets = [
            representative.item_set() for representative in representatives
        ]
        nearest = self.engine.nearest_representative
        return [
            nearest(transaction, representatives, representative_item_sets)
            for transaction in transactions
        ]

    def compile_corpus(self, transactions: Sequence[Transaction]) -> int:
        """No-op: the reference loops have nothing to precompute (returns 0)."""
        return 0

    def extend_corpus(
        self, transactions: Sequence[Transaction], *, pin: bool = False
    ) -> int:
        """No-op: there is no compiled state to extend (returns 0)."""
        return 0

    def score_candidates(
        self, cluster: Sequence[Transaction], candidates: Sequence[Transaction]
    ) -> List[float]:
        """Per-candidate cohesion scores (sum of ``sim^gamma_J`` to every
        cluster member, accumulated in member order -- the float any
        bit-exact backend must reproduce)."""
        similarity = self.engine.transaction_similarity
        return [
            sum(similarity(member, candidate) for member in cluster)
            for candidate in candidates
        ]

    def rank_items_batch(self, items: Sequence[TreeTupleItem]) -> List[float]:
        """Blended item ranks via the reference loops
        (:func:`repro.core.representatives.reference_item_ranks`)."""
        # the reference loops live next to the ranking definitions; imported
        # lazily to keep the module graph acyclic
        from repro.core.representatives import reference_item_ranks

        return reference_item_ranks(items, self.engine)


# --------------------------------------------------------------------------- #
# Vectorized backend
# --------------------------------------------------------------------------- #
class _CompiledTransaction:
    """Feature-block view of one transaction (arrays over its items)."""

    __slots__ = ("length", "tag_path_ids", "content_ids", "uids", "_uid_set")

    def __init__(self, length, tag_path_ids, content_ids, uids, uid_set=None) -> None:
        self.length = length
        self.tag_path_ids = tag_path_ids
        self.content_ids = content_ids
        self.uids = uids
        self._uid_set = uid_set

    @property
    def uid_set(self):
        """Frozen uid set for the union counts, built lazily.

        Store-attached views slice their uid arrays straight out of a
        memmap; deferring the python-set materialisation keeps the attach
        path free of per-item work until a kernel actually needs the set.
        """
        uid_set = self._uid_set
        if uid_set is None:
            uid_set = frozenset(self.uids.tolist())
            self._uid_set = uid_set
        return uid_set


class NumpyBackend:
    """Vectorized batch backend built on numpy array kernels.

    Transactions are compiled once into three parallel integer arrays:

    * ``tag_path_ids`` indexing a dense structural-similarity matrix whose
      entries come from the shared tag-path cache (the paper's Sec. 4.3.2
      precomputation, materialised as an array);
    * ``content_ids`` indexing a memoised content-similarity block keyed by
      *content class* (the ordered term/weight tuple of the TCU vector, or
      the raw answer for empty TCUs), computed with the exact scalar
      :func:`~repro.similarity.content.content_similarity`;
    * ``uids`` (canonical item identifiers under transaction-item equality)
      used for the ``|match_gamma|`` and ``|tr1 ∪ tr2|`` set counts.

    The two directed gamma-match passes of Eq. 2 then become masked
    row/column max-reductions over the gathered item-similarity block.
    The batch kernels evaluate in *tiles*: contiguous groups of row and
    column transactions whose item totals each stay within the configured
    budget (``"numpy:block=N"``, default :data:`DEFAULT_BLOCK_ITEMS`,
    ``block=0`` = unbounded), so several column transactions are fused
    into one set of array reductions per tile -- fewer Python-loop
    iterations than the historical one-column-at-a-time pass -- while peak
    scratch memory stays bounded by the tile size instead of growing with
    the corpus.  Tiling never changes a result: the fused reductions are
    segment-wise max/any passes over the exact same gathered floats, so
    every tile size is bit-exact with every other (and with the scalar
    reference); :attr:`peak_scratch_entries` records the high-water scratch
    block size actually materialised.
    """

    name = "numpy"

    #: Entries allowed in the transient compile cache before it is pruned
    #: (representative candidates churn quickly during refinement).
    TRANSIENT_CAP = 8192

    #: Default tile budget (items per tile side) when the spec carries no
    #: ``block=`` option; see :data:`DEFAULT_BLOCK_ITEMS`.
    DEFAULT_BLOCK_ITEMS = DEFAULT_BLOCK_ITEMS

    def __init__(
        self, engine: "SimilarityEngine", options: Optional[str] = None
    ) -> None:
        self._np = _load_numpy()
        rest, block_items = split_block_option(
            options, f"numpy:{options}" if options else "numpy"
        )
        if rest:
            raise ValueError(
                f"invalid numpy backend options {options!r} "
                "(expected 'numpy[:block=N]')"
            )
        #: Configured tile budget: ``None`` = backend default, ``0`` =
        #: unbounded (untiled single-tile path), ``N`` = at most N row
        #: items x N column items of scratch per tile.
        self.block_items = block_items
        #: High-water mark of batch-kernel scratch entries (elements of the
        #: largest item-similarity block materialised so far); benchmarks
        #: read this to demonstrate the tile-size memory bound.
        self.peak_scratch_entries = 0
        self.engine = engine
        self.config = engine.config
        self.cache = engine.cache
        # --- registries shared by every compiled transaction -------------- #
        self._tag_paths: List[XMLPath] = []
        self._tag_path_index: Dict[XMLPath, int] = {}
        self._tp_matrix = self._np.zeros((0, 0), dtype=self._np.float64)
        self._content_index: Dict[tuple, int] = {}
        self._content_exemplars: List[TreeTupleItem] = []
        self._content_memo: Dict[Tuple[int, int], float] = {}
        self._cosine_memo: Dict[Tuple[int, int], float] = {}
        self._uid_index: Dict[TreeTupleItem, int] = {}
        # --- compiled transactions ---------------------------------------- #
        # The pinned cache is keyed by transaction *value* (transactions are
        # frozen dataclasses hashing by content): multiprocessing workers
        # that unpickle a fresh copy of their partition every round, and
        # serial runs where several peers share one engine, all land on the
        # same entries, so the cache size stays bounded by the number of
        # distinct corpus transactions.  The transient cache (representative
        # candidates churning through refinement) is identity-keyed and
        # pruned once it exceeds TRANSIENT_CAP.
        self._pinned: Dict[Transaction, _CompiledTransaction] = {}
        self._transient: Dict[int, Tuple[Transaction, _CompiledTransaction]] = {}
        # --- persistent compiled-corpus store ------------------------------ #
        #: Handle of the attached :class:`~repro.similarity.corpus_store.
        #: CorpusStore` (None when running without a store).
        self.attached_store = None
        #: Transactions compiled through :meth:`compile_corpus`; a warm
        #: store attach leaves this at 0 (asserted by tests / CI smoke).
        self.corpus_compile_count = 0
        # (corpus list, tag-path ids, content ids, uids, spans) memmap
        # views adopted by :meth:`attach_store`, plus the lazily built
        # transaction -> row map over them.
        self._attached = None
        self._attached_rows: Optional[Dict[Transaction, int]] = None
        # uid/content registries are rebuilt lazily after an attach; True
        # means they are authoritative (fresh engines start hydrated).
        self._hydrated = True

    # ------------------------------------------------------------------ #
    # Registries
    # ------------------------------------------------------------------ #
    def _tag_path_id(self, tag_path: XMLPath) -> int:
        index = self._tag_path_index.get(tag_path)
        if index is None:
            index = len(self._tag_paths)
            self._tag_path_index[tag_path] = index
            self._tag_paths.append(tag_path)
        return index

    @staticmethod
    def _content_key(item: TreeTupleItem) -> tuple:
        """Return the content class of an item.

        :func:`content_similarity` depends only on the two TCU vectors'
        ordered (term, weight) sequences -- the dot product iterates dict
        insertion order, so the *ordered* tuple pins the float result
        exactly -- falling back to raw-answer equality when both vectors
        are empty.  The key captures precisely that information.  Static
        because the corpus store derives the identical content classes
        when exporting a compiled corpus.
        """
        vector = item.vector
        if vector:
            return ("v", tuple(vector.items()))
        return ("e", item.answer)

    def _content_id(self, item: TreeTupleItem) -> int:
        if not self._hydrated:
            self._ensure_hydrated()
        key = self._content_key(item)
        index = self._content_index.get(key)
        if index is None:
            index = len(self._content_exemplars)
            self._content_index[key] = index
            self._content_exemplars.append(item)
        return index

    def _uid(self, item: TreeTupleItem) -> int:
        if not self._hydrated:
            self._ensure_hydrated()
        uid = self._uid_index.get(item)
        if uid is None:
            uid = len(self._uid_index)
            self._uid_index[item] = uid
        return uid

    def _ensure_tp_matrix(self):
        """Grow the dense structural-similarity matrix to cover every
        registered tag path, filling new entries from the shared cache so
        the floats match the python backend bit-for-bit."""
        np = self._np
        old = self._tp_matrix.shape[0]
        size = len(self._tag_paths)
        if size == old:
            return self._tp_matrix
        matrix = np.empty((size, size), dtype=np.float64)
        matrix[:old, :old] = self._tp_matrix
        similarity = self.cache.similarity
        paths = self._tag_paths
        for i in range(size):
            path_i = paths[i]
            start = old if i < old else 0
            for j in range(start, size):
                value = similarity(path_i, paths[j])
                matrix[i, j] = value
                matrix[j, i] = value
        self._tp_matrix = matrix
        return matrix

    # ------------------------------------------------------------------ #
    # Persistent compiled-corpus store
    # ------------------------------------------------------------------ #
    def attach_store(self, store, transactions=None) -> bool:
        """Adopt a persistent compiled corpus instead of recompiling it.

        On a pristine backend (nothing compiled yet) the store's array
        blocks are attached zero-copy: the tag-path registry and the
        read-only memmapped structural-similarity matrix become
        authoritative immediately, per-transaction array views materialise
        on first compile touch, and the uid/content registries hydrate
        lazily on first use (:meth:`_ensure_hydrated`) -- so a warm attach
        does no per-item work at all.  On a backend that already compiled
        transactions, only the handle is kept (the shard dispatch still
        uses it to address rows); returns True on a zero-copy attach.

        Bit-exactness is preserved because the store records precisely the
        first-occurrence registries and cache floats a fresh compile of
        the same corpus produces.
        """
        self.attached_store = store
        if self._pinned or self._tag_paths:
            return False
        np = self._np
        arrays = store.arrays()
        self._tag_paths = list(store.tag_paths())
        self._tag_path_index = {
            path: index for index, path in enumerate(self._tag_paths)
        }
        self._tp_matrix = arrays["tp_matrix"]
        if transactions is not None:
            store.bind_transactions(transactions)
        corpus = store.transactions()
        self._attached = (
            corpus,
            arrays["item_tag_path_ids"].astype(np.intp, copy=False),
            arrays["item_content_ids"].astype(np.intp, copy=False),
            arrays["item_uids"].astype(np.intp, copy=False),
            arrays["tx_spans"],
        )
        self._attached_rows = None
        self._hydrated = False
        return True

    def _attached_compiled(self, transaction: Transaction):
        """Store-backed compiled view of *transaction*, or None.

        Resolves the transaction (by value) to its corpus row and slices
        the shared id arrays -- views over the memmap, no copies.  The
        row map over the attached corpus is built on first miss of the
        pinned cache, i.e. never on the pure warm-attach path.
        """
        attached = self._attached
        if attached is None:
            return None
        corpus, tag_path_ids, content_ids, uids, spans = attached
        rows = self._attached_rows
        if rows is None:
            rows = {t: row for row, t in enumerate(corpus)}
            self._attached_rows = rows
        row = rows.get(transaction)
        if row is None:
            return None
        start = int(spans[row])
        stop = int(spans[row + 1])
        return _CompiledTransaction(
            length=stop - start,
            tag_path_ids=tag_path_ids[start:stop],
            content_ids=content_ids[start:stop],
            uids=uids[start:stop],
        )

    def _ensure_hydrated(self) -> None:
        """Rebuild the uid/content registries from the attached corpus.

        Deferred until something actually needs them (compiling a *new*
        transaction, scalar item kernels, content blocks).  Walking the
        corpus in order reproduces the exact fresh-compile registries:
        uids were stored dense in first-occurrence order, and a content
        id equal to the current exemplar count marks the first occurrence
        of its class -- the same exemplar item a fresh compile would keep.
        """
        if self._hydrated:
            return
        self._hydrated = True
        corpus, _, content_ids, uids, _ = self._attached
        uid_index = self._uid_index
        content_index = self._content_index
        exemplars = self._content_exemplars
        content_key = self._content_key
        position = 0
        for transaction in corpus:
            for item in transaction.items:
                if item not in uid_index:
                    uid_index[item] = int(uids[position])
                content_id = int(content_ids[position])
                if content_id == len(exemplars):
                    exemplars.append(item)
                    content_index[content_key(item)] = content_id
                position += 1

    # ------------------------------------------------------------------ #
    # Compilation
    # ------------------------------------------------------------------ #
    def _compile(self, transaction: Transaction) -> _CompiledTransaction:
        compiled = self._pinned.get(transaction)
        if compiled is not None:
            return compiled
        key = id(transaction)
        entry = self._transient.get(key)
        if entry is not None and entry[0] is transaction:
            return entry[1]
        compiled = self._attached_compiled(transaction)
        if compiled is not None:
            self._pinned[transaction] = compiled
            return compiled
        compiled = self._compile_items(transaction)
        if len(self._transient) >= self.TRANSIENT_CAP:
            self._transient.clear()
        self._transient[key] = (transaction, compiled)
        return compiled

    def _compile_items(self, transaction: Transaction) -> _CompiledTransaction:
        np = self._np
        items = transaction.items
        n = len(items)
        tag_path_ids = np.empty(n, dtype=np.intp)
        content_ids = np.empty(n, dtype=np.intp)
        uids = np.empty(n, dtype=np.intp)
        for position, item in enumerate(items):
            tag_path_ids[position] = self._tag_path_id(item.tag_path)
            content_ids[position] = self._content_id(item)
            uids[position] = self._uid(item)
        return _CompiledTransaction(
            length=n,
            tag_path_ids=tag_path_ids,
            content_ids=content_ids,
            uids=uids,
        )

    def compile_corpus(self, transactions: Sequence[Transaction]) -> int:
        """Compile *transactions* into the pinned (never-evicted) cache.

        Call this once per corpus -- e.g. at experiment start-up, or when
        several simulated nodes share one engine -- so every clustering
        iteration reuses the same feature blocks.

        Pins are keyed by transaction value, so re-presenting the same
        corpus -- even as freshly unpickled copies in a multiprocessing
        worker -- costs one dictionary probe per transaction and adds no
        new entries.  Transactions covered by an attached store pin their
        memmap-backed views without any compile work (and without
        counting).  Returns the number of newly *compiled* transactions
        and accumulates it in :attr:`corpus_compile_count`.
        """
        count = 0
        for transaction in transactions:
            if transaction in self._pinned:
                continue
            attached = self._attached_compiled(transaction)
            if attached is not None:
                self._pinned[transaction] = attached
                continue
            self._pinned[transaction] = self._compile_items(transaction)
            count += 1
        self._ensure_tp_matrix()
        self.corpus_compile_count += count
        return count

    def extend_corpus(
        self, transactions: Sequence[Transaction], *, pin: bool = False
    ) -> int:
        """Delta-compile *transactions* on top of the existing corpus.

        The incremental sibling of :meth:`compile_corpus`: transactions
        already pinned or covered by an attached store are skipped, and
        new ones extend the tag-path / content-class / uid registries in
        first-occurrence order -- exactly the numbering a monolithic
        compile of the concatenated corpus would assign, which is what
        keeps store fingerprints stable under chunked ingestion.  The
        structural matrix grows by the new paths' rows only
        (:meth:`_ensure_tp_matrix` fills just the added entries from the
        shared cache), so the cost of an append is proportional to the
        delta, never the accumulated corpus.

        With ``pin=False`` (the default) new compilations land in the
        bounded transient cache instead of the pinned one, so a streaming
        caller can ingest an unbounded corpus without the backend holding
        every transaction alive.  Returns the newly compiled count and
        accumulates it in :attr:`corpus_compile_count`.
        """
        count = 0
        for transaction in transactions:
            if transaction in self._pinned:
                continue
            attached = self._attached_compiled(transaction)
            if attached is not None:
                if pin:
                    self._pinned[transaction] = attached
                continue
            compiled = self._compile_items(transaction)
            count += 1
            if pin:
                self._pinned[transaction] = compiled
            else:
                if len(self._transient) >= self.TRANSIENT_CAP:
                    self._transient.clear()
                self._transient[id(transaction)] = (transaction, compiled)
        self._ensure_tp_matrix()
        self.corpus_compile_count += count
        return count

    # ------------------------------------------------------------------ #
    # Content block
    # ------------------------------------------------------------------ #
    def _content_block(self, row_classes, column_classes):
        """Dense content-similarity block for the given content-class ids.

        Entries are memoised per *ordered* (row class, column class) pair:
        the scalar kernel is not perfectly symmetric at the ULP level (the
        sparse dot iterates the smaller operand), and the reference code
        always evaluates ``sim(transaction item, representative item)`` in
        that order.
        """
        if not self._hydrated:
            self._ensure_hydrated()
        np = self._np
        memo = self._content_memo
        exemplars = self._content_exemplars
        block = np.empty((len(row_classes), len(column_classes)), dtype=np.float64)
        for i, row_class in enumerate(row_classes):
            row_item = exemplars[row_class]
            for j, column_class in enumerate(column_classes):
                pair = (row_class, column_class)
                value = memo.get(pair)
                if value is None:
                    value = content_similarity(row_item, exemplars[column_class])
                    memo[pair] = value
                block[i, j] = value
        return block

    def _content_maps(self, row_classes, column_classes):
        """Content block plus full-size local-id remap arrays.

        The single construction of the memoised content lookup shared by
        every batch kernel: the dense block for the given class-id sets,
        and two ``len(_content_exemplars)``-sized arrays mapping a global
        content class id to its row/column position in that block.
        """
        np = self._np
        content = self._content_block(row_classes.tolist(), column_classes.tolist())
        row_remap = np.zeros(len(self._content_exemplars), dtype=np.intp)
        row_remap[row_classes] = np.arange(len(row_classes), dtype=np.intp)
        column_remap = np.zeros(len(self._content_exemplars), dtype=np.intp)
        column_remap[column_classes] = np.arange(
            len(column_classes), dtype=np.intp
        )
        return content, row_remap, column_remap

    def _cosine_block(self, classes):
        """Dense TCU-cosine block for the given content-class ids.

        ``rank_C`` sums :meth:`~repro.text.vector.SparseVector.cosine`
        values, which depend only on the vectors' ordered term/weight
        sequences -- exactly the information the content-class key pins --
        so one cosine per ordered class pair reproduces every per-item
        cosine of the reference loop bit-for-bit.
        """
        if not self._hydrated:
            self._ensure_hydrated()
        np = self._np
        memo = self._cosine_memo
        exemplars = self._content_exemplars
        block = np.empty((len(classes), len(classes)), dtype=np.float64)
        for i, row_class in enumerate(classes):
            row_vector = exemplars[row_class].vector
            for j, column_class in enumerate(classes):
                pair = (row_class, column_class)
                value = memo.get(pair)
                if value is None:
                    value = row_vector.cosine(exemplars[column_class].vector)
                    memo[pair] = value
                block[i, j] = value
        return block

    # ------------------------------------------------------------------ #
    # Batch kernel (tiled)
    # ------------------------------------------------------------------ #
    @property
    def effective_block_items(self) -> Optional[int]:
        """Resolved tile budget: ``None`` means unbounded (single tile).

        The configured :attr:`block_items` with ``None`` resolved to the
        backend default and the explicit ``0`` (untiled) selection resolved
        to an unbounded budget.
        """
        block = (
            self.DEFAULT_BLOCK_ITEMS
            if self.block_items is None
            else self.block_items
        )
        return None if block == 0 else block

    @staticmethod
    def _tile_spans(lengths: Sequence[int], budget: Optional[int]):
        """Contiguous ``(start, stop)`` spans with item totals within *budget*.

        Transactions are atomic -- a span always holds at least one, so a
        single transaction larger than the budget forms its own span --
        and consecutive, so every tiled reduction visits rows and columns
        in exactly the input order.  ``budget=None`` returns one span
        covering everything (the unbounded single-tile path).
        """
        count = len(lengths)
        if not count:
            return []
        if budget is None:
            return [(0, count)]
        spans = []
        start = 0
        total = 0
        for index, length in enumerate(lengths):
            if index > start and total + length > budget:
                spans.append((start, index))
                start = index
                total = 0
            total += length
        spans.append((start, count))
        return spans

    def _pair_similarities(self, rows: Sequence[Transaction], columns: Sequence[Transaction]):
        """Return the (len(rows), len(columns)) array of sim^gamma_J values.

        Evaluated in ``(row_tile x column_tile)`` blocks: contiguous
        groups of transactions whose item totals stay within
        :attr:`effective_block_items` per side.  Several column
        transactions are fused into one set of segment-wise reductions
        per tile (``np.maximum.reduceat`` / ``np.logical_or.reduceat``
        over the per-transaction item segments), which generalises the
        historical one-column-at-a-time pass exactly: max/any reductions
        are order-independent and the gathered floats are identical, so
        every tile size produces the same bits.
        """
        np = self._np
        f = self.config.f
        gamma = self.config.gamma
        sims = np.zeros((len(rows), len(columns)), dtype=np.float64)

        compiled_rows = [self._compile(row) for row in rows]
        compiled_columns = [self._compile(column) for column in columns]
        row_positions = [i for i, c in enumerate(compiled_rows) if c.length]
        column_positions = [j for j, c in enumerate(compiled_columns) if c.length]
        if not row_positions or not column_positions:
            return sims

        tp_matrix = self._ensure_tp_matrix()
        active_rows = [compiled_rows[i] for i in row_positions]
        active_columns = [compiled_columns[j] for j in column_positions]

        # --- content lookup block (skipped entirely when f == 1) ----------- #
        # built once for the whole call: its size is bounded by the number
        # of distinct content classes (schema-scale), not by the tiles
        if f != 1.0:
            row_classes = np.unique(
                np.concatenate([c.content_ids for c in active_rows])
            )
            column_classes = np.unique(
                np.concatenate([c.content_ids for c in active_columns])
            )
            content, row_remap, column_remap = self._content_maps(
                row_classes, column_classes
            )

        budget = self.effective_block_items
        row_spans = self._tile_spans([c.length for c in active_rows], budget)
        column_spans = self._tile_spans(
            [c.length for c in active_columns], budget
        )

        # per-column-tile data is row-independent: build it once instead of
        # once per (row tile x column tile) pair
        column_tiles = []
        for column_start, column_stop in column_spans:
            tile_columns = active_columns[column_start:column_stop]
            column_lengths = np.array(
                [c.length for c in tile_columns], dtype=np.intp
            )
            column_offsets = np.zeros(len(tile_columns), dtype=np.intp)
            np.cumsum(column_lengths[:-1], out=column_offsets[1:])
            column_tp = (
                np.concatenate([c.tag_path_ids for c in tile_columns])
                if f != 0.0
                else None
            )
            column_ck = (
                column_remap[
                    np.concatenate([c.content_ids for c in tile_columns])
                ]
                if f != 1.0
                else None
            )
            column_tiles.append(
                (
                    column_start,
                    tile_columns,
                    column_lengths,
                    column_offsets,
                    column_tp,
                    column_ck,
                )
            )

        for row_start, row_stop in row_spans:
            tile_rows = active_rows[row_start:row_stop]
            lengths = np.array([c.length for c in tile_rows], dtype=np.intp)
            offsets = np.zeros(len(tile_rows), dtype=np.intp)
            np.cumsum(lengths[:-1], out=offsets[1:])
            if f != 0.0:
                row_tp = np.concatenate([c.tag_path_ids for c in tile_rows])
            if f != 1.0:
                row_ck = row_remap[
                    np.concatenate([c.content_ids for c in tile_rows])
                ]
            for (
                column_start,
                tile_columns,
                column_lengths,
                column_offsets,
                column_tp,
                column_ck,
            ) in column_tiles:
                # item-similarity block: same arithmetic as the scalar
                # Eq. 1, including the f == 0 / f == 1 short-circuits.
                if f != 0.0:
                    structural = tp_matrix[row_tp[:, None], column_tp[None, :]]
                if f != 1.0:
                    contentpart = content[row_ck[:, None], column_ck[None, :]]
                if f == 1.0:
                    block = structural
                elif f == 0.0:
                    block = contentpart
                else:
                    block = f * structural + (1.0 - f) * contentpart
                if block.size > self.peak_scratch_entries:
                    self.peak_scratch_entries = block.size

                # direction tr -> rep: per representative item (column),
                # the best row item(s) of each row-transaction segment; a
                # row item is matched for a column transaction when any of
                # that transaction's qualifying columns elects it.
                column_max = np.maximum.reduceat(block, offsets, axis=0)
                qualifying = column_max >= gamma
                matched_row_items = np.logical_or.reduceat(
                    (block == np.repeat(column_max, lengths, axis=0))
                    & np.repeat(qualifying, lengths, axis=0),
                    column_offsets,
                    axis=1,
                )
                # direction rep -> tr: per row item, its best item(s)
                # within each column-transaction segment; a segment's
                # column is matched when any qualifying row attains its
                # segment maximum there.
                row_max = np.maximum.reduceat(block, column_offsets, axis=1)
                row_qualifies = row_max >= gamma
                matched_column_items = np.logical_or.reduceat(
                    (block == np.repeat(row_max, column_lengths, axis=1))
                    & np.repeat(row_qualifies, column_lengths, axis=1),
                    offsets,
                    axis=0,
                )

                for row_index, compiled_row in enumerate(tile_rows):
                    row_slice = slice(
                        offsets[row_index],
                        offsets[row_index] + lengths[row_index],
                    )
                    row_uids = compiled_row.uids
                    row_uid_set = compiled_row.uid_set
                    sims_row = row_positions[row_start + row_index]
                    for column_index, compiled_column in enumerate(tile_columns):
                        column_slice = slice(
                            column_offsets[column_index],
                            column_offsets[column_index]
                            + column_lengths[column_index],
                        )
                        matched = set(
                            row_uids[
                                matched_row_items[row_slice, column_index]
                            ].tolist()
                        )
                        matched.update(
                            compiled_column.uids[
                                matched_column_items[row_index, column_slice]
                            ].tolist()
                        )
                        union = len(row_uid_set | compiled_column.uid_set)
                        if union:
                            sims[
                                sims_row,
                                column_positions[column_start + column_index],
                            ] = len(matched) / union
        return sims

    # ------------------------------------------------------------------ #
    # Scalar API (parity with the reference backend)
    # ------------------------------------------------------------------ #
    def item_similarity(self, item_a: TreeTupleItem, item_b: TreeTupleItem) -> float:
        """Combined item similarity (Eq. 1) from the shared tag-path cache
        and the memoised per-content-class block; bit-exact with the scalar
        reference (same IEEE-754 operation order, same short-circuits)."""
        structural = self.cache.item_similarity(item_a, item_b)
        f = self.config.f
        if f == 1.0:
            return structural
        pair = (self._content_id(item_a), self._content_id(item_b))
        value = self._content_memo.get(pair)
        if value is None:
            value = content_similarity(item_a, item_b)
            self._content_memo[pair] = value
        if f == 0.0:
            return value
        return f * structural + (1.0 - f) * value

    def gamma_shared_items(
        self, tr1: Transaction, tr2: Transaction
    ) -> Set[TreeTupleItem]:
        """Gamma-shared item set (Eq. 2) as two masked max-reduction passes
        over the compiled item-similarity block; the returned set equals the
        reference loop's for every input."""
        if tr1.is_empty() or tr2.is_empty():
            return set()
        np = self._np
        f = self.config.f
        gamma = self.config.gamma
        first = self._compile(tr1)
        second = self._compile(tr2)
        tp_matrix = self._ensure_tp_matrix()
        if f == 1.0:
            block = tp_matrix[first.tag_path_ids[:, None], second.tag_path_ids[None, :]]
        else:
            row_classes = np.unique(first.content_ids)
            column_classes = np.unique(second.content_ids)
            content, row_remap, column_remap = self._content_maps(
                row_classes, column_classes
            )
            contentpart = content[
                row_remap[first.content_ids][:, None],
                column_remap[second.content_ids][None, :],
            ]
            if f == 0.0:
                block = contentpart
            else:
                structural = tp_matrix[
                    first.tag_path_ids[:, None], second.tag_path_ids[None, :]
                ]
                block = f * structural + (1.0 - f) * contentpart

        column_max = block.max(axis=0)
        matched_rows = ((block == column_max[None, :]) & (column_max >= gamma)[None, :]).any(axis=1)
        row_max = block.max(axis=1)
        matched_columns = ((block == row_max[:, None]) & (row_max >= gamma)[:, None]).any(axis=0)
        matched: Set[TreeTupleItem] = {
            item for item, flag in zip(tr1.items, matched_rows.tolist()) if flag
        }
        matched.update(
            item for item, flag in zip(tr2.items, matched_columns.tolist()) if flag
        )
        return matched

    def transaction_similarity(self, tr1: Transaction, tr2: Transaction) -> float:
        """Transaction similarity ``sim^gamma_J`` (Eq. 4) as a 1x1 batch;
        the integer-ratio result matches the scalar loop exactly."""
        return float(self._pair_similarities([tr1], [tr2])[0, 0])

    def pairwise_transaction_similarity(
        self, rows: Sequence[Transaction], columns: Sequence[Transaction]
    ) -> List[List[float]]:
        """Dense ``sim^gamma_J`` block evaluated by the vectorized batch
        kernel, returned as nested lists in row/column input order."""
        return self._pair_similarities(rows, columns).tolist()

    def nearest_representative(
        self, transaction: Transaction, representatives: Sequence[Transaction]
    ) -> Tuple[int, float]:
        """(index, similarity) of the best representative; ``np.argmax``
        keeps the first maximum, reproducing the reference lowest-index
        tie-break.  An empty representative list returns ``(-1, 0.0)``."""
        if not representatives:
            return -1, 0.0
        row = self._pair_similarities([transaction], representatives)[0]
        index = int(self._np.argmax(row))
        return index, float(row[index])

    def assign_all(
        self,
        transactions: Sequence[Transaction],
        representatives: Sequence[Transaction],
    ) -> List[Tuple[int, float]]:
        """Bulk assignment: the whole corpus-vs-representatives block in one
        batched kernel call, one ``(index, similarity)`` pair per
        transaction in input order with the lowest-index tie-break."""
        if not representatives:
            return [(-1, 0.0) for _ in transactions]
        np = self._np
        sims = self._pair_similarities(transactions, representatives)
        # np.argmax keeps the first maximum, matching the reference loop's
        # strictly-greater update (ties break to the lowest index).
        best = np.argmax(sims, axis=1)
        values = sims[np.arange(sims.shape[0]), best]
        return [(int(index), float(value)) for index, value in zip(best, values)]

    # ------------------------------------------------------------------ #
    # Representative refinement (batch scoring and ranking)
    # ------------------------------------------------------------------ #
    def score_candidates(
        self, cluster: Sequence[Transaction], candidates: Sequence[Transaction]
    ) -> List[float]:
        """Per-candidate cohesion scores from tiled batched similarity
        blocks, accumulated row by row so every float matches the reference
        member-order sum bit-for-bit.

        The cluster rows are processed in contiguous member-order tiles
        (item totals within :attr:`effective_block_items`), so only one
        ``(row_tile x candidates)`` similarity block is alive at a time --
        peak memory stays bounded for arbitrarily large clusters -- while
        the row-major accumulation order (hence every float) is identical
        to the single-block path.
        """
        candidates = list(candidates)
        if not candidates:
            return []
        cluster = list(cluster)
        np = self._np
        totals = np.zeros(len(candidates), dtype=np.float64)
        if cluster:
            spans = self._tile_spans(
                [len(member.items) for member in cluster],
                self.effective_block_items,
            )
            for start, stop in spans:
                sims = self._pair_similarities(cluster[start:stop], candidates)
                # accumulate row by row: per candidate the same
                # left-to-right member-order sum as the reference loop
                # (tiles are contiguous and in order), hence the same float
                for row in sims:
                    totals = totals + row
        return [float(total) for total in totals]

    def rank_items_batch(self, items: Sequence[TreeTupleItem]) -> List[float]:
        """Blended structural/content ranks of the whole pool: structural
        sums over the compiled tag-path matrix, content sums over the
        memoised per-class cosine block.

        Both gathers are evaluated in ``(row_tile x column_tile)`` blocks
        of at most :attr:`effective_block_items` items per side, so peak
        scratch stays bounded for arbitrarily large pools.  The structural
        sums are integer-valued (path multiplicities), hence exact under
        any tiling; the content accumulation walks the column tiles left
        to right and the columns within each tile in order, replaying the
        reference sequential sum so every rank is the same float.
        """
        items = list(items)
        n = len(items)
        if not n:
            return []
        np = self._np
        f = self.config.f
        gamma = self.config.gamma
        budget = self.effective_block_items
        item_spans = self._tile_spans([1] * n, budget)

        # --- structural ranking (per distinct complete path) --------------- #
        if f != 0.0:
            path_counts: Dict[object, int] = {}
            for item in items:
                path_counts[item.path] = path_counts.get(item.path, 0) + 1
            distinct_paths = list(path_counts)
            item_tp = np.array(
                [self._tag_path_id(item.tag_path) for item in items], dtype=np.intp
            )
            pool_tp = np.array(
                [self._tag_path_id(path.tag_path()) for path in distinct_paths],
                dtype=np.intp,
            )
            tp_matrix = self._ensure_tp_matrix()
            counts = np.array(
                [path_counts[path] for path in distinct_paths], dtype=np.float64
            )
            path_spans = self._tile_spans([1] * len(distinct_paths), budget)
            rank_s = np.zeros(n, dtype=np.float64)
            for row_start, row_stop in item_spans:
                partial = np.zeros(row_stop - row_start, dtype=np.float64)
                for column_start, column_stop in path_spans:
                    structural = tp_matrix[
                        item_tp[row_start:row_stop, None],
                        pool_tp[None, column_start:column_stop],
                    ]
                    if structural.size > self.peak_scratch_entries:
                        self.peak_scratch_entries = structural.size
                    # the masked sums are integer-valued, so they are exact
                    # in any summation order (and under any tiling) and
                    # match the scalar accumulation bit-for-bit
                    partial = partial + np.where(
                        structural >= gamma,
                        counts[None, column_start:column_stop],
                        0.0,
                    ).sum(axis=1)
                rank_s[row_start:row_stop] = partial / len(distinct_paths)
        else:
            rank_s = np.zeros(n, dtype=np.float64)

        # --- content ranking (memoised per-class cosine block) ------------- #
        if f != 1.0:
            class_ids = np.array([self._content_id(item) for item in items], dtype=np.intp)
            present = np.unique(class_ids)
            block = self._cosine_block(present.tolist())
            remap = np.zeros(len(self._content_exemplars), dtype=np.intp)
            remap[present] = np.arange(len(present), dtype=np.intp)
            local = remap[class_ids]
            rank_c = np.zeros(n, dtype=np.float64)
            for row_start, row_stop in item_spans:
                partial = np.zeros(row_stop - row_start, dtype=np.float64)
                for column_start, column_stop in item_spans:
                    cosines = block[
                        local[row_start:row_stop, None],
                        local[None, column_start:column_stop],
                    ]
                    if cosines.size > self.peak_scratch_entries:
                        self.peak_scratch_entries = cosines.size
                    # accumulate column by column so every rank is the same
                    # sequential left-to-right sum as the reference loop
                    # (tiles walk the columns in order)
                    for j in range(cosines.shape[1]):
                        partial = partial + cosines[:, j]
                rank_c[row_start:row_stop] = partial
            empty = np.array([not item.vector for item in items], dtype=bool)
            rank_c[empty] = 0.0
        else:
            # the reference blend multiplies rank_C by (1 - f) == 0.0, so any
            # finite value yields the same float; skip the cosine work
            rank_c = np.zeros(n, dtype=np.float64)

        ranks = f * rank_s + (1.0 - f) * rank_c
        return [float(rank) for rank in ranks]


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
_REGISTRY: Dict[str, Callable[..., SimilarityBackend]] = {}


def register_backend(name: str, factory: Callable[..., SimilarityBackend]) -> None:
    """Register a backend *factory* under *name* (case-insensitive).

    A factory is called as ``factory(engine)``; factories that support
    backend-name options (``"name:options"``) must additionally accept the
    option string as a second positional argument.
    """
    _REGISTRY[name.lower()] = factory


def create_backend(name: Optional[str], engine: "SimilarityEngine") -> SimilarityBackend:
    """Instantiate the backend registered under *name* for *engine*.

    ``None`` selects :data:`DEFAULT_BACKEND`.  A ``"name:options"`` spec
    passes the option string to the factory (e.g. ``"numpy:block=64"``).
    Unknown names raise a ``ValueError`` listing the registered
    alternatives.
    """
    key = (name or DEFAULT_BACKEND).lower()
    base, _, options = key.partition(":")
    factory = _REGISTRY.get(base)
    if factory is None:
        raise ValueError(_unknown_backend_message(name))
    if options:
        if not _factory_accepts_options(factory):
            raise ValueError(
                f"similarity backend {base!r} accepts no options (got {options!r})"
            )
        return factory(engine, options)
    return factory(engine)


def _factory_accepts_options(factory: Callable[..., SimilarityBackend]) -> bool:
    """True when *factory* can be called with a second (options) argument.

    Decided from the signature rather than by catching ``TypeError`` around
    the call, so a genuine ``TypeError`` raised *inside* an option-accepting
    factory keeps its real traceback instead of being misreported as
    "accepts no options".
    """
    import inspect

    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        return True
    positional = [
        parameter
        for parameter in signature.parameters.values()
        if parameter.kind
        in (parameter.POSITIONAL_ONLY, parameter.POSITIONAL_OR_KEYWORD)
    ]
    has_var_positional = any(
        parameter.kind is parameter.VAR_POSITIONAL
        for parameter in signature.parameters.values()
    )
    return has_var_positional or len(positional) >= 2


def registered_backends() -> Tuple[str, ...]:
    """Return every registered backend name, sorted."""
    return tuple(sorted(_REGISTRY))


def available_backends() -> Tuple[str, ...]:
    """Return the registered backends usable in this environment.

    ``numpy`` is listed only when numpy imports; selecting it without numpy
    still raises an actionable :class:`BackendUnavailableError` (see
    :func:`validate_backend_spec`).
    """
    return tuple(
        name
        for name in registered_backends()
        if name != "numpy" or _numpy_importable()
    )


def validate_backend_spec(spec: Optional[str]) -> str:
    """Validate a ``"name[:options]"`` backend spec without an engine.

    The config-resolution-time gate used by
    :class:`~repro.core.config.ClusteringConfig` and the CLI so a broken
    spec fails where the user wrote it, not deep inside a fit:

    * unknown base names raise ``ValueError`` listing the registered
      alternatives (same message as :func:`create_backend` -- the single
      source of truth the CLI and ``ClusteringConfig`` both surface);
    * options passed to an option-less backend raise ``ValueError``;
    * malformed ``block=`` budgets raise ``ValueError`` naming the
      offending part;
    * ``numpy`` without numpy installed raises
      :class:`BackendUnavailableError` with an actionable message.

    Returns the normalised (lower-cased) spec.
    """
    key = (spec or DEFAULT_BACKEND).lower()
    base, _, options = key.partition(":")
    factory = _REGISTRY.get(base)
    if factory is None:
        raise ValueError(_unknown_backend_message(spec))
    if options and not _factory_accepts_options(factory):
        raise ValueError(
            f"similarity backend {base!r} accepts no options (got {options!r})"
        )
    if base == "numpy":
        _load_numpy()
        rest, _ = split_block_option(options or None, key)
        if rest:
            raise ValueError(
                f"invalid numpy backend options {options!r} "
                "(expected 'numpy[:block=N]')"
            )
    return key


register_backend("python", PythonBackend)
register_backend("numpy", NumpyBackend)
