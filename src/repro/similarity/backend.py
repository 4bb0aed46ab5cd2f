"""Pluggable similarity backends and the vectorized batch engine.

Every clustering algorithm of the reproduction (XK-means, PK-means,
CXK-means) spends nearly all of its runtime evaluating the transaction
similarity ``sim^gamma_J`` between data transactions and cluster
representatives.  The reference implementation walks every item pair in
Python, which is faithful to the paper but far from "as fast as the
hardware allows".  This module turns the similarity layer into a pluggable
architecture:

* :class:`SimilarityBackend` -- the protocol every backend implements:
  the calls the clustering algorithms make (the bulk ``assign_all`` of the
  assignment step, the refinement's ``score_candidates`` and
  ``rank_items_batch``, corpus compilation) plus the batched
  ``pairwise_transaction_similarity`` the parity suites compare; the
  scalar Eq. 1-4 functions live only on the reference
  :class:`~repro.similarity.transaction.SimilarityEngine`;
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
  that function consumes); it is called only for class pairs that share a
  term, because every other pair scores exactly what that function returns
  without reading a weight (1.0 for an empty-TCU class meeting itself, 0.0
  otherwise);
* the blend ``f * sim_S + (1 - f) * sim_C`` is evaluated elementwise with
  the same IEEE-754 operation order as the scalar code, including the
  ``f == 0`` / ``f == 1`` short-circuits.

Because every item similarity is therefore the *same float* in both
backends, all gamma-threshold comparisons, argmax tie sets, match counts
and the final integer-ratio transaction similarities coincide, and a
clustering run with a fixed seed produces identical assignments under
either backend.  The parity suite in ``tests/test_similarity_backend.py``
asserts this property.

A backend is selected by a spec string, ``python`` or ``numpy[:block=N]``,
which :func:`parse_backend_spec` reads for both :func:`create_backend` and
:func:`validate_backend_spec`.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.similarity.content import content_similarity
from repro.transactions.items import TreeTupleItem
from repro.transactions.transaction import Transaction
from repro.xmlmodel.paths import XMLPath

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.similarity.transaction import SimilarityEngine

#: Name of the backend used when none is requested explicitly.
DEFAULT_BACKEND = "python"

#: Every backend name a spec may start with, in the order error messages
#: list them.
BACKEND_NAMES = ("numpy", "python")

#: Default item budget per tile side of the batched kernels.  Every batch
#: backend evaluates its similarity blocks in ``(row_tile x column_tile)``
#: tiles whose row-item and column-item totals each stay within this
#: budget, so peak scratch memory is bounded by roughly
#: ``budget**2 * 8`` bytes per scratch array regardless of corpus size.
#: Overridable per backend spec (``numpy:block=N``); ``block=0`` selects
#: the unbounded single-tile (untiled) path.
DEFAULT_BLOCK_ITEMS = 2048


class BackendUnavailableError(RuntimeError):
    """Raised when the selected backend cannot run in this environment."""


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


# --------------------------------------------------------------------------- #
# The backend protocol
# --------------------------------------------------------------------------- #
@runtime_checkable
class SimilarityBackend(Protocol):
    """Interface of a similarity backend.

    The batch calls the clustering algorithms make, each answering what the
    scalar reference methods of
    :class:`~repro.similarity.transaction.SimilarityEngine` would answer
    for a whole block at once, so implementations can amortise per-call
    work across a corpus:

    * :meth:`assign_all` performs the complete assignment step (every
      transaction against every representative) of one clustering
      iteration;
    * :meth:`score_candidates` and :meth:`rank_items_batch` serve the
      representative refinement;
    * :meth:`compile_corpus` and :meth:`extend_corpus` prepare a corpus;
    * :meth:`pairwise_transaction_similarity` evaluates a block of
      ``sim^gamma_J`` values -- the kernel's parity surface.
    """

    name: str

    def pairwise_transaction_similarity(
        self, rows: Sequence[Transaction], columns: Sequence[Transaction]
    ) -> List[List[float]]:
        """Matrix of ``sim^gamma_J(rows[i], columns[j])`` values."""
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

        Only transactions the backend has not already pinned are
        processed; registries and feature blocks grow by the delta with
        first-occurrence numbering preserved.  ``pin=True`` additionally
        pins the new compilations (batch-corpus semantics); the default
        leaves them evictable so a streaming caller's memory stays
        bounded.  Returns the number of newly compiled transactions (0
        for backends with nothing to precompute).
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

    def pairwise_transaction_similarity(
        self, rows: Sequence[Transaction], columns: Sequence[Transaction]
    ) -> List[List[float]]:
        """Similarity block as nested lists: one scalar call per pair."""
        similarity = self.engine.transaction_similarity
        return [[similarity(row, column) for column in columns] for row in rows]

    def assign_all(
        self,
        transactions: Sequence[Transaction],
        representatives: Sequence[Transaction],
    ) -> List[Tuple[int, float]]:
        """Bulk assignment as a plain loop over the engine's
        ``nearest_representative``, one result per transaction in input
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
        """Frozen uid set for the union counts, built on first use."""
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
    * ``content_ids`` indexing a content-similarity block keyed by
      *content class* (the ordered term/weight tuple of the TCU vector, or
      the raw answer for empty TCUs), whose term-sharing pairs are computed
      with the exact scalar
      :func:`~repro.similarity.content.content_similarity` and memoised;
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
        self, engine: "SimilarityEngine", block_items: Optional[int] = None
    ) -> None:
        self._np = _load_numpy()
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
        # term ids of every content class as CSR arrays (class c owns
        # _class_term_ids[_class_term_offsets[c]:_class_term_offsets[c + 1]]),
        # grown lazily by _class_terms; empty-TCU classes own no terms
        self._class_term_offsets = self._np.zeros(1, dtype=self._np.intp)
        self._class_term_ids = self._np.zeros(0, dtype=self._np.intp)
        # memoised scalar values of the term-sharing class pairs only
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
        #: Transactions compiled through :meth:`compile_corpus` and
        #: :meth:`extend_corpus` (a loaded model reports it in its stats).
        self.corpus_compile_count = 0

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
        are empty.  The key captures precisely that information.
        """
        vector = item.vector
        if vector:
            return ("v", tuple(vector.items()))
        return ("e", item.answer)

    def _content_id(self, item: TreeTupleItem) -> int:
        key = self._content_key(item)
        index = self._content_index.get(key)
        if index is None:
            index = len(self._content_exemplars)
            self._content_index[key] = index
            self._content_exemplars.append(item)
        return index

    def _uid(self, item: TreeTupleItem) -> int:
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

    def attach_store(self, store, transactions: Sequence[Transaction]) -> bool:
        """Adopt nothing and return False.

        The compiled-corpus cache this used to attach was deleted: a warm
        attach was slower end to end than compiling.  The name stays
        because the benchmark's tracer wraps it.
        """
        return False

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
        new entries.  Returns the number of newly *compiled* transactions
        and accumulates it in :attr:`corpus_compile_count`.
        """
        count = 0
        for transaction in transactions:
            if transaction in self._pinned:
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
        already pinned are skipped, and new ones extend the tag-path /
        content-class / uid registries in first-occurrence order --
        exactly the numbering a monolithic compile of the concatenated
        corpus would assign.  The structural matrix grows by the new
        paths' rows only (:meth:`_ensure_tp_matrix` fills just the added
        entries from the shared cache), so the cost of an append is
        proportional to the delta, never the accumulated corpus.

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
    def _class_terms(self):
        """CSR ``(offsets, term_ids)`` of every registered content class.

        Grown by the classes registered since the last call; only their
        vectors are read.
        """
        np = self._np
        exemplars = self._content_exemplars
        offsets = self._class_term_offsets
        covered = len(offsets) - 1
        if covered < len(exemplars):
            new_terms = [
                list(exemplars[index].vector.terms())
                for index in range(covered, len(exemplars))
            ]
            flat = [term for terms in new_terms for term in terms]
            lengths = [len(terms) for terms in new_terms]
            self._class_term_ids = np.concatenate(
                [self._class_term_ids, np.array(flat, dtype=np.intp)]
            )
            self._class_term_offsets = np.concatenate(
                [offsets, offsets[-1] + np.cumsum(lengths, dtype=np.intp)]
            )
        return self._class_term_offsets, self._class_term_ids

    def _runs(self, starts, lengths):
        """The concatenated ``range(start, start + length)`` runs."""
        np = self._np
        ends = np.cumsum(lengths)
        total = int(ends[-1]) if len(ends) else 0
        offsets = np.repeat(starts - (ends - lengths), lengths)
        return np.arange(total, dtype=np.intp) + offsets

    def _class_term_entries(self, classes):
        """``(term ids, local class index)`` of every term of *classes*."""
        np = self._np
        offsets, term_ids = self._class_terms()
        starts = offsets[classes]
        lengths = offsets[classes + 1] - starts
        owners = np.repeat(np.arange(len(classes), dtype=np.intp), lengths)
        return term_ids[self._runs(starts, lengths)], owners

    def _sharing_pairs(self, row_classes, column_classes):
        """Local ``(rows, columns)`` index arrays of the class pairs of
        ``row_classes x column_classes`` that share at least one term id.

        A sort/search join over the per-class term ids: every row term
        meets the run of equal column terms, and the distinct
        (row, column) pairs come back in row-major order.
        """
        np = self._np
        row_terms, row_owners = self._class_term_entries(row_classes)
        column_terms, column_owners = self._class_term_entries(column_classes)
        order = np.argsort(column_terms)
        column_terms = column_terms[order]
        column_owners = column_owners[order]
        first = np.searchsorted(column_terms, row_terms, side="left")
        counts = np.searchsorted(column_terms, row_terms, side="right") - first
        width = len(column_classes)
        keys = np.unique(
            np.repeat(row_owners, counts) * width
            + column_owners[self._runs(first, counts)]
        )
        return keys // width, keys % width

    def _sharing_block(self, row_classes, column_classes, memo, score):
        """Block of ``score(row exemplar, column exemplar)`` over the
        term-sharing class pairs, 0.0 everywhere else.

        Each evaluated value is memoised in *memo* under the *ordered*
        (row class, column class) pair: the scalar kernels are not
        perfectly symmetric at the ULP level (the sparse dot iterates the
        smaller operand), and the reference code always evaluates
        ``sim(transaction item, representative item)`` in that order.
        """
        np = self._np
        block = np.zeros((len(row_classes), len(column_classes)), dtype=np.float64)
        rows, columns = self._sharing_pairs(row_classes, column_classes)
        exemplars = self._content_exemplars
        values = []
        for pair in zip(row_classes[rows].tolist(), column_classes[columns].tolist()):
            value = memo.get(pair)
            if value is None:
                value = score(exemplars[pair[0]], exemplars[pair[1]])
                memo[pair] = value
            values.append(value)
        block[rows, columns] = values
        return block

    def _content_block(self, row_classes, column_classes):
        """Content-similarity block for the given distinct class-id arrays.

        Only class pairs that share a term call the scalar
        :func:`content_similarity`; every other entry is the value that
        function returns without looking at a weight.  An empty-TCU class
        meeting itself scores 1.0 (empty classes are keyed by their
        answer, and equal answers score 1.0), and every other pair -- two
        empty classes with different answers, an empty against a
        non-empty TCU, two vectors without a common term (a zero dot
        product) -- scores exactly 0.0.
        """
        np = self._np
        block = self._sharing_block(
            row_classes, column_classes, self._content_memo, content_similarity
        )
        offsets = self._class_term_offsets
        _, row_self, column_self = np.intersect1d(
            row_classes, column_classes, assume_unique=True, return_indices=True
        )
        self_classes = row_classes[row_self]
        empty = offsets[self_classes + 1] == offsets[self_classes]
        block[row_self[empty], column_self[empty]] = 1.0
        return block

    def _content_maps(self, row_classes, column_classes):
        """Content block plus full-size local-id remap arrays.

        The memoised content lookup of the batch kernel: the block for
        the given (sorted, distinct)
        class-id arrays, and two ``len(_content_exemplars)``-sized arrays
        mapping a global content class id to its row/column position in
        that block.
        """
        np = self._np
        content = self._content_block(row_classes, column_classes)
        row_remap = np.zeros(len(self._content_exemplars), dtype=np.intp)
        row_remap[row_classes] = np.arange(len(row_classes), dtype=np.intp)
        column_remap = np.zeros(len(self._content_exemplars), dtype=np.intp)
        column_remap[column_classes] = np.arange(
            len(column_classes), dtype=np.intp
        )
        return content, row_remap, column_remap

    def _cosine_block(self, classes):
        """TCU-cosine block for the given (sorted, distinct) class ids.

        ``rank_C`` sums :meth:`~repro.text.vector.SparseVector.cosine`
        values, which depend only on the vectors' ordered term/weight
        sequences -- exactly the information the content-class key pins --
        so one cosine per ordered class pair reproduces every per-item
        cosine of the reference loop bit-for-bit.  As in
        :meth:`_content_block`, only term-sharing pairs are evaluated;
        every other cosine (empty vectors included) is 0.0.
        """
        return self._sharing_block(
            classes,
            classes,
            self._cosine_memo,
            lambda first, second: first.vector.cosine(second.vector),
        )

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
    # Batch entry points
    # ------------------------------------------------------------------ #
    def pairwise_transaction_similarity(
        self, rows: Sequence[Transaction], columns: Sequence[Transaction]
    ) -> List[List[float]]:
        """Dense ``sim^gamma_J`` block evaluated by the vectorized batch
        kernel, returned as nested lists in row/column input order."""
        return self._pair_similarities(rows, columns).tolist()

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
            block = self._cosine_block(present)
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
# Backend specs
# --------------------------------------------------------------------------- #
def parse_backend_spec(spec: Optional[str]) -> Tuple[str, Optional[int]]:
    """Parse a ``python`` | ``numpy[:block=N]`` spec (case-insensitive).

    Returns ``(name, block_items)``: the backend name and the tile budget
    (``None`` when the spec carries no ``block=`` option, ``0`` for the
    unbounded untiled path).  ``None`` selects :data:`DEFAULT_BACKEND`.
    The one reader of specs, so :func:`create_backend` and
    :func:`validate_backend_spec` (and through it ``ClusteringConfig`` and
    the CLI) raise the same errors:

    * an unknown name raises ``ValueError`` listing :data:`BACKEND_NAMES`;
    * options on ``python`` raise ``ValueError``;
    * ``numpy`` without numpy installed raises
      :class:`BackendUnavailableError` with an actionable message;
    * a duplicate, non-integer or negative ``block=`` budget, or any other
      ``numpy`` option, raises ``ValueError`` naming the spec.
    """
    key = (spec or DEFAULT_BACKEND).lower()
    name, _, options = key.partition(":")
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown similarity backend: {spec!r} "
            f"(registered: {', '.join(BACKEND_NAMES)})"
        )
    if name == "python":
        if options:
            raise ValueError(
                f"similarity backend {name!r} accepts no options (got {options!r})"
            )
        return name, None
    _load_numpy()
    block: Optional[int] = None
    unknown = False
    for part in options.split(":"):
        if not part.startswith("block="):
            unknown = unknown or bool(part)
            continue
        if block is not None:
            raise ValueError(f"duplicate 'block=' option in backend spec {key!r}")
        value = part[len("block="):]
        try:
            block = int(value)
        except ValueError:
            raise ValueError(
                f"invalid batch block size {value!r} in backend spec "
                f"{key!r} (expected 'block=N' with an integer N >= 0; "
                "0 selects the unbounded untiled path)"
            ) from None
        if block < 0:
            raise ValueError(
                f"batch block size must be >= 0 (0 = unbounded), got "
                f"{block} in backend spec {key!r}"
            )
    if unknown:
        raise ValueError(
            f"invalid numpy backend options {options!r} "
            "(expected 'numpy[:block=N]')"
        )
    return name, block


def create_backend(spec: Optional[str], engine: "SimilarityEngine") -> SimilarityBackend:
    """Instantiate the backend *spec* selects for *engine*.

    ``None`` selects :data:`DEFAULT_BACKEND`; ``"numpy:block=64"`` passes
    the tile budget to :class:`NumpyBackend`.  Malformed specs raise the
    errors of :func:`parse_backend_spec`.
    """
    name, block_items = parse_backend_spec(spec)
    if name == "python":
        return PythonBackend(engine)
    return NumpyBackend(engine, block_items)


def validate_backend_spec(spec: Optional[str]) -> str:
    """Validate a backend spec without an engine; return it lower-cased.

    The config-resolution-time gate used by
    :class:`~repro.core.config.ClusteringConfig` and the CLI so a broken
    spec fails where the user wrote it, not deep inside a fit, with the
    errors of :func:`parse_backend_spec`.
    """
    parse_backend_spec(spec)
    return (spec or DEFAULT_BACKEND).lower()
