"""Configuration objects for the clustering algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.similarity.item import SimilarityConfig


@dataclass(frozen=True)
class ClusteringConfig:
    """Configuration shared by XK-means, CXK-means and PK-means.

    Attributes
    ----------
    k:
        Desired number of clusters; the algorithms additionally maintain a
        (k+1)-th *trash* cluster for transactions with zero similarity to
        every representative.
    similarity:
        The :class:`~repro.similarity.item.SimilarityConfig` (blend factor
        ``f`` and gamma threshold) driving item and transaction similarity.
    max_iterations:
        Upper bound on the number of outer iterations; the paper observes
        convergence in fewer than 10 iterations on all corpora, the default
        bound is a safety net rather than a tuning knob.
    seed:
        Seed of the pseudo-random generator used for selecting the initial
        representatives (reproducibility of experiments).
    max_representative_items:
        Optional cap on the number of items a representative may contain, in
        addition to the ``|tr_max|`` bound imposed by GenerateTreeTuple.
    backend:
        Name of the similarity backend driving the assignment and
        representative-refinement hot paths (``"python"`` for the reference
        loops, ``"numpy[:block=N]"`` for the vectorized batch engine; see
        :mod:`repro.similarity.backend`).  The spec is validated at
        construction time
        (:func:`~repro.similarity.backend.validate_backend_spec`): unknown
        names and malformed options raise ``ValueError`` here rather than
        deep inside a fit.
    batch_block_items:
        Tile budget (items per tile side) of the batched similarity
        kernels: the ``numpy`` backend evaluates its similarity blocks in
        ``(row_tile x column_tile)`` tiles whose row-item and column-item
        totals each stay within this budget, so peak scratch memory is
        bounded regardless of corpus size while several column
        transactions are fused per kernel call.  ``None`` keeps the
        backend default
        (:data:`~repro.similarity.backend.DEFAULT_BLOCK_ITEMS`), ``0``
        selects the unbounded single-tile (untiled) path, and any
        positive value caps the tile side.  Tiling is bit-exact: every
        budget produces identical results (see
        :attr:`effective_backend`, which threads the budget into the
        backend spec).  An explicit ``block=`` option in :attr:`backend`
        takes precedence.
    refine_workers:
        Worker processes for cluster-sharded representative refinement:
        each local (or global) phase dispatches one cluster's refinement
        per worker through
        :func:`~repro.network.mpengine.refine_clusters`, merging the
        results in deterministic cluster-index order with bit-exact parity
        against the serial path.  ``None`` or ``1`` keeps the historical
        serial refinement.  On the real transport the budget is split
        equally across the concurrently running peer processes
        (:func:`~repro.network.mpengine.split_refinement_budget`).
    corpus_cache_dir:
        Directory of the persistent compiled-corpus store
        (:mod:`repro.similarity.corpus_store`), default off (``None``).
        When set, experiment runs export the compiled corpus (tag-path
        matrix, item id arrays, content-class registries) to a
        fingerprinted on-disk layout under this directory on the first
        fit, and later fits of the same corpus + similarity configuration
        attach the arrays zero-copy via ``np.load(mmap_mode="r")`` instead
        of recompiling -- refinement workers, real-transport peer workers
        and simulated peers then share one set of mapped pages.  Backends without compiled corpora
        (the ``python`` reference) ignore the setting.
    network:
        Transport running the collaborative rounds of CXK-means:
        ``"sim"`` (default) executes the peers sequentially on the
        round-based :class:`~repro.network.simnet.SimulatedNetwork` with
        cost-model timing; ``"real"`` runs every peer as a genuinely
        concurrent process exchanging the same message types over
        localhost TCP (:class:`~repro.network.realnet.RealNetwork`),
        recording measured wire bytes and wall-clock alongside the
        cost-model predictions.  Both transports produce bit-identical
        clusterings for the same seed.
    network_timeout:
        Deadline in seconds for one collaborative round of the real
        transport (and for the worker handshake); a stalled or dead peer
        surfaces as an actionable
        :class:`~repro.network.realnet.RealNetworkError` within this
        bound instead of hanging the driver.  Ignored by the simulated
        transport.
    streaming:
        Enables the incremental fit mode
        (:class:`~repro.core.streaming.StreamingClusterer`): the corpus is
        ingested in chunks against the current representatives instead of
        one batch fit, with poorly-matched transactions parked in a
        bounded retained set and re-refinement triggered only when drift
        crosses :attr:`drift_threshold`.  Batch fits ignore the flag.
    chunk_size:
        Transactions per ingested chunk in streaming mode.  ``None`` means
        unchunked (the whole input is one chunk -- the configuration under
        which streaming is bit-exact with the batch fit); the retained-set
        capacity is derived from this (see
        :attr:`effective_retain_capacity`).
    retain_threshold:
        Similarity below which an incoming transaction is *retained*
        (parked for the next re-refinement) instead of being committed to
        its nearest cluster.  ``0.0`` retains only zero-similarity (trash
        candidate) transactions, mirroring the batch trash rule.
    drift_threshold:
        Fraction of the retained-set capacity at which the streaming
        clusterer triggers a bounded re-refinement (``1.0`` = only when
        the retained set is full; lower values re-refine earlier).
    """

    k: int
    similarity: SimilarityConfig = field(default_factory=SimilarityConfig)
    max_iterations: int = 20
    seed: int = 0
    max_representative_items: Optional[int] = None
    backend: str = "python"
    batch_block_items: Optional[int] = None
    refine_workers: Optional[int] = None
    corpus_cache_dir: Optional[str] = None
    network: str = "sim"
    network_timeout: float = 120.0
    streaming: bool = False
    chunk_size: Optional[int] = None
    retain_threshold: float = 0.25
    drift_threshold: float = 0.5

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")
        if self.max_iterations < 1:
            raise ValueError(
                f"max_iterations must be positive, got {self.max_iterations}"
            )
        if self.batch_block_items is not None and self.batch_block_items < 0:
            raise ValueError(
                "batch_block_items must be >= 0 (0 = unbounded), got "
                f"{self.batch_block_items}"
            )
        if self.refine_workers is not None and self.refine_workers < 1:
            raise ValueError(
                f"refine_workers must be positive, got {self.refine_workers}"
            )
        if self.network not in ("sim", "real"):
            raise ValueError(
                f'network must be "sim" or "real", got {self.network!r}'
            )
        if self.network_timeout <= 0:
            raise ValueError(
                f"network_timeout must be positive, got {self.network_timeout}"
            )
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError(
                f"chunk_size must be positive, got {self.chunk_size}"
            )
        if not 0.0 <= self.retain_threshold <= 1.0:
            raise ValueError(
                f"retain_threshold must be in [0, 1], got {self.retain_threshold}"
            )
        if not 0.0 < self.drift_threshold <= 1.0:
            raise ValueError(
                f"drift_threshold must be in (0, 1], got {self.drift_threshold}"
            )
        # fail at config-resolution time, not deep inside a fit: unknown
        # backends and malformed options raise ValueError.  Imported lazily
        # because the similarity backend module sits beside, not below,
        # this one in the layer graph.
        from repro.similarity.backend import validate_backend_spec

        validate_backend_spec(self.backend)
        if self.batch_block_items is not None:
            # the merged spec (batch_block_items threaded into the backend
            # options) is what the algorithms actually run; validate it
            # here too so the merge cannot fail later
            validate_backend_spec(self.effective_backend)

    @property
    def f(self) -> float:
        """Shortcut for the structure/content blend factor."""
        return self.similarity.f

    @property
    def gamma(self) -> float:
        """Shortcut for the gamma matching threshold."""
        return self.similarity.gamma

    @property
    def effective_refine_workers(self) -> int:
        """The refinement worker count with ``None`` resolved to serial (1)."""
        return self.refine_workers or 1

    @property
    def effective_batch_block_items(self) -> int:
        """The tile budget the batch kernels will actually run with.

        Resolved from :attr:`effective_backend` -- so a spec-level
        ``block=`` option (which wins over :attr:`batch_block_items`, see
        :attr:`effective_backend`) is reported correctly -- falling back
        to the backend default
        (:data:`~repro.similarity.backend.DEFAULT_BLOCK_ITEMS`) when
        neither the spec nor the config names a budget.  ``0`` means
        unbounded (the untiled single-tile path); any positive value caps
        each tile side's item total.
        """
        from repro.similarity.backend import (
            DEFAULT_BLOCK_ITEMS,
            spec_block_items,
        )

        block = spec_block_items(self.effective_backend)
        if block is not None:
            return block
        # backends without batch kernels (python) carry no block in their
        # spec; fall back to the config knob, then the backend default
        if self.batch_block_items is not None:
            return self.batch_block_items
        return DEFAULT_BLOCK_ITEMS

    @property
    def effective_backend(self) -> str:
        """The backend spec the algorithms run: ``backend`` + tile budget.

        When :attr:`batch_block_items` is set, the budget is merged into
        the spec's option grammar
        (:func:`~repro.similarity.backend.merge_block_option`):
        ``numpy`` specs gain ``:block=N``, the ``python`` reference is
        unchanged, and an explicit ``block=`` already present in the spec
        wins.  With :attr:`batch_block_items` unset this is simply
        :attr:`backend`.
        """
        if self.batch_block_items is None:
            return self.backend
        from repro.similarity.backend import merge_block_option

        return merge_block_option(self.backend, self.batch_block_items)

    def with_k(self, k: int) -> "ClusteringConfig":
        """Return a copy of the configuration with a different ``k``."""
        return replace(self, k=k)

    def with_similarity(self, similarity: SimilarityConfig) -> "ClusteringConfig":
        """Return a copy with a different similarity configuration."""
        return replace(self, similarity=similarity)

    def with_seed(self, seed: int) -> "ClusteringConfig":
        """Return a copy with a different random seed."""
        return replace(self, seed=seed)

    def with_backend(self, backend: str) -> "ClusteringConfig":
        """Return a copy with a different similarity backend."""
        return replace(self, backend=backend)

    def with_batch_block_items(
        self, batch_block_items: Optional[int]
    ) -> "ClusteringConfig":
        """Return a copy with a different batch tile budget."""
        return replace(self, batch_block_items=batch_block_items)

    def with_refine_workers(self, refine_workers: Optional[int]) -> "ClusteringConfig":
        """Return a copy with a different refinement worker budget."""
        return replace(self, refine_workers=refine_workers)

    def with_corpus_cache_dir(
        self, corpus_cache_dir: Optional[str]
    ) -> "ClusteringConfig":
        """Return a copy with a different compiled-corpus store directory."""
        return replace(self, corpus_cache_dir=corpus_cache_dir)

    def with_network(
        self, network: str, network_timeout: Optional[float] = None
    ) -> "ClusteringConfig":
        """Return a copy running on a different transport (``sim``/``real``)."""
        if network_timeout is None:
            return replace(self, network=network)
        return replace(self, network=network, network_timeout=network_timeout)

    @property
    def effective_retain_capacity(self) -> int:
        """Upper bound on the streaming retained set, derived from the chunk.

        Two chunks' worth of transactions (minimum 8): large enough that a
        transient burst of novel documents does not force a re-refinement
        per chunk, small enough that memory stays bounded and drift is
        detected within a couple of chunks.  Unchunked streams
        (``chunk_size=None``) get the minimum -- every transaction is seen
        in the single bootstrap chunk, so the retained set only ever holds
        post-bootstrap stragglers.
        """
        if self.chunk_size is None:
            return 8
        return max(8, 2 * self.chunk_size)

    def with_streaming(
        self,
        streaming: bool = True,
        *,
        chunk_size: Optional[int] = None,
        retain_threshold: Optional[float] = None,
        drift_threshold: Optional[float] = None,
    ) -> "ClusteringConfig":
        """Return a copy with streaming-ingestion settings applied."""
        updates: dict = {"streaming": streaming}
        if chunk_size is not None:
            updates["chunk_size"] = chunk_size
        if retain_threshold is not None:
            updates["retain_threshold"] = retain_threshold
        if drift_threshold is not None:
            updates["drift_threshold"] = drift_threshold
        return replace(self, **updates)
