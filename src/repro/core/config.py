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
        loops, ``"numpy[:block=N]"`` for the vectorized batch engine, whose
        ``block=N`` option sets the tile budget of its batched kernels; see
        :mod:`repro.similarity.backend`).  The spec is validated at
        construction time
        (:func:`~repro.similarity.backend.validate_backend_spec`): unknown
        names and malformed options raise ``ValueError`` here rather than
        deep inside a fit.
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
    chunk_size:
        Transactions per ingested chunk of the incremental fit mode
        (:class:`~repro.core.streaming.StreamingClusterer`, which ingests
        the corpus in chunks against the current representatives, parks
        poorly-matched transactions in a bounded retained set and
        re-refines only when drift crosses :attr:`drift_threshold`; batch
        fits ignore this and the two settings below).  ``None`` means
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
    network: str = "sim"
    network_timeout: float = 120.0
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

    @property
    def f(self) -> float:
        """Shortcut for the structure/content blend factor."""
        return self.similarity.f

    @property
    def gamma(self) -> float:
        """Shortcut for the gamma matching threshold."""
        return self.similarity.gamma

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
        *,
        chunk_size: Optional[int] = None,
        retain_threshold: Optional[float] = None,
        drift_threshold: Optional[float] = None,
    ) -> "ClusteringConfig":
        """Return a copy with the given streaming-ingestion settings."""
        updates: dict = {}
        if chunk_size is not None:
            updates["chunk_size"] = chunk_size
        if retain_threshold is not None:
            updates["retain_threshold"] = retain_threshold
        if drift_threshold is not None:
            updates["drift_threshold"] = drift_threshold
        return replace(self, **updates)
