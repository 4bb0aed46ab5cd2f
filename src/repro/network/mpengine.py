"""Per-process similarity engines and cluster-sharded refinement.

Similarity engines (tag-path cache plus a possibly compiled backend
corpus) are expensive to rebuild and impossible to pickle cheaply, so
every process that evaluates peer work materialises one engine per
(similarity configuration, backend) pair and keeps it alive across rounds
(:func:`process_engine`, or :func:`store_process_engine` when the corpus
lives in an on-disk compiled store).  The real transport's peer workers
build their engines here; on the simulated transport the algorithms pass
their own shared engine instead, so every simulated node works against
one compiled corpus.

:class:`RefinementShard` / :func:`refine_shard` carry one cluster's
representative refinement (``ComputeLocalRepresentative`` or its
global-phase equivalent).  :func:`refine_clusters` dispatches them one
cluster per worker of a process-wide pool (:func:`shard_executor`, cached
per worker count) when a refinement budget above one is configured, and
merges the results in cluster-index order.  Every shard runs on a
bit-exact backend, so sharded results are identical to serial ones.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.similarity.cache import TagPathSimilarityCache
from repro.similarity.item import SimilarityConfig
from repro.similarity.transaction import SimilarityEngine
from repro.transactions.transaction import Transaction

#: Per-process engines keyed by (similarity config, backend name).  Worker
#: processes populate this lazily on their first local phase or shard and
#: then reuse the engine -- including its tag-path cache and compiled
#: corpus blocks -- for every subsequent round.
_PROCESS_ENGINES: Dict[Tuple[SimilarityConfig, str], SimilarityEngine] = {}


def process_engine(similarity: SimilarityConfig, backend: str = "python") -> SimilarityEngine:
    """Return this process' shared engine for the given configuration."""
    key = (similarity, backend)
    engine = _PROCESS_ENGINES.get(key)
    if engine is None:
        engine = SimilarityEngine(
            similarity, cache=TagPathSimilarityCache(), backend=backend
        )
        _PROCESS_ENGINES[key] = engine
    return engine


def clear_process_engines() -> None:
    """Drop every cached per-process engine (used by tests)."""
    _PROCESS_ENGINES.clear()
    _STORE_ENGINES.clear()


#: Per-process *store-attached* engines, keyed by (similarity config,
#: backend name, store directory).  Kept separate from
#: :data:`_PROCESS_ENGINES` so storeless dispatch keeps its historical
#: cache shape; a worker that serves both store-backed and inline shards
#: holds one engine per cache.
_STORE_ENGINES: Dict[Tuple[SimilarityConfig, str, str], SimilarityEngine] = {}


def store_process_engine(
    similarity: SimilarityConfig, backend: str, store_dir: str
) -> SimilarityEngine:
    """Return this process' shared engine attached to the store at
    *store_dir*.

    Built once per (similarity config, backend, store directory) and kept
    alive across rounds, exactly like :func:`process_engine`; on first
    construction the store is resolved through the process-wide store
    cache and zero-copy attached to the engine's backend, so every worker
    process maps the same on-disk pages instead of recompiling the corpus.
    Backends without compiled corpora (the python reference) simply skip
    the attach -- shard row resolution still works through the store.
    """
    key = (similarity, backend, store_dir)
    engine = _STORE_ENGINES.get(key)
    if engine is None:
        # imported lazily: corpus_store sits above this module (it imports
        # the backend layer), so a top-level import would be circular for
        # readers following the layer graph
        from repro.similarity.corpus_store import cached_store

        engine = SimilarityEngine(
            similarity, cache=TagPathSimilarityCache(), backend=backend
        )
        store = cached_store(store_dir)
        attach = getattr(engine.backend, "attach_store", None)
        if attach is not None:
            attach(store)
        _STORE_ENGINES[key] = engine
    return engine


def _store_transactions(store_dir: str, rows: Sequence[int]) -> List[Transaction]:
    """Resolve store row ids to transactions via the process store cache."""
    from repro.similarity.corpus_store import cached_store

    corpus = cached_store(store_dir).transactions()
    return [corpus[row] for row in rows]


# --------------------------------------------------------------------------- #
# Cluster-sharded representative refinement
# --------------------------------------------------------------------------- #
@dataclass
class RefinementShard:
    """One cluster's representative-refinement task.

    A refinement shard carries one whole cluster: the serial tail of
    ``run_local_phase`` (refining k representatives one after another) is
    parallelised one cluster per worker.  A shard is self-contained -- it
    ships the cluster members, the similarity configuration and the name of
    the backend to evaluate with -- so a worker process can refine it on
    its cached engine (:func:`process_engine`) without any shared state.

    Attributes
    ----------
    cluster_index:
        Index of the cluster in the caller's representative list; results
        are merged back in ascending cluster-index order, which makes the
        sharded refinement deterministic.
    members:
        Local shard: the cluster's member transactions.  Global shard: the
        local representatives received from the peers.
    similarity:
        The :class:`~repro.similarity.item.SimilarityConfig` of the run.
    backend:
        Name of the backend the worker evaluates with.
    representative_id:
        Identifier given to the refined representative transaction.
    max_items:
        Optional cap on the representative size
        (:attr:`~repro.core.config.ClusteringConfig.max_representative_items`).
    weights:
        ``None`` for a local shard (``ComputeLocalRepresentative``); for a
        global shard the per-member weights ``|C^i_j|``, parallel to
        *members* (``ComputeGlobalRepresentative``).
    store_dir / member_rows:
        Store-backed alternative to *members* (which is then ``None``):
        the corpus-store directory plus the members' row ids, resolved by
        the evaluating process through its shared store handle -- built by
        :func:`make_refinement_shard` when the dispatching engine has an
        attached store that covers every member.
    """

    cluster_index: int
    members: Optional[List[Transaction]]
    similarity: SimilarityConfig
    backend: str
    representative_id: str
    max_items: Optional[int] = None
    weights: Optional[List[int]] = None
    store_dir: Optional[str] = None
    member_rows: Optional[List[int]] = None

    @property
    def kind(self) -> str:
        """``"local"`` or ``"global"``, decided by the presence of weights."""
        return "local" if self.weights is None else "global"

    def resolve_members(self) -> List[Transaction]:
        """The member transactions (inline, or store rows resolved through
        the process-wide store cache for store-backed shards)."""
        if self.members is not None:
            return self.members
        return _store_transactions(self.store_dir, self.member_rows)


def _refine_with_engine(shard: RefinementShard, engine: SimilarityEngine) -> Transaction:
    """Refine one shard on *engine* (the single implementation both the
    serial path and the worker entry point go through, so they cannot
    drift apart)."""
    # Imported lazily: repro.core.representatives sits above this module in
    # the layer graph (repro.core.__init__ imports cxkmeans, which imports
    # this module), so a top-level import would be circular.
    from repro.core.representatives import (
        compute_global_representative,
        compute_local_representative,
    )

    members = shard.resolve_members()
    if shard.weights is None:
        return compute_local_representative(
            members,
            engine,
            representative_id=shard.representative_id,
            max_items=shard.max_items,
        )
    return compute_global_representative(
        list(zip(members, shard.weights)),
        engine,
        representative_id=shard.representative_id,
        max_items=shard.max_items,
    )


def refine_shard(shard: RefinementShard) -> Tuple[int, Transaction]:
    """Worker entry point of the sharded refinement (module-level, picklable).

    Refines one cluster on this process' cached engine
    (:func:`process_engine`, or :func:`store_process_engine` for
    store-backed shards), so a pool worker keeps one compiled corpus per
    (similarity configuration, backend) pair across rounds.  Returns
    ``(cluster_index, representative)`` so the caller can merge results in
    cluster-index order regardless of completion order.
    """
    if shard.store_dir is not None:
        engine = store_process_engine(
            shard.similarity, shard.backend, shard.store_dir
        )
    else:
        engine = process_engine(shard.similarity, shard.backend)
    return shard.cluster_index, _refine_with_engine(shard, engine)


def make_refinement_shard(
    engine: SimilarityEngine,
    *,
    cluster_index: int,
    members: Sequence[Transaction],
    representative_id: str,
    max_items: Optional[int] = None,
    weights: Optional[List[int]] = None,
) -> RefinementShard:
    """Build a refinement shard, store-backed whenever possible.

    When *engine*'s backend has an attached corpus store that covers every
    member (local shards only -- weighted global shards refine peer
    representatives, which are synthetic and never live in the store), the
    shard ships ``store_dir`` + row ids instead of pickled members;
    otherwise it inlines the members exactly like the historical path.
    """
    members = list(members)
    backend = engine.backend_name
    store = getattr(engine.backend, "attached_store", None)
    if store is not None and members and weights is None:
        rows: Optional[List[int]] = None
        try:
            row_index = store.row_index()
            rows = [row_index[member] for member in members]
        except Exception:
            # a member outside the store (or an unreadable store) simply
            # means this shard inlines its members
            rows = None
        if rows is not None:
            return RefinementShard(
                cluster_index=cluster_index,
                members=None,
                similarity=engine.config,
                backend=backend,
                representative_id=representative_id,
                max_items=max_items,
                store_dir=str(store.directory),
                member_rows=rows,
            )
    return RefinementShard(
        cluster_index=cluster_index,
        members=members,
        similarity=engine.config,
        backend=backend,
        representative_id=representative_id,
        max_items=max_items,
        weights=weights,
    )


#: Process-wide refinement executors keyed by worker count.  Spawning a
#: pool costs hundreds of milliseconds, so pools are kept alive across
#: collaborative rounds (and across fits in an experiment sweep) exactly
#: like the per-process engines above.
_SHARD_EXECUTORS: Dict[int, "MultiprocessingExecutor"] = {}


def shard_executor(workers: int) -> "MultiprocessingExecutor":
    """Return this process' shared refinement executor for *workers*.

    Every :func:`refine_clusters` call with the same worker count runs in
    the same pool, and therefore on the same cached per-process engines.
    """
    executor = _SHARD_EXECUTORS.get(workers)
    if executor is None:
        executor = MultiprocessingExecutor(processes=workers)
        _SHARD_EXECUTORS[workers] = executor
    return executor


def clear_shard_executors() -> None:
    """Close and drop every cached shard executor.

    Called by tests and benchmarks between runs, and registered as an
    ``atexit`` hook so long-lived CLI/library processes shut their cached
    pools down cleanly instead of leaving ``Pool.__del__`` to fire during
    interpreter teardown (which prints spurious tracebacks).  Closing is
    safe at any time: a cached executor respawns its pool lazily on the
    next dispatch.
    """
    for executor in _SHARD_EXECUTORS.values():
        executor.close()
    _SHARD_EXECUTORS.clear()


atexit.register(clear_shard_executors)


def refine_clusters(
    shards: Sequence[RefinementShard],
    engine: SimilarityEngine,
    workers: int = 1,
) -> Dict[int, Transaction]:
    """Refine every shard, one cluster per worker when ``workers > 1``.

    Returns ``{cluster_index: representative}``; the mapping is merged from
    worker results in cluster-index order and is bit-exact with the serial
    path: every shard is evaluated by the same
    ``compute_{local,global}_representative`` code on a bit-exact backend,
    and the refinement of a cluster depends only on the shard's own payload,
    never on engine cache state.

    Fallback behaviour:

    * ``workers <= 1``, a single populated shard, or empty clusters are
      refined in-process on the caller's *engine* (reusing its shared
      compiled corpus) -- exactly the historical serial path;
    * every dispatch failure -- an undispatchable environment (e.g. a
      stdin-launched parent whose ``__main__`` spawn workers cannot
      replay), a pool spawn failure, an unpicklable payload, or a worker
      crash -- degrades to the same warm-engine in-process refinement:
      :meth:`MultiprocessingExecutor.dispatch` raises instead of running
      shards on cold duplicate engines in this process.
    """
    shards = list(shards)
    results: Dict[int, Transaction] = {}
    populated: List[RefinementShard] = []
    for shard in shards:
        if shard.members or shard.member_rows:
            populated.append(shard)
        else:
            # empty clusters yield empty representatives; never worth a
            # round-trip to a worker process
            results[shard.cluster_index] = _refine_with_engine(shard, engine)
    if workers <= 1 or len(populated) <= 1:
        for shard in populated:
            results[shard.cluster_index] = _refine_with_engine(shard, engine)
        return results
    try:
        # dispatch() raises on every failure (undispatchable environment,
        # pool spawn failure, worker crash); the warm-engine path below
        # beats rebuilding cold duplicate engines in this process
        mapped = shard_executor(workers).dispatch(refine_shard, populated)
    except Exception:
        mapped = [
            (shard.cluster_index, _refine_with_engine(shard, engine))
            for shard in populated
        ]
    results.update(mapped)
    return results


def split_refinement_budget(refine_workers: int, concurrent_phases: int) -> int:
    """Split a refinement worker budget across concurrently running phases.

    The real transport runs *concurrent_phases* peer processes at once;
    handing every phase the full budget would oversubscribe the machine
    ``peers x clusters``-fold.  Each phase therefore receives an equal
    share, never below one worker (one worker means the phase refines
    serially, which is always safe).
    """
    if concurrent_phases <= 1:
        return refine_workers
    return max(1, refine_workers // concurrent_phases)


def _spawn_main_is_replayable() -> bool:
    """Return True when ``spawn`` workers can re-import the main module.

    The ``spawn`` start method replays the parent's ``__main__`` from its
    file path inside every worker.  When the parent was fed from stdin or an
    interactive session, that path does not exist on disk; workers then die
    during interpreter bootstrap and the pool respawns them forever -- a
    hang rather than an error.  Detecting the situation up front lets
    :func:`refine_clusters` fall back to serial refinement instead.
    """
    main_module = sys.modules.get("__main__")
    main_path = getattr(main_module, "__file__", None)
    if main_path is None:
        # e.g. ``python -c``: nothing to replay, spawn is safe
        return True
    return os.path.exists(main_path)


class MultiprocessingExecutor:
    """A lazily spawned pool of *processes* worker processes.

    Shards are mapped one per work unit (``chunksize=1``), which matches
    their granularity of one cluster each.
    """

    def __init__(self, processes: int) -> None:
        self._processes = processes
        self._pool: Optional[multiprocessing.pool.Pool] = None

    # ------------------------------------------------------------------ #
    def _ensure_pool(self) -> multiprocessing.pool.Pool:
        if self._pool is None:
            self._pool = multiprocessing.get_context("spawn").Pool(self._processes)
        return self._pool

    def can_dispatch(self) -> bool:
        """True when :meth:`dispatch` can actually reach the worker pool.

        False for the conditions knowable up front: a single worker, or a
        ``spawn`` ``__main__`` that workers cannot replay (stdin/REPL
        parents).
        """
        return self._processes > 1 and _spawn_main_is_replayable()

    def dispatch(
        self, function: Callable[[Any], Any], arguments: Sequence[Any]
    ) -> List[Any]:
        """Apply *function* on the worker pool or raise -- never fall back.

        Every failure -- undispatchable environment, pool spawn failure,
        worker crash -- surfaces as an exception, so the caller can answer
        it with its own warm-engine fallback (see :func:`refine_clusters`).
        """
        arguments = list(arguments)
        if not self.can_dispatch():
            raise RuntimeError(
                "executor cannot dispatch to worker processes in this "
                "environment"
            )
        pool = self._ensure_pool()
        try:
            return pool.map(function, arguments, chunksize=1)
        except Exception:
            # a pool whose map failed is not trustworthy any more (lost
            # workers, broken pipes): close it before re-raising so the
            # next dispatch on this cached executor respawns a fresh pool
            # instead of reusing the broken one forever
            self.close()
            raise

    def close(self) -> None:
        """Terminate the worker pool."""
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
