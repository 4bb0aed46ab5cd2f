"""Parity, fallback and lifecycle tests for cluster-sharded refinement.

Cluster-sharded representative refinement
(``repro/network/mpengine.py``: ``RefinementShard`` / ``refine_shard`` /
``refine_clusters``) dispatches one cluster's
``compute_{local,global}_representative`` per worker process and merges the
results in cluster-index order.  Because every shard runs the same
refinement code on a bit-exact backend, the sharded refinement -- and any
clustering run on top of it -- must be *identical* to the serial path for
every worker count; these tests assert exactly that (including a
hypothesis property suite across 1/2/4 workers), plus the ``workers=1``
short-circuit, the serial fallback on executor failure, the budget split
across the real transport's concurrent peers, and the per-process engine
cache the shards run on.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ClusteringConfig
from repro.core.cxkmeans import CXKMeans, LocalPhaseInput, run_local_phase
from repro.core.pkmeans import PKMeans
from repro.core.representatives import (
    compute_global_representative,
    compute_local_representative,
)
from repro.core.seeding import select_seed_transactions
from repro.core.xkmeans import XKMeans
from repro.datasets.registry import get_dataset
from repro.network import mpengine
from repro.network.mpengine import (
    _PROCESS_ENGINES,
    _SHARD_EXECUTORS,
    RefinementShard,
    clear_process_engines,
    clear_shard_executors,
    process_engine,
    refine_clusters,
    refine_shard,
    shard_executor,
    split_refinement_budget,
)
from repro.similarity.cache import TagPathSimilarityCache
from repro.similarity.item import SimilarityConfig
from repro.similarity.transaction import SimilarityEngine
from repro.text.vector import SparseVector
from repro.transactions.items import make_synthetic_item
from repro.transactions.transaction import make_transaction
from repro.xmlmodel.paths import XMLPath


@pytest.fixture(autouse=True)
def isolated_shard_state():
    """Each test starts and ends with empty per-process engine and
    refinement-executor caches, so pools and compiled corpora never leak
    between tests."""
    clear_process_engines()
    clear_shard_executors()
    yield
    clear_process_engines()
    clear_shard_executors()


@pytest.fixture(scope="module")
def dblp_small():
    return get_dataset("DBLP", scale=0.2, seed=0)


SIMILARITY = SimilarityConfig(f=0.5, gamma=0.8)


def make_engine(backend: str = "python") -> SimilarityEngine:
    return SimilarityEngine(
        SIMILARITY, cache=TagPathSimilarityCache(), backend=backend
    )


def make_clusters(dataset, k: int, seed: int = 0):
    """Real clusters: assign the corpus to ``k`` seed representatives."""
    engine = make_engine()
    transactions = dataset.transactions
    representatives = select_seed_transactions(transactions, k, random.Random(seed))
    clusters = [[] for _ in range(k)]
    for transaction, (index, similarity) in zip(
        transactions, engine.assign_all(transactions, representatives)
    ):
        if similarity > 0.0:
            clusters[index].append(transaction)
    return clusters


def local_shards(clusters, backend: str = "python"):
    return [
        RefinementShard(
            cluster_index=index,
            members=list(members),
            similarity=SIMILARITY,
            backend=backend,
            representative_id=f"rep:{index}",
        )
        for index, members in enumerate(clusters)
    ]


def rep_key(transaction):
    return sorted((str(item.path), item.answer) for item in transaction.items)


# --------------------------------------------------------------------------- #
# Hypothesis strategies (small alphabet so random items overlap)
# --------------------------------------------------------------------------- #
_TAGS = ["a", "b", "c"]
_TERMS = [1, 2, 3, 4]


@st.composite
def items_strategy(draw):
    depth = draw(st.integers(min_value=1, max_value=3))
    steps = [draw(st.sampled_from(_TAGS)) for _ in range(depth)] + ["S"]
    if draw(st.booleans()):
        weights = {
            term: draw(st.floats(min_value=0.25, max_value=2.0))
            for term in draw(st.sets(st.sampled_from(_TERMS), min_size=1, max_size=3))
        }
        vector = SparseVector(weights)
    else:
        vector = None
    answer = draw(st.sampled_from(["alpha", "beta", "gamma delta", "42"]))
    return make_synthetic_item(XMLPath(tuple(steps)), answer, vector=vector)


@st.composite
def transactions_strategy(draw, min_items: int = 1, max_items: int = 4):
    count = draw(st.integers(min_value=min_items, max_value=max_items))
    items = [draw(items_strategy()) for _ in range(count)]
    return make_transaction(f"tr{draw(st.integers(0, 10_000))}", items)


@st.composite
def clusters_strategy(draw, min_clusters: int = 2, max_clusters: int = 4):
    count = draw(st.integers(min_value=min_clusters, max_value=max_clusters))
    return [
        draw(
            st.lists(transactions_strategy(), min_size=1, max_size=3)
        )
        for _ in range(count)
    ]


# --------------------------------------------------------------------------- #
# Shard model basics
# --------------------------------------------------------------------------- #
class TestShardModel:
    def test_kind_is_derived_from_weights(self):
        local = RefinementShard(
            cluster_index=0, members=[], similarity=SIMILARITY,
            backend="python", representative_id="rep",
        )
        assert local.kind == "local"
        global_shard = RefinementShard(
            cluster_index=0, members=[], similarity=SIMILARITY,
            backend="python", representative_id="rep", weights=[3],
        )
        assert global_shard.kind == "global"

    def test_refine_shard_matches_direct_computation(self, dblp_small):
        clusters = make_clusters(dblp_small, 3)
        engine = make_engine()
        for shard in local_shards(clusters):
            index, representative = refine_shard(shard)
            assert index == shard.cluster_index
            expected = compute_local_representative(
                shard.members, engine, representative_id=shard.representative_id
            )
            assert rep_key(representative) == rep_key(expected)

    def test_config_validates_refine_workers(self):
        with pytest.raises(ValueError, match="refine_workers"):
            ClusteringConfig(k=2, refine_workers=0)
        config = ClusteringConfig(k=2)
        assert config.effective_refine_workers == 1
        assert config.with_refine_workers(4).effective_refine_workers == 4
        assert config.with_refine_workers(None).refine_workers is None

    @pytest.mark.parametrize(
        "budget,phases,expected",
        [(8, 1, 8), (8, 2, 4), (8, 3, 2), (4, 8, 1), (1, 4, 1), (5, 0, 5)],
    )
    def test_split_refinement_budget(self, budget, phases, expected):
        assert split_refinement_budget(budget, phases) == expected


# --------------------------------------------------------------------------- #
# Parity: serial vs. sharded, every worker count
# --------------------------------------------------------------------------- #
class TestRefinementParity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_local_refinement_matches_serial(self, dblp_small, workers):
        clusters = make_clusters(dblp_small, 4)
        engine = make_engine()
        expected = {
            index: compute_local_representative(
                members, engine, representative_id=f"rep:{index}"
            )
            for index, members in enumerate(clusters)
        }
        refined = refine_clusters(local_shards(clusters), engine, workers=workers)
        assert set(refined) == set(expected)
        for index in expected:
            assert rep_key(refined[index]) == rep_key(expected[index])

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_global_refinement_matches_serial(self, dblp_small, workers):
        clusters = [cluster for cluster in make_clusters(dblp_small, 4) if cluster]
        engine = make_engine()
        locals_per_cluster = [
            (
                compute_local_representative(members, engine, representative_id=f"l:{i}"),
                len(members),
            )
            for i, members in enumerate(clusters)
        ]
        # every "peer" contributes the same weighted local representatives
        shards = [
            RefinementShard(
                cluster_index=index,
                members=[representative],
                weights=[weight],
                similarity=SIMILARITY,
                backend="python",
                representative_id=f"rep:global:{index}",
            )
            for index, (representative, weight) in enumerate(locals_per_cluster)
        ]
        expected = {
            index: compute_global_representative(
                [(representative, weight)],
                engine,
                representative_id=f"rep:global:{index}",
            )
            for index, (representative, weight) in enumerate(locals_per_cluster)
        }
        refined = refine_clusters(shards, engine, workers=workers)
        for index in expected:
            assert rep_key(refined[index]) == rep_key(expected[index])

    def test_repeat_runs_are_deterministic(self, dblp_small):
        clusters = make_clusters(dblp_small, 4)
        engine = make_engine()
        first = refine_clusters(local_shards(clusters), engine, workers=2)
        second = refine_clusters(local_shards(clusters), engine, workers=2)
        assert {i: rep_key(r) for i, r in first.items()} == {
            i: rep_key(r) for i, r in second.items()
        }

    @settings(max_examples=10, deadline=None)
    @given(clusters=clusters_strategy())
    def test_property_parity_across_worker_counts(self, clusters):
        """Hypothesis parity: random clusters refine bit-exactly under
        1, 2 and 4 workers (the acceptance bar of the sharded refinement)."""
        engine = make_engine()
        expected = {
            index: rep_key(
                compute_local_representative(
                    members, engine, representative_id=f"rep:{index}"
                )
            )
            for index, members in enumerate(clusters)
        }
        for workers in (1, 2, 4):
            refined = refine_clusters(
                local_shards(clusters), engine, workers=workers
            )
            assert {i: rep_key(r) for i, r in refined.items()} == expected


# --------------------------------------------------------------------------- #
# Short-circuits and fallbacks
# --------------------------------------------------------------------------- #
class TestFallbacks:
    def test_workers_one_never_creates_an_executor(self, dblp_small):
        clusters = make_clusters(dblp_small, 3)
        refine_clusters(local_shards(clusters), make_engine(), workers=1)
        assert not _SHARD_EXECUTORS

    def test_single_populated_shard_stays_in_process(self, dblp_small):
        clusters = [dblp_small.transactions[:6], []]
        refined = refine_clusters(local_shards(clusters), make_engine(), workers=4)
        assert not _SHARD_EXECUTORS
        assert set(refined) == {0, 1}
        assert refined[1].is_empty()

    def test_empty_clusters_yield_empty_representatives(self):
        refined = refine_clusters(local_shards([[], []]), make_engine(), workers=4)
        assert refined[0].is_empty() and refined[1].is_empty()
        assert not _SHARD_EXECUTORS

    def test_executor_failure_falls_back_to_serial(self, dblp_small, monkeypatch):
        """A crashing dispatch degrades to in-process refinement with the
        exact serial results."""
        clusters = make_clusters(dblp_small, 3)
        engine = make_engine()
        expected = refine_clusters(local_shards(clusters), engine, workers=1)

        class ExplodingExecutor:
            def can_dispatch(self):
                return True

            def dispatch(self, function, arguments):
                raise RuntimeError("worker crashed")

        monkeypatch.setattr(
            mpengine, "shard_executor", lambda workers: ExplodingExecutor()
        )
        refined = refine_clusters(local_shards(clusters), engine, workers=4)
        assert {i: rep_key(r) for i, r in refined.items()} == {
            i: rep_key(r) for i, r in expected.items()
        }

    def test_run_local_phase_parity_with_refinement_workers(self, dblp_small):
        """The full local phase (assignment + sharded refinement) is
        bit-exact with the serial phase."""
        transactions = dblp_small.transactions
        representatives = select_seed_transactions(transactions, 3, random.Random(1))
        outputs = {}
        for refine_workers in (None, 2):
            clear_process_engines()
            config = ClusteringConfig(
                k=3,
                similarity=SIMILARITY,
                backend="python",
                refine_workers=refine_workers,
            )
            outputs[refine_workers] = run_local_phase(
                LocalPhaseInput(
                    peer_id=0,
                    transactions=list(transactions),
                    global_representatives=list(representatives),
                    config=config,
                )
            )
        serial, sharded = outputs[None], outputs[2]
        assert sharded.assignment == serial.assignment
        assert sharded.cluster_sizes == serial.cluster_sizes
        assert [rep_key(r) for r in sharded.local_representatives] == [
            rep_key(r) for r in serial.local_representatives
        ]


# --------------------------------------------------------------------------- #
# Full-fit parity per seed
# --------------------------------------------------------------------------- #
class TestFitParity:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_cxkmeans_fit_matches_serial_per_seed(self, dblp_small, workers):
        partitions = [dblp_small.transactions[0::2], dblp_small.transactions[1::2]]
        results = {}
        for refine_workers in (None, workers):
            config = ClusteringConfig(
                k=3,
                similarity=SIMILARITY,
                seed=3,
                max_iterations=4,
                refine_workers=refine_workers,
            )
            result = CXKMeans(config).fit(partitions)
            results[refine_workers] = (
                result.partition(),
                [rep_key(rep) for rep in result.representatives()],
                result.iterations,
            )
        assert results[workers] == results[None]

    def test_pkmeans_fit_matches_serial(self, dblp_small):
        partitions = [dblp_small.transactions[0::2], dblp_small.transactions[1::2]]
        results = {}
        for refine_workers in (None, 2):
            config = ClusteringConfig(
                k=3,
                similarity=SIMILARITY,
                seed=5,
                max_iterations=3,
                refine_workers=refine_workers,
            )
            result = PKMeans(config).fit(partitions)
            results[refine_workers] = (
                result.partition(),
                [rep_key(rep) for rep in result.representatives()],
            )
        assert results[2] == results[None]

    def test_xkmeans_fit_matches_serial(self, dblp_small):
        results = {}
        for refine_workers in (None, 2):
            config = ClusteringConfig(
                k=4,
                similarity=SIMILARITY,
                seed=7,
                max_iterations=4,
                refine_workers=refine_workers,
            )
            result = XKMeans(config).fit(dblp_small.transactions)
            results[refine_workers] = (
                result.partition(),
                [rep_key(rep) for rep in result.representatives()],
                result.iterations,
            )
        assert results[2] == results[None]

    def test_numpy_inner_backend_parity(self, dblp_small):
        pytest.importorskip("numpy")
        partitions = [dblp_small.transactions[0::2], dblp_small.transactions[1::2]]
        results = {}
        for backend, refine_workers in (("python", None), ("numpy", 2)):
            config = ClusteringConfig(
                k=3,
                similarity=SIMILARITY,
                seed=0,
                max_iterations=3,
                backend=backend,
                refine_workers=refine_workers,
            )
            result = CXKMeans(config).fit(partitions)
            results[backend] = (
                result.partition(),
                [rep_key(rep) for rep in result.representatives()],
            )
        assert results["numpy"] == results["python"]


# --------------------------------------------------------------------------- #
# Executor lifecycle and engine-cache isolation
# --------------------------------------------------------------------------- #
class TestLifecycleAndIsolation:
    def test_dispatch_failure_closes_the_broken_pool(self):
        """A pool whose map failed is closed before the error propagates,
        so the cached executor respawns a fresh pool on the next dispatch
        instead of reusing the broken one for the rest of the process."""
        from repro.network.mpengine import MultiprocessingExecutor

        executor = MultiprocessingExecutor(processes=2)
        if not executor.can_dispatch():  # pragma: no cover - env dependent
            pytest.skip("environment cannot dispatch to worker processes")

        class BrokenPool:
            def map(self, *args, **kwargs):
                raise RuntimeError("lost worker")

            def close(self):
                pass

            def join(self):
                pass

        executor._pool = BrokenPool()
        with pytest.raises(RuntimeError, match="lost worker"):
            executor.dispatch(str, [1, 2])
        assert executor._pool is None

    def test_shard_executor_is_cached_per_worker_count(self):
        first = shard_executor(2)
        assert shard_executor(2) is first
        assert shard_executor(3) is not first
        assert set(_SHARD_EXECUTORS) == {2, 3}

    def test_clear_shard_executors_closes_and_empties(self):
        executor = shard_executor(2)
        clear_shard_executors()
        assert not _SHARD_EXECUTORS
        assert executor._pool is None  # closed, not just dropped

    def test_refinement_shards_share_engine_cache(self, dblp_small):
        """Refinement shards with the same (similarity, backend) key reuse
        one cached engine -- and different backends get isolated
        engines."""
        transactions = dblp_small.transactions[:10]
        refine_shard(
            RefinementShard(
                cluster_index=0,
                members=list(transactions),
                similarity=SIMILARITY,
                backend="python",
                representative_id="rep",
            )
        )
        assert len(_PROCESS_ENGINES) == 1
        refine_shard(
            RefinementShard(
                cluster_index=0,
                members=list(transactions),
                similarity=SIMILARITY,
                backend="python",
                representative_id="rep",
            )
        )
        # same key -> same engine, no second entry
        assert len(_PROCESS_ENGINES) == 1
        refine_shard(
            RefinementShard(
                cluster_index=0,
                members=list(transactions),
                similarity=SIMILARITY,
                backend="numpy",
                representative_id="rep",
            )
        )
        assert len(_PROCESS_ENGINES) == 2
        assert (SIMILARITY, "python") in _PROCESS_ENGINES
        assert (SIMILARITY, "numpy") in _PROCESS_ENGINES

    def test_clear_process_engines_empties_the_cache(self):
        process_engine(SIMILARITY, "python")
        assert _PROCESS_ENGINES
        clear_process_engines()
        assert not _PROCESS_ENGINES

    def test_autouse_isolation_left_no_state_behind(self):
        assert not _PROCESS_ENGINES
        assert not _SHARD_EXECUTORS
