"""The round-to-round memos of one engine: refinements and assignment columns.

``refine_clusters`` answers a shard whose members and weights repeat the
last refinement of its representative id on the engine from
``engine.refinements``; ``SimilarityEngine.assign_all`` on a row set fixed
by ``fix_row_sets`` re-scores only the columns whose representative
changed.  These tests change one input at a time -- one member, one
weight, one representative item, one item's vector alone -- and assert
that each triggers a recompute equal to a memo-free engine's result; that
whole fits and streams equal memo-free runs bit for bit; that the memos
stay within their bound (one entry per representative id, one ``n x k``
matrix per fixed row set); and that classify reaches neither memo.
"""

from __future__ import annotations

import random

import pytest

from repro.core import representatives
from repro.core.config import ClusteringConfig
from repro.core.cxkmeans import CXKMeans
from repro.core.model_store import load_model, save_model
from repro.core.partition import partition_equally
from repro.core.pkmeans import PKMeans
from repro.core.seeding import select_seed_transactions
from repro.core.streaming import StreamingClusterer, stream_chunks
from repro.core.xkmeans import XKMeans
from repro.datasets.registry import get_corpus, get_dataset
from repro.network import mpengine
from repro.network.mpengine import RefinementShard, refine_clusters
from repro.similarity.item import SimilarityConfig
from repro.similarity.transaction import SimilarityEngine
from repro.text.vector import SparseVector
from repro.transactions.transaction import same_items
from repro.xmlmodel.serializer import serialize

SIMILARITY = SimilarityConfig(f=0.5, gamma=0.65)
BACKENDS = ["python", "numpy"]


@pytest.fixture(scope="module")
def dataset():
    return get_dataset("DBLP", scale=0.3, seed=0)


@pytest.fixture(scope="module")
def clusters(dataset):
    """Real clusters of at least two members: the corpus assigned to seeds."""
    seeds = select_seed_transactions(dataset.transactions, 4, random.Random(0))
    grouped = [[] for _ in seeds]
    engine = fresh("numpy")
    for transaction, (index, similarity) in zip(
        dataset.transactions, engine.assign_all(dataset.transactions, seeds)
    ):
        if similarity > 0.0:
            grouped[index].append(transaction)
    grouped = [members for members in grouped if len(members) >= 2]
    assert len(grouped) >= 3
    return grouped


@pytest.fixture()
def refined_ids(monkeypatch):
    """The representative ids refined for real, not answered by the memo."""
    computed = []
    for name in ("compute_local_representative", "compute_global_representative"):
        original = getattr(representatives, name)

        def counting(*args, _original=original, **kwargs):
            computed.append(kwargs["representative_id"])
            return _original(*args, **kwargs)

        monkeypatch.setattr(representatives, name, counting)
    return computed


def fresh(backend: str) -> SimilarityEngine:
    """A memo-free engine: nothing refined, no row set fixed."""
    return SimilarityEngine(SIMILARITY, backend=backend)


def local_shards(clusters):
    return [
        RefinementShard(cluster_index=index, members=list(members), representative_id=f"rep:{index}")
        for index, members in enumerate(clusters)
    ]


def global_shard(members, weights):
    return [
        RefinementShard(
            cluster_index=0,
            members=list(members),
            weights=list(weights),
            representative_id="rep:global:0",
        )
    ]


def exact(transaction):
    """Everything a representative carries, vectors and their order included."""
    return (
        transaction.transaction_id,
        [
            (item.item_id, str(item.path), item.answer, item.terms, list(item.vector.items()))
            for item in transaction.items
        ],
    )


def exact_all(refined):
    return {index: exact(representative) for index, representative in refined.items()}


def reweighted(transaction):
    """*transaction* with its first weighted item's vector alone changed:
    equal to it under ``==``, which ignores vectors."""
    items = list(transaction.items)
    position = next(i for i, item in enumerate(items) if item.vector)
    vector = SparseVector({term: 2.0 * weight for term, weight in items[position].vector.items()})
    items[position] = items[position].with_vector(vector)
    changed = transaction.with_items(items)
    assert changed == transaction and not same_items(changed, transaction)
    return changed


def with_foreign_item(transaction, donor):
    """*transaction* with its last item replaced by one of *donor*'s."""
    foreign = next(item for item in donor.items if item not in transaction.items)
    return transaction.with_items(list(transaction.items[:-1]) + [foreign])


def local_representatives(clusters, backend):
    """One refined representative per cluster, weighted by its size."""
    refined = refine_clusters(local_shards(clusters), fresh(backend))
    return [refined[index] for index in range(len(clusters))], [len(c) for c in clusters]


# --------------------------------------------------------------------------- #
# Refinement memo
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
class TestRefinementMemo:
    def test_repeated_input_is_answered_from_the_memo(self, clusters, backend, refined_ids):
        engine = fresh(backend)
        first = refine_clusters(local_shards(clusters), engine)
        assert len(refined_ids) == len(clusters)
        refined_ids.clear()
        again = refine_clusters(local_shards(clusters), engine)
        assert refined_ids == []
        assert all(again[index] is first[index] for index in first)

    def test_one_changed_member_is_refined_again(self, clusters, backend, refined_ids):
        engine = fresh(backend)
        refine_clusters(local_shards(clusters), engine)
        changed = [list(members) for members in clusters]
        changed[0][0] = clusters[1][0]
        refined_ids.clear()
        refined = refine_clusters(local_shards(changed), engine)
        assert refined_ids == ["rep:0"]
        assert exact_all(refined) == exact_all(refine_clusters(local_shards(changed), fresh(backend)))

    def test_one_vector_alone_is_refined_again(self, clusters, backend, refined_ids):
        engine = fresh(backend)
        refine_clusters(local_shards(clusters), engine)
        changed = [list(members) for members in clusters]
        changed[1][0] = reweighted(clusters[1][0])
        refined_ids.clear()
        refined = refine_clusters(local_shards(changed), engine)
        assert refined_ids == ["rep:1"]
        assert exact_all(refined) == exact_all(refine_clusters(local_shards(changed), fresh(backend)))

    def test_one_changed_weight_is_refined_again(self, clusters, backend, refined_ids):
        members, weights = local_representatives(clusters, backend)
        engine = fresh(backend)
        refine_clusters(global_shard(members, weights), engine)
        refined_ids.clear()
        refine_clusters(global_shard(members, weights), engine)
        assert refined_ids == []
        weights[0] += 1
        refined = refine_clusters(global_shard(members, weights), engine)
        assert refined_ids == ["rep:global:0"]
        assert exact_all(refined) == exact_all(
            refine_clusters(global_shard(members, weights), fresh(backend))
        )

    def test_one_changed_representative_item_is_refined_again(
        self, clusters, backend, refined_ids
    ):
        members, weights = local_representatives(clusters, backend)
        engine = fresh(backend)
        refine_clusters(global_shard(members, weights), engine)
        changed = list(members)
        changed[0] = with_foreign_item(members[0], members[1])
        refined_ids.clear()
        refined = refine_clusters(global_shard(changed, weights), engine)
        assert refined_ids == ["rep:global:0"]
        assert exact_all(refined) == exact_all(
            refine_clusters(global_shard(changed, weights), fresh(backend))
        )


# --------------------------------------------------------------------------- #
# Column memo
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
class TestColumnMemo:
    @pytest.fixture()
    def fixed(self, dataset, clusters, backend, monkeypatch):
        """``(engine, rows, representatives, scored)``: an engine with the
        corpus fixed, synthetic representatives, and the column count of
        every block the engine scored."""
        engine = fresh(backend)
        rows = list(dataset.transactions)
        engine.fix_row_sets([rows])
        reps, _ = local_representatives(clusters, backend)
        scored = []
        pairwise = engine.backend.pairwise_transaction_similarity

        def counting(block_rows, columns):
            scored.append(len(columns))
            return pairwise(block_rows, columns)

        monkeypatch.setattr(engine.backend, "pairwise_transaction_similarity", counting)
        assert engine.assign_all(rows, reps) == fresh(backend).assign_all(rows, reps)
        assert scored == [len(reps)]
        return engine, rows, reps, scored

    def test_unchanged_representatives_score_no_column(self, fixed):
        engine, rows, reps, scored = fixed
        first = engine.assign_all(rows, reps)
        # decoded copies, as a real worker receives each round
        copies = [rep.with_items(rep.items) for rep in reps]
        assert engine.assign_all(rows, copies) == first
        assert scored == [len(reps)]

    def test_one_changed_representative_item_rescores_its_column(self, fixed, backend):
        engine, rows, reps, scored = fixed
        changed = list(reps)
        changed[1] = with_foreign_item(reps[1], reps[2])
        assert engine.assign_all(rows, changed) == fresh(backend).assign_all(rows, changed)
        assert scored == [len(reps), 1]

    def test_one_vector_alone_rescores_its_column(self, fixed, backend):
        engine, rows, reps, scored = fixed
        changed = list(reps)
        changed[2] = reweighted(reps[2])
        assert engine.assign_all(rows, changed) == fresh(backend).assign_all(rows, changed)
        assert scored == [len(reps), 1]

    def test_a_different_representative_count_rescores_every_column(self, fixed, backend):
        engine, rows, reps, scored = fixed
        fewer = reps[:2]
        assert engine.assign_all(rows, fewer) == fresh(backend).assign_all(rows, fewer)
        assert scored == [len(reps), 2]

    def test_rows_not_fixed_are_scored_whole(self, fixed, backend):
        engine, rows, reps, scored = fixed
        other = list(rows)
        assert engine.assign_all(other, reps) == fresh(backend).assign_all(other, reps)
        assert scored == [len(reps)]


# --------------------------------------------------------------------------- #
# Whole runs: equal to memo-free runs, within the bound
# --------------------------------------------------------------------------- #
def config(backend: str, **overrides) -> ClusteringConfig:
    options = dict(k=4, similarity=SIMILARITY, seed=0, max_iterations=5, backend=backend)
    options.update(overrides)
    return ClusteringConfig(**options)


def without_memos(monkeypatch) -> None:
    """Make every engine refine and score everything, as before the memos."""
    monkeypatch.setattr(SimilarityEngine, "fix_row_sets", lambda self, row_sets: None)
    monkeypatch.setattr(mpengine, "_repeats", lambda last, members, weights: False)


def stream(clusterer, transactions):
    for chunk in stream_chunks(transactions, clusterer.config.chunk_size):
        clusterer.ingest(chunk)
    return clusterer.finalize()


def run_signature(result):
    return (
        result.iterations,
        result.converged,
        result.partition(include_trash=True),
        [exact(representative) for representative in result.representatives()],
    )


def assert_within_bound(engine, representative_ids, row_sets, k):
    """At most one refinement per id; one ``n x k`` matrix per row set."""
    assert set(engine.refinements) <= set(representative_ids)
    fixed = list(engine._fixed.values())
    assert sorted(len(entry.rows) for entry in fixed) == sorted(map(len, row_sets))
    for entry in fixed:
        assert len(entry.columns) == k
        assert all(len(column) == len(entry.rows) for column in entry.columns)


@pytest.mark.parametrize("backend", BACKENDS)
class TestWholeRuns:
    def test_cxkmeans_fit(self, dataset, backend, monkeypatch):
        parts = partition_equally(dataset.transactions, 3, seed=0)
        algorithm = CXKMeans(config(backend))
        result = algorithm.fit(parts)
        ids = [f"rep:local:{p}:{j}" for p in range(3) for j in range(4)]
        ids += [f"rep:global:{j}" for j in range(4)]
        assert_within_bound(algorithm.engine, ids, parts, 4)
        without_memos(monkeypatch)
        assert run_signature(result) == run_signature(CXKMeans(config(backend)).fit(parts))

    def test_pkmeans_fit(self, dataset, backend, monkeypatch):
        parts = partition_equally(dataset.transactions, 2, seed=0)
        result = PKMeans(config(backend)).fit(parts)
        without_memos(monkeypatch)
        assert run_signature(result) == run_signature(PKMeans(config(backend)).fit(parts))

    def test_xkmeans_fit(self, dataset, backend, monkeypatch):
        algorithm = XKMeans(config(backend))
        result = algorithm.fit(dataset.transactions)
        assert_within_bound(
            algorithm.engine, [f"rep:{j}" for j in range(4)], [dataset.transactions], 4
        )
        without_memos(monkeypatch)
        assert run_signature(result) == run_signature(
            XKMeans(config(backend)).fit(dataset.transactions)
        )

    def test_stream(self, dataset, backend, monkeypatch):
        streaming = config(backend).with_streaming(
            chunk_size=24, retain_threshold=0.25, drift_threshold=0.25
        )
        clusterer = StreamingClusterer(streaming)
        result = stream(clusterer, dataset.transactions)
        assert clusterer.stats.re_refinements > 0
        # the bootstrap fit's corpus is the one fixed row set
        bootstrap = dataset.transactions[:24]
        assert_within_bound(clusterer.engine, [f"rep:{j}" for j in range(4)], [bootstrap], 4)
        without_memos(monkeypatch)
        again = stream(StreamingClusterer(streaming), dataset.transactions)
        assert run_signature(result) == run_signature(again)


def test_classify_reaches_neither_memo(dataset, tmp_path):
    algorithm = XKMeans(config("numpy"))
    result = algorithm.fit(dataset.transactions)
    save_model(tmp_path / "model", result, algorithm.config, dataset=dataset)
    model = load_model(tmp_path / "model")
    for tree in get_corpus("DBLP", scale=0.3, seed=5).trees[:10]:
        model.classify(serialize(tree), doc_id=tree.doc_id)
    assert model.engine.refinements == {}
    assert model.engine._fixed == {}
