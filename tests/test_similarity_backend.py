"""Parity and behaviour tests for the pluggable similarity backends.

The numpy batch backend is designed to be *bit-exact* with the python
reference (see ``repro/similarity/backend.py``); these tests assert exact
(``==``) equality of transaction similarities, batched blocks, bulk
assignments and complete clustering results -- not approximate agreement
-- across hand-built edge cases, property-based random transactions and
the synthetic generator corpora.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ClusteringConfig
from repro.core.cxkmeans import CXKMeans
from repro.core.seeding import select_seed_transactions
from repro.core.xkmeans import XKMeans
from repro.datasets.registry import get_dataset
from repro.experiments.runner import run_configuration
from repro.similarity.backend import (
    BACKEND_NAMES,
    BackendUnavailableError,
    NumpyBackend,
    PythonBackend,
    create_backend,
)
from repro.similarity.cache import TagPathSimilarityCache
from repro.similarity.corpus_store import prepare_engine_corpus
from repro.similarity.item import SimilarityConfig
from repro.similarity.transaction import SimilarityEngine
from repro.text.vector import SparseVector
from repro.transactions.items import make_synthetic_item
from repro.transactions.transaction import make_transaction
from repro.xmlmodel.paths import XMLPath

numpy = pytest.importorskip("numpy")


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #
def item(path: str, answer: str, vector=None):
    return make_synthetic_item(XMLPath.parse(path), answer, vector=vector)


def engines(f: float = 0.5, gamma: float = 0.8):
    """One python and one numpy engine sharing nothing but the config."""
    config = SimilarityConfig(f=f, gamma=gamma)
    return (
        SimilarityEngine(config, cache=TagPathSimilarityCache(), backend="python"),
        SimilarityEngine(config, cache=TagPathSimilarityCache(), backend="numpy"),
    )


#: Small alphabet so random transactions overlap structurally and textually.
_TAGS = ["a", "b", "c"]
_TERMS = [1, 2, 3, 4]


@st.composite
def transactions_strategy(draw, max_items: int = 5):
    """Random transaction: random paths, vectors and occasional empty TCUs."""
    count = draw(st.integers(min_value=0, max_value=max_items))
    items = []
    for index in range(count):
        depth = draw(st.integers(min_value=1, max_value=3))
        steps = [draw(st.sampled_from(_TAGS)) for _ in range(depth)] + ["S"]
        if draw(st.booleans()):
            weights = {
                term: draw(st.floats(min_value=0.25, max_value=2.0))
                for term in draw(
                    st.sets(st.sampled_from(_TERMS), min_size=1, max_size=3)
                )
            }
            vector = SparseVector(weights)
        else:
            vector = None  # empty TCU: content falls back to answer equality
        answer = draw(st.sampled_from(["alpha", "beta", "gamma delta", "42"]))
        items.append(
            make_synthetic_item(XMLPath(tuple(steps)), answer, vector=vector)
        )
    return make_transaction(f"tr{draw(st.integers(0, 10_000))}", items)


_CONFIGS = st.tuples(
    st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]),
    st.sampled_from([0.0, 0.5, 0.8, 1.0]),
)


# --------------------------------------------------------------------------- #
# Backend selection
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_both_builtin_backends_are_registered(self):
        assert BACKEND_NAMES == ("numpy", "python")
        engine = SimilarityEngine(SimilarityConfig())
        assert isinstance(create_backend("numpy", engine), NumpyBackend)
        assert isinstance(create_backend("python", engine), PythonBackend)

    def test_unknown_backend_raises_with_alternatives(self):
        engine = SimilarityEngine(SimilarityConfig())
        with pytest.raises(ValueError, match="unknown similarity backend"):
            create_backend("cuda", engine)

    def test_engine_creates_backend_lazily_by_name(self):
        engine = SimilarityEngine(SimilarityConfig(), backend="numpy")
        assert engine._backend is None
        assert isinstance(engine.backend, NumpyBackend)
        engine = SimilarityEngine(SimilarityConfig())
        assert isinstance(engine.backend, PythonBackend)

    def test_backend_unavailable_error_is_runtime_error(self):
        assert issubclass(BackendUnavailableError, RuntimeError)

    def test_optionless_backends_reject_options(self):
        engine = SimilarityEngine(SimilarityConfig())
        with pytest.raises(ValueError, match="accepts no options"):
            create_backend("python:2", engine)


# --------------------------------------------------------------------------- #
# Hand-built edge cases
# --------------------------------------------------------------------------- #
class TestEdgeCaseParity:
    def edge_transactions(self):
        shared = item("r.a.S", "shared", SparseVector({1: 1.0}))
        near_1 = item("r.b.S", "near one", SparseVector({2: 1.0, 3: 1.0}))
        near_2 = item("r.b.S", "near two", SparseVector({2: 1.0, 4: 1.0}))
        empty_tcu_1 = item("r.c.S", "1999")
        empty_tcu_2 = item("r.c.S", "2001")
        # the content edges of the term-sharing kernel: an empty TCU with
        # empty_tcu_1's answer on another path (1.0), and a non-empty TCU
        # sharing no term with any other item (0.0 against all of them)
        empty_tcu_twin = item("r.d.S", "1999")
        lonely = item("r.a.S", "lonely", SparseVector({9: 1.0}))
        return [
            make_transaction("t1", [shared, near_1, empty_tcu_1]),
            make_transaction("t2", [shared, near_2, empty_tcu_2]),
            make_transaction("t3", [near_2, empty_tcu_1]),
            make_transaction("t4", [empty_tcu_twin, lonely]),
            make_transaction("empty", []),
        ]

    @pytest.mark.parametrize("f", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("gamma", [0.0, 0.8, 1.0])
    def test_pairwise_parity_on_edge_cases(self, f, gamma):
        python_engine, numpy_engine = engines(f=f, gamma=gamma)
        transactions = self.edge_transactions()
        expected = python_engine.pairwise_transaction_similarity(
            transactions, transactions
        )
        actual = numpy_engine.pairwise_transaction_similarity(
            transactions, transactions
        )
        assert actual == expected  # exact, not approximate

    def test_all_trash_corpus(self):
        """Disjoint transactions: zero similarity, everything assigned 0/0.0."""
        python_engine, numpy_engine = engines(f=0.5, gamma=0.8)
        transactions = [
            make_transaction("a", [item("x.p.S", "one", SparseVector({1: 1.0}))]),
            make_transaction("b", [item("y.q.S", "two", SparseVector({2: 1.0}))]),
        ]
        representatives = [
            make_transaction("r", [item("z.z.S", "other", SparseVector({9: 1.0}))])
        ]
        expected = python_engine.assign_all(transactions, representatives)
        assert numpy_engine.assign_all(transactions, representatives) == expected
        assert all(similarity == 0.0 for _, similarity in expected)

    def test_assign_all_with_no_representatives(self):
        python_engine, numpy_engine = engines()
        transactions = self.edge_transactions()
        expected = python_engine.assign_all(transactions, [])
        assert expected == [(-1, 0.0)] * len(transactions)
        assert numpy_engine.assign_all(transactions, []) == expected


# --------------------------------------------------------------------------- #
# Property-based parity
# --------------------------------------------------------------------------- #
class TestPropertyParity:
    @settings(max_examples=40, deadline=None)
    @given(
        tr1=transactions_strategy(),
        tr2=transactions_strategy(),
        config=_CONFIGS,
    )
    def test_transaction_similarity_parity(self, tr1, tr2, config):
        f, gamma = config
        python_engine, numpy_engine = engines(f=f, gamma=gamma)
        assert numpy_engine.pairwise_transaction_similarity([tr1], [tr2]) == [
            [python_engine.transaction_similarity(tr1, tr2)]
        ]

    @settings(max_examples=25, deadline=None)
    @given(
        transactions=st.lists(transactions_strategy(), min_size=1, max_size=6),
        representatives=st.lists(transactions_strategy(), min_size=1, max_size=3),
        config=_CONFIGS,
    )
    def test_assign_all_parity(self, transactions, representatives, config):
        f, gamma = config
        python_engine, numpy_engine = engines(f=f, gamma=gamma)
        assert numpy_engine.assign_all(
            transactions, representatives
        ) == python_engine.assign_all(transactions, representatives)


# --------------------------------------------------------------------------- #
# Corpus-level parity (generator corpora)
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def dblp_small():
    return get_dataset("DBLP", scale=0.2, seed=0)


class TestCorpusParity:
    def test_assign_all_parity_on_generator_corpus(self, dblp_small):
        python_engine, numpy_engine = engines(f=0.5, gamma=0.8)
        transactions = dblp_small.transactions
        numpy_engine.backend.compile_corpus(transactions)
        representatives = select_seed_transactions(
            transactions, 5, random.Random(0)
        )
        assert numpy_engine.assign_all(
            transactions, representatives
        ) == python_engine.assign_all(transactions, representatives)

    @pytest.mark.parametrize("f", [0.2, 0.5, 0.9])
    def test_pairwise_block_parity_on_generator_corpus(self, dblp_small, f):
        python_engine, numpy_engine = engines(f=f, gamma=0.8)
        rows = dblp_small.transactions[:12]
        columns = dblp_small.transactions[12:18]
        assert numpy_engine.pairwise_transaction_similarity(
            rows, columns
        ) == python_engine.pairwise_transaction_similarity(rows, columns)

    def test_xkmeans_fit_parity_same_seed(self, dblp_small):
        """Same seed -> identical clustering under either backend."""
        results = {}
        for backend in ("python", "numpy"):
            config = ClusteringConfig(
                k=4,
                similarity=SimilarityConfig(f=0.5, gamma=0.8),
                seed=7,
                max_iterations=5,
                backend=backend,
            )
            results[backend] = XKMeans(config).fit(dblp_small.transactions)
        assert results["python"].partition() == results["numpy"].partition()
        assert results["python"].iterations == results["numpy"].iterations
        representatives_python = [
            sorted((str(i.path), i.answer) for i in rep.items)
            for rep in results["python"].representatives()
        ]
        representatives_numpy = [
            sorted((str(i.path), i.answer) for i in rep.items)
            for rep in results["numpy"].representatives()
        ]
        assert representatives_python == representatives_numpy

    def test_cxkmeans_fit_parity_same_seed(self, dblp_small):
        results = {}
        partitions = [
            dblp_small.transactions[0::2],
            dblp_small.transactions[1::2],
        ]
        for backend in ("python", "numpy"):
            config = ClusteringConfig(
                k=3,
                similarity=SimilarityConfig(f=0.5, gamma=0.8),
                seed=3,
                max_iterations=4,
                backend=backend,
            )
            results[backend] = CXKMeans(config).fit(partitions)
        assert results["python"].partition() == results["numpy"].partition()

    @pytest.mark.parametrize("seed", [0, 5])
    def test_three_peer_cxkmeans_fit_parity(self, dblp_small, seed):
        """Identical clusterings *and* representatives across python and
        numpy for the same seed, over three peers."""
        partitions = [
            dblp_small.transactions[0::3],
            dblp_small.transactions[1::3],
            dblp_small.transactions[2::3],
        ]
        results = {}
        for backend in ("python", "numpy"):
            config = ClusteringConfig(
                k=3,
                similarity=SimilarityConfig(f=0.5, gamma=0.8),
                seed=seed,
                max_iterations=3,
                backend=backend,
            )
            result = CXKMeans(config).fit(partitions)
            results[backend] = (
                result.partition(),
                [
                    sorted((str(i.path), i.answer) for i in rep.items)
                    for rep in result.representatives()
                ],
            )
        assert results["numpy"] == results["python"]


class TestSparseContentKernel:
    """The numpy backend scores only content-class pairs that share a term.

    Every other pair has a value the scalar function returns without
    reading a weight (1.0 for an empty-TCU class meeting itself, else
    0.0), so evaluating it -- or memoising it -- is wasted work.
    """

    @staticmethod
    def shares_a_term(first, second):
        """True when two (term, weight) sequences have a term in common."""
        return bool({term for term, _ in first} & {term for term, _ in second})

    def test_only_term_sharing_pairs_are_evaluated_once(
        self, dblp_small, monkeypatch
    ):
        from repro.similarity import backend as backend_module

        content_calls = []
        cosine_calls = []
        inside_content = []
        content_similarity = backend_module.content_similarity
        cosine = SparseVector.cosine

        def recording_content(first, second):
            # an ordered (term, weight) tuple is the content-class key of a
            # non-empty TCU, so equal records mean a re-evaluated pair
            content_calls.append(
                (tuple(first.vector.items()), tuple(second.vector.items()))
            )
            inside_content.append(True)
            try:
                return content_similarity(first, second)
            finally:
                inside_content.pop()

        def recording_cosine(self, other):
            if not inside_content:
                cosine_calls.append((tuple(self.items()), tuple(other.items())))
            return cosine(self, other)

        monkeypatch.setattr(backend_module, "content_similarity", recording_content)
        monkeypatch.setattr(SparseVector, "cosine", recording_cosine)

        _, numpy_engine = engines(f=0.5, gamma=0.8)
        backend = numpy_engine.backend
        transactions = dblp_small.transactions
        backend.compile_corpus(transactions)
        representatives = select_seed_transactions(transactions, 5, random.Random(0))
        pool = [entry for tr in transactions[:15] for entry in tr.items]
        for _ in range(2):  # the repeat must be served from the memos
            numpy_engine.assign_all(transactions, representatives)
            numpy_engine.score_candidates(transactions[:20], representatives)
            numpy_engine.rank_items_batch(pool)

        for calls in (content_calls, cosine_calls):
            assert calls
            assert len(set(calls)) == len(calls)
            assert all(self.shares_a_term(first, second) for first, second in calls)
        exemplars = backend._content_exemplars
        for memo in (backend._content_memo, backend._cosine_memo):
            assert memo
            assert all(
                self.shares_a_term(
                    exemplars[row].vector.items(), exemplars[column].vector.items()
                )
                for row, column in memo
            )


# --------------------------------------------------------------------------- #
# Engine-level behaviour added with the backend refactor
# --------------------------------------------------------------------------- #
class TestEngineBehaviour:
    def test_nearest_representative_breaks_ties_to_lowest_index(self):
        """The documented deterministic rule: equal similarity -> lowest index."""
        target = make_transaction(
            "t", [item("r.a.S", "x", SparseVector({1: 1.0}))]
        )
        twin_a = make_transaction(
            "rep-a", [item("r.a.S", "x", SparseVector({1: 1.0}))]
        )
        twin_b = make_transaction(
            "rep-b", [item("r.a.S", "x", SparseVector({1: 1.0}))]
        )
        for backend in ("python", "numpy"):
            engine = SimilarityEngine(
                SimilarityConfig(f=0.5, gamma=0.5), backend=backend
            )
            assert engine.assign_all([target], [twin_a, twin_b]) == [(0, 1.0)]

    def test_compile_corpus_is_idempotent_and_counts(self, dblp_small):
        engine = SimilarityEngine(SimilarityConfig(), backend="numpy")
        transactions = dblp_small.transactions[:10]
        assert engine.backend.compile_corpus(transactions) == 10
        assert engine.backend.compile_corpus(transactions) == 0

    def test_pinned_compile_answers_only_for_the_same_items(self):
        """``==`` ignores TCU vectors: a transaction equal to a pinned one
        that carries other vectors gets its own compile, in every entry
        point that checks the pins."""
        transactions = get_dataset("DBLP", scale=0.3, seed=0).transactions
        first, donor = transactions[0], transactions[1]
        vectors = [item.vector for item in donor.items]
        copy = replace(
            first,
            items=tuple(
                item.with_vector(vectors[index % len(vectors)])
                for index, item in enumerate(first.items)
            ),
        )
        assert copy == first
        config = SimilarityConfig(f=0.5, gamma=0.65)
        reference = SimilarityEngine(config, backend="python")
        columns = transactions[:40]
        engine = SimilarityEngine(config, backend="numpy")
        assert engine.backend.compile_corpus([first]) == 1
        assert engine.pairwise_transaction_similarity(
            [copy], columns
        ) == reference.pairwise_transaction_similarity([copy], columns)
        assert engine.backend.extend_corpus([copy]) == 1
        assert engine.backend.compile_corpus([first]) == 0
        assert engine.backend.compile_corpus([copy]) == 1
        assert engine.pairwise_transaction_similarity(
            [first], columns
        ) == reference.pairwise_transaction_similarity([first], columns)

    def test_python_backend_compile_corpus_is_noop(self):
        engine = SimilarityEngine(SimilarityConfig(), backend="python")
        assert engine.backend.compile_corpus([]) == 0


# --------------------------------------------------------------------------- #
# Experiment wiring (Sec. 4.3.2 precomputation)
# --------------------------------------------------------------------------- #
class TestExperimentWiring:
    def test_precompute_similarity_fills_cache_before_fit(self, dblp_small):
        config = ClusteringConfig(
            k=3,
            similarity=SimilarityConfig(f=0.5, gamma=0.8),
            seed=0,
            max_iterations=3,
            backend="numpy",
        )
        algorithm = XKMeans(config)
        status = prepare_engine_corpus(algorithm.engine, dblp_small.transactions)
        assert status == {"compiled": len(dblp_small.transactions)}
        assert algorithm.engine.cache.stats()["entries"] > 0
        algorithm.fit(dblp_small.transactions)
        # up-front precomputation means the clustering itself never misses
        assert algorithm.engine.cache.stats()["misses"] == 0

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_run_configuration_reports_backend_and_cache_stats(
        self, dblp_small, backend
    ):
        record = run_configuration(
            dblp_small,
            goal="hybrid",
            nodes=1,
            f=0.5,
            gamma=0.8,
            seed=0,
            algorithm="xk",
            k=3,
            max_iterations=3,
            backend=backend,
        )
        assert record.backend == backend
        assert record.cache_stats["entries"] > 0
        assert record.cache_stats["misses"] == 0

    def test_run_configuration_results_identical_across_backends(self, dblp_small):
        records = {
            backend: run_configuration(
                dblp_small,
                goal="hybrid",
                nodes=3,
                f=0.5,
                gamma=0.8,
                seed=1,
                algorithm="cxk",
                k=3,
                max_iterations=3,
                backend=backend,
            )
            for backend in ("python", "numpy")
        }
        assert records["python"].f_measure == records["numpy"].f_measure
        assert records["python"].trash == records["numpy"].trash
        assert records["python"].iterations == records["numpy"].iterations
