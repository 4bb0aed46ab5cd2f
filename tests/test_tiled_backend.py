"""Parity and behaviour tests for the tiled batch kernels.

The numpy batch engine evaluates its similarity blocks in
``(row_tile x column_tile)`` tiles bounded by the module constant
:data:`repro.similarity.backend.TILE_ITEMS`.  Tiling bounds memory only:
every budget must produce **bit-identical** results -- the fused
segment-wise reductions consume the same gathered floats as a single
tile -- so this suite monkeypatches the constant and asserts exact ``==``
equality against the python reference across

* hypothesis-random transactions (including empty rows and columns),
* the synthetic generator corpus,
* full XK-means / CXK-means fits,

for tile sizes ``{1, 2, 7, >= corpus}``, plus the spec grammar (which
rejects the retired ``numpy:block=N`` option) and the peak-scratch memory
bound itself.
"""

from __future__ import annotations

import contextlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ClusteringConfig
from repro.core.cxkmeans import CXKMeans
from repro.core.seeding import select_seed_transactions
from repro.core.xkmeans import XKMeans
from repro.datasets.registry import get_dataset
from repro.similarity import backend
from repro.similarity.backend import (
    NumpyBackend,
    create_backend,
    parse_backend_spec,
    validate_backend_spec,
)
from repro.similarity.cache import TagPathSimilarityCache
from repro.similarity.item import SimilarityConfig
from repro.similarity.transaction import SimilarityEngine
from repro.text.vector import SparseVector
from repro.transactions.items import make_synthetic_item
from repro.transactions.transaction import make_transaction
from repro.xmlmodel.paths import XMLPath

numpy = pytest.importorskip("numpy")

#: The tile budgets every parity test sweeps: pathological single-item
#: tiles, tiny tiles, a prime that misaligns with transaction sizes, and a
#: budget far above any test corpus (>= corpus == single tile).
TILE_SIZES = (1, 2, 7, 10_000)


@contextlib.contextmanager
def tile_budget(items: int):
    """Run the block with the numpy kernels tiling by *items* per side."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(backend, "TILE_ITEMS", items)
        yield


# --------------------------------------------------------------------------- #
# Helpers and strategies (mirroring test_similarity_backend.py)
# --------------------------------------------------------------------------- #
def item(path: str, answer: str, vector=None):
    return make_synthetic_item(XMLPath.parse(path), answer, vector=vector)


def engine(spec: str, f: float = 0.5, gamma: float = 0.8) -> SimilarityEngine:
    return SimilarityEngine(
        SimilarityConfig(f=f, gamma=gamma),
        cache=TagPathSimilarityCache(),
        backend=spec,
    )


_TAGS = ["a", "b", "c"]
_TERMS = [1, 2, 3, 4]


@st.composite
def transactions_strategy(draw, max_items: int = 5):
    """Random transaction: random paths, vectors and occasional empty TCUs."""
    count = draw(st.integers(min_value=0, max_value=max_items))
    items = []
    for _ in range(count):
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
    st.sampled_from([0.0, 0.2, 0.5, 1.0]),
    st.sampled_from([0.0, 0.5, 0.8, 1.0]),
)


@pytest.fixture(scope="module")
def dblp_small():
    return get_dataset("DBLP", scale=0.2, seed=0)


# --------------------------------------------------------------------------- #
# Tile-span partitioning
# --------------------------------------------------------------------------- #
class TestTileSpans:
    def test_empty_input_has_no_spans(self):
        assert NumpyBackend._tile_spans([], 4) == []

    def test_spans_respect_the_budget(self):
        spans = NumpyBackend._tile_spans([2, 2, 2, 2], 4)
        assert spans == [(0, 2), (2, 4)]

    def test_oversized_transactions_are_atomic(self):
        """A transaction larger than the budget forms its own span."""
        spans = NumpyBackend._tile_spans([10, 1, 10], 4)
        assert spans == [(0, 1), (1, 2), (2, 3)]

    @given(
        lengths=st.lists(st.integers(min_value=0, max_value=9), max_size=20),
        budget=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_spans_are_a_contiguous_partition(self, lengths, budget):
        spans = NumpyBackend._tile_spans(lengths, budget)
        # contiguous, ordered cover of [0, len)
        flattened = [i for start, stop in spans for i in range(start, stop)]
        assert flattened == list(range(len(lengths)))
        for start, stop in spans:
            total = sum(lengths[start:stop])
            # within budget unless the span is a single oversized transaction
            assert total <= budget or stop - start == 1


# --------------------------------------------------------------------------- #
# Option grammar and spec validation
# --------------------------------------------------------------------------- #
class TestOptionGrammar:
    def test_parse_accepts_only_the_backend_names(self):
        """A spec is a backend name, case-insensitive; the parser returns it."""
        assert parse_backend_spec(None) == "python"
        assert parse_backend_spec("numpy") == "numpy"
        assert parse_backend_spec("NumPy") == "numpy"
        assert parse_backend_spec("PYTHON") == "python"

    @pytest.mark.parametrize(
        "options", ["block=", "block=abc", "block=-1", "block=1:block=2"]
    )
    def test_split_block_option_rejects_malformed_budgets(self, options):
        """Malformed budgets are rejected, like every ``block=`` option."""
        with pytest.raises(ValueError, match="block"):
            parse_backend_spec(f"numpy:{options}")

    def test_create_backend_parses_the_block_option(self):
        """``create_backend`` reads a ``block=N`` option and rejects it:
        the tile budget is the constant ``TILE_ITEMS``."""
        shared = SimilarityEngine(SimilarityConfig())
        with pytest.raises(ValueError, match="accepts no options"):
            create_backend("numpy:block=16", shared)
        assert isinstance(create_backend("numpy", shared), NumpyBackend)

    @pytest.mark.parametrize(
        "spec",
        [
            "numpy:block=abc",
            "numpy:block=-3",
            "numpy:bogus",
            "numpy:block=1:block=2",
            "numpy:block=0",
        ],
    )
    def test_bad_numpy_specs_fail_at_validation_and_creation(self, spec):
        shared = SimilarityEngine(SimilarityConfig())
        with pytest.raises(ValueError):
            validate_backend_spec(spec)
        with pytest.raises(ValueError):
            create_backend(spec, shared)


# --------------------------------------------------------------------------- #
# ClusteringConfig threading
# --------------------------------------------------------------------------- #
class TestConfigThreading:
    def test_negative_budget_is_rejected(self):
        with pytest.raises(ValueError, match="accepts no options"):
            ClusteringConfig(k=2, backend="numpy:block=-1")

    def test_a_tile_budget_is_an_unknown_option(self):
        with pytest.raises(ValueError, match="accepts no options"):
            ClusteringConfig(k=2, backend="numpy:block=64")


# --------------------------------------------------------------------------- #
# Hypothesis parity: every tile size vs. the python reference
# --------------------------------------------------------------------------- #
class TestPropertyParity:
    @given(
        rows=st.lists(transactions_strategy(), max_size=6),
        columns=st.lists(transactions_strategy(), max_size=4),
        config=_CONFIGS,
    )
    @settings(max_examples=25, deadline=None)
    def test_pairwise_and_assign_parity_across_tile_sizes(
        self, rows, columns, config
    ):
        f, gamma = config
        reference = engine("python", f=f, gamma=gamma)
        expected = reference.pairwise_transaction_similarity(rows, columns)
        expected_assign = reference.assign_all(rows, columns)
        for block in TILE_SIZES:
            with tile_budget(block):
                tiled = engine("numpy", f=f, gamma=gamma)
                assert (
                    tiled.pairwise_transaction_similarity(rows, columns)
                    == expected
                )
                assert tiled.assign_all(rows, columns) == expected_assign

    @given(
        cluster=st.lists(transactions_strategy(), max_size=6),
        candidates=st.lists(transactions_strategy(), max_size=4),
        config=_CONFIGS,
    )
    @settings(max_examples=25, deadline=None)
    def test_score_candidates_parity_across_tile_sizes(
        self, cluster, candidates, config
    ):
        f, gamma = config
        reference = engine("python", f=f, gamma=gamma)
        expected = reference.score_candidates(cluster, candidates)
        for block in TILE_SIZES:
            with tile_budget(block):
                tiled = engine("numpy", f=f, gamma=gamma)
                assert tiled.score_candidates(cluster, candidates) == expected

    @given(
        transactions=st.lists(transactions_strategy(), max_size=5),
        config=_CONFIGS,
    )
    @settings(max_examples=25, deadline=None)
    def test_rank_items_parity_across_tile_sizes(self, transactions, config):
        f, gamma = config
        pool = [entry for tr in transactions for entry in tr.items]
        reference = engine("python", f=f, gamma=gamma)
        expected = reference.rank_items_batch(pool)
        for block in TILE_SIZES:
            with tile_budget(block):
                tiled = engine("numpy", f=f, gamma=gamma)
                assert tiled.rank_items_batch(pool) == expected


# --------------------------------------------------------------------------- #
# Edge cases: empty rows / columns
# --------------------------------------------------------------------------- #
class TestEmptyEdges:
    def mixed_transactions(self):
        return [
            make_transaction("e1", []),
            make_transaction(
                "t1", [item("r.a.S", "x", SparseVector({1: 1.0}))]
            ),
            make_transaction("e2", []),
            make_transaction(
                "t2",
                [
                    item("r.a.S", "x", SparseVector({1: 1.0})),
                    item("r.b.S", "y"),
                ],
            ),
        ]

    @pytest.mark.parametrize("block", TILE_SIZES)
    def test_empty_rows_and_columns_survive_tiling(self, block, monkeypatch):
        transactions = self.mixed_transactions()
        expected = engine("python").pairwise_transaction_similarity(
            transactions, transactions
        )
        monkeypatch.setattr(backend, "TILE_ITEMS", block)
        assert (
            engine("numpy").pairwise_transaction_similarity(
                transactions, transactions
            )
            == expected
        )

    @pytest.mark.parametrize("block", TILE_SIZES)
    def test_all_empty_inputs(self, block, monkeypatch):
        monkeypatch.setattr(backend, "TILE_ITEMS", block)
        tiled = engine("numpy")
        empties = [make_transaction("e", []), make_transaction("f", [])]
        assert tiled.pairwise_transaction_similarity(empties, empties) == [
            [0.0, 0.0],
            [0.0, 0.0],
        ]
        assert tiled.score_candidates([], empties) == [0.0, 0.0]
        assert tiled.rank_items_batch([]) == []


# --------------------------------------------------------------------------- #
# Corpus parity and full-fit parity
# --------------------------------------------------------------------------- #
class TestCorpusParity:
    @pytest.mark.parametrize("block", TILE_SIZES)
    def test_assign_all_parity_on_generator_corpus(
        self, dblp_small, block, monkeypatch
    ):
        transactions = dblp_small.transactions
        representatives = select_seed_transactions(
            transactions, 5, random.Random(0)
        )
        expected = engine("python").assign_all(transactions, representatives)
        monkeypatch.setattr(backend, "TILE_ITEMS", block)
        tiled = engine("numpy")
        tiled.backend.compile_corpus(transactions)
        assert tiled.assign_all(transactions, representatives) == expected

    def test_xkmeans_fit_parity_across_tile_sizes(self, dblp_small):
        """Same seed -> identical clustering for every tile budget."""
        results = {}
        default = backend.TILE_ITEMS
        for spec, block in (("python", default), ("numpy", default), ("numpy", 7)):
            config = ClusteringConfig(
                k=4,
                similarity=SimilarityConfig(f=0.5, gamma=0.8),
                seed=7,
                max_iterations=5,
                backend=spec,
            )
            with tile_budget(block):
                results[spec, block] = XKMeans(config).fit(dblp_small.transactions)
        reference = results["python", default]
        for key, result in results.items():
            assert result.partition() == reference.partition(), key
            assert result.iterations == reference.iterations, key
            for rep_reference, rep_result in zip(
                reference.representatives(), result.representatives()
            ):
                assert sorted(
                    (str(entry.path), entry.answer)
                    for entry in rep_reference.items
                ) == sorted(
                    (str(entry.path), entry.answer)
                    for entry in rep_result.items
                )

    def test_cxkmeans_fit_parity_via_batch_block_items(self, dblp_small):
        """A small tile budget produces the same clustering as a single tile
        and as the fixed default budget."""
        partitions = [
            dblp_small.transactions[0::2],
            dblp_small.transactions[1::2],
        ]
        config = ClusteringConfig(
            k=3,
            similarity=SimilarityConfig(f=0.5, gamma=0.8),
            seed=3,
            max_iterations=4,
            backend="numpy",
        )
        partitions_by_budget = {}
        for block in (10**9, 7, backend.TILE_ITEMS):
            with tile_budget(block):
                partitions_by_budget[block] = (
                    CXKMeans(config).fit(partitions).partition()
                )
        assert (
            partitions_by_budget[7]
            == partitions_by_budget[10**9]
            == partitions_by_budget[backend.TILE_ITEMS]
        )


# --------------------------------------------------------------------------- #
# The memory bound itself
# --------------------------------------------------------------------------- #
class TestScratchBound:
    def corpus(self, transaction_count: int):
        """Uniform 3-item transactions (every tile stays within budget)."""
        return [
            make_transaction(
                f"t{index}",
                [
                    item(f"r.a{index % 5}.S", "x", SparseVector({1: 1.0})),
                    item(f"r.b{index % 3}.S", "y", SparseVector({2: 1.0})),
                    item("r.c.S", f"answer {index % 4}"),
                ],
            )
            for index in range(transaction_count)
        ]

    def test_peak_scratch_is_bounded_by_the_tile_budget(self, monkeypatch):
        budget = 6
        monkeypatch.setattr(backend, "TILE_ITEMS", budget)
        for count in (10, 40):
            tiled = engine("numpy")
            transactions = self.corpus(count)
            tiled.pairwise_transaction_similarity(transactions, transactions)
            # corpus-size independent: every scratch block stays within
            # budget x budget items no matter how many transactions
            assert tiled.backend.peak_scratch_entries <= budget * budget

    def test_score_candidates_scratch_is_bounded(self, monkeypatch):
        budget = 6
        monkeypatch.setattr(backend, "TILE_ITEMS", budget)
        transactions = self.corpus(30)
        tiled = engine("numpy")
        tiled.score_candidates(transactions, transactions[:3])
        # row tiles bounded by the budget, column side by the candidates
        assert (
            tiled.backend.peak_scratch_entries
            <= budget * sum(len(t.items) for t in transactions[:3])
        )
