"""Parity and behaviour tests for the tiled batch kernels.

The numpy batch engine evaluates its
similarity blocks in ``(row_tile x column_tile)`` tiles bounded by a
configurable item budget (``block=N`` in the backend option grammar,
``ClusteringConfig.batch_block_items`` at the config level).  Tiling is a
pure memory/throughput knob: every budget must produce **bit-identical**
results -- the fused segment-wise reductions consume the same gathered
floats as the untiled pass -- so this suite asserts exact ``==`` equality
against the untiled path (``block=0``) and the python reference across

* hypothesis-random transactions (including empty rows and columns),
* the synthetic generator corpus,
* full XK-means / CXK-means fits,

for tile sizes ``{1, 2, 7, >= corpus}``, plus the option grammar, the
``ClusteringConfig`` threading and the peak-scratch memory bound itself.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ClusteringConfig
from repro.core.cxkmeans import CXKMeans
from repro.core.seeding import select_seed_transactions
from repro.core.xkmeans import XKMeans
from repro.datasets.registry import get_dataset
from repro.network.mpengine import clear_process_engines
from repro.similarity.backend import (
    DEFAULT_BLOCK_ITEMS,
    NumpyBackend,
    create_backend,
    merge_block_option,
    split_block_option,
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
    def test_unbounded_budget_is_a_single_span(self):
        assert NumpyBackend._tile_spans([3, 1, 4], None) == [(0, 3)]

    def test_empty_input_has_no_spans(self):
        assert NumpyBackend._tile_spans([], None) == []
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

    def test_effective_block_items_resolution(self):
        shared = SimilarityEngine(SimilarityConfig())
        default = NumpyBackend(shared)
        assert default.block_items is None
        assert default.effective_block_items == DEFAULT_BLOCK_ITEMS
        untiled = NumpyBackend(shared, "block=0")
        assert untiled.block_items == 0
        assert untiled.effective_block_items is None
        tiled = NumpyBackend(shared, "block=5")
        assert tiled.effective_block_items == 5


# --------------------------------------------------------------------------- #
# Option grammar and spec validation
# --------------------------------------------------------------------------- #
class TestOptionGrammar:
    def test_split_block_option(self):
        assert split_block_option(None, "numpy") == ([], None)
        assert split_block_option("block=8", "numpy:block=8") == ([], 8)
        assert split_block_option("cuda:block=8", "torch:cuda:block=8") == (
            ["cuda"],
            8,
        )
        assert split_block_option("block=8:cuda", "torch:block=8:cuda") == (
            ["cuda"],
            8,
        )

    @pytest.mark.parametrize(
        "options", ["block=", "block=abc", "block=-1", "block=1:block=2"]
    )
    def test_split_block_option_rejects_malformed_budgets(self, options):
        with pytest.raises(ValueError, match="block"):
            split_block_option(options, f"numpy:{options}")

    def test_create_backend_parses_the_block_option(self):
        shared = SimilarityEngine(SimilarityConfig())
        backend = create_backend("numpy:block=16", shared)
        assert isinstance(backend, NumpyBackend)
        assert backend.block_items == 16

    @pytest.mark.parametrize(
        "spec",
        ["numpy:block=abc", "numpy:block=-3", "numpy:bogus", "numpy:block=1:block=2"],
    )
    def test_bad_numpy_specs_fail_at_validation_and_creation(self, spec):
        shared = SimilarityEngine(SimilarityConfig())
        with pytest.raises(ValueError):
            validate_backend_spec(spec)
        with pytest.raises(ValueError):
            create_backend(spec, shared)

    def test_merge_block_option(self):
        assert merge_block_option("numpy", 64) == "numpy:block=64"
        assert merge_block_option("numpy", None) == "numpy"
        assert merge_block_option("python", 64) == "python"
        assert merge_block_option(None, 64) == "python"
        # an explicit spec-level block option wins over the config knob
        assert merge_block_option("numpy:block=8", 64) == "numpy:block=8"


# --------------------------------------------------------------------------- #
# ClusteringConfig threading
# --------------------------------------------------------------------------- #
class TestConfigThreading:
    def test_negative_budget_is_rejected(self):
        with pytest.raises(ValueError, match="batch_block_items"):
            ClusteringConfig(k=2, batch_block_items=-1)

    def test_effective_batch_block_items_resolution(self):
        assert (
            ClusteringConfig(k=2).effective_batch_block_items
            == DEFAULT_BLOCK_ITEMS
        )
        assert (
            ClusteringConfig(k=2, batch_block_items=0).effective_batch_block_items
            == 0
        )
        assert (
            ClusteringConfig(k=2, batch_block_items=7).effective_batch_block_items
            == 7
        )

    def test_effective_batch_block_items_reports_the_running_budget(self):
        """The reported budget always matches what the kernels run with,
        including when a spec-level ``block=`` option wins."""
        assert (
            ClusteringConfig(
                k=2, backend="numpy:block=8"
            ).effective_batch_block_items
            == 8
        )
        # spec option wins over the config knob -- for the report too
        assert (
            ClusteringConfig(
                k=2, backend="numpy:block=8", batch_block_items=32
            ).effective_batch_block_items
            == 8
        )

    def test_effective_backend_merges_the_budget(self):
        config = ClusteringConfig(k=2, backend="numpy", batch_block_items=32)
        assert config.effective_backend == "numpy:block=32"
        assert ClusteringConfig(k=2, backend="numpy").effective_backend == "numpy"
        # explicit spec option wins
        config = ClusteringConfig(
            k=2, backend="numpy:block=8", batch_block_items=32
        )
        assert config.effective_backend == "numpy:block=8"
        # the python reference has no batch kernels to tile
        config = ClusteringConfig(k=2, backend="python", batch_block_items=32)
        assert config.effective_backend == "python"

    def test_with_batch_block_items_returns_an_updated_copy(self):
        config = ClusteringConfig(k=2, backend="numpy")
        updated = config.with_batch_block_items(9)
        assert updated.batch_block_items == 9
        assert config.batch_block_items is None
        assert updated.effective_backend == "numpy:block=9"

    def test_algorithm_engines_run_the_merged_spec(self):
        config = ClusteringConfig(k=2, backend="numpy", batch_block_items=11)
        algorithm = XKMeans(config)
        assert algorithm.engine.backend_name == "numpy:block=11"
        assert algorithm.engine.backend.block_items == 11


# --------------------------------------------------------------------------- #
# Hypothesis parity: tiled vs. untiled vs. python reference
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
        untiled = engine("numpy:block=0", f=f, gamma=gamma)
        reference = engine("python", f=f, gamma=gamma)
        expected = untiled.pairwise_transaction_similarity(rows, columns)
        assert expected == reference.pairwise_transaction_similarity(
            rows, columns
        )
        expected_assign = untiled.assign_all(rows, columns)
        for block in TILE_SIZES:
            tiled = engine(f"numpy:block={block}", f=f, gamma=gamma)
            assert (
                tiled.pairwise_transaction_similarity(rows, columns) == expected
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
        untiled = engine("numpy:block=0", f=f, gamma=gamma)
        reference = engine("python", f=f, gamma=gamma)
        expected = untiled.score_candidates(cluster, candidates)
        assert expected == reference.score_candidates(cluster, candidates)
        for block in TILE_SIZES:
            tiled = engine(f"numpy:block={block}", f=f, gamma=gamma)
            assert tiled.score_candidates(cluster, candidates) == expected

    @given(
        transactions=st.lists(transactions_strategy(), max_size=5),
        config=_CONFIGS,
    )
    @settings(max_examples=25, deadline=None)
    def test_rank_items_parity_across_tile_sizes(self, transactions, config):
        f, gamma = config
        pool = [entry for tr in transactions for entry in tr.items]
        untiled = engine("numpy:block=0", f=f, gamma=gamma)
        reference = engine("python", f=f, gamma=gamma)
        expected = untiled.rank_items_batch(pool)
        assert expected == reference.rank_items_batch(pool)
        for block in TILE_SIZES:
            tiled = engine(f"numpy:block={block}", f=f, gamma=gamma)
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
    def test_empty_rows_and_columns_survive_tiling(self, block):
        transactions = self.mixed_transactions()
        untiled = engine("numpy:block=0")
        tiled = engine(f"numpy:block={block}")
        expected = untiled.pairwise_transaction_similarity(
            transactions, transactions
        )
        assert (
            tiled.pairwise_transaction_similarity(transactions, transactions)
            == expected
        )

    @pytest.mark.parametrize("block", TILE_SIZES)
    def test_all_empty_inputs(self, block):
        tiled = engine(f"numpy:block={block}")
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
    def test_assign_all_parity_on_generator_corpus(self, dblp_small, block):
        transactions = dblp_small.transactions
        representatives = select_seed_transactions(
            transactions, 5, random.Random(0)
        )
        untiled = engine("numpy:block=0")
        tiled = engine(f"numpy:block={block}")
        tiled.backend.compile_corpus(transactions)
        assert tiled.assign_all(
            transactions, representatives
        ) == untiled.assign_all(transactions, representatives)

    def test_xkmeans_fit_parity_across_tile_sizes(self, dblp_small):
        """Same seed -> identical clustering for every tile budget."""
        results = {}
        for spec in ("python", "numpy:block=0", "numpy:block=7"):
            config = ClusteringConfig(
                k=4,
                similarity=SimilarityConfig(f=0.5, gamma=0.8),
                seed=7,
                max_iterations=5,
                backend=spec,
            )
            results[spec] = XKMeans(config).fit(dblp_small.transactions)
        reference = results["python"]
        for spec, result in results.items():
            assert result.partition() == reference.partition(), spec
            assert result.iterations == reference.iterations, spec
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
        """The config-level knob produces the same clustering as untiled."""
        partitions = [
            dblp_small.transactions[0::2],
            dblp_small.transactions[1::2],
        ]
        results = {}
        for batch_block_items in (0, 7, None):
            config = ClusteringConfig(
                k=3,
                similarity=SimilarityConfig(f=0.5, gamma=0.8),
                seed=3,
                max_iterations=4,
                backend="numpy",
                batch_block_items=batch_block_items,
            )
            results[batch_block_items] = CXKMeans(config).fit(partitions)
        assert (
            results[7].partition()
            == results[0].partition()
            == results[None].partition()
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

    def test_peak_scratch_is_bounded_by_the_tile_budget(self):
        budget = 6
        for count in (10, 40):
            tiled = engine(f"numpy:block={budget}")
            transactions = self.corpus(count)
            tiled.pairwise_transaction_similarity(transactions, transactions)
            # corpus-size independent: every scratch block stays within
            # budget x budget items no matter how many transactions
            assert tiled.backend.peak_scratch_entries <= budget * budget

    def test_untiled_scratch_grows_with_the_corpus(self):
        peaks = {}
        for count in (10, 40):
            untiled = engine("numpy:block=0")
            transactions = self.corpus(count)
            untiled.pairwise_transaction_similarity(transactions, transactions)
            peaks[count] = untiled.backend.peak_scratch_entries
        assert peaks[40] > peaks[10]
        assert peaks[40] == (40 * 3) ** 2

    def test_score_candidates_scratch_is_bounded(self):
        budget = 6
        transactions = self.corpus(30)
        tiled = engine(f"numpy:block={budget}")
        tiled.score_candidates(transactions, transactions[:3])
        # row tiles bounded by the budget, column side by the candidates
        assert (
            tiled.backend.peak_scratch_entries
            <= budget * sum(len(t.items) for t in transactions[:3])
        )
