"""Tests for combined item similarity (Eq. 1-2) and content similarity."""

import pytest

from repro.similarity.content import content_similarity, cosine_similarity
from repro.similarity.item import SimilarityConfig, item_similarity
from repro.similarity.transaction import gamma_shared_items
from repro.text.vector import SparseVector
from repro.transactions.items import make_synthetic_item
from repro.transactions.transaction import make_transaction
from repro.xmlmodel.paths import XMLPath


def item(path: str, answer: str, vector=None):
    return make_synthetic_item(XMLPath.parse(path), answer, vector=vector)


def gamma_matched(item_a, item_b, config: SimilarityConfig) -> bool:
    """Whether two items are gamma-matched, read off Eq. 2 on one-item
    transactions: each item is the other's only candidate, so both are
    gamma-shared exactly when their similarity reaches gamma."""
    shared = gamma_shared_items(
        make_transaction("a", [item_a]), make_transaction("b", [item_b]), config
    )
    return shared == {item_a, item_b}


class TestSimilarityConfig:
    def test_bounds_are_validated(self):
        with pytest.raises(ValueError):
            SimilarityConfig(f=1.5)
        with pytest.raises(ValueError):
            SimilarityConfig(gamma=-0.1)

    @pytest.mark.parametrize("field,value", [("f", -0.1), ("gamma", 1.5)])
    def test_other_side_of_each_bound_is_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must lie in"):
            SimilarityConfig(**{field: value})

    def test_unit_interval_end_points_are_accepted(self):
        for f in (0.0, 1.0):
            for gamma in (0.0, 1.0):
                config = SimilarityConfig(f=f, gamma=gamma)
                assert (config.f, config.gamma) == (f, gamma)


class TestContentSimilarity:
    def test_cosine_of_item_vectors(self):
        a = item("x.S", "a", SparseVector({1: 1.0, 2: 1.0}))
        b = item("y.S", "b", SparseVector({1: 1.0}))
        assert content_similarity(a, b) == pytest.approx(
            cosine_similarity(a.vector, b.vector)
        )

    def test_empty_vectors_fall_back_to_exact_answer_match(self):
        # numeric-only answers produce empty TCU vectors; identical answers
        # still count as matching content, different ones do not
        a = item("x.S", "2003")
        b = item("x.S", "2003")
        c = item("x.S", "2002")
        assert content_similarity(a, b) == 1.0
        assert content_similarity(a, c) == 0.0

    def test_mixed_empty_and_nonempty_vectors_score_zero(self):
        empty = item("x.S", "2003")
        full = item("x.S", "2003", SparseVector({1: 1.0}))
        assert content_similarity(empty, full) == 0.0


class TestCombinedSimilarity:
    def test_blend_weights_structure_and_content(self):
        # same tag path (structural similarity 1), orthogonal vectors
        a = item("r.t.S", "a", SparseVector({1: 1.0}))
        b = item("r.t.S", "b", SparseVector({2: 1.0}))
        config = SimilarityConfig(f=0.3, gamma=0.5)
        assert item_similarity(a, b, config) == pytest.approx(0.3)

    def test_pure_structure_ignores_content(self):
        a = item("r.t.S", "a", SparseVector({1: 1.0}))
        b = item("r.t.S", "b", SparseVector({1: 1.0}))
        assert item_similarity(a, b, SimilarityConfig(f=1.0)) == pytest.approx(1.0)

    def test_pure_content_ignores_structure(self):
        a = item("r.t.S", "hello", SparseVector({1: 1.0}))
        b = item("q.z.S", "hello", SparseVector({1: 2.0}))
        assert item_similarity(a, b, SimilarityConfig(f=0.0)) == pytest.approx(1.0)

    def test_identical_items_score_one_for_any_f(self):
        a = item("r.t.S", "same text", SparseVector({1: 1.0, 2: 0.5}))
        for f in (0.0, 0.3, 0.5, 0.8, 1.0):
            assert item_similarity(a, a, SimilarityConfig(f=f)) == pytest.approx(1.0)

    def test_precomputed_structural_shortcut(self):
        a = item("r.t.S", "a", SparseVector({1: 1.0}))
        b = item("r.t.S", "b", SparseVector({1: 1.0}))
        config = SimilarityConfig(f=0.5)
        assert item_similarity(a, b, config, structural=0.0) == pytest.approx(0.5)

    def test_value_stays_in_unit_interval(self):
        a = item("r.t.S", "a", SparseVector({1: 3.0}))
        b = item("r.u.S", "b", SparseVector({1: 1.0, 5: 2.0}))
        for f in (0.0, 0.25, 0.5, 0.75, 1.0):
            value = item_similarity(a, b, SimilarityConfig(f=f))
            assert 0.0 <= value <= 1.0


class TestGammaMatching:
    def test_matching_respects_threshold(self):
        a = item("r.t.S", "a", SparseVector({1: 1.0}))
        b = item("r.t.S", "b", SparseVector({1: 1.0}))
        assert gamma_matched(a, b, SimilarityConfig(f=0.5, gamma=0.9))
        c = item("r.t.S", "c", SparseVector({2: 1.0}))
        assert not gamma_matched(a, c, SimilarityConfig(f=0.5, gamma=0.9))
        assert gamma_matched(a, c, SimilarityConfig(f=0.5, gamma=0.5))

    def test_threshold_is_inclusive(self):
        a = item("r.t.S", "a", SparseVector({1: 1.0}))
        b = item("r.t.S", "b", SparseVector({2: 1.0}))
        # similarity is exactly f = 0.6
        assert gamma_matched(a, b, SimilarityConfig(f=0.6, gamma=0.6))
