"""Tests for sparse TCU vectors (repro.text.vector)."""

import math

import pytest

from repro.text.vector import SparseVector, merge_vectors


class TestConstruction:
    def test_zero_weights_are_not_stored(self):
        vector = SparseVector({1: 0.0, 2: 3.0})
        assert 1 not in vector
        assert len(vector) == 1

    def test_empty_vector_is_falsy(self):
        assert not SparseVector()
        assert SparseVector({1: 1.0})

    def test_get_with_default(self):
        vector = SparseVector({1: 2.0})
        assert vector.get(1) == 2.0
        assert vector.get(99) == 0.0
        assert vector.get(99, -1.0) == -1.0

    def test_to_dict_returns_copy(self):
        vector = SparseVector({1: 2.0})
        copy = vector.to_dict()
        copy[1] = 99.0
        assert vector.get(1) == 2.0

    def test_iteration_yields_items(self):
        vector = SparseVector({1: 2.0, 3: 4.0})
        assert dict(iter(vector)) == {1: 2.0, 3: 4.0}
        assert set(vector.terms()) == {1, 3}


class TestAlgebra:
    def test_norm(self):
        assert SparseVector({1: 3.0, 2: 4.0}).norm() == pytest.approx(5.0)
        assert SparseVector().norm() == 0.0

    def test_dot_product(self):
        a = SparseVector({1: 1.0, 2: 2.0})
        b = SparseVector({2: 3.0, 3: 5.0})
        assert a.dot(b) == pytest.approx(6.0)
        assert b.dot(a) == pytest.approx(6.0)

    def test_dot_with_disjoint_support_is_zero(self):
        assert SparseVector({1: 1.0}).dot(SparseVector({2: 1.0})) == 0.0

    def test_cosine_of_identical_vectors_is_one(self):
        vector = SparseVector({1: 0.5, 7: 2.5})
        assert vector.cosine(vector) == pytest.approx(1.0)

    def test_cosine_of_orthogonal_vectors_is_zero(self):
        assert SparseVector({1: 1.0}).cosine(SparseVector({2: 1.0})) == 0.0

    def test_cosine_with_empty_vector_is_zero(self):
        assert SparseVector().cosine(SparseVector({1: 1.0})) == 0.0
        assert SparseVector().cosine(SparseVector()) == 0.0

    def test_cosine_is_scale_invariant(self):
        a = SparseVector({1: 1.0, 2: 2.0})
        assert a.cosine(a.scaled(10.0)) == pytest.approx(1.0)

    def test_cosine_of_opposed_vectors_is_clamped_to_zero(self):
        assert SparseVector({1: 1.0}).cosine(SparseVector({1: -2.0})) == 0.0

    def test_cosine_is_clamped_to_unit_interval(self):
        a = SparseVector({1: 1e-8, 2: 1e8})
        assert 0.0 <= a.cosine(a) <= 1.0

    def test_scaled(self):
        assert SparseVector({1: 2.0}).scaled(0.5).get(1) == 1.0

    def test_added(self):
        total = SparseVector({1: 1.0}).added(SparseVector({1: 2.0, 2: 3.0}))
        assert total.get(1) == 3.0 and total.get(2) == 3.0


class TestEqualityAndHashing:
    def test_equal_vectors_hash_equal(self):
        assert SparseVector({1: 1.0}) == SparseVector({1: 1.0})
        assert hash(SparseVector({1: 1.0})) == hash(SparseVector({1: 1.0}))

    def test_different_vectors_are_not_equal(self):
        assert SparseVector({1: 1.0}) != SparseVector({1: 2.0})

    def test_comparison_with_other_types(self):
        assert SparseVector() != 42


class TestAggregates:
    def test_merge_vectors_sums_weights(self):
        merged = merge_vectors([SparseVector({1: 1.0}), SparseVector({1: 2.0, 2: 1.0})])
        assert merged.get(1) == 3.0 and merged.get(2) == 1.0

    def test_merge_of_nothing_is_empty(self):
        assert not merge_vectors([])
