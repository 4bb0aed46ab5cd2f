"""Tests for tree tuple items and the item domain (repro.transactions.items)."""

import pytest

from repro.text.vector import SparseVector
from repro.transactions.items import ItemDomain, TreeTupleItem, make_synthetic_item
from repro.xmlmodel.paths import XMLPath


class TestTreeTupleItem:
    def test_tag_path_strips_leaf_step(self):
        item = make_synthetic_item(XMLPath.parse("dblp.inproceedings.title.S"), "XRules")
        assert item.tag_path == XMLPath.parse("dblp.inproceedings.title")

    def test_tag_path_of_attribute_item(self):
        item = make_synthetic_item(XMLPath.parse("dblp.inproceedings.@key"), "k1")
        assert item.tag_path == XMLPath.parse("dblp.inproceedings")

    def test_synthetic_items_are_marked(self):
        item = make_synthetic_item(XMLPath.parse("a.S"), "x")
        assert item.item_id == -1

    def test_key_is_path_answer_pair(self):
        item = make_synthetic_item(XMLPath.parse("a.b.S"), "value")
        assert item.key() == (XMLPath.parse("a.b.S"), "value")

    def test_with_vector_returns_copy(self):
        item = make_synthetic_item(XMLPath.parse("a.S"), "x")
        updated = item.with_vector(SparseVector({1: 1.0}))
        assert updated.vector.get(1) == 1.0
        assert not item.vector
        assert updated.path == item.path

    def test_equality_ignores_vector_but_not_content(self):
        a = make_synthetic_item(XMLPath.parse("a.S"), "x", vector=SparseVector({1: 1.0}))
        b = make_synthetic_item(XMLPath.parse("a.S"), "x", vector=SparseVector({2: 9.0}))
        c = make_synthetic_item(XMLPath.parse("a.S"), "y")
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert a != "not an item"


class TestItemDomain:
    def test_intern_deduplicates_by_path_and_answer(self):
        domain = ItemDomain()
        first = domain.intern(XMLPath.parse("a.b.S"), "KDD")
        second = domain.intern(XMLPath.parse("a.b.S"), "KDD")
        assert first is second
        assert len(domain) == 1

    def test_distinct_answers_get_distinct_items(self):
        domain = ItemDomain()
        domain.intern(XMLPath.parse("a.b.S"), "KDD")
        domain.intern(XMLPath.parse("a.b.S"), "VLDB")
        assert len(domain) == 2

    def test_ids_are_dense(self):
        domain = ItemDomain()
        items = [domain.intern(XMLPath.parse("a.b.S"), str(i)) for i in range(5)]
        assert [item.item_id for item in items] == [0, 1, 2, 3, 4]

    def test_get_returns_the_interned_item(self):
        domain = ItemDomain()
        item = domain.intern(XMLPath.parse("a.b.S"), "x")
        assert domain.get(item.item_id) is item
        assert domain.intern(XMLPath.parse("a.b.S"), "x") is item

    def test_replace_attaches_new_vector(self):
        domain = ItemDomain()
        item = domain.intern(XMLPath.parse("a.b.S"), "x")
        domain.replace(item.with_vector(SparseVector({3: 2.0})))
        assert domain.get(item.item_id).vector.get(3) == 2.0
        # the de-duplication key still resolves to the same id
        assert domain.intern(XMLPath.parse("a.b.S"), "x").item_id == item.item_id

    def test_replace_of_unknown_id_fails(self):
        domain = ItemDomain()
        rogue = make_synthetic_item(XMLPath.parse("a.S"), "x")
        with pytest.raises(KeyError):
            domain.replace(rogue)

    def test_iteration_and_items(self):
        domain = ItemDomain()
        domain.intern(XMLPath.parse("a.b.S"), "1")
        domain.intern(XMLPath.parse("a.c.S"), "2")
        assert [item.item_id for item in domain] == [0, 1]
