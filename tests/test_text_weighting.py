"""Tests for vocabulary and ttf.itf weighting (repro.text)."""

import math

import pytest

from repro.text.vocabulary import Vocabulary
from repro.text.weighting import CorpusTermStatistics, TtfItfWeighter


class TestVocabulary:
    def test_ids_are_dense_and_stable(self):
        vocabulary = Vocabulary()
        assert vocabulary.add("alpha") == 0
        assert vocabulary.add("beta") == 1
        assert vocabulary.add("alpha") == 0
        assert len(vocabulary) == 2

    def test_lookup_round_trip(self):
        vocabulary = Vocabulary(["x", "y"])
        assert vocabulary.id_of("y") == 1
        assert vocabulary.id_of("missing") is None
        assert "x" in vocabulary

    def test_terms_keep_first_appearance_order(self):
        vocabulary = Vocabulary(["c", "a", "b", "a"])
        assert vocabulary.terms() == ["c", "a", "b"]
        assert list(vocabulary) == ["c", "a", "b"]


def build_statistics():
    """Two documents, three tuples, five TCUs in total."""
    statistics = CorpusTermStatistics()
    # document d1, tuple t1: two TCUs
    statistics.add_tcu("t1", "d1", ["xml", "cluster", "xml"])
    statistics.add_tcu("t1", "d1", ["cluster", "peer"])
    # document d1, tuple t2: one TCU
    statistics.add_tcu("t2", "d1", ["xml", "tree"])
    # document d2, tuple t3: two TCUs
    statistics.add_tcu("t3", "d2", ["database", "query"])
    statistics.add_tcu("t3", "d2", ["query", "index"])
    return statistics


class TestCorpusTermStatistics:
    def test_scope_counters(self):
        stats = build_statistics()
        assert stats.tcus_in_collection() == 5
        assert stats.tcus_in_tuple("t1") == 2
        assert stats.tcus_in_tuple("t3") == 2
        assert stats.tcus_in_doc("d1") == 3
        assert stats.tcus_in_doc("d2") == 2

    def test_term_containment_counters(self):
        stats = build_statistics()
        assert stats.term_tcus_in_tuple("xml", "t1") == 1
        assert stats.term_tcus_in_tuple("cluster", "t1") == 2
        assert stats.term_tcus_in_doc("xml", "d1") == 2
        assert stats.term_tcus_in_collection("xml") == 2
        assert stats.term_tcus_in_collection("query") == 2
        assert stats.term_tcus_in_collection("missing") == 0

    def test_vocabulary_grows_with_unique_terms(self):
        stats = build_statistics()
        assert len(stats.vocabulary) == 7

    def test_unknown_scopes_return_zero(self):
        stats = build_statistics()
        assert stats.tcus_in_tuple("nope") == 0
        assert stats.tcus_in_doc("nope") == 0


class TestTtfItfWeighter:
    def test_weight_formula(self):
        stats = build_statistics()
        weighter = TtfItfWeighter(stats)
        # term 'xml' in the first TCU of tuple t1 (document d1), tf = 2
        expected = (
            2
            * math.exp(1 / 2)      # n_{j,tau} / N_tau = 1/2
            * (2 / 3)              # n_{j,XT} / N_XT = 2/3
            * math.log(5 / 2)      # ln(N_T / n_{j,T}) = ln(5/2)
        )
        assert weighter.weight("xml", 2, "t1", "d1") == pytest.approx(expected)

    def test_weight_is_zero_for_unknown_term(self):
        stats = build_statistics()
        assert TtfItfWeighter(stats).weight("missing", 1, "t1", "d1") == 0.0

    def test_weight_is_zero_for_zero_tf(self):
        stats = build_statistics()
        assert TtfItfWeighter(stats).weight("xml", 0, "t1", "d1") == 0.0

    def test_ubiquitous_term_gets_zero_rarity(self):
        stats = CorpusTermStatistics()
        stats.add_tcu("t1", "d1", ["common"])
        stats.add_tcu("t2", "d2", ["common"])
        assert TtfItfWeighter(stats).weight("common", 1, "t1", "d1") == 0.0

    def test_vector_uses_vocabulary_ids(self):
        stats = build_statistics()
        weighter = TtfItfWeighter(stats)
        vector = weighter.vector(["xml", "cluster", "xml"], "t1", "d1")
        xml_id = stats.vocabulary.id_of("xml")
        cluster_id = stats.vocabulary.id_of("cluster")
        assert xml_id in vector and cluster_id in vector
        assert vector.get(xml_id) > vector.get(cluster_id) > 0.0

    def test_vector_of_unknown_terms_is_empty(self):
        stats = build_statistics()
        assert not TtfItfWeighter(stats).vector(["nope"], "t1", "d1")

    def test_rarer_terms_weigh_more_all_else_equal(self):
        stats = CorpusTermStatistics()
        stats.add_tcu("t1", "d1", ["rare", "frequent"])
        stats.add_tcu("t2", "d2", ["frequent"])
        stats.add_tcu("t3", "d3", ["frequent", "other"])
        weighter = TtfItfWeighter(stats)
        assert weighter.weight("rare", 1, "t1", "d1") > weighter.weight(
            "frequent", 1, "t1", "d1"
        )
