"""Tests for the synthetic corpus generators and the registry."""

import pytest
from oracles import count_tree_tuples

from repro.datasets.corpus import FILLER_WORDS, TOPICS
from repro.datasets.dblp import DBLP_HYBRID_COMBOS, DBLP_TOPICS, generate_dblp
from repro.datasets.generator import TextSampler, spread_classes
from repro.datasets.ieee import IEEE_HYBRID_COMBOS, generate_ieee
from repro.datasets.registry import (
    DATASET_NAMES,
    cluster_count,
    get_corpus,
    get_dataset,
    profile,
)
from repro.datasets.shakespeare import PLAYS, generate_shakespeare
from repro.datasets.wikipedia import WIKIPEDIA_TOPICS, generate_wikipedia
import random


class TestCorpusVocabularies:
    def test_every_topic_has_a_reasonable_vocabulary(self):
        for name, words in TOPICS.items():
            assert len(words) >= 15
            assert len(set(words)) == len(words), f"duplicate words in {name}"

    def test_topics_do_not_share_too_many_words(self):
        ai = set(TOPICS["artificial_intelligence"])
        security = set(TOPICS["security"])
        assert len(ai & security) <= 3

    def test_filler_words_are_disjoint_from_most_topic_words(self):
        filler = set(FILLER_WORDS)
        overlapping = sum(1 for words in TOPICS.values() if filler & set(words))
        assert overlapping <= 3


class TestTextSampler:
    def test_topic_ratio_bounds_are_enforced(self):
        with pytest.raises(ValueError):
            TextSampler(random.Random(0), topic_ratio=1.5)

    def test_words_are_drawn_from_topic_and_filler(self):
        sampler = TextSampler(random.Random(0), topic_ratio=1.0)
        words = sampler.words("security", 20)
        assert all(word in TOPICS["security"] for word in words)

    def test_title_and_paragraph_lengths(self):
        sampler = TextSampler(random.Random(0))
        assert 4 <= len(sampler.title("security").split()) <= 9
        assert 20 <= len(sampler.paragraph("security").split()) <= 60

    def test_person_name_and_year(self):
        sampler = TextSampler(random.Random(0))
        assert len(sampler.person_name().split()) == 2
        assert 1995 <= int(sampler.year()) <= 2009

    def test_spread_classes_needs_a_class(self):
        with pytest.raises(ValueError, match="at least one class"):
            spread_classes(3, [], random.Random(0))

    def test_spread_classes_is_balanced(self):
        assigned = spread_classes(30, ["a", "b", "c"], random.Random(0))
        assert assigned.count("a") == assigned.count("b") == assigned.count("c") == 10


class TestDBLP:
    def test_profile_counts(self):
        corpus = generate_dblp(num_documents=64, seed=1)
        assert corpus.document_count() == 64
        assert corpus.class_counts == {"structure": 4, "content": 6, "hybrid": 16}
        assert set(corpus.doc_labels) == {"structure", "content", "hybrid"}

    def test_structural_category_matches_record_element(self):
        corpus = generate_dblp(num_documents=32, seed=2)
        for tree in corpus.trees:
            category = corpus.doc_labels["structure"][tree.doc_id]
            assert tree.root.label == "dblp"
            assert tree.root.children[0].label == category

    def test_hybrid_labels_are_consistent(self):
        corpus = generate_dblp(num_documents=32, seed=3)
        for doc_id, hybrid in corpus.doc_labels["hybrid"].items():
            category, topic = hybrid.split("|")
            assert corpus.doc_labels["structure"][doc_id] == category
            assert corpus.doc_labels["content"][doc_id] == topic
            assert (category, topic) in DBLP_HYBRID_COMBOS

    def test_topics_are_from_the_dblp_set(self):
        corpus = generate_dblp(num_documents=48, seed=4)
        assert set(corpus.doc_labels["content"].values()) <= set(DBLP_TOPICS)

    def test_generation_is_deterministic(self):
        first = generate_dblp(num_documents=20, seed=7)
        second = generate_dblp(num_documents=20, seed=7)
        assert [t.structure_signature() for t in first.trees] == [
            t.structure_signature() for t in second.trees
        ]

    def test_transactions_roughly_double_documents(self):
        # 1-3 authors per record => tuples per document in [1, 3]
        corpus = generate_dblp(num_documents=40, seed=5)
        dataset = corpus.to_dataset()
        assert 40 <= len(dataset) <= 120


class TestIEEE:
    def test_profile_counts(self):
        corpus = generate_ieee(num_documents=28, seed=1)
        assert corpus.class_counts == {"structure": 2, "content": 8, "hybrid": 14}
        assert len(IEEE_HYBRID_COMBOS) == 14

    def test_transactions_articles_have_front_and_back_matter(self):
        corpus = generate_ieee(num_documents=28, seed=2)
        for tree in corpus.trees:
            category = corpus.doc_labels["structure"][tree.doc_id]
            child_labels = {c.label for c in tree.root.children}
            if category == "transactions":
                assert {"fm", "bdy", "bm"} <= child_labels
            else:
                assert "hdr" in child_labels
                assert "bm" not in child_labels

    def test_documents_decompose_into_multiple_tuples(self):
        corpus = generate_ieee(num_documents=14, seed=3)
        per_doc = [count_tree_tuples(tree) for tree in corpus.trees]
        # transactions articles repeat authors, sections and references, so
        # the corpus-level transactions-per-document ratio stays well above 1
        assert sum(per_doc) / len(per_doc) >= 2
        assert max(per_doc) >= 4


class TestShakespeare:
    def test_seven_plays_and_class_structure(self):
        corpus = generate_shakespeare(seed=0)
        assert corpus.document_count() == 7
        assert corpus.class_counts["content"] == 5
        assert corpus.class_counts["structure"] == 3
        assert {doc for doc, _, _ in PLAYS} == set(corpus.doc_labels["content"])

    def test_structural_markers_follow_the_class(self):
        corpus = generate_shakespeare(seed=1)
        for tree in corpus.trees:
            structure_class = corpus.doc_labels["structure"][tree.doc_id]
            labels = {node.label for node in tree.iter_nodes()}
            if structure_class == "pgroup":
                assert "pgroup" in labels
            elif structure_class == "prologue":
                assert "prologue" in labels
            else:
                assert "epilogue" in labels and "pgroup" not in labels

    def test_size_knobs_scale_the_tuple_count(self):
        small = generate_shakespeare(seed=0, acts=1, scenes_per_act=1, speeches_per_scene=2, personas=2)
        large = generate_shakespeare(seed=0, acts=2, scenes_per_act=2, speeches_per_scene=3, personas=3)
        small_tuples = sum(count_tree_tuples(t) for t in small.trees)
        large_tuples = sum(count_tree_tuples(t) for t in large.trees)
        assert large_tuples > small_tuples


class TestWikipedia:
    def test_21_categories(self):
        assert len(WIKIPEDIA_TOPICS) == 21
        corpus = generate_wikipedia(num_documents=42, seed=0)
        assert corpus.class_counts["content"] == 21
        assert corpus.class_counts["structure"] == 1

    def test_structure_is_homogeneous(self):
        corpus = generate_wikipedia(num_documents=21, seed=1)
        signatures = {tuple(sorted({n.label for n in t.iter_nodes()})) for t in corpus.trees}
        assert len(signatures) == 1

    def test_topic_restriction(self):
        corpus = generate_wikipedia(num_documents=10, seed=2, topics=["music", "sports"])
        assert set(corpus.doc_labels["content"].values()) <= {"music", "sports"}


class TestRegistry:
    def test_all_four_corpora_are_registered(self):
        assert DATASET_NAMES == ["DBLP", "IEEE", "Shakespeare", "Wikipedia"]
        for name in DATASET_NAMES:
            assert profile(name).name == name

    def test_lookup_is_case_insensitive(self):
        assert profile("dblp").name == "DBLP"
        assert cluster_count("ieee", "content") == 8

    def test_unknown_corpus_raises(self):
        with pytest.raises(KeyError):
            profile("unknown")

    def test_cluster_counts_match_the_paper(self):
        assert cluster_count("DBLP", "content") == 6
        assert cluster_count("DBLP", "hybrid") == 16
        assert cluster_count("DBLP", "structure") == 4
        assert cluster_count("IEEE", "structure/content") == 14
        assert cluster_count("Shakespeare", "structure") == 3
        assert cluster_count("Wikipedia", "content") == 21

    def test_unknown_goal_raises(self):
        with pytest.raises(KeyError):
            cluster_count("DBLP", "nonsense")

    def test_scale_changes_corpus_size(self):
        small = get_corpus("DBLP", scale=0.25, seed=0)
        full = get_corpus("DBLP", scale=1.0, seed=0)
        assert small.document_count() < full.document_count()

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            get_corpus("DBLP", scale=0.0)

    def test_get_dataset_attaches_labelings(self):
        dataset = get_dataset("DBLP", scale=0.2, seed=0)
        assert {"content", "structure", "hybrid"} <= set(dataset.labelings)
        assert len(dataset) > 0

    def test_shakespeare_scaling_goes_through_play_size(self):
        small = get_corpus("Shakespeare", scale=1.0, seed=0)
        large = get_corpus("Shakespeare", scale=2.0, seed=0)
        small_tuples = sum(count_tree_tuples(t) for t in small.trees)
        large_tuples = sum(count_tree_tuples(t) for t in large.trees)
        assert large_tuples > small_tuples
