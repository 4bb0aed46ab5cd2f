"""Tests for structural similarity (Eq. 3) and the tag-path cache."""

import pytest

from repro.similarity.cache import TagPathSimilarityCache
from repro.similarity.structural import (
    dirichlet,
    positional_tag_score,
    structural_similarity,
    tag_path_similarity,
)
from repro.transactions.items import make_synthetic_item
from repro.xmlmodel.paths import XMLPath


class TestDirichlet:
    def test_exact_match(self):
        assert dirichlet("author", "author") == 1.0

    def test_mismatch(self):
        assert dirichlet("author", "writer") == 0.0
        assert dirichlet("Author", "author") == 0.0  # purely syntactic


class TestPositionalTagScore:
    def test_same_position_scores_one(self):
        assert positional_tag_score("b", ["a", "b", "c"], 2) == 1.0

    def test_score_decays_with_distance(self):
        # tag at position 1 matching position 3 of the other path: 1/(1+2)
        assert positional_tag_score("c", ["a", "b", "c"], 1) == pytest.approx(1 / 3)

    def test_no_match_scores_zero(self):
        assert positional_tag_score("zz", ["a", "b"], 1) == 0.0

    def test_best_position_is_chosen(self):
        # 'a' occurs at positions 1 and 3; from position 2 the best is 1/(1+1)
        assert positional_tag_score("a", ["a", "b", "a"], 2) == pytest.approx(0.5)


class TestTagPathSimilarity:
    def test_identical_paths_score_one(self):
        path = ("dblp", "inproceedings", "author")
        assert tag_path_similarity(path, path) == pytest.approx(1.0)

    def test_disjoint_paths_score_zero(self):
        assert tag_path_similarity(("a", "b"), ("x", "y")) == 0.0

    def test_empty_path_scores_zero(self):
        assert tag_path_similarity((), ("a",)) == 0.0

    def test_symmetry(self):
        p = ("dblp", "article", "title")
        q = ("dblp", "inproceedings", "title")
        assert tag_path_similarity(p, q) == pytest.approx(tag_path_similarity(q, p))

    def test_value_is_within_unit_interval(self):
        p = ("a", "b", "c", "d")
        q = ("a", "c")
        assert 0.0 <= tag_path_similarity(p, q) <= 1.0

    def test_partial_overlap_value(self):
        # p = a.b ; q = a.c -> only 'a' matches, at the same position, both
        # directions: (1 + 1) / (2 + 2) = 0.5
        assert tag_path_similarity(("a", "b"), ("a", "c")) == pytest.approx(0.5)

    def test_positional_penalty(self):
        # same tags shifted by one level score less than perfectly aligned
        aligned = tag_path_similarity(("a", "b", "c"), ("a", "b", "c"))
        shifted = tag_path_similarity(("a", "b", "c"), ("x", "a", "b"))
        assert shifted < aligned
        assert shifted > 0.0

    def test_longer_common_prefix_scores_higher(self):
        base = ("dblp", "inproceedings", "author")
        close = ("dblp", "inproceedings", "title")
        far = ("dblp", "article", "title")
        assert tag_path_similarity(base, close) > tag_path_similarity(base, far)


class TestItemStructuralSimilarity:
    def test_items_with_same_tag_path_score_one(self):
        a = make_synthetic_item(XMLPath.parse("dblp.inproceedings.author.S"), "Zaki")
        b = make_synthetic_item(XMLPath.parse("dblp.inproceedings.author.S"), "Aggarwal")
        assert structural_similarity(a, b) == pytest.approx(1.0)

    def test_attribute_and_text_items_compare_by_tag_path(self):
        # @key's tag path is dblp.inproceedings: partial overlap with the
        # author tag path
        key = make_synthetic_item(XMLPath.parse("dblp.inproceedings.@key"), "k")
        author = make_synthetic_item(XMLPath.parse("dblp.inproceedings.author.S"), "Zaki")
        value = structural_similarity(key, author)
        assert 0.0 < value < 1.0

    def test_attribute_item_against_author_item_worked_example(self):
        # Eq. 3 on dblp.inproceedings vs dblp.inproceedings.author: both tags
        # of the shorter path sit at the same position in the longer one
        # (1 + 1), and the longer one matches 'dblp' and 'inproceedings'
        # but not 'author' (1 + 1 + 0), over 2 + 3 tags
        key = make_synthetic_item(XMLPath.parse("dblp.inproceedings.@key"), "k")
        author = make_synthetic_item(XMLPath.parse("dblp.inproceedings.author.S"), "Zaki")
        assert structural_similarity(key, author) == pytest.approx(4 / 5)


class TestTagPathCache:
    def test_cache_returns_same_values_as_direct_computation(self):
        cache = TagPathSimilarityCache()
        p = XMLPath.parse("dblp.inproceedings.author")
        q = XMLPath.parse("dblp.article.author")
        assert cache.similarity(p, q) == pytest.approx(
            tag_path_similarity(p.steps, q.steps)
        )

    def test_cache_is_symmetric_and_counts_hits(self):
        cache = TagPathSimilarityCache()
        p = XMLPath.parse("a.b")
        q = XMLPath.parse("a.c")
        cache.similarity(p, q)
        cache.similarity(q, p)
        assert cache.hits == 1 and cache.misses == 1
        assert len(cache) == 1

    def test_precompute_fills_all_pairs(self):
        cache = TagPathSimilarityCache()
        paths = [XMLPath.parse(p) for p in ("a.b", "a.c", "d.e")]
        entries = cache.precompute(paths)
        assert entries == 6  # 3 pairs + 3 self-pairs
        cache.similarity(paths[0], paths[1])
        assert cache.misses == 0

    def test_precompute_counts_precomputed_entries_not_misses(self):
        """Regression: precompute must be visible in the statistics.

        Entries inserted by precompute used to leave every counter at
        zero, so run records with precompute on reported ``misses=0`` and
        a meaningless 100% hit rate with no trace of the eager work; the
        dedicated ``precomputed`` counter pins the real accounting.
        """
        cache = TagPathSimilarityCache()
        paths = [XMLPath.parse(p) for p in ("a.b", "a.c", "d.e")]
        cache.precompute(paths)
        assert cache.stats() == {
            "entries": 6,
            "hits": 0,
            "misses": 0,
            "precomputed": 6,
        }
        # re-precomputing the same paths adds (and counts) nothing
        cache.precompute(paths)
        assert cache.stats()["precomputed"] == 6
        # a lookup landing on a precomputed entry is a hit, not a miss
        cache.similarity(paths[0], paths[1])
        assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 0
        # a genuinely new pair still counts as a miss
        cache.similarity(paths[0], XMLPath.parse("z.z"))
        assert cache.stats()["misses"] == 1
        assert cache.stats()["precomputed"] == 6

    def test_precompute_extends_the_counter_for_new_paths_only(self):
        cache = TagPathSimilarityCache()
        cache.precompute([XMLPath.parse("a.b"), XMLPath.parse("a.c")])
        assert cache.stats()["precomputed"] == 3
        # a second precompute over a superset counts only the new pairs
        cache.precompute(
            [XMLPath.parse("a.b"), XMLPath.parse("a.c"), XMLPath.parse("d.e")]
        )
        assert cache.stats()["precomputed"] == 6

    def test_item_similarity_uses_tag_paths(self):
        cache = TagPathSimilarityCache()
        a = make_synthetic_item(XMLPath.parse("x.y.S"), "1")
        b = make_synthetic_item(XMLPath.parse("x.y.@id"), "2")
        assert cache.item_similarity(a, b) == pytest.approx(
            tag_path_similarity(("x", "y"), ("x", "y"))
        )

    def test_clear_resets_statistics(self):
        cache = TagPathSimilarityCache()
        cache.similarity(XMLPath.parse("a.b"), XMLPath.parse("a.b"))
        cache.precompute([XMLPath.parse("a.b"), XMLPath.parse("a.c")])
        cache.clear()
        assert cache.stats() == {
            "entries": 0,
            "hits": 0,
            "misses": 0,
            "precomputed": 0,
        }


class TestCacheOrderIndependence:
    """Regression tests: cached similarities are pure functions of the pair.

    ``tag_path_similarity`` sums its two directed passes in argument order,
    so swapping operands can change the float by one ULP; the cache must
    therefore evaluate in canonical key order, or the value returned for a
    pair would depend on which direction -- and which query history --
    filled it first.  Found by the representative-backend parity harness.
    """

    def test_similarity_is_independent_of_query_order(self):
        short = XMLPath.parse("c")
        long_a = XMLPath.parse("c.a.c")
        long_b = XMLPath.parse("c.b.c")
        # history 1: short path queried first
        first = TagPathSimilarityCache()
        value_fwd = first.similarity(short, long_a)
        # history 2: long path queried first
        second = TagPathSimilarityCache()
        value_rev = second.similarity(long_a, short)
        assert value_fwd == value_rev  # exact, not approximate
        # mathematically identical pairs stay exactly equal regardless of
        # the direction each one was first computed in
        mixed = TagPathSimilarityCache()
        assert mixed.similarity(short, long_a) == mixed.similarity(long_b, short)

    def test_precompute_matches_lazy_fill_exactly(self):
        paths = [XMLPath.parse(p) for p in ("c", "c.a.c", "c.b.c", "d")]
        eager = TagPathSimilarityCache()
        eager.precompute(paths)
        lazy = TagPathSimilarityCache()
        for path_b in reversed(paths):
            for path_a in paths:
                assert lazy.similarity(path_b, path_a) == eager.similarity(
                    path_a, path_b
                )
