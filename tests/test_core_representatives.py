"""Tests for cluster representative computation (Fig. 6)."""

import pytest

from repro.core.representatives import (
    RankedItem,
    compute_global_representative,
    compute_local_representative,
    conflate_items,
    generate_tree_tuple,
    rank_items,
    reference_item_ranks,
    refinement_candidates,
    representatives_equal,
)
from repro.similarity.item import SimilarityConfig
from repro.similarity.transaction import SimilarityEngine
from repro.text.vector import SparseVector
from repro.transactions.builder import build_dataset
from repro.transactions.items import make_synthetic_item
from repro.transactions.transaction import make_transaction
from repro.xmlmodel.paths import XMLPath


def item(path: str, answer: str, weights=None):
    return make_synthetic_item(
        XMLPath.parse(path), answer, vector=SparseVector(weights or {})
    )


@pytest.fixture()
def hybrid_engine():
    return SimilarityEngine(SimilarityConfig(f=0.5, gamma=0.6))


class TestConflateItems:
    def test_one_item_per_distinct_path(self):
        conflated = conflate_items(
            [item("r.a.S", "x"), item("r.a.S", "y"), item("r.b.S", "z")]
        )
        assert [str(entry.path) for entry in conflated] == ["r.a.S", "r.b.S"]

    def test_answers_are_unioned_in_first_seen_order(self):
        conflated = conflate_items(
            [item("r.a.S", "x"), item("r.a.S", "y"), item("r.a.S", "x")]
        )
        assert conflated[0].answer == "x | y"

    def test_vectors_are_summed(self):
        conflated = conflate_items(
            [item("r.a.S", "x", {1: 1.0}), item("r.a.S", "y", {1: 2.0, 2: 3.0})]
        )
        assert conflated[0].vector.get(1) == 3.0
        assert conflated[0].vector.get(2) == 3.0

    def test_terms_are_concatenated(self):
        first = make_synthetic_item(XMLPath.parse("r.a.S"), "x", terms=("alpha",))
        second = make_synthetic_item(XMLPath.parse("r.a.S"), "y", terms=("beta",))
        conflated = conflate_items([first, second])
        assert conflated[0].terms == ("alpha", "beta")

    def test_single_item_is_preserved(self):
        single = item("r.a.S", "only", {5: 1.0})
        conflated = conflate_items([single])
        assert conflated[0].answer == "only"
        assert conflated[0].vector == single.vector

    def test_result_is_a_tree_tuple_shape(self):
        # the defining property of a representative: at most one item per path
        conflated = conflate_items(
            [item("r.a.S", "1"), item("r.b.S", "2"), item("r.a.S", "3"), item("r.b.S", "4")]
        )
        paths = [entry.path for entry in conflated]
        assert len(paths) == len(set(paths))

    def test_empty_input(self):
        assert conflate_items([]) == []


class TestRankItems:
    def test_frequent_items_rank_higher(self, hybrid_engine):
        frequent = item("r.common.S", "shared", {1: 1.0})
        rare = item("r.rare.S", "unique", {2: 1.0})
        pool = [frequent, frequent, frequent, rare]
        ranked = rank_items(pool, hybrid_engine)
        assert ranked[0].item.path == frequent.path
        assert ranked[0].rank >= ranked[-1].rank

    def test_weights_scale_the_rank(self, hybrid_engine):
        a = item("r.a.S", "a", {1: 1.0})
        b = item("r.b.S", "b", {2: 1.0})
        unweighted = rank_items([a, b], hybrid_engine)
        weighted = rank_items([a, b], hybrid_engine, weights={a: 10.0, b: 1.0})
        rank_of_a_unweighted = next(e.rank for e in unweighted if e.item == a)
        rank_of_a_weighted = next(e.rank for e in weighted if e.item == a)
        assert rank_of_a_weighted == pytest.approx(10.0 * rank_of_a_unweighted)

    def test_ordering_is_deterministic(self, hybrid_engine):
        pool = [item(f"r.p{i}.S", f"v{i}", {i: 1.0}) for i in range(5)]
        first = [e.item.answer for e in rank_items(pool, hybrid_engine)]
        second = [e.item.answer for e in rank_items(list(reversed(pool)), hybrid_engine)]
        assert first == second

    def test_structure_only_engine_ignores_content(self):
        engine = SimilarityEngine(SimilarityConfig(f=1.0, gamma=0.9))
        a = item("r.a.S", "a", {1: 100.0})
        b = item("r.a.S", "b", {})
        ranked = rank_items([a, b], engine)
        assert ranked[0].rank == pytest.approx(ranked[1].rank)

    def test_rank_items_blends_exactly_the_reference_ranks(self, hybrid_engine):
        pool = [item(f"r.p{i}.S", f"v{i}", {i: 1.0, i + 1: 0.5}) for i in range(4)]
        reference = dict(zip(pool, reference_item_ranks(pool, hybrid_engine)))
        for entry in rank_items(pool, hybrid_engine):
            assert entry.rank == reference[entry.item]  # exact, not approximate


class TestGenerateTreeTuple:
    def test_empty_cluster_produces_empty_representative(self, hybrid_engine):
        rep = generate_tree_tuple([], [], hybrid_engine)
        assert rep.is_empty()

    def test_representative_length_is_bounded_by_longest_member(self, hybrid_engine):
        members = [
            make_transaction("t1", [item("r.a.S", "1", {1: 1.0}), item("r.b.S", "2", {2: 1.0})]),
            make_transaction("t2", [item("r.a.S", "1", {1: 1.0})]),
        ]
        pool = [i for member in members for i in member.items]
        rep = generate_tree_tuple(rank_items(pool, hybrid_engine), members, hybrid_engine)
        assert len(rep) <= 2

    def test_representative_has_at_most_one_item_per_path(self, hybrid_engine):
        members = [
            make_transaction("t1", [item("r.a.S", "x", {1: 1.0}), item("r.b.S", "y", {2: 1.0})]),
            make_transaction("t2", [item("r.a.S", "z", {1: 1.0}), item("r.b.S", "y", {2: 1.0})]),
        ]
        pool = [i for member in members for i in member.items]
        rep = generate_tree_tuple(rank_items(pool, hybrid_engine), members, hybrid_engine)
        paths = [i.path for i in rep.items]
        assert len(paths) == len(set(paths))

    def test_tied_refinement_steps_keep_the_first_best_candidate(self):
        """Regression test for the best-seen tracking on score ties.

        The historical loop updated the incumbent on ``score >= best``, so a
        refinement step that merely *tied* the best score replaced the
        representative with a larger candidate.  The documented semantics is
        first-best-wins: a step must strictly improve the cohesion score to
        replace the incumbent, so equal-scoring growth never bloats the
        representative.

        The scenario: two symmetric members ``{x, x}`` / ``{y, y}`` with
        structurally dissimilar items.  The candidate ``{x}`` scores
        ``1.0 + 0.0``; the next candidate ``{x, y}`` scores ``0.5 + 0.5`` --
        an exact tie -- so the refinement must return ``{x}``.
        """
        x = item("r.a.S", "alpha")
        y = item("r.b.S", "beta")
        members = [
            make_transaction("m1", [x, x]),
            make_transaction("m2", [y, y]),
        ]
        engine = SimilarityEngine(SimilarityConfig(f=1.0, gamma=0.9))
        ranked = [RankedItem(item=x, rank=2.0), RankedItem(item=y, rank=1.0)]
        chain = refinement_candidates(ranked, 2)
        scores = engine.score_candidates(
            members, [make_transaction("rep", c) for c in chain]
        )
        assert scores == [1.0, 1.0]  # the tie this test is about
        rep = generate_tree_tuple(ranked, members, engine)
        assert [(str(i.path), i.answer) for i in rep.items] == [("r.a.S", "alpha")]

    def test_zero_scoring_candidates_never_replace_the_empty_incumbent(self):
        """Companion to the tie fix: the incumbent starts as the empty
        representative at score 0.0, so a candidate chain whose scores are
        all zero yields an empty representative instead of an arbitrary
        zero-cohesion one."""
        x = item("r.a.S", "alpha")
        members = [make_transaction("m", [item("z.q.S", "far", {9: 1.0})])]
        engine = SimilarityEngine(SimilarityConfig(f=1.0, gamma=1.0))
        rep = generate_tree_tuple([RankedItem(item=x, rank=1.0)], members, engine)
        assert rep.is_empty()

    def test_refinement_chain_is_score_independent_and_prefix_nested(self, hybrid_engine):
        """The candidate chain consumes equal-rank batches cumulatively, so
        each candidate's path set contains the previous one's."""
        pool = [item(f"r.p{i}.S", f"v{i}", {i: 1.0}) for i in range(4)]
        ranked = rank_items(pool, hybrid_engine)
        chain = refinement_candidates(ranked, 4)
        assert chain
        previous_paths = set()
        for candidate in chain:
            paths = {i.path for i in candidate}
            assert previous_paths <= paths
            previous_paths = paths
        assert len(chain[-1]) <= 4


class TestLocalRepresentative:
    def test_homogeneous_cluster_representative_resembles_members(self, hybrid_engine):
        members = [
            make_transaction(
                f"t{i}",
                [item("r.title.S", "clustering xml", {1: 1.0}), item("r.year.S", "2009", {2: 1.0})],
            )
            for i in range(3)
        ]
        rep = compute_local_representative(members, hybrid_engine)
        assert not rep.is_empty()
        for member in members:
            assert hybrid_engine.transaction_similarity(member, rep) > 0.5

    def test_empty_cluster(self, hybrid_engine):
        rep = compute_local_representative([], hybrid_engine)
        assert rep.is_empty()

    def test_representative_of_paper_clusters(self, paper_tree, hybrid_engine):
        dataset = build_dataset("paper", [paper_tree])
        tr1, tr2, tr3 = dataset.transactions
        rep = compute_local_representative([tr1, tr2], hybrid_engine)
        # the representative of the first paper's tuples is closer to them
        # than to the other paper's tuple
        assert hybrid_engine.transaction_similarity(tr1, rep) >= hybrid_engine.transaction_similarity(tr3, rep)

    def test_representative_id_is_attached(self, hybrid_engine):
        members = [make_transaction("t", [item("r.a.S", "x", {1: 1.0})])]
        rep = compute_local_representative(members, hybrid_engine, representative_id="rep:7")
        assert rep.transaction_id == "rep:7"


class TestGlobalRepresentative:
    def test_weighted_merge_prefers_heavier_peer(self, hybrid_engine):
        local_a = make_transaction("rep:a", [item("r.a.S", "topic alpha", {1: 1.0})])
        local_b = make_transaction("rep:b", [item("r.b.S", "topic beta", {2: 1.0})])
        heavy_a = compute_global_representative(
            [(local_a, 90), (local_b, 10)], hybrid_engine
        )
        heavy_b = compute_global_representative(
            [(local_a, 10), (local_b, 90)], hybrid_engine
        )
        # the dominant peer's path should always survive in the representative
        assert XMLPath.parse("r.a.S") in {i.path for i in heavy_a.items}
        assert XMLPath.parse("r.b.S") in {i.path for i in heavy_b.items}

    def test_zero_weight_locals_are_ignored(self, hybrid_engine):
        local_a = make_transaction("rep:a", [item("r.a.S", "alpha", {1: 1.0})])
        empty = make_transaction("rep:b", [])
        rep = compute_global_representative([(local_a, 5), (empty, 0)], hybrid_engine)
        assert {str(i.path) for i in rep.items} == {"r.a.S"}

    def test_all_empty_locals_produce_empty_representative(self, hybrid_engine):
        empty = make_transaction("rep:a", [])
        rep = compute_global_representative([(empty, 0)], hybrid_engine)
        assert rep.is_empty()


class TestRepresentativesEqual:
    def test_equality_by_content(self):
        a = make_transaction("x", [item("r.a.S", "1")])
        b = make_transaction("y", [item("r.a.S", "1")])
        c = make_transaction("z", [item("r.a.S", "2")])
        assert representatives_equal(a, b)
        assert not representatives_equal(a, c)

    def test_none_handling(self):
        a = make_transaction("x", [item("r.a.S", "1")])
        assert representatives_equal(None, None)
        assert not representatives_equal(a, None)
        assert not representatives_equal(None, a)
