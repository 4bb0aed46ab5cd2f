"""Tests for tree tuple decomposition (repro.treetuples).

The assertions mirror the paper's running example: the Fig. 2 document
decomposes into exactly the three tree tuples of Fig. 3.
"""

from oracles import count_tree_tuples, is_maximal_tree_tuple, is_tree_tuple

from repro.treetuples.decompose import extract_tree_tuples
from repro.xmlmodel.parser import parse_xml
from repro.xmlmodel.paths import XMLPath


class TestPaperExample:
    def test_count_matches_paper(self, paper_tree):
        assert count_tree_tuples(paper_tree) == 3

    def test_three_tuples_are_extracted(self, paper_tree):
        tuples = extract_tree_tuples(paper_tree)
        assert len(tuples) == 3
        assert {t.tuple_id for t in tuples} == {
            "dblp-example#0",
            "dblp-example#1",
            "dblp-example#2",
        }

    def test_every_tuple_has_six_leaves(self, paper_tree):
        # Fig. 4: each transaction has six items (key, author, title, year,
        # booktitle, pages)
        for tree_tuple in extract_tree_tuples(paper_tree):
            assert tree_tuple.leaf_count() == 6

    def test_authors_are_split_across_tuples(self, paper_tree):
        tuples = extract_tree_tuples(paper_tree)
        author_path = XMLPath.parse("dblp.inproceedings.author.S")
        authors = sorted(t.answer(author_path) for t in tuples)
        # Zaki appears in two tuples (once per paper), Aggarwal in one
        assert authors == ["C.C. Aggarwal", "M.J. Zaki", "M.J. Zaki"]

    def test_second_paper_forms_its_own_tuple(self, paper_tree):
        tuples = extract_tree_tuples(paper_tree)
        key_path = XMLPath.parse("dblp.inproceedings.@key")
        keys = [t.answer(key_path) for t in tuples]
        assert keys.count("conf/kdd/ZakiA03") == 2
        assert keys.count("conf/kdd/Zaki02") == 1

    def test_tuples_preserve_node_ids(self, paper_tree):
        tuples = extract_tree_tuples(paper_tree)
        for tree_tuple in tuples:
            kept = {n.node_id for n in tree_tuple.tree.iter_nodes()}
            assert kept <= {n.node_id for n in paper_tree.iter_nodes()}

    def test_tuples_satisfy_defining_property(self, paper_tree):
        for tree_tuple in extract_tree_tuples(paper_tree):
            assert is_tree_tuple(tree_tuple.tree, paper_tree)
            assert is_maximal_tree_tuple(tree_tuple.tree, paper_tree)

    def test_pruned_subtree_is_not_maximal(self, paper_tree):
        # the paper's example: removing node n3 (@key) breaks maximality
        tuples = extract_tree_tuples(paper_tree)
        first = tuples[0]
        pruned_ids = {n.node_id for n in first.tree.iter_nodes()} - {3}
        pruned = paper_tree.restricted_to(pruned_ids)
        assert is_tree_tuple(pruned, paper_tree)
        assert not is_maximal_tree_tuple(pruned, paper_tree)


class TestProductConstruction:
    def test_single_record_yields_one_tuple(self):
        tree = parse_xml(
            "<dblp><article><author>A</author><title>T</title></article></dblp>",
            doc_id="single",
        )
        assert count_tree_tuples(tree) == 1
        assert len(extract_tree_tuples(tree)) == 1

    def test_repeated_siblings_multiply(self):
        tree = parse_xml(
            "<r><a>1</a><a>2</a><b>x</b><b>y</b><b>z</b></r>", doc_id="grid"
        )
        # 2 choices for 'a' times 3 choices for 'b'
        assert count_tree_tuples(tree) == 6
        assert len(extract_tree_tuples(tree)) == 6

    def test_nested_repetition(self):
        tree = parse_xml(
            "<r><sec><p>1</p><p>2</p></sec><sec><p>3</p></sec></r>", doc_id="nested"
        )
        # pick one sec; first sec contributes 2 tuples, second contributes 1
        assert count_tree_tuples(tree) == 3

    def test_extraction_matches_count_on_random_shapes(self):
        shapes = [
            "<r><a>1</a></r>",
            "<r><a>1</a><a>2</a></r>",
            "<r><x><y>1</y><y>2</y></x><z>q</z></r>",
            "<r><x><y>1</y></x><x><y>2</y><y>3</y></x></r>",
        ]
        for index, text in enumerate(shapes):
            tree = parse_xml(text, doc_id=f"shape{index}")
            assert len(extract_tree_tuples(tree)) == count_tree_tuples(tree)

    def test_limit_bounds_materialisation(self):
        children = [f"<a>{i}</a>" for i in range(6)] + [f"<b>{i}</b>" for i in range(6)]
        tree = parse_xml("<r>" + "".join(children) + "</r>", doc_id="big")
        assert count_tree_tuples(tree) == 36
        limited = extract_tree_tuples(tree, limit=10)
        assert len(limited) == 10
        for tree_tuple in limited:
            assert is_tree_tuple(tree_tuple.tree, tree)

    def test_every_leaf_is_covered_by_some_tuple(self, paper_tree):
        tuples = extract_tree_tuples(paper_tree)
        covered = set()
        for tree_tuple in tuples:
            covered |= {n.node_id for n in tree_tuple.tree.iter_leaves()}
        assert covered == {n.node_id for n in paper_tree.iter_leaves()}


class TestTreeTupleObject:
    def test_relational_view(self, paper_tree):
        first = extract_tree_tuples(paper_tree)[0]
        mapping = {str(path): value for path, value in first.as_pairs()}
        assert mapping["dblp.inproceedings.booktitle.S"] == "KDD"
        assert len(mapping) == 6

    def test_answer_of_missing_path_is_none(self, paper_tree):
        first = extract_tree_tuples(paper_tree)[0]
        assert first.answer(XMLPath.parse("dblp.article.title.S")) is None

    def test_len_is_leaf_count(self, paper_tree):
        first = extract_tree_tuples(paper_tree)[0]
        assert len(first) == first.leaf_count() == 6

    def test_as_pairs_is_sorted_by_path(self, paper_tree):
        first = extract_tree_tuples(paper_tree)[0]
        paths = [p for p, _ in first.as_pairs()]
        assert paths == sorted(paths)
