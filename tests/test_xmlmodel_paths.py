"""Tests for XML paths and answers (repro.xmlmodel.paths)."""

import pytest

from repro.xmlmodel.errors import XMLPathError
from repro.xmlmodel.paths import XMLPath, apply_path, complete_paths, path_answer


class TestXMLPathObject:
    def test_parse_and_str_round_trip(self):
        path = XMLPath.parse("dblp.inproceedings.author.S")
        assert str(path) == "dblp.inproceedings.author.S"
        assert path.length == 4

    def test_complete_vs_tag_path(self):
        assert XMLPath.parse("dblp.inproceedings.@key").is_complete
        assert XMLPath.parse("dblp.inproceedings.title.S").is_complete
        assert XMLPath.parse("dblp.inproceedings.title").is_tag_path

    def test_tag_path_strips_trailing_leaf_step(self):
        complete = XMLPath.parse("dblp.inproceedings.title.S")
        assert complete.tag_path() == XMLPath.parse("dblp.inproceedings.title")
        tag = XMLPath.parse("dblp.inproceedings")
        assert tag.tag_path() is tag

    def test_tag_path_is_cached(self):
        path = XMLPath.parse("a.b.S")
        assert path.tag_path() is path.tag_path()

    def test_parent_and_child(self):
        path = XMLPath.parse("a.b")
        assert path.parent() == XMLPath.parse("a")
        assert path.child("c") == XMLPath.parse("a.b.c")

    def test_parent_of_root_raises(self):
        with pytest.raises(XMLPathError):
            XMLPath.parse("a").parent()

    def test_startswith(self):
        assert XMLPath.parse("a.b.c").startswith(XMLPath.parse("a.b"))
        assert not XMLPath.parse("a.b").startswith(XMLPath.parse("a.c"))

    def test_empty_path_is_rejected(self):
        with pytest.raises(XMLPathError):
            XMLPath(())
        with pytest.raises(XMLPathError):
            XMLPath.parse("")

    def test_interior_attribute_step_is_rejected(self):
        with pytest.raises(XMLPathError):
            XMLPath(("a", "@key", "b"))

    def test_single_step_complete_path_has_no_tag_prefix(self):
        with pytest.raises(XMLPathError):
            XMLPath(("@key",)).tag_path()

    def test_paths_are_hashable_and_ordered(self):
        a = XMLPath.parse("a.b")
        b = XMLPath.parse("a.c")
        assert len({a, XMLPath.parse("a.b"), b}) == 2
        assert a < b

    def test_hash_is_stable_and_equal_for_equal_paths(self):
        assert hash(XMLPath.parse("x.y.S")) == hash(XMLPath.parse("x.y.S"))


class TestPathApplication:
    def test_tag_path_answer_is_node_id_set(self, paper_tree):
        path = XMLPath.parse("dblp.inproceedings.title")
        answer = path_answer(path, paper_tree)
        # the paper reports {n8, n20} for this path
        assert answer == frozenset({8, 20})

    def test_complete_path_answer_is_string_set(self, paper_tree):
        path = XMLPath.parse("dblp.inproceedings.author.S")
        assert path_answer(path, paper_tree) == frozenset({"M.J. Zaki", "C.C. Aggarwal"})

    def test_attribute_path_answer(self, paper_tree):
        path = XMLPath.parse("dblp.inproceedings.@key")
        assert path_answer(path, paper_tree) == frozenset(
            {"conf/kdd/ZakiA03", "conf/kdd/Zaki02"}
        )

    def test_non_matching_path_yields_empty_answer(self, paper_tree):
        assert path_answer(XMLPath.parse("dblp.article.title"), paper_tree) == frozenset()
        assert path_answer(XMLPath.parse("other.inproceedings"), paper_tree) == frozenset()

    def test_apply_path_returns_nodes_in_document_order(self, paper_tree):
        nodes = apply_path(XMLPath.parse("dblp.inproceedings.author"), paper_tree)
        assert [n.node_id for n in nodes] == [4, 6, 18]


class TestPathCollections:
    def test_complete_paths_of_paper_example(self, paper_tree):
        paths = {str(p) for p in complete_paths(paper_tree)}
        assert paths == {
            "dblp.inproceedings.@key",
            "dblp.inproceedings.author.S",
            "dblp.inproceedings.title.S",
            "dblp.inproceedings.year.S",
            "dblp.inproceedings.booktitle.S",
            "dblp.inproceedings.pages.S",
        }

    def test_leaf_paths_align_with_leaves(self, paper_tree):
        leaves = list(paper_tree.iter_leaves())
        paths = [XMLPath.for_node(leaf) for leaf in leaves]
        assert len(paths) == paper_tree.leaf_count()
        assert str(paths[0]) == "dblp.inproceedings.@key"
        assert leaves[0].node_id == 3
        assert set(paths) == complete_paths(paper_tree)

    def test_every_complete_path_has_a_nonempty_answer(self, paper_tree):
        answers = {path: path_answer(path, paper_tree) for path in complete_paths(paper_tree)}
        assert all(answers.values())
        assert answers[XMLPath.parse("dblp.inproceedings.booktitle.S")] == frozenset({"KDD"})


class TestPathPickling:
    """The cached hash must never survive pickling (PYTHONHASHSEED salt).

    Python string hashing is salted per process: a pickled path restored
    with its sender's cached ``_hash`` would hash differently from an equal
    path constructed locally, silently breaking dict and set lookups that
    mix the two (exactly what a real-transport worker does when it probes
    its unpickled partition with representatives decoded from the wire).
    """

    def test_unpickled_path_rehashes_locally(self):
        import pickle

        path = XMLPath.parse("dblp.inproceedings.title.S")
        clone = pickle.loads(pickle.dumps(path))
        assert clone == path
        assert hash(clone) == hash(path)
        assert clone in {path}
        assert {path: 1}[clone] == 1

    def test_reduce_rebuilds_through_the_constructor(self):
        path = XMLPath.parse("dblp.inproceedings.@key")
        factory, args = path.__reduce__()
        assert factory is XMLPath
        rebuilt = factory(*args)
        # a rebuilt path re-runs __post_init__, re-deriving the cached hash
        # from the current process's string-hash salt
        assert rebuilt == path
        assert hash(rebuilt) == hash(path.steps)

    def test_cross_salt_simulation(self):
        # simulate a foreign process's salt by corrupting the cached hash
        # the way the old default pickling would have restored it
        path = XMLPath.parse("dblp.article.title")
        foreign = XMLPath(path.steps)
        object.__setattr__(foreign, "_hash", hash(path.steps) + 1)
        assert foreign == path  # equality ignores the cache...
        assert hash(foreign) != hash(path)  # ...but lookups would miss
        # __reduce__ heals the corruption across a pickle round trip
        import pickle

        healed = pickle.loads(pickle.dumps(foreign))
        assert hash(healed) == hash(path)
