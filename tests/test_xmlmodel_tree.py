"""Tests for the XML tree model (repro.xmlmodel.tree)."""

import pytest

from repro.xmlmodel.errors import XMLTreeError
from repro.xmlmodel.parser import parse_xml
from repro.xmlmodel.tree import XMLNode, XMLTree, XMLTreeBuilder


def build_small_tree():
    builder = XMLTreeBuilder("small")
    builder.start("root")
    builder.attribute("id", "r1")
    builder.start("child")
    builder.text("hello world")
    builder.end()
    builder.start("child")
    builder.text("second child")
    builder.end()
    builder.end()
    return builder.finish()


class TestBuilder:
    def test_node_ids_follow_document_order(self):
        tree = build_small_tree()
        labels = [(node.node_id, node.label) for node in tree.iter_nodes()]
        assert labels == [
            (1, "root"),
            (2, "@id"),
            (3, "child"),
            (4, "S"),
            (5, "child"),
            (6, "S"),
        ]

    def test_element_shortcut_builds_attribute_and_text(self):
        builder = XMLTreeBuilder("shortcut")
        builder.start("root")
        builder.element("title", "some text", lang="en")
        builder.end()
        tree = builder.finish()
        title = tree.node(2)
        assert title.label == "title"
        children = [(c.label, c.value) for c in title.children]
        assert ("@lang", "en") in children
        assert ("S", "some text") in children

    def test_unclosed_elements_are_rejected(self):
        builder = XMLTreeBuilder()
        builder.start("root")
        with pytest.raises(XMLTreeError, match="unclosed"):
            builder.finish()

    def test_end_without_start_is_rejected(self):
        builder = XMLTreeBuilder()
        with pytest.raises(XMLTreeError):
            builder.end()

    def test_second_root_is_rejected(self):
        builder = XMLTreeBuilder()
        builder.start("a")
        builder.end()
        with pytest.raises(XMLTreeError):
            builder.start("b")

    def test_attribute_outside_element_is_rejected(self):
        builder = XMLTreeBuilder()
        with pytest.raises(XMLTreeError):
            builder.attribute("id", "1")

    def test_text_outside_element_is_rejected(self):
        builder = XMLTreeBuilder()
        with pytest.raises(XMLTreeError):
            builder.text("orphan")

    def test_empty_builder_has_no_root(self):
        with pytest.raises(XMLTreeError):
            XMLTreeBuilder().finish()


class TestNodeClassification:
    def test_leaf_and_element_flags(self):
        tree = build_small_tree()
        root = tree.root
        assert root.is_element and not root.is_leaf
        attribute = tree.node(2)
        assert attribute.is_attribute and attribute.is_leaf
        text = tree.node(4)
        assert text.is_text and text.is_leaf

    def test_depth_and_paths(self):
        tree = build_small_tree()
        text = tree.node(4)
        assert text.depth() == 2
        assert text.label_path() == ("root", "child", "S")

    def test_ancestors_iterates_to_root(self):
        tree = build_small_tree()
        assert [a.node_id for a in tree.node(4).ancestors()] == [3, 1]


class TestTreeAccessors:
    def test_counts(self, paper_tree):
        # Fig. 2: dblp + 2 inproceedings + 13 leaves of the first paper's
        # subtree region + ... => 27 nodes in total (n1..n27)
        assert paper_tree.node_count() == 27
        assert paper_tree.leaf_count() == 13

    def test_depth_of_paper_tree(self, paper_tree):
        # dblp.inproceedings.author.S has length 4
        assert paper_tree.depth() == 4

    def test_node_lookup_by_id(self, paper_tree):
        assert paper_tree.node(1).label == "dblp"
        with pytest.raises(KeyError):
            paper_tree.node(999)

    def test_leaves_are_in_document_order(self, paper_tree):
        leaves = list(paper_tree.iter_leaves())
        assert leaves[0].label == "@key"
        assert leaves[0].value == "conf/kdd/ZakiA03"
        assert leaves[-1].value == "71-80"


class TestTreeTransformations:

    def test_restricted_to_drops_other_branches(self):
        tree = build_small_tree()
        restricted = tree.restricted_to({1, 3, 4})
        assert restricted.node_count() == 3
        assert [n.label for n in restricted.iter_nodes()] == ["root", "child", "S"]

    def test_restricted_to_requires_root(self):
        tree = build_small_tree()
        with pytest.raises(XMLTreeError):
            tree.restricted_to({3, 4})

    def test_structure_signature_ignores_node_ids(self):
        first = parse_xml("<root><a>x</a><b>y</b></root>")
        second = parse_xml("<root><a>x</a><b>y</b></root>")
        assert first == second
        assert hash(first) == hash(second)

    def test_a_tree_never_equals_another_type(self):
        tree = parse_xml("<root><a>x</a></root>")
        assert tree.__eq__(tree.structure_signature()) is NotImplemented
        assert tree != tree.structure_signature()

    def test_different_values_break_equality(self):
        first = parse_xml("<root><a>x</a></root>")
        second = parse_xml("<root><a>z</a></root>")
        assert first != second


class TestTreeValidation:
    def test_element_with_value_is_rejected(self):
        root = XMLNode(1, "root")
        root.value = "oops"
        with pytest.raises(XMLTreeError):
            XMLTree(root)

    def test_leaf_with_children_is_rejected(self):
        root = XMLNode(1, "root")
        text = XMLNode(2, "S", "x", root)
        root.children.append(text)
        bogus = XMLNode(3, "child", None, text)
        text.children.append(bogus)
        with pytest.raises(XMLTreeError):
            XMLTree(root)

    def test_leaf_without_value_is_rejected(self):
        root = XMLNode(1, "root")
        attr = XMLNode(2, "@id", None, root)
        root.children.append(attr)
        with pytest.raises(XMLTreeError):
            XMLTree(root)

    def test_child_with_foreign_parent_pointer_is_rejected(self):
        root = XMLNode(1, "root")
        stranger = XMLNode(9, "other")
        child = XMLNode(2, "child", None, stranger)
        child.children.append(XMLNode(3, "S", "x", child))
        root.children.append(child)
        with pytest.raises(XMLTreeError, match="inconsistent parent pointer"):
            XMLTree(root)

    def test_root_with_parent_is_rejected(self):
        fake_parent = XMLNode(99, "x")
        root = XMLNode(1, "root", None, fake_parent)
        with pytest.raises(XMLTreeError):
            XMLTree(root)
