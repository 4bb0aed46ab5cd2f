"""Tests for the pure-Python XML parser (repro.xmlmodel.parser)."""

import pytest

from repro.xmlmodel.errors import XMLSyntaxError
from repro.xmlmodel.parser import (
    MAX_NESTING_DEPTH,
    XMLParser,
    decode_entities,
    parse_xml,
)
from repro.xmlmodel.serializer import serialize, to_compact_string


class TestBasicParsing:
    def test_single_element_with_text(self):
        tree = parse_xml("<title>Hello</title>")
        assert tree.root.label == "title"
        assert tree.root.children[0].value == "Hello"

    def test_attributes_become_leaves(self):
        tree = parse_xml('<paper key="k1" year="2003"/>')
        labels = {(c.label, c.value) for c in tree.root.children}
        assert labels == {("@key", "k1"), ("@year", "2003")}

    def test_single_quoted_attributes(self):
        tree = parse_xml("<a x='1'/>")
        assert tree.root.children[0].value == "1"

    def test_self_closing_element(self):
        tree = parse_xml("<root><empty/></root>")
        assert tree.root.children[0].label == "empty"
        assert tree.root.children[0].children == []

    def test_nested_elements(self):
        tree = parse_xml("<a><b><c>deep</c></b></a>")
        assert tree.depth() == 4

    def test_whitespace_between_elements_is_dropped(self):
        tree = parse_xml("<a>\n  <b>x</b>\n  <c>y</c>\n</a>")
        assert [c.label for c in tree.root.children] == ["b", "c"]

    def test_whitespace_kept_when_requested(self):
        tree = XMLParser(keep_whitespace_text=True).parse("<a> <b>x</b></a>")
        assert tree.root.children[0].label == "S"

    def test_mixed_content_is_preserved(self):
        tree = parse_xml("<p>before <b>bold</b> after</p>")
        labels = [c.label for c in tree.root.children]
        assert labels == ["S", "b", "S"]

    def test_doc_id_is_attached(self):
        tree = parse_xml("<a/>", doc_id="mydoc")
        assert tree.doc_id == "mydoc"

    def test_paper_example_counts(self, paper_tree):
        assert paper_tree.node_count() == 27
        assert paper_tree.leaf_count() == 13


class TestProlog:
    def test_xml_declaration_is_skipped(self):
        tree = parse_xml('<?xml version="1.0" encoding="UTF-8"?><a>x</a>')
        assert tree.root.label == "a"

    def test_doctype_is_skipped(self):
        tree = parse_xml('<!DOCTYPE dblp SYSTEM "dblp.dtd"><dblp><x>1</x></dblp>')
        assert tree.root.label == "dblp"

    def test_doctype_with_internal_subset(self):
        text = "<!DOCTYPE r [ <!ELEMENT r (#PCDATA)> ]><r>ok</r>"
        tree = parse_xml(text)
        assert tree.root.children[0].value == "ok"

    def test_leading_comment_is_skipped(self):
        tree = parse_xml("<!-- header --><a>x</a>")
        assert tree.root.label == "a"

    def test_trailing_comment_and_pi_are_allowed(self):
        tree = parse_xml("<a>x</a><!-- done --><?pi data?>")
        assert tree.root.label == "a"


class TestEntitiesAndCData:
    def test_predefined_entities_in_text(self):
        tree = parse_xml("<a>x &lt; y &amp; z</a>")
        assert tree.root.children[0].value == "x < y & z"

    def test_entities_in_attributes(self):
        tree = parse_xml('<a title="Tom &amp; Jerry"/>')
        assert tree.root.children[0].value == "Tom & Jerry"

    def test_numeric_character_references(self):
        assert decode_entities("&#65;&#x42;") == "AB"

    def test_unknown_entity_raises(self):
        with pytest.raises(XMLSyntaxError):
            parse_xml("<a>&unknown;</a>")

    def test_cdata_section_is_literal(self):
        tree = parse_xml("<a><![CDATA[1 < 2 & 3 > 2]]></a>")
        assert tree.root.children[0].value == "1 < 2 & 3 > 2"

    def test_comment_inside_element_is_skipped(self):
        tree = parse_xml("<a><!-- note --><b>x</b></a>")
        assert [c.label for c in tree.root.children] == ["b"]


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "   ",
            "<a><b></a>",
            "<a>",
            "<a></b>",
            "<a x=1/>",
            "<a><b>text</a>",
            "<a/><b/>",
            "text only",
        ],
    )
    def test_malformed_documents_raise(self, text):
        with pytest.raises(XMLSyntaxError):
            parse_xml(text)

    def test_error_carries_position(self):
        with pytest.raises(XMLSyntaxError) as info:
            parse_xml("<a>\n<b></c>\n</a>")
        assert info.value.line == 2

    def test_deep_nesting_raises_a_syntax_error_not_recursion_error(self):
        with pytest.raises(XMLSyntaxError, match="nesting") as info:
            parse_xml("<a>" * 3000)
        assert info.value.line == 1
        # the offending tag is the first one beyond the bound
        assert info.value.column == 3 * MAX_NESTING_DEPTH + 1

    def test_nesting_at_the_bound_parses(self):
        depth = MAX_NESTING_DEPTH
        tree = parse_xml("<a>" * depth + "x" + "</a>" * depth)
        assert tree.depth() == depth + 1

    def test_unterminated_comment(self):
        with pytest.raises(XMLSyntaxError):
            parse_xml("<a><!-- no end</a>")

    def test_unterminated_cdata(self):
        with pytest.raises(XMLSyntaxError):
            parse_xml("<a><![CDATA[ no end</a>")


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "<a><b>x</b><b>y</b></a>",
            '<paper key="k1"><author>Zaki</author><title>XRules</title></paper>',
            "<r><s t='1'><u>deep &amp; nested</u></s></r>",
        ],
    )
    def test_parse_serialize_parse_is_stable(self, text):
        first = parse_xml(text)
        second = parse_xml(serialize(first))
        assert first == second

    def test_compact_round_trip_of_paper_example(self, paper_tree):
        assert parse_xml(to_compact_string(paper_tree)) == paper_tree
