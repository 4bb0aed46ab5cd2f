"""Tests for XML serialisation (repro.xmlmodel.serializer)."""

from repro.xmlmodel.parser import parse_xml
from repro.xmlmodel.serializer import escape_attribute, escape_text, serialize


class TestEscaping:
    def test_text_escaping(self):
        assert escape_text("a < b & c > d") == "a &lt; b &amp; c &gt; d"

    def test_attribute_escaping_also_quotes(self):
        assert escape_attribute('say "hi" & <bye>') == "say &quot;hi&quot; &amp; &lt;bye&gt;"


class TestSerialize:
    def test_declaration_is_emitted_by_default(self):
        tree = parse_xml("<a>x</a>")
        assert serialize(tree).startswith('<?xml version="1.0"')

    def test_declaration_can_be_suppressed(self):
        tree = parse_xml("<a>x</a>")
        assert serialize(tree, xml_declaration=False).startswith("<a>")

    def test_empty_element_is_self_closed(self):
        tree = parse_xml("<root><empty/></root>")
        assert "<empty/>" in serialize(tree)

    def test_attributes_are_rendered_inline(self):
        tree = parse_xml('<paper key="k1"><title>T</title></paper>')
        text = serialize(tree)
        assert '<paper key="k1">' in text
        assert "<title>T</title>" in text

    def test_special_characters_survive_round_trip(self):
        tree = parse_xml('<a note="x &amp; y"><t>1 &lt; 2</t></a>')
        assert parse_xml(serialize(tree)) == tree

    def test_indentation_levels(self):
        tree = parse_xml("<a><b><c>x</c></b></a>")
        lines = serialize(tree, indent=2, xml_declaration=False).splitlines()
        assert lines[0] == "<a>"
        assert lines[1].startswith("  <b>")
        assert lines[2].startswith("    <c>")


class TestCompactString:
    def test_compact_has_no_indentation(self):
        tree = parse_xml("<a><b>x</b><c>y</c></a>")
        compact = serialize(tree, indent=0, xml_declaration=False)
        assert compact.splitlines() == ["<a>", "<b>x</b>", "<c>y</c>", "</a>"]

    def test_compact_round_trip(self, paper_tree):
        assert parse_xml(serialize(paper_tree, indent=0)) == paper_tree
