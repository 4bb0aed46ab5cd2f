"""Serialisation of :class:`~repro.xmlmodel.tree.XMLTree` back to XML text.

Serialisation is used by the dataset generators (to materialise synthetic
corpora on disk), by examples, and in tests to verify the
``parse(serialize(tree)) == tree`` round-trip property.
"""

from __future__ import annotations

from typing import List

from repro.xmlmodel.names import strip_attribute_prefix
from repro.xmlmodel.tree import XMLNode, XMLTree

_ESCAPES_TEXT = [("&", "&amp;"), ("<", "&lt;"), (">", "&gt;")]
_ESCAPES_ATTR = _ESCAPES_TEXT + [('"', "&quot;")]


def escape_text(value: str) -> str:
    """Escape character data for inclusion in element content."""
    for raw, escaped in _ESCAPES_TEXT:
        value = value.replace(raw, escaped)
    return value


def escape_attribute(value: str) -> str:
    """Escape character data for inclusion in a double-quoted attribute."""
    for raw, escaped in _ESCAPES_ATTR:
        value = value.replace(raw, escaped)
    return value


def serialize(tree: XMLTree, indent: int = 2, xml_declaration: bool = True) -> str:
    """Serialise *tree* to a pretty-printed XML string.

    Parameters
    ----------
    tree:
        The tree to serialise.
    indent:
        Number of spaces per nesting level; ``0`` produces compact output.
    xml_declaration:
        Whether to emit the leading ``<?xml ...?>`` declaration.
    """
    lines: List[str] = []
    if xml_declaration:
        lines.append('<?xml version="1.0" encoding="UTF-8"?>')
    _serialize_node(tree.root, lines, 0, indent)
    return "\n".join(lines) + "\n"


def _attributes_of(node: XMLNode) -> List[str]:
    parts = []
    for child in node.children:
        if child.is_attribute:
            name = strip_attribute_prefix(child.label)
            parts.append(f'{name}="{escape_attribute(child.value or "")}"')
    return parts


def _serialize_node(node: XMLNode, lines: List[str], level: int, indent: int) -> None:
    pad = " " * (indent * level)
    attr_str = "".join(" " + a for a in _attributes_of(node))
    content_children = [c for c in node.children if not c.is_attribute]

    if not content_children:
        lines.append(f"{pad}<{node.label}{attr_str}/>")
        return

    # Single text child: keep it on one line for readability.
    if len(content_children) == 1 and content_children[0].is_text:
        text = escape_text(content_children[0].value or "")
        lines.append(f"{pad}<{node.label}{attr_str}>{text}</{node.label}>")
        return

    lines.append(f"{pad}<{node.label}{attr_str}>")
    for child in content_children:
        if child.is_text:
            lines.append(" " * (indent * (level + 1)) + escape_text(child.value or ""))
        else:
            _serialize_node(child, lines, level + 1, indent)
    lines.append(f"{pad}</{node.label}>")
