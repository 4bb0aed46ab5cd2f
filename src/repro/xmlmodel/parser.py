"""A from-scratch, pure-Python XML parser.

The reproduction does not rely on ``lxml`` or ``xml.etree``; instead this
module implements a small recursive-descent parser that covers the subset of
XML needed for the paper's data model:

* elements with attributes,
* character data (``#PCDATA``), with standard entity references,
* CDATA sections,
* comments and processing instructions (skipped),
* an optional XML declaration and DOCTYPE (skipped).

The parser produces :class:`repro.xmlmodel.tree.XMLTree` instances whose node
identifiers follow document order, matching the conventions of the paper's
running example.  Whitespace-only text between elements is dropped (it does
not carry content in data-oriented XML); mixed content with non-blank text is
preserved as ``S`` leaves.

Element nesting is bounded by :data:`MAX_NESTING_DEPTH`: a deeper document
raises :class:`~repro.xmlmodel.errors.XMLSyntaxError` with the position of
the offending tag instead of exhausting the interpreter's recursion limit.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.xmlmodel.errors import XMLEncodingError, XMLSyntaxError
from repro.xmlmodel.tree import XMLTree, XMLTreeBuilder

#: Standard predefined XML entities.
_ENTITIES: Dict[str, str] = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

#: Deepest element nesting the parser accepts (the root is level 1).  The
#: recursive descent spends two frames per level, so this stays well below
#: the default recursion limit even when the caller is itself deep (a
#: server handler, a test runner); the bundled corpora nest at most 6.
MAX_NESTING_DEPTH = 256

_NAME_START = re.compile(r"[A-Za-z_:]")
_NAME_CHAR = re.compile(r"[A-Za-z0-9_.:\-]")


class _Scanner:
    """Character scanner with line/column tracking for error reporting."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.length = len(text)

    # -- position helpers ------------------------------------------------ #
    def location(self, pos: Optional[int] = None) -> Tuple[int, int]:
        """Return (line, column), both 1-based, for *pos* (default current)."""
        if pos is None:
            pos = self.pos
        line = self.text.count("\n", 0, pos) + 1
        last_nl = self.text.rfind("\n", 0, pos)
        column = pos - last_nl
        return line, column

    def error(self, message: str, pos: Optional[int] = None) -> XMLSyntaxError:
        line, column = self.location(pos)
        return XMLSyntaxError(message, line, column)

    # -- primitives ------------------------------------------------------ #
    @property
    def eof(self) -> bool:
        return self.pos >= self.length

    def peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.text[index] if index < self.length else ""

    def advance(self, count: int = 1) -> None:
        self.pos += count

    def startswith(self, token: str) -> bool:
        return self.text.startswith(token, self.pos)

    def expect(self, token: str) -> None:
        if not self.startswith(token):
            raise self.error(f"expected {token!r}")
        self.advance(len(token))

    def skip_whitespace(self) -> None:
        while not self.eof and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def read_until(self, token: str, what: str) -> str:
        end = self.text.find(token, self.pos)
        if end < 0:
            raise self.error(f"unterminated {what}: missing {token!r}")
        chunk = self.text[self.pos:end]
        self.pos = end + len(token)
        return chunk

    def read_name(self) -> str:
        start = self.pos
        if self.eof or not _NAME_START.match(self.text[self.pos]):
            raise self.error("expected an XML name")
        self.pos += 1
        while not self.eof and _NAME_CHAR.match(self.text[self.pos]):
            self.pos += 1
        return self.text[start:self.pos]


def decode_entities(text: str, scanner: Optional[_Scanner] = None) -> str:
    """Resolve the predefined entities and numeric character references."""

    def replace(match: "re.Match[str]") -> str:
        body = match.group(1)
        if body.startswith("#x") or body.startswith("#X"):
            return chr(int(body[2:], 16))
        if body.startswith("#"):
            return chr(int(body[1:]))
        if body in _ENTITIES:
            return _ENTITIES[body]
        if scanner is not None:
            raise scanner.error(f"unknown entity: &{body};")
        raise XMLSyntaxError(f"unknown entity: &{body};")

    return re.sub(r"&([^;&\s]+);", replace, text)


class XMLParser:
    """Recursive-descent XML parser producing :class:`XMLTree` objects.

    Parameters
    ----------
    keep_whitespace_text:
        When ``True``, whitespace-only text nodes are kept as ``S`` leaves.
        The default (``False``) mirrors data-oriented XML processing where
        indentation between elements carries no information.
    """

    def __init__(self, keep_whitespace_text: bool = False) -> None:
        self.keep_whitespace_text = keep_whitespace_text

    # ------------------------------------------------------------------ #
    def parse(self, text: str, doc_id: Optional[str] = None) -> XMLTree:
        """Parse *text* and return the resulting :class:`XMLTree`."""
        scanner = _Scanner(text)
        builder = XMLTreeBuilder(doc_id=doc_id)
        self._skip_prolog(scanner)
        scanner.skip_whitespace()
        if scanner.eof or scanner.peek() != "<":
            raise scanner.error("document has no root element")
        self._parse_element(scanner, builder)
        # Only comments / PIs / whitespace may follow the root element.
        while not scanner.eof:
            scanner.skip_whitespace()
            if scanner.eof:
                break
            if scanner.startswith("<!--"):
                self._skip_comment(scanner)
            elif scanner.startswith("<?"):
                self._skip_pi(scanner)
            else:
                raise scanner.error("unexpected content after the root element")
        return builder.finish()

    # ------------------------------------------------------------------ #
    # Prolog, comments, PIs, doctype
    # ------------------------------------------------------------------ #
    def _skip_prolog(self, scanner: _Scanner) -> None:
        while True:
            scanner.skip_whitespace()
            if scanner.startswith("<?"):
                self._skip_pi(scanner)
            elif scanner.startswith("<!--"):
                self._skip_comment(scanner)
            elif scanner.startswith("<!DOCTYPE"):
                self._skip_doctype(scanner)
            else:
                return

    @staticmethod
    def _skip_pi(scanner: _Scanner) -> None:
        scanner.expect("<?")
        scanner.read_until("?>", "processing instruction")

    @staticmethod
    def _skip_comment(scanner: _Scanner) -> None:
        scanner.expect("<!--")
        scanner.read_until("-->", "comment")

    @staticmethod
    def _skip_doctype(scanner: _Scanner) -> None:
        scanner.expect("<!DOCTYPE")
        depth = 1
        while depth > 0:
            if scanner.eof:
                raise scanner.error("unterminated DOCTYPE declaration")
            ch = scanner.peek()
            if ch == "<":
                depth += 1
            elif ch == ">":
                depth -= 1
            scanner.advance()

    # ------------------------------------------------------------------ #
    # Elements
    # ------------------------------------------------------------------ #
    def _parse_element(
        self, scanner: _Scanner, builder: XMLTreeBuilder, depth: int = 1
    ) -> None:
        if depth > MAX_NESTING_DEPTH:
            raise scanner.error(
                f"element nesting deeper than {MAX_NESTING_DEPTH} levels"
            )
        scanner.expect("<")
        tag = scanner.read_name()
        builder.start(tag)
        attributes = self._parse_attributes(scanner)
        for name, value in attributes:
            builder.attribute(name, value)
        scanner.skip_whitespace()
        if scanner.startswith("/>"):
            scanner.advance(2)
            builder.end()
            return
        scanner.expect(">")
        self._parse_content(scanner, builder, tag, depth)
        builder.end()

    def _parse_attributes(self, scanner: _Scanner) -> List[Tuple[str, str]]:
        attributes: List[Tuple[str, str]] = []
        while True:
            scanner.skip_whitespace()
            ch = scanner.peek()
            if ch in ("/", ">", ""):
                return attributes
            name = scanner.read_name()
            scanner.skip_whitespace()
            scanner.expect("=")
            scanner.skip_whitespace()
            quote = scanner.peek()
            if quote not in ("'", '"'):
                raise scanner.error("attribute values must be quoted")
            scanner.advance()
            raw = scanner.read_until(quote, "attribute value")
            attributes.append((name, decode_entities(raw, scanner)))

    def _parse_content(
        self, scanner: _Scanner, builder: XMLTreeBuilder, open_tag: str, depth: int
    ) -> None:
        text_parts: List[str] = []

        def flush_text() -> None:
            if not text_parts:
                return
            text = "".join(text_parts)
            text_parts.clear()
            if text.strip() or (self.keep_whitespace_text and text):
                builder.text(decode_entities(text, scanner))

        while True:
            if scanner.eof:
                raise scanner.error(f"unterminated element <{open_tag}>")
            if scanner.startswith("</"):
                flush_text()
                scanner.advance(2)
                name = scanner.read_name()
                if name != open_tag:
                    raise scanner.error(
                        f"mismatched closing tag: expected </{open_tag}>, got </{name}>"
                    )
                scanner.skip_whitespace()
                scanner.expect(">")
                return
            if scanner.startswith("<!--"):
                flush_text()
                self._skip_comment(scanner)
                continue
            if scanner.startswith("<![CDATA["):
                scanner.advance(len("<![CDATA["))
                text_parts.append(scanner.read_until("]]>", "CDATA section"))
                continue
            if scanner.startswith("<?"):
                flush_text()
                self._skip_pi(scanner)
                continue
            if scanner.peek() == "<":
                flush_text()
                self._parse_element(scanner, builder, depth + 1)
                continue
            # plain character data up to the next markup character
            next_lt = scanner.text.find("<", scanner.pos)
            if next_lt < 0:
                raise scanner.error(f"unterminated element <{open_tag}>")
            text_parts.append(scanner.text[scanner.pos:next_lt])
            scanner.pos = next_lt


def parse_xml(text: str, doc_id: Optional[str] = None, keep_whitespace_text: bool = False) -> XMLTree:
    """Parse an XML document string into an :class:`XMLTree`.

    This is the main entry point used throughout the library and the
    examples.  See :class:`XMLParser` for the supported XML subset.
    """
    return XMLParser(keep_whitespace_text=keep_whitespace_text).parse(text, doc_id=doc_id)


def parse_xml_file(path: str, doc_id: Optional[str] = None, encoding: str = "utf-8") -> XMLTree:
    """Parse the XML document stored at *path*.

    Bytes that do not decode in *encoding* raise :class:`XMLEncodingError`
    (an :class:`~repro.xmlmodel.errors.XMLError`), so callers that report
    XML errors per document need no separate ``UnicodeDecodeError`` case.
    """
    try:
        with open(path, "r", encoding=encoding) as handle:
            text = handle.read()
    except UnicodeDecodeError as error:
        raise XMLEncodingError(f"not {encoding} text ({error.reason})") from error
    return parse_xml(text, doc_id=doc_id or path)
