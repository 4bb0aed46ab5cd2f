"""Exception hierarchy for the XML model layer.

All exceptions raised by :mod:`repro.xmlmodel` derive from :class:`XMLError`
so callers can catch a single base class.  Parsing failures carry positional
information (line and column) to make malformed synthetic documents easy to
debug.
"""

from __future__ import annotations


class XMLError(Exception):
    """Base class for every error raised by the XML model layer."""


class XMLSyntaxError(XMLError):
    """Raised when the pure-Python parser encounters malformed markup.

    Parameters
    ----------
    message:
        Human readable description of the problem.
    line, column:
        1-based position of the offending character in the input text.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class XMLEncodingError(XMLError):
    """Raised when a document's bytes do not decode in the expected encoding."""


class XMLTreeError(XMLError):
    """Raised for structural violations when building or editing trees.

    Examples include attaching a node to two parents, adding children to leaf
    string nodes, or labelling an internal node with an attribute name.
    """


class XMLPathError(XMLError):
    """Raised when an XML path expression is syntactically invalid."""
