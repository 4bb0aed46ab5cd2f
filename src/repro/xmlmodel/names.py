"""Label alphabets used by the XML tree model.

The paper (Sec. 3.1) defines an XML tree over the alphabet
``Sigma = Tag ∪ Att ∪ {S}`` where

* ``Tag`` is the alphabet of element tag names,
* ``Att`` is the alphabet of attribute names (prefixed here with ``@`` as is
  customary in XPath-like notations), and
* ``S`` is the distinguished symbol denoting ``#PCDATA`` text content.

This module provides the :data:`PCDATA` sentinel and the validation and
classification helpers for tag and attribute labels; nodes carry labels as
plain strings.
"""

from __future__ import annotations

import re

from repro.xmlmodel.errors import XMLTreeError

#: The distinguished symbol ``S`` used to label text (``#PCDATA``) leaves.
PCDATA = "S"

#: Prefix that distinguishes attribute labels from tag labels.
ATTRIBUTE_PREFIX = "@"

# XML 1.0 (simplified): names start with a letter, underscore or colon and
# continue with letters, digits, hyphens, underscores, dots or colons.
_NAME_RE = re.compile(r"^[A-Za-z_:][A-Za-z0-9_.:\-]*$")


def is_valid_name(name: str) -> bool:
    """Return ``True`` if *name* is a syntactically valid XML name."""
    return bool(_NAME_RE.match(name))


def attribute_label(name: str) -> str:
    """Return the label used for an attribute leaf (``@name``)."""
    if not is_valid_name(name):
        raise XMLTreeError(f"invalid attribute name: {name!r}")
    return ATTRIBUTE_PREFIX + name


def is_attribute_label(label: str) -> bool:
    """Return ``True`` if *label* denotes an attribute (starts with ``@``)."""
    return label.startswith(ATTRIBUTE_PREFIX)


def is_text_label(label: str) -> bool:
    """Return ``True`` if *label* is the ``#PCDATA`` sentinel ``S``."""
    return label == PCDATA


def is_tag_label(label: str) -> bool:
    """Return ``True`` if *label* is an element tag name."""
    return not is_attribute_label(label) and not is_text_label(label)


def validate_tag(name: str) -> str:
    """Validate an element tag name and return it unchanged.

    Raises
    ------
    XMLTreeError
        If *name* is not a valid XML name or collides with the ``S`` sentinel.
    """
    if name == PCDATA:
        # 'S' itself is permitted as a tag in real documents; the model keeps
        # them distinguishable because text leaves are leaves while tags are
        # internal nodes, but we forbid it to keep the alphabets disjoint as
        # required by the formal definition.
        raise XMLTreeError(
            "the tag name 'S' is reserved for #PCDATA leaves by the model"
        )
    if not is_valid_name(name):
        raise XMLTreeError(f"invalid tag name: {name!r}")
    return name


def strip_attribute_prefix(label: str) -> str:
    """Return the bare attribute name for an ``@name`` label."""
    if not is_attribute_label(label):
        raise XMLTreeError(f"not an attribute label: {label!r}")
    return label[len(ATTRIBUTE_PREFIX):]
