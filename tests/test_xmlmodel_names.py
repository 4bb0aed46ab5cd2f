"""Tests for the label alphabets (repro.xmlmodel.names)."""

import pytest

from repro.xmlmodel.errors import XMLTreeError
from repro.xmlmodel.names import (
    ATTRIBUTE_PREFIX,
    PCDATA,
    attribute_label,
    is_attribute_label,
    is_tag_label,
    is_text_label,
    is_valid_name,
    strip_attribute_prefix,
    validate_tag,
)


class TestNameValidation:
    def test_simple_names_are_valid(self):
        assert is_valid_name("author")
        assert is_valid_name("book-title")
        assert is_valid_name("x_1.y")
        assert is_valid_name("_private")

    def test_names_with_namespace_colon_are_valid(self):
        assert is_valid_name("dc:title")

    def test_invalid_names_are_rejected(self):
        assert not is_valid_name("1author")
        assert not is_valid_name("")
        assert not is_valid_name("two words")
        assert not is_valid_name("-leading")

    def test_validate_tag_accepts_regular_names(self):
        assert validate_tag("inproceedings") == "inproceedings"

    def test_validate_tag_rejects_reserved_s(self):
        with pytest.raises(XMLTreeError):
            validate_tag(PCDATA)

    def test_validate_tag_rejects_invalid_names(self):
        with pytest.raises(XMLTreeError):
            validate_tag("9lives")


class TestLabelClassification:
    def test_attribute_label_prefixes_name(self):
        assert attribute_label("key") == ATTRIBUTE_PREFIX + "key"

    def test_attribute_label_rejects_invalid_names(self):
        with pytest.raises(XMLTreeError):
            attribute_label("not valid")

    def test_is_attribute_label(self):
        assert is_attribute_label("@key")
        assert not is_attribute_label("key")

    def test_is_text_label_only_for_sentinel(self):
        assert is_text_label("S")
        assert not is_text_label("s")
        assert not is_text_label("@S")

    def test_is_tag_label_excludes_attributes_and_text(self):
        assert is_tag_label("title")
        assert not is_tag_label("@key")
        assert not is_tag_label("S")

    def test_strip_attribute_prefix(self):
        assert strip_attribute_prefix("@key") == "key"

    def test_strip_attribute_prefix_requires_attribute(self):
        with pytest.raises(XMLTreeError):
            strip_attribute_prefix("key")
