"""XML document model: trees, parsing, serialisation and paths (paper Sec. 3.1)."""

from repro.xmlmodel.errors import (
    XMLEncodingError,
    XMLError,
    XMLPathError,
    XMLSyntaxError,
    XMLTreeError,
)
from repro.xmlmodel.names import (
    ATTRIBUTE_PREFIX,
    PCDATA,
    Label,
    LabelKind,
    attribute_label,
    is_attribute_label,
    is_tag_label,
    is_text_label,
)
from repro.xmlmodel.parser import XMLParser, parse_xml, parse_xml_file
from repro.xmlmodel.paths import (
    XMLPath,
    all_tag_paths,
    apply_path,
    collection_complete_paths,
    collection_tag_paths,
    complete_paths,
    leaf_paths_with_nodes,
    maximal_tag_paths,
    path_answer,
    path_answers_by_path,
)
from repro.xmlmodel.serializer import serialize, to_compact_string
from repro.xmlmodel.stats import CollectionStats, TreeStats, collection_stats, tree_stats
from repro.xmlmodel.tree import XMLNode, XMLTree, XMLTreeBuilder, tree_from_nested

__all__ = [
    "XMLError",
    "XMLEncodingError",
    "XMLSyntaxError",
    "XMLTreeError",
    "XMLPathError",
    "PCDATA",
    "ATTRIBUTE_PREFIX",
    "Label",
    "LabelKind",
    "attribute_label",
    "is_attribute_label",
    "is_tag_label",
    "is_text_label",
    "XMLParser",
    "parse_xml",
    "parse_xml_file",
    "XMLPath",
    "apply_path",
    "path_answer",
    "complete_paths",
    "maximal_tag_paths",
    "all_tag_paths",
    "leaf_paths_with_nodes",
    "path_answers_by_path",
    "collection_complete_paths",
    "collection_tag_paths",
    "serialize",
    "to_compact_string",
    "XMLNode",
    "XMLTree",
    "XMLTreeBuilder",
    "tree_from_nested",
    "TreeStats",
    "CollectionStats",
    "tree_stats",
    "collection_stats",
]
