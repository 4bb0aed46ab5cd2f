"""XML document model: trees, parsing, serialisation and paths (paper Sec. 3.1)."""
