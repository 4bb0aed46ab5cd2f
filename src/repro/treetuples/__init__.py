"""Tree tuple decomposition of XML documents (paper Sec. 3.2)."""
