"""Transactional model of XML tree tuples (paper Sec. 3.3)."""
