"""Similarity measures for XML tree tuple items and transactions (Sec. 4.1)."""
