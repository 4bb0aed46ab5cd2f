"""Synthetic re-creations of the paper's four evaluation corpora."""
