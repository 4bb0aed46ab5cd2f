"""Cluster validity measures and report rendering."""
