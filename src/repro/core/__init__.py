"""Clustering core: XK-means, CXK-means, PK-means and supporting machinery."""
