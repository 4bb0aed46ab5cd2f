"""Durable registry layer for fitted models.

``repro.core.model_store`` persists one fitted model as one
self-contained directory.  It does not answer the operational questions
a serving fleet asks: *which* models exist, which **version** of a name
is live, and what configuration a version carries.
This package is that catalog -- a small durable sqlite registry
(:class:`~repro.store.registry.SqliteModelRegistry`) that the ``cxk
models`` CLI and the async serving layer (:mod:`repro.serving`) read.

See ``docs/SERVING.md`` for the fit -> publish -> serve -> hot-reload
lifecycle built on top of it.
"""
