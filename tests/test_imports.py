"""What ``import repro`` offers, and what a peer worker process loads.

Subpackages re-export nothing, so importing one module loads only what that
module imports.  A CXK-means peer (``python -m repro.network.worker``) runs
the codec and the local phase; the layers it never runs stay unloaded.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.core.config import ClusteringConfig
from repro.core.cxkmeans import CXKMeans
from repro.core.pkmeans import PKMeans
from repro.core.xkmeans import XKMeans
from repro.similarity.item import SimilarityConfig
from repro.xmlmodel.parser import parse_xml

#: Modules a peer worker never runs: building transactions from XML, text
#: preprocessing, tree tuples, evaluation, corpora, experiments, the model
#: registry and store, serving, streaming and the compiled-corpus store.
WORKER_NEVER_LOADS = (
    "repro.transactions.builder",
    "repro.text.preprocess",
    "repro.treetuples",
    "repro.evaluation",
    "repro.datasets",
    "repro.experiments",
    "repro.store",
    "repro.serving",
    "repro.core.model_store",
    "repro.core.streaming",
    "repro.similarity.corpus_store",
)


def test_the_six_top_level_names_are_the_defining_objects():
    assert repro.ClusteringConfig is ClusteringConfig
    assert repro.SimilarityConfig is SimilarityConfig
    assert repro.XKMeans is XKMeans
    assert repro.CXKMeans is CXKMeans
    assert repro.PKMeans is PKMeans
    assert repro.parse_xml is parse_xml


def test_a_peer_worker_loads_none_of_the_layers_it_never_runs():
    source_root = str(Path(repro.__file__).resolve().parents[1])
    probe = (
        "import sys, repro.network.worker\n"
        "print(' '.join(name for name in sys.modules if name.startswith('repro')))\n"
    )
    env = dict(os.environ, PYTHONPATH=source_root)
    loaded = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout.split()
    assert "repro.network.worker" in loaded
    unexpected = sorted(
        name
        for name in loaded
        for banned in WORKER_NEVER_LOADS
        if name == banned or name.startswith(banned + ".")
    )
    assert not unexpected, f"a peer worker imports layers it never runs: {unexpected}"
