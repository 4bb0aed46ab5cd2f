"""repro -- a from-scratch reproduction of *Collaborative clustering of XML
documents* (Greco, Gullo, Ponti, Tagarelli; JCSS 2011 / ICPP-DXMLP 2009).

The package is organised as a layered system:

* :mod:`repro.xmlmodel` -- pure-Python XML parsing, trees, and paths.
* :mod:`repro.treetuples` -- decomposition of XML trees into tree tuples.
* :mod:`repro.text` -- text preprocessing, sparse vectors and ttf.itf weighting.
* :mod:`repro.transactions` -- the transactional model over tree-tuple items.
* :mod:`repro.similarity` -- structural / content / combined similarities and
  the transactional gamma-Jaccard similarity.
* :mod:`repro.core` -- XK-means (centralized), CXK-means (collaborative
  distributed) and PK-means (non-collaborative parallel baseline).
* :mod:`repro.network` -- simulated P2P network, cost model and a real
  localhost-TCP transport with one process per peer.
* :mod:`repro.datasets` -- synthetic re-creations of the DBLP, IEEE,
  Shakespeare and Wikipedia evaluation corpora.
* :mod:`repro.evaluation` -- F-measure and other external validity indices.
* :mod:`repro.experiments` -- drivers that regenerate every table and figure
  of the paper's evaluation section.
"""

from repro.xmlmodel import XMLTree, XMLNode, parse_xml
from repro.treetuples import extract_tree_tuples, TreeTuple
from repro.transactions import Transaction, TreeTupleItem, TransactionDataset
from repro.similarity import (
    structural_similarity,
    content_similarity,
    item_similarity,
    transaction_similarity,
    SimilarityConfig,
)
from repro.core import (
    ClusteringConfig,
    XKMeans,
    CXKMeans,
    PKMeans,
    ClusteringResult,
)
from repro.evaluation import overall_f_measure

__version__ = "1.0.0"

__all__ = [
    "XMLTree",
    "XMLNode",
    "parse_xml",
    "extract_tree_tuples",
    "TreeTuple",
    "Transaction",
    "TreeTupleItem",
    "TransactionDataset",
    "structural_similarity",
    "content_similarity",
    "item_similarity",
    "transaction_similarity",
    "SimilarityConfig",
    "ClusteringConfig",
    "XKMeans",
    "CXKMeans",
    "PKMeans",
    "ClusteringResult",
    "overall_f_measure",
    "__version__",
]
