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
* :mod:`repro.evaluation` -- the overall F-measure and text tables and series.
* :mod:`repro.experiments` -- drivers that regenerate every table and figure
  of the paper's evaluation section.

Subpackages re-export nothing: import each name from the module that
defines it.  This module imports only the six names a first script needs.
"""

from repro.core.config import ClusteringConfig
from repro.core.cxkmeans import CXKMeans
from repro.core.pkmeans import PKMeans
from repro.core.xkmeans import XKMeans
from repro.similarity.item import SimilarityConfig
from repro.xmlmodel.parser import parse_xml
