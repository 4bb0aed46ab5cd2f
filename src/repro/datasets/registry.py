"""Registry of the four evaluation corpora and their paper parameters.

The registry maps corpus names to their generator, to the number of clusters
used by the paper for every clustering goal (the "# of clusters" column of
Tables 1-2), and to a per-corpus size profile; experiments and benchmarks
obtain datasets exclusively through :func:`get_corpus` / :func:`get_dataset`
so sizes stay consistent across the whole harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.datasets.dblp import generate_dblp
from repro.datasets.generator import SyntheticCorpus
from repro.datasets.ieee import generate_ieee
from repro.datasets.shakespeare import generate_shakespeare
from repro.datasets.wikipedia import generate_wikipedia
from repro.transactions.builder import BuilderConfig
from repro.transactions.dataset import TransactionDataset


@dataclass(frozen=True)
class CorpusProfile:
    """Static description of one evaluation corpus.

    Attributes
    ----------
    name:
        Canonical corpus name.
    cluster_counts:
        Number of clusters ``k`` used by the paper for each clustering goal
        (``content``, ``hybrid``, ``structure``); mirrors Tables 1(a)-(c).
    default_documents:
        Number of documents generated at ``scale = 1.0`` (``None`` for the
        Shakespeare corpus, which always has seven plays and scales through
        its act/scene/speech parameters instead).
    supports_structure:
        Whether the corpus has a meaningful structural ground truth
        (Wikipedia does not, matching the paper).
    """

    name: str
    cluster_counts: Dict[str, int]
    default_documents: Optional[int]
    supports_structure: bool = True


PROFILES: Dict[str, CorpusProfile] = {
    "DBLP": CorpusProfile(
        name="DBLP",
        cluster_counts={"content": 6, "hybrid": 16, "structure": 4},
        default_documents=120,
    ),
    "IEEE": CorpusProfile(
        name="IEEE",
        cluster_counts={"content": 8, "hybrid": 14, "structure": 2},
        default_documents=48,
    ),
    "Shakespeare": CorpusProfile(
        name="Shakespeare",
        cluster_counts={"content": 5, "hybrid": 12, "structure": 3},
        default_documents=None,
    ),
    "Wikipedia": CorpusProfile(
        name="Wikipedia",
        cluster_counts={"content": 21, "hybrid": 21, "structure": 1},
        default_documents=105,
        supports_structure=False,
    ),
}

#: Canonical corpus ordering used by reports (same order as the paper).
DATASET_NAMES: List[str] = ["DBLP", "IEEE", "Shakespeare", "Wikipedia"]

#: Named corpus scales for the backend size-sweep benchmark
#: (``bench_backend.py --size-sweep``): each maps a label to the ``scale``
#: passed into :func:`get_dataset`, spanning roughly one decade of corpus
#: sizes so the python -> numpy crossover is visible in one sweep.
SIZE_SWEEP_SCALES: Dict[str, float] = {
    "scale-1": 1.0,
    "scale-5": 5.0,
    "scale-20": 20.0,
}


def profile(name: str) -> CorpusProfile:
    """Return the :class:`CorpusProfile` of *name* (case-insensitive)."""
    key = _canonical(name)
    return PROFILES[key]


def _canonical(name: str) -> str:
    for key in PROFILES:
        if key.lower() == name.lower():
            return key
    raise KeyError(
        f"unknown corpus {name!r}; available: {', '.join(PROFILES)}"
    )


def get_corpus(name: str, scale: float = 1.0, seed: int = 0) -> SyntheticCorpus:
    """Generate the corpus *name* at the given *scale*.

    ``scale`` multiplies the document count (DBLP, IEEE, Wikipedia) or the
    per-play size (Shakespeare); a scale of 0.5 approximately halves the
    number of transactions, which is how the "half dataset" series of Fig. 7
    is produced.
    """
    key = _canonical(name)
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    if key == "DBLP":
        docs = max(len_profile(key, scale), 16)
        return generate_dblp(num_documents=docs, seed=seed)
    if key == "IEEE":
        docs = max(len_profile(key, scale), 14)
        return generate_ieee(num_documents=docs, seed=seed)
    if key == "Wikipedia":
        docs = max(len_profile(key, scale), 21)
        return generate_wikipedia(num_documents=docs, seed=seed)
    # Shakespeare: scale the number of speeches (and personas) per play.
    speeches = max(2, round(2 * scale))
    scenes = max(1, round(2 * min(scale, 1.5)))
    personas = 2 if scale < 1.5 else 3
    return generate_shakespeare(
        seed=seed,
        acts=2,
        scenes_per_act=scenes,
        speeches_per_scene=speeches,
        personas=personas,
    )


def len_profile(name: str, scale: float) -> int:
    """Return the scaled document count for corpora with a document knob."""
    default = PROFILES[_canonical(name)].default_documents
    if default is None:
        raise ValueError(f"corpus {name} does not scale by document count")
    return int(round(default * scale))


def get_dataset(
    name: str,
    scale: float = 1.0,
    seed: int = 0,
    builder_config: Optional[BuilderConfig] = None,
) -> TransactionDataset:
    """Generate corpus *name* and convert it into a transaction dataset."""
    return get_corpus(name, scale=scale, seed=seed).to_dataset(builder_config)


def cluster_count(name: str, goal: str) -> int:
    """Return the paper's ``k`` for corpus *name* and clustering *goal*.

    ``goal`` is one of ``"content"``, ``"hybrid"`` / ``"structure/content"``,
    ``"structure"``.
    """
    key = _canonical(name)
    goal_key = goal.lower()
    if goal_key in ("hybrid", "structure/content", "structure-content"):
        goal_key = "hybrid"
    if goal_key not in ("content", "hybrid", "structure"):
        raise KeyError(f"unknown clustering goal: {goal}")
    return PROFILES[key].cluster_counts[goal_key]
