"""Combined tree tuple item similarity (paper Eqs. 1-2).

The overall similarity between two items blends structural and content
similarity through a linear combination controlled by ``f``::

    sim(e_i, e_j) = f * sim_S(e_i, e_j) + (1 - f) * sim_C(e_i, e_j)

``f in [0, 1]`` tunes the influence of structure: the paper uses
``f in [0, 0.3]`` for content-driven clustering, ``[0.4, 0.6]`` for
structure/content-driven clustering and ``[0.7, 1]`` for structure-driven
clustering.  Two items are *gamma-matched* when their similarity reaches the
threshold ``gamma in [0, 1]`` (Eq. 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.similarity.content import content_similarity
from repro.similarity.structural import structural_similarity


@dataclass(frozen=True)
class SimilarityConfig:
    """Parameters of the XML transaction similarity function.

    Attributes
    ----------
    f:
        Structure/content blending factor (Eq. 1).
    gamma:
        Matching threshold used by the gamma-shared item sets (Eq. 2); the
        paper's best settings sit around 0.85.
    """

    f: float = 0.5
    gamma: float = 0.85

    def __post_init__(self) -> None:
        if not 0.0 <= self.f <= 1.0:
            raise ValueError(f"f must lie in [0, 1], got {self.f}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")


def item_similarity(
    item_i,
    item_j,
    config: SimilarityConfig,
    structural: Optional[float] = None,
) -> float:
    """Combined similarity between two tree tuple items (Eq. 1).

    Parameters
    ----------
    item_i, item_j:
        The tree tuple items to compare.
    config:
        Blending factor and threshold.
    structural:
        Optional pre-computed structural similarity (e.g. from the tag-path
        similarity cache); when ``None`` it is computed on the fly.
    """
    sim_s = structural if structural is not None else structural_similarity(item_i, item_j)
    if config.f == 1.0:
        return sim_s
    sim_c = content_similarity(item_i, item_j)
    if config.f == 0.0:
        return sim_c
    return config.f * sim_s + (1.0 - config.f) * sim_c
