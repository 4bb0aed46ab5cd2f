"""Structural similarity between tree tuple items (paper Eq. 3).

Structural similarity compares the *tag paths* of two items.  Each tag of one
path is matched against the other path with the Dirichlet (Kronecker delta)
function, corrected by a factor inversely proportional to the absolute
difference of the tag positions; matches of tags that sit at very different
depths therefore contribute less.  The final value averages the directed
matchings in both directions:

.. math::

    sim_S(e_i, e_j) = \\frac{1}{n+m}
        \\left( \\sum_{h=1}^{n} s(t_{i_h}, p_j, h)
              + \\sum_{k=1}^{m} s(t_{j_k}, p_i, k) \\right)

with ``s(t, p, a) = max_{l=1..L} (1 + |a - l|)^{-1} * delta(t, t_l)``.
"""

from __future__ import annotations

from typing import Sequence


def dirichlet(tag_a: str, tag_b: str) -> float:
    """The Dirichlet (exact-match) tag comparison function.

    Returns 1.0 when the two tag names coincide and 0.0 otherwise.  The paper
    deliberately restricts itself to syntactic matching (Sec. 4.1.1); a
    knowledge-base-backed semantic comparison is future work.
    """
    return 1.0 if tag_a == tag_b else 0.0


def positional_tag_score(tag: str, path: Sequence[str], position: int) -> float:
    """``s(t, p, a)``: best positionally-discounted match of *tag* in *path*.

    Parameters
    ----------
    tag:
        The tag name being matched.
    path:
        The sequence of tag names of the other path.
    position:
        1-based position of *tag* inside its own path.
    """
    best = 0.0
    for index, other in enumerate(path, start=1):
        if dirichlet(tag, other) == 0.0:
            continue
        score = 1.0 / (1.0 + abs(position - index))
        if score > best:
            best = score
            if best == 1.0:
                break
    return best


def tag_path_similarity(path_i: Sequence[str], path_j: Sequence[str]) -> float:
    """Structural similarity of two tag paths (sequences of tag names).

    The result lies in ``[0, 1]``: identical paths score 1.0, paths with no
    common tag score 0.0.
    """
    steps_i = list(path_i)
    steps_j = list(path_j)
    n = len(steps_i)
    m = len(steps_j)
    if n == 0 or m == 0:
        return 0.0
    total = 0.0
    for h, tag in enumerate(steps_i, start=1):
        total += positional_tag_score(tag, steps_j, h)
    for k, tag in enumerate(steps_j, start=1):
        total += positional_tag_score(tag, steps_i, k)
    return total / (n + m)


def structural_similarity(item_i, item_j) -> float:
    """Structural similarity between two tree tuple items (Eq. 3).

    The items' *maximal tag paths* (complete path minus the trailing
    attribute / ``S`` step) are compared with :func:`tag_path_similarity`.
    """
    return tag_path_similarity(item_i.tag_path.steps, item_j.tag_path.steps)
