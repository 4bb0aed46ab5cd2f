"""The program names the benchmark's traced run wraps must keep resolving.

``perfbench/pbtrace.py`` wraps every ``(owner, attribute)`` of its
``PATCHES`` list at start-up and fails when one is missing, so renaming,
moving or deleting any of them breaks the benchmark's per-layer run.  These
tests resolve each entry the way the benchmark does, without installing a
wrapper and without editing the benchmark.
"""

from __future__ import annotations

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import pbtrace  # noqa: E402

from repro.network.mpengine import RefinementShard  # noqa: E402
from repro.similarity.item import SimilarityConfig  # noqa: E402


@pytest.mark.parametrize(
    "owner, attribute",
    [(entry[0], entry[1]) for entry in pbtrace.PATCHES],
    ids=[f"{entry[0]}.{entry[1]}" for entry in pbtrace.PATCHES],
)
def test_patched_name_resolves(owner, attribute):
    target = pbtrace._resolve(owner)
    if isinstance(target, type):
        # the wrapper replaces the class's own attribute, so an inherited
        # one would be patched on the wrong class
        assert attribute in target.__dict__
    else:
        assert callable(getattr(target, attribute))


def test_refine_counter_reads_the_shard_fields():
    """The ``refine`` counter sizes each shard by ``members`` or
    ``member_rows``; both kinds of shard must still carry them."""
    tracer = pbtrace.Tracer()
    common = dict(
        similarity=SimilarityConfig(),
        backend="python",
        representative_id="rep",
    )
    shards = [
        RefinementShard(cluster_index=0, members=[object()] * 3, **common),
        RefinementShard(
            cluster_index=1,
            members=None,
            store_dir="store",
            member_rows=[4, 5],
            **common,
        ),
    ]
    pbtrace._count_refine(tracer, (shards,), {}, {}, None)
    assert tracer.counters["refine.calls"] == 2
    assert tracer.counters["refine.members"] == 5
