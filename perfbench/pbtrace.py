"""Spans and counters recorded from outside the program, for traced runs.

A :class:`Tracer` keeps every span in memory as ``(id, parent, name,
start, end)`` and writes them out when the run ends.  :func:`install`
wraps the program's public functions where they are looked up (a
``from x import y`` binds ``y`` in the importing module, so both the
defining module and each importer are patched).  The program's files
are not modified.

Per-layer metrics are derived from the spans and counters by
:func:`layer_metrics`.  A layer's time is its spans' *self* time: the
span's duration minus the union of its child spans' intervals, so the
layer times of one run add up instead of double counting nested calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Span = Tuple[int, Optional[int], str, float, float]


class Tracer:
    """In-memory span and counter recorder (one per process)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Retain threshold of the streamed ingest in progress, if any.
        self.chunk_threshold: Optional[float] = None

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        """Open a span under the calling thread's innermost open span."""
        stack = self._stack()
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(
                [span_id, stack[-1] if stack else None, name, time.perf_counter(), None]
            )
        stack.append(span_id)
        return span_id

    def end(self, span_id: int) -> None:
        """Close *span_id* (the innermost open span of this thread)."""
        self.spans[span_id][4] = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add *amount* to counter *name*."""
        self.counters[name] += amount

    def closed_spans(self) -> List[Span]:
        """Every finished span as a tuple."""
        return [tuple(span) for span in self.spans if span[4] is not None]

    def dump(self, path: str) -> None:
        """Write spans and counters to *path* as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"spans": self.closed_spans(), "counters": dict(self.counters)},
                handle,
            )


def load_dump(path: str) -> Tuple[List[Span], Dict[str, float]]:
    """Read a :meth:`Tracer.dump` file back."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return [tuple(span) for span in payload["spans"]], payload["counters"]


# --------------------------------------------------------------------------- #
# Self time
# --------------------------------------------------------------------------- #
def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by the union of ``(start, end)`` intervals."""
    covered = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        covered += current_end - current_start
    return covered


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Per span name: summed duration minus the union of child intervals."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _span_id, parent, _name, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals: Dict[str, float] = defaultdict(float)
    for span_id, _parent, name, start, end in spans:
        clipped = [
            (max(start, child_start), min(end, child_end))
            for child_start, child_end in children.get(span_id, ())
            if child_end > start and child_start < end
        ]
        totals[name] += (end - start) - union_length(clipped)
    return dict(totals)


# --------------------------------------------------------------------------- #
# Wrappers
# --------------------------------------------------------------------------- #
def _resolve(path: str):
    """Import ``package.module[.Class]`` and return the object."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attribute in parts[cut:]:
            target = getattr(target, attribute)
        return target
    raise ImportError(path)


def _wrap(tracer: Tracer, func: Callable, name: str, counter) -> Callable:
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        before = counter.before(tracer, args) if counter is not None else None
        span_id = tracer.begin(name)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.end(span_id)
        if counter is not None:
            counter.after(tracer, args, kwargs, result, before)
        return result

    return wrapper


def patch(tracer: Tracer, owner_path: str, attribute: str, name: str, counter=None):
    """Wrap ``owner.attribute`` in a span; returns an undo callable."""
    owner = _resolve(owner_path)
    raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
    if isinstance(raw, (classmethod, staticmethod)):
        replacement = type(raw)(_wrap(tracer, raw.__func__, name, counter))
    else:
        replacement = _wrap(tracer, raw, name, counter)
    setattr(owner, attribute, replacement)
    return lambda: setattr(owner, attribute, raw)


class _Counter:
    """Counter hooks around a wrapped call: ``before`` then ``after``."""

    def __init__(self, after, before=None) -> None:
        self.after = after
        self.before = before or (lambda tracer, args: None)


def _count_parse(tracer, args, kwargs, result, before) -> None:
    text = args[0] if args else kwargs.get("text", "")
    tracer.count("xmlmodel.parse_bytes", len(text.encode("utf-8")))


def _count_dataset(tracer, args, kwargs, result, before) -> None:
    tracer.count("transactions.tx_out", len(result.transactions))


def _count_transact(tracer, args, kwargs, result, before) -> None:
    tracer.count("transactions.tx_out", len(result))


def _count_preprocess(tracer, args, kwargs, result, before) -> None:
    tracer.count("text.preprocess_calls")


def _compile_before(tracer, args) -> int:
    return int(getattr(args[0], "corpus_compile_count", 0))


def _count_compile(tracer, args, kwargs, result, before) -> None:
    tracer.count(
        "similarity.compiled_tx",
        int(getattr(args[0], "corpus_compile_count", 0)) - before,
    )


def _count_assign(tracer, args, kwargs, result, before) -> None:
    rows = len(args[1]) if len(args) > 1 else len(kwargs.get("transactions", ()))
    representatives = args[2] if len(args) > 2 else kwargs.get("representatives", ())
    tracer.count("similarity.assign_calls")
    tracer.count("similarity.assign_rows", rows)
    tracer.count("similarity.assign_pairs", rows * len(representatives))
    tracer.count("similarity.trash_rows", sum(1 for _, score in result if score <= 0.0))
    threshold = tracer.chunk_threshold
    if threshold is not None:
        # the first assignment inside a streamed ingest is the chunk's own:
        # rows at or above the retain threshold commit on first assignment
        tracer.chunk_threshold = None
        tracer.count("streaming.first_pass_rows", rows)
        tracer.count(
            "streaming.first_pass_commits",
            sum(1 for _, score in result if score > 0.0 and score >= threshold),
        )


def _count_refine(tracer, args, kwargs, result, before) -> None:
    shards = list(args[0]) if args else list(kwargs.get("shards", ()))
    tracer.count("refine.calls", len(shards))
    tracer.count(
        "refine.members",
        sum(len(shard.members or shard.member_rows or ()) for shard in shards),
    )


def _count_prepare(tracer, args, kwargs, result, before) -> None:
    status = str(result.get("store", "off"))
    tracer.count({"hit": "store.hit", "miss": "store.miss"}.get(status, "store.error"))


def _count_load(tracer, args, kwargs, result, before) -> None:
    status = getattr(result, "store_status", "off")
    tracer.count("store.hit" if status == "hit" else "store.miss")


def _ingest_before(tracer, args) -> None:
    clusterer = args[0]
    # chunks before the bootstrap are committed by the batch fit instead
    tracer.chunk_threshold = (
        clusterer.config.retain_threshold if clusterer.bootstrapped else None
    )


def _ingest_after(tracer, args, kwargs, result, before) -> None:
    tracer.chunk_threshold = None


#: ``(owner, attribute, span name, counter)`` for every wrapped function.
PATCHES = [
    ("repro.xmlmodel.parser", "parse_xml", "xmlmodel.parse", _Counter(_count_parse)),
    ("repro.core.model_store", "parse_xml", "xmlmodel.parse", _Counter(_count_parse)),
    (
        "repro.transactions.builder",
        "build_dataset",
        "transactions.build",
        _Counter(_count_dataset),
    ),
    (
        "repro.core.model_store.ClusterModel",
        "transact",
        "transactions.build",
        _Counter(_count_transact),
    ),
    (
        "repro.text.preprocess.TextPreprocessor",
        "process",
        "text.preprocess",
        _Counter(_count_preprocess),
    ),
    (
        "repro.similarity.backend.NumpyBackend",
        "compile_corpus",
        "similarity.compile",
        _Counter(_count_compile, _compile_before),
    ),
    (
        "repro.similarity.backend.NumpyBackend",
        "extend_corpus",
        "similarity.compile",
        _Counter(_count_compile, _compile_before),
    ),
    (
        "repro.similarity.transaction.SimilarityEngine",
        "assign_all",
        "similarity.assign",
        _Counter(_count_assign),
    ),
    ("repro.similarity.transaction.SimilarityEngine", "rank_items_batch", "similarity.rank"),
    ("repro.similarity.transaction.SimilarityEngine", "score_candidates", "similarity.rank"),
    ("repro.core.cxkmeans", "refine_clusters", "refine", _Counter(_count_refine)),
    ("repro.core.xkmeans", "refine_clusters", "refine", _Counter(_count_refine)),
    ("repro.core.streaming", "refine_clusters", "refine", _Counter(_count_refine)),
    (
        "repro.core.streaming.StreamingClusterer",
        "ingest",
        "streaming.ingest",
        _Counter(_ingest_after, _ingest_before),
    ),
    ("repro.core.streaming.StreamingClusterer", "finalize", "streaming.ingest"),
    (
        "repro.similarity.corpus_store",
        "prepare_engine_corpus",
        "store.compile_export",
        _Counter(_count_prepare),
    ),
    ("repro.similarity.corpus_store.CorpusStore", "save", "store.compile_export"),
    ("repro.similarity.corpus_store.BlockCorpusStore", "create", "store.append"),
    ("repro.similarity.corpus_store.BlockCorpusStore", "append_block", "store.append"),
    ("repro.similarity.corpus_store.BlockCorpusStore", "resolve_rows", "store.resolve"),
    ("repro.similarity.corpus_store", "cached_store", "store.attach"),
    ("repro.similarity.backend.NumpyBackend", "attach_store", "store.attach"),
    ("repro.serving", "load_model", "model_store.load", _Counter(_count_load)),
    ("repro.core.model_store.ClusterModel", "classify", "model_store.classify"),
    ("repro.serving", "classify_payload", "serving.classify"),
    ("repro.core.cxkmeans.CXKMeans", "fit", "cxkmeans.fit"),
    ("repro.core.xkmeans.XKMeans", "fit", "cxkmeans.fit"),
    ("repro.network.realnet.RealNetwork", "start", "network.spawn"),
    ("repro.network.realnet.RealNetwork", "close", "network.spawn"),
    ("repro.network.realnet.RealNetwork", "run_local_phases", "network.wait"),
]


def install(tracer: Tracer) -> None:
    """Install every wrapper of :data:`PATCHES` for the life of the process."""
    for owner, attribute, name, *counter in PATCHES:
        patch(tracer, owner, attribute, name, counter[0] if counter else None)


# --------------------------------------------------------------------------- #
# Per-layer metrics
# --------------------------------------------------------------------------- #
#: Per-layer time metric -> the span names whose self time it sums.
SELF_TIME_METRICS = {
    "xmlmodel.parse_s": ("xmlmodel.parse",),
    "transactions.build_s": ("transactions.build",),
    "text.preprocess_s": ("text.preprocess",),
    "similarity.compile_s": ("similarity.compile",),
    "similarity.assign_s": ("similarity.assign",),
    "similarity.rank_s": ("similarity.rank",),
    "refine.s": ("refine",),
    "streaming.ingest_s": ("streaming.ingest",),
    "store.append_s": ("store.append",),
    "store.resolve_s": ("store.resolve",),
    "store.attach_s": ("store.attach",),
    "store.compile_export_s": ("store.compile_export",),
    "model_store.load_s": ("model_store.load",),
    "model_store.classify_self_s": ("model_store.classify",),
    "serving.classify_self_s": ("serving.classify",),
    "cxkmeans.driver_s": ("cxkmeans.fit",),
    "network.spawn_s": ("network.spawn",),
    "network.driver_wait_s": ("network.wait",),
}

#: Per-layer count metrics copied straight from the counters.
COUNTER_METRICS = (
    "transactions.tx_out",
    "text.preprocess_calls",
    "similarity.compiled_tx",
    "similarity.assign_calls",
    "similarity.assign_rows",
    "similarity.assign_pairs",
    "refine.calls",
    "refine.members",
    "store.hit",
    "store.miss",
    "store.error",
)


def layer_metrics(spans: Sequence[Span], counters: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced process, from its spans and counters."""
    by_name = self_times(spans)
    metrics = {
        metric: sum(by_name.get(name, 0.0) for name in names)
        for metric, names in SELF_TIME_METRICS.items()
    }
    for name in COUNTER_METRICS:
        metrics[name] = float(counters.get(name, 0.0))
    metrics["trace.spans"] = float(len(spans))
    metrics["xmlmodel.parse_mb"] = counters.get("xmlmodel.parse_bytes", 0.0) / 1e6
    rows = counters.get("similarity.assign_rows", 0.0)
    metrics["similarity.trash_ratio"] = (
        counters.get("similarity.trash_rows", 0.0) / rows if rows else 0.0
    )
    first_pass = counters.get("streaming.first_pass_rows", 0.0)
    metrics["streaming.commit_ratio"] = (
        counters.get("streaming.first_pass_commits", 0.0) / first_pass if first_pass else 0.0
    )
    return metrics
