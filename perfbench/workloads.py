"""The three workloads: orchestration, correctness checks and metrics.

Each workload function takes a :class:`Context` and returns an
:class:`Outcome`.  Every measured repetition runs in a fresh interpreter
(:mod:`pbjobs`, :mod:`pbserver`), so module-level caches of the program
(the stemmer memo, process engines, the store cache) never carry warm
state from one repetition into the next.  End-to-end figures come from
untraced repetitions.  A traced run (``--trace 1``) traces one more
repetition (a second server for serve-http); the per-layer figures come
from it and ``trace.overhead_pct`` compares it with its untraced twin.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import pbload
import pbstats
import pbtrace
from pbinputs import QUERY_SEED_OFFSET, WARMUP_SEED_OFFSET, read_documents, write_documents
from pbproc import Child, Children, cpu_seconds_of_self, free_port

#: Corpus scales: DBLP scale 5 is 600 documents (~1100 transactions).
FIT_SCALE = 5.0
STREAM_SCALE = 2.5
#: The served model is fitted on DBLP scale 1 (120 documents): at
#: gamma 0.5 a scale-5 fit takes ~40 s, too long for per-run set-up, and
#: the classify cost depends on the representatives, not the corpus size.
#: The model is a fixed artefact (corpus seed 0): the server's footprint
#: and speed depend on the model, so the workload seed drives the traffic
#: (queries, warm-up documents, arrivals) instead.
MODEL_SCALE = 1.0
MODEL_SEED = 0
#: 4800 unseen query documents, enough for the capacity passes of a 30 s
#: run never to repeat one; 100 warm-up documents from a third seed.
QUERY_SCALE = 40.0
WARMUP_DOCS = 100
#: Queries whose verdict is checked against a python-backend reference.
REFERENCE_SAMPLE = 40

#: Open-loop rate ladder (requests/s), its reference rate and the
#: latency objective on the tail percentile.  The reference rate is 100
#: q/s, not 200: on a 2-vCPU host the server ran at 50-65% of its
#: capacity at 200 q/s, where ~150 ms garbage-collection pauses leave
#: backlogs and the median from due time swung from 6.9 to 26.5 ms.
LADDER = (100, 200, 300, 400, 500)
REFERENCE_RATE = 100
SLO_MS = 20.0
#: Shares of the run's seconds: the reference rung (9 s of a 30 s run,
#: ~900 samples, enough for a p98) and each other rung; the closed-loop
#: capacity passes send this many requests per second of the run.
REFERENCE_SHARE = 0.30
RUNG_SHARE = 0.04
CAPACITY_REQUESTS_PER_S = 160
#: The reference rung and the capacity passes alternate in this many
#: blocks, so both sample the whole run: on a shared 2-vCPU host the speed
#: of one core drifts by ~20% from one few-second stretch to the next.
BLOCKS = 12
#: Server set-ups per run (spawn -> healthy -> warm-up); the median is
#: ``setup_s`` and the last server carries the load.
SERVER_SETUPS = 3

#: fit-collab and stream-ingest measure one corpus per this many seconds
#: of the run (see :func:`_corpora`).  Single scale-5 streams ran 68-144
#: docs/s, so stream-ingest averages many shorter (scale 2.5) streams.
FIT_SECONDS_PER_CORPUS = 7.5
STREAM_SECONDS_PER_CORPUS = 3.0
CORPUS_SEED_STRIDE = 1009

JOB_TIMEOUT_S = 150.0
#: A whole run, set-up included, must end well within 180 s even when the
#: program hangs: every wait is cut at this deadline.
RUN_DEADLINE_S = 170.0


@dataclass
class Context:
    """Where and how one benchmark run executes."""

    workdir: str
    trace_dir: str
    seed: int
    seconds: float
    trace: bool
    children: Children
    started: float = field(default_factory=time.perf_counter)

    def path(self, name: str) -> str:
        """A path inside the run's scratch directory."""
        return os.path.join(self.workdir, name)

    def timeout(self, limit: float) -> float:
        """*limit*, cut to what is left before the run's deadline."""
        return max(1.0, min(limit, self.started + RUN_DEADLINE_S - time.perf_counter()))


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    e2e: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> bool:
        """Count one correctness check; record *problem* when it fails."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)
        return ok


# --------------------------------------------------------------------------- #
# Shared helpers
# --------------------------------------------------------------------------- #
def _run_job(ctx: Context, outcome: Outcome, name: str, job: Dict[str, object]):
    """Run one :mod:`pbjobs` job; returns ``(child, result or None)``."""
    job = dict(job, out=ctx.path(f"{name}.out.json"))
    job_path = ctx.path(f"{name}.job.json")
    with open(job_path, "w", encoding="utf-8") as handle:
        json.dump(job, handle)
    child = ctx.children.run(["perfbench/pbjobs.py", job_path], ctx.timeout(JOB_TIMEOUT_S))
    ok = child.ok and os.path.exists(job["out"])
    detail = (
        f"{name}: exit {child.returncode}, timed out {child.timed_out}, "
        f"leaked {child.leaked}\n{child.log_tail()}"
    )
    if not outcome.check(ok, detail):
        return child, None
    with open(job["out"], "r", encoding="utf-8") as handle:
        return child, json.load(handle)


def _corpora(ctx: Context, name: str, scale: float, seconds_per_corpus: float) -> List[str]:
    """Write the run's corpora; returns their input files.

    What a fit or a stream costs depends strongly on its corpus (which
    clusters form decides how the peers' load balances and how much each
    re-refinement reads back), so a run measures several distinct
    corpora and averages them.  Their number depends only on
    ``--seconds``; corpus ``i`` comes from seed ``seed * stride + i``.
    """
    paths = []
    for index in range(max(2, round(ctx.seconds / seconds_per_corpus))):
        paths.append(ctx.path(f"{name}-docs-{index}.json"))
        write_documents(paths[-1], scale, ctx.seed * CORPUS_SEED_STRIDE + index)
    return paths


def _keep_trace(ctx: Context, source: str, name: str) -> str:
    target = os.path.join(ctx.trace_dir, name)
    shutil.move(source, target)
    return target


def _overhead_pct(untraced: float, traced: float) -> float:
    """Traced minus untraced, as a share of untraced, in percent."""
    return (traced - untraced) / untraced * 100.0


def _process_layers(children: Sequence[Child], extra_cpu: float = 0.0) -> Dict[str, float]:
    """CPU seconds per measured process tree and CPU seconds per wall second."""
    cpu = sum(child.cpu_s for child in children) + extra_cpu
    wall = sum(child.wall_s for child in children)
    return {
        "process.cpu_s": cpu / max(len(children), 1),
        "process.cpu_util": cpu / wall if wall else 0.0,
    }


# --------------------------------------------------------------------------- #
# fit-collab
# --------------------------------------------------------------------------- #
def fit_collab(ctx: Context) -> Outcome:
    """CXK-means over 2 real TCP peers from XML text; one fit per interpreter.

    Each corpus is fitted once.  Corpus 0 is then fitted again on the real
    transport (the repeat must reproduce its partition; in a traced run it
    is the traced fit) and once on the simulated transport (bit-identical
    partition required).
    """
    outcome = Outcome()
    inputs = _corpora(ctx, "fit", FIT_SCALE, FIT_SECONDS_PER_CORPUS)
    runs: Dict[int, Dict[str, object]] = {}
    children: List[Child] = []

    def fit(rep: int, index: int, network: str, trace_path: Optional[str] = None):
        child, result = _run_job(
            ctx,
            outcome,
            f"fit-{rep}",
            {
                "kind": "fit",
                "seed": ctx.seed,
                "inputs": inputs[index],
                "network": network,
                "store_dir": ctx.path(f"fit-store-{rep}"),
                "trace": trace_path,
            },
        )
        if result is not None:
            outcome.check(
                result["assigned"] == result["transactions"],
                f"fit-{rep}: {result['assigned']} of {result['transactions']} "
                "transactions assigned",
            )
            result["peak_rss_mb"] = child.peak_rss_mb
        return child, result

    for index in range(len(inputs)):
        child, result = fit(index, index, "real")
        if result is not None:
            children.append(child)
            runs[index] = result
    trace_path = ctx.path("fit-repeat.trace.json") if ctx.trace else None
    _, repeat = fit(len(inputs), 0, "real", trace_path)
    _, sim = fit(len(inputs) + 1, 0, "sim")
    first = runs.get(0)
    if first is not None and repeat is not None:
        outcome.check(
            repeat["signature"] == first["signature"],
            "fit partition differs between two real-transport fits of the same corpus",
        )
    if first is not None and sim is not None:
        outcome.check(
            sim["signature"] == first["signature"],
            "real-transport partition is not bit-identical to the sim-transport fit",
        )
    if first is None:
        return outcome

    results = list(runs.values())
    fit_s = [result["fit_s"] for result in results]
    outcome.e2e = {
        "setup_s": statistics.median(result["setup_s"] for result in results),
        "latency_p50_ms": statistics.fmean(fit_s) * 1000.0,
        "docs_per_s": statistics.fmean(r["documents"] / r["fit_s"] for r in results),
        "peak_rss_mb": statistics.fmean(result["peak_rss_mb"] for result in results),
    }
    outcome.notes += [
        f"fit_s: mean {statistics.fmean(fit_s):.3f} s over {len(fit_s)} corpora "
        f"({', '.join(f'{value:.3f}' for value in fit_s)})",
        f"overall_f: {first['overall_f']:.4f} ratio (corpus 0, hybrid labels, "
        f"{first['transactions']} transactions, {first['trash']} in trash)",
        f"rounds: {first['network']['rounds']:.0f}, iterations {first['iterations']}, "
        f"wire {first['network']['wire_bytes'] / 1000:.1f} kB",
    ]
    if ctx.trace and repeat is not None:
        dump = _keep_trace(ctx, trace_path, f"fit-collab-seed{ctx.seed}.json")
        layers = pbtrace.layer_metrics(*pbtrace.load_dump(dump))
        network = repeat["network"]
        layers.update(
            {
                "network.rounds": network["rounds"],
                "network.messages": network["messages"],
                "network.wire_bytes": network["wire_bytes"],
                "network.control_bytes": network["control_bytes"],
                "network.round_wall_s": network["measured_wall_seconds"],
                "network.peer_compute_s": network["parallel_compute_seconds"],
                "network.wait_s": network["measured_wall_seconds"]
                - network["parallel_compute_seconds"],
                "network.predicted_comm_s": network["communication_seconds"],
                "cxkmeans.iterations": repeat["iterations"],
                "quality.overall_f": first["overall_f"],
                "trace.overhead_pct": _overhead_pct(first["fit_s"], repeat["fit_s"]),
            }
        )
        layers.update(_process_layers(children))
        outcome.layers = layers
    return outcome


# --------------------------------------------------------------------------- #
# stream-ingest
# --------------------------------------------------------------------------- #
def stream_ingest(ctx: Context) -> Outcome:
    """XML text in 32-document chunks into an out-of-core block chain.

    Each corpus is streamed once.  Corpus 0 is streamed once more at the
    end: the repeat must reproduce its partition, and in a traced run it
    is the traced stream.
    """
    outcome = Outcome()
    inputs = _corpora(ctx, "stream", STREAM_SCALE, STREAM_SECONDS_PER_CORPUS)
    runs: List[Dict[str, object]] = []
    children: List[Child] = []

    def stream(rep: int, index: int, trace_path: Optional[str]):
        child, result = _run_job(
            ctx,
            outcome,
            f"stream-{rep}",
            {
                "kind": "stream",
                "seed": ctx.seed,
                "inputs": inputs[index],
                "store_dir": ctx.path(f"stream-chain-{rep}"),
                "trace": trace_path,
            },
        )
        if result is None:
            return child, None
        outcome.check(
            result["ingested"] == result["built"],
            f"stream-{rep}: ingested {result['ingested']} of {result['built']} transactions",
        )
        outcome.check(
            result["committed_before_finalize"] + result["retained_before_finalize"]
            == result["ingested"],
            f"stream-{rep}: committed {result['committed_before_finalize']} + retained "
            f"{result['retained_before_finalize']} != ingested {result['ingested']}",
        )
        outcome.check(
            result["final_members"] == result["ingested"],
            f"stream-{rep}: {result['final_members']} members after finalize, "
            f"{result['ingested']} ingested",
        )
        result["peak_rss_mb"] = child.peak_rss_mb
        return child, result

    for index in range(len(inputs)):
        child, result = stream(index, index, None)
        if result is not None:
            children.append(child)
            runs.append(result)
    trace_path = ctx.path("stream-repeat.trace.json") if ctx.trace else None
    _, repeat = stream(len(inputs), 0, trace_path)
    if not runs:
        return outcome
    if repeat is not None:
        outcome.check(
            repeat["signature"] == runs[0]["signature"],
            "stream partition differs between two streams of the same corpus",
        )

    chunk_ms = [value * 1000.0 for result in runs for value in result["chunk_s"]]
    rates = [result["stream_docs"] / result["stream_s"] for result in runs]
    tail = pbstats.tail_percentile(chunk_ms)
    outcome.e2e = {
        "setup_s": statistics.median(result["setup_s"] for result in runs),
        # per-corpus medians, averaged like the rates: a pooled median
        # would swing with whichever corpus contributes the middle chunks
        "latency_p50_ms": statistics.fmean(
            statistics.median(result["chunk_s"]) * 1000.0 for result in runs
        ),
        "docs_per_s": statistics.fmean(rates),
        "peak_rss_mb": statistics.fmean(result["peak_rss_mb"] for result in runs),
    }
    first = runs[0]
    stats = first["streaming"]
    outcome.notes += [
        f"stream_docs_per_s: mean {statistics.fmean(rates):.1f} docs/s over {len(rates)} "
        f"corpora ({', '.join(f'{rate:.1f}' for rate in rates)}), "
        f"{first['stream_docs']} docs each after the bootstrap chunk",
        "chunk latency: "
        + (
            f"p{tail[0]:g} {tail[1]:.1f} ms over {tail[2]} chunks"
            if tail
            else f"{len(chunk_ms)} chunks (too few for a tail)"
        ),
        f"overall_f: {first['overall_f']:.4f} ratio; re-refinements {stats['re_refinements']} "
        f"of {stats['chunks_ingested']} chunks; chain {first['chain_mb']:.2f} MB (corpus 0)",
    ]
    if ctx.trace and repeat is not None:
        dump = _keep_trace(ctx, trace_path, f"stream-ingest-seed{ctx.seed}.json")
        layers = pbtrace.layer_metrics(*pbtrace.load_dump(dump))
        stats = repeat["streaming"]
        layers.update(
            {
                "streaming.chunks": stats["chunks_ingested"],
                "streaming.re_refinements": stats["re_refinements"],
                "streaming.retained_peak": stats["retained_peak"],
                "store.append_mb": repeat["chain_mb"],
                "quality.overall_f": first["overall_f"],
                "trace.overhead_pct": _overhead_pct(first["stream_s"], repeat["stream_s"]),
            }
        )
        if tail:
            layers.update(
                {"latency.tail_pct": tail[0], "latency.tail_ms": tail[1], "latency.samples": tail[2]}
            )
        layers.update(_process_layers(children))
        outcome.layers = layers
    return outcome


# --------------------------------------------------------------------------- #
# serve-http
# --------------------------------------------------------------------------- #
def _start_server(ctx: Context, outcome: Outcome, model_dir: str, warmup, trace_path=None):
    """Spawn a server and warm it up; returns ``(child, port, setup seconds)``."""
    port = free_port()
    argv = ["perfbench/pbserver.py", "--model", model_dir, "--port", str(port)]
    if trace_path:
        argv += ["--trace", trace_path]
    started = time.perf_counter()
    child = ctx.children.start(argv)
    if not outcome.check(pbload.wait_healthy(port, ctx.timeout(60.0)), "server never became healthy"):
        return child, port, None
    replies = pbload.closed_loop(port, warmup)
    outcome.attempted += len(replies)
    bad = sum(1 for status, _ in replies if status != 200)
    outcome.failed += bad
    if bad:
        outcome.problems.append(f"{bad} warm-up requests failed")
    return child, port, time.perf_counter() - started


def _stop_server(ctx: Context, outcome: Outcome, child: Child) -> Child:
    ctx.children.terminate(child, ctx.timeout(30.0))
    outcome.check(
        child.ok,
        f"server: exit {child.returncode}, leaked {child.leaked}\n{child.log_tail()}",
    )
    return child


def _count_requests(outcome: Outcome, records, counts, expected, where: str) -> None:
    outcome.attempted += len(records)
    failed = sum(1 for record in records if not record.get("ok"))
    wrong = sum(
        1
        for record in records
        if record.get("ok")
        and record["doc"] < len(expected)
        and record["cluster_id"] != expected[record["doc"]]
    )
    outcome.failed += failed + wrong
    if failed:
        outcome.problems.append(f"{where}: {failed} requests failed ({counts['refused']} refused)")
    if wrong:
        outcome.problems.append(f"{where}: {wrong} verdicts differ from the python reference")


def serve_http(ctx: Context) -> Outcome:
    """Open-loop Poisson traffic against the async server in its own process."""
    from repro.evaluation.fmeasure import overall_f_measure

    outcome = Outcome()
    model_inputs = ctx.path("model-docs.json")
    query_inputs = ctx.path("query-docs.json")
    warmup_inputs = ctx.path("warmup-docs.json")
    write_documents(model_inputs, MODEL_SCALE, MODEL_SEED)
    write_documents(query_inputs, QUERY_SCALE, ctx.seed + QUERY_SEED_OFFSET)
    write_documents(warmup_inputs, MODEL_SCALE, ctx.seed + WARMUP_SEED_OFFSET)
    queries, query_labels = read_documents(query_inputs)
    bodies = [text.encode("utf-8") for _, text in queries]
    warmup = [text.encode("utf-8") for _, text in read_documents(warmup_inputs)[0]][
        :WARMUP_DOCS
    ]
    model_dir = ctx.path("model")
    _, model = _run_job(
        ctx,
        outcome,
        "model",
        {
            "kind": "model",
            "seed": MODEL_SEED,
            "inputs": model_inputs,
            "queries": query_inputs,
            "sample": REFERENCE_SAMPLE,
            "store_dir": ctx.path("model-store"),
            "model_dir": model_dir,
        },
    )
    if model is None:
        return outcome
    expected = model["expected"]

    setups: List[float] = []
    server = port = None
    for attempt in range(SERVER_SETUPS):
        server, port, setup = _start_server(ctx, outcome, model_dir, warmup)
        if setup is None:
            _stop_server(ctx, outcome, server)
            return outcome
        setups.append(setup)
        if attempt < SERVER_SETUPS - 1:
            _stop_server(ctx, outcome, server)

    replies = pbload.closed_loop(port, bodies[:REFERENCE_SAMPLE])
    outcome.attempted += len(replies)
    mismatched = sum(
        1 for (status, cluster), want in zip(replies, expected) if status != 200 or cluster != want
    )
    outcome.failed += mismatched
    if mismatched:
        outcome.problems.append(
            f"{mismatched} of {len(replies)} sampled verdicts differ from the python reference"
        )

    reference_s = ctx.seconds * REFERENCE_SHARE
    rung_s = ctx.seconds * RUNG_SHARE
    base_p50: Optional[float] = None
    trace_path = None
    if ctx.trace:
        # untraced reference rung first, then blocks and ladder on a traced server
        records, counts = pbload.open_loop(
            port, bodies, REFERENCE_RATE, reference_s / 2, ctx.seed
        )
        _count_requests(outcome, records, counts, expected, "untraced reference rung")
        base_p50 = statistics.median(pbstats.open_loop_latencies(records))
        _stop_server(ctx, outcome, server)
        trace_path = ctx.path("server.trace.json")
        server, port, setup = _start_server(ctx, outcome, model_dir, warmup, trace_path)
        if setup is None:
            _stop_server(ctx, outcome, server)
            return outcome

    client_cpu = cpu_seconds_of_self()
    rungs: Dict[int, Dict[str, object]] = {}
    reference_records: List[Dict[str, object]] = []
    verdicts: Dict[int, int] = {}
    statuses: Counter = Counter()
    refused = 0

    def rung(rate: int, duration: float, seed: int, where: str):
        nonlocal refused
        records, counts = pbload.open_loop(port, bodies, rate, duration, seed)
        _count_requests(outcome, records, counts, expected, where)
        refused += counts["refused"]
        for record in records:
            if "status" in record:
                statuses[record["status"] // 100] += 1
            if record.get("ok"):
                verdicts[record["doc"]] = record["cluster_id"]
        return records

    per_block = max(100, int(ctx.seconds * CAPACITY_REQUESTS_PER_S / BLOCKS))
    rates: List[float] = []
    capacity_s = 0.0
    bad = 0
    for block in range(BLOCKS):
        reference_records += rung(
            REFERENCE_RATE,
            reference_s / BLOCKS,
            ctx.seed * 7919 + REFERENCE_RATE + 1009 * block,
            f"{REFERENCE_RATE} q/s rung, block {block}",
        )
        first = block * per_block
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            replies = pbload.closed_loop(
                port,
                [bodies[(first + i) % len(bodies)] for i in range(per_block)],
                connections=2,
            )
            elapsed = time.perf_counter() - started
        finally:
            gc.enable()
        capacity_s += elapsed
        rates.append(len(replies) / elapsed)
        outcome.attempted += len(replies)
        bad += sum(1 for status, _ in replies if status != 200)
    capacity = BLOCKS * per_block / capacity_s
    outcome.failed += bad
    if bad:
        outcome.problems.append(f"capacity passes: {bad} requests failed")
    rungs[REFERENCE_RATE] = pbstats.rung_summary(
        reference_records, REFERENCE_RATE, SLO_MS, grace_s=1.0
    )
    for rate in LADDER:
        if rate != REFERENCE_RATE:
            records = rung(rate, rung_s, ctx.seed * 7919 + rate, f"{rate} q/s rung")
            rungs[rate] = pbstats.rung_summary(records, rate, SLO_MS, grace_s=1.0)
    client_cpu = cpu_seconds_of_self() - client_cpu
    server = _stop_server(ctx, outcome, server)

    reference = rungs.get(REFERENCE_RATE)
    if reference is None or not reference_records:
        return outcome
    passing = [rate for rate, summary in rungs.items() if summary["meets_slo"]]
    outcome.e2e = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": reference["p50_ms"],
        "docs_per_s": capacity,
        "peak_rss_mb": server.peak_rss_mb,
    }
    done = [record for record in reference_records if record.get("ok")]
    lag = pbstats.tail_percentile([(r["dispatched"] - r["due"]) * 1000.0 for r in done])
    queue = pbstats.tail_percentile([(r["sent"] - r["due"]) * 1000.0 for r in done])
    clusters: Dict[int, List[str]] = {}
    for doc, cluster in verdicts.items():
        if cluster is not None and cluster >= 0:
            clusters.setdefault(cluster, []).append(queries[doc][0])
    overall_f = overall_f_measure(
        list(clusters.values()), {queries[doc][0]: query_labels[queries[doc][0]] for doc in verdicts}
    )
    outcome.notes += [
        f"classify_p50_ms: {reference['p50_ms']:.3f} ms at {REFERENCE_RATE} q/s from due time",
        f"classify_p{reference['tail_pct']:g}_ms: {reference['tail_ms']:.3f} ms "
        f"({reference['samples']} samples)",
        "ladder: "
        + "; ".join(
            f"{rate} q/s p50 {s['p50_ms']:.1f} ms p{s['tail_pct'] or 0:g} {s['tail_ms']:.1f} ms "
            f"n={s['samples']}{' ok' if s['meets_slo'] else ''}"
            for rate, s in rungs.items()
        ),
        f"max_qps_at_slo: {max(passing, default=0)} q/s (tail <= {SLO_MS:g} ms)",
        f"max_qps (closed loop, 2 connections): {capacity:.1f} q/s over {BLOCKS} passes "
        f"of {per_block} documents ({', '.join(f'{rate:.1f}' for rate in rates)})",
        "server-reported classify p50: "
        f"{statistics.median([r['latency_ms'] for r in done]):.3f} ms",
        f"generator lag: p{lag[0]:g} {lag[1]:.3f} ms ({lag[2]} samples)" if lag else "",
        f"overall_f of query verdicts: {overall_f:.4f}; model fit {model['fit_s']:.2f} s",
    ]
    if ctx.trace:
        dump = _keep_trace(ctx, trace_path, f"serve-http-seed{ctx.seed}-server.json")
        layers = pbtrace.layer_metrics(*pbtrace.load_dump(dump))
        layers.update(
            {
                "model_store.classify_ms_p50": statistics.median(r["latency_ms"] for r in done),
                "serving.overhead_ms_p50": statistics.median(
                    (r["done"] - r["sent"]) * 1000.0 - r["latency_ms"] for r in done
                ),
                "serving.queue_ms_p99": queue[1] if queue else 0.0,
                "serving.generator_lag_ms": lag[1] if lag else 0.0,
                "serving.status_2xx": float(statuses[2]),
                "serving.status_4xx": float(statuses[4]),
                "serving.status_5xx": float(statuses[5]),
                "serving.refused": float(refused),
                "latency.tail_pct": float(reference["tail_pct"]),
                "latency.tail_ms": reference["tail_ms"],
                "latency.samples": float(reference["samples"]),
                "serving.max_qps_at_slo": float(max(passing, default=0)),
                "quality.overall_f": overall_f,
                "trace.overhead_pct": _overhead_pct(base_p50, reference["p50_ms"]),
            }
        )
        layers.update(_process_layers([server], client_cpu))
        outcome.layers = layers
    return outcome


WORKLOADS = {
    "fit-collab": fit_collab,
    "serve-http": serve_http,
    "stream-ingest": stream_ingest,
}
