"""The repository benchmark: one command, three workloads, one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fit-collab --seed 1 --seconds 30 --trace 0

``--workload`` is one of the names in ``BENCHMARK.json``.  The inputs
are generated from ``--seed``; the run measures for about ``--seconds``
seconds, checks the program's outputs, prints the figures it measured
with their units, and ends with one JSON line: ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The exit code is 0 only when every check passed.

Scratch files live under ``.perfbench/`` in the checkout; traced runs
keep their spans in ``.perfbench/traces`` and every run keeps its full
record in ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import traceback
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STATE_DIR = os.path.join(ROOT, ".perfbench")


def load_spec(root: str = ROOT) -> Dict[str, object]:
    """The benchmark definition, ``BENCHMARK.json`` at the checkout root."""
    with open(os.path.join(root, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def declared(spec: Dict[str, object], section: str) -> Dict[str, str]:
    """``{metric name: unit}`` of one section of the definition."""
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def validate_metrics(
    produced: Dict[str, float], names: Dict[str, str], fill_missing: bool
) -> Dict[str, Dict[str, object]]:
    """Check *produced* against the declared *names*; returns the JSON block.

    Undeclared names are always an error.  Missing names are an error
    too, unless *fill_missing* (per-layer metrics of layers a workload
    never touches read 0).
    """
    unknown = sorted(set(produced) - set(names))
    if unknown:
        raise ValueError(f"metrics not declared in BENCHMARK.json: {unknown}")
    missing = sorted(set(names) - set(produced))
    if missing and not fill_missing:
        raise ValueError(f"declared metrics not measured: {missing}")
    return {
        name: {"value": float(produced.get(name, 0.0)), "unit": unit}
        for name, unit in names.items()
    }


def environment(seed: int, workload: str) -> Dict[str, object]:
    """The environment a result was measured in."""
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True)):
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python_hash_seed": seed % 4294967296,
    }


def main(argv: List[str] = None) -> int:
    """Run one workload; print its figures and the final JSON line."""
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    spec = load_spec()
    workloads = [entry["name"] for entry in spec["workloads"]]
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; choose from {workloads}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from pbproc import Children
    from workloads import WORKLOADS, Context

    workdir = os.path.join(STATE_DIR, f"work-{os.getpid()}")
    trace_dir = os.path.join(STATE_DIR, "traces")
    results_dir = os.path.join(STATE_DIR, "results")
    for directory in (workdir, trace_dir, results_dir):
        os.makedirs(directory, exist_ok=True)
    children = Children(ROOT, workdir, args.seed)
    context = Context(
        workdir=workdir,
        trace_dir=trace_dir,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        children=children,
    )
    try:
        outcome = WORKLOADS[args.workload](context)
    except Exception:  # noqa: BLE001 - report, clean up, fail the run
        traceback.print_exc()
        return 1
    finally:
        children.close()
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args.seed, args.workload)
    fail_ratio = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("env: " + json.dumps(env, sort_keys=True))
    for note in outcome.notes:
        if note:
            print(note)
    for name, value in sorted(outcome.e2e.items()):
        unit = declared(spec, "end_to_end").get(name, "")
        print(f"{name}: {value:.6g} {unit}")
    print(f"fail_ratio: {fail_ratio:.6g} ratio ({outcome.failed} of {outcome.attempted})")
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    try:
        if args.trace:
            layers = dict(outcome.layers, fail_ratio=fail_ratio)
            for name, value in sorted(layers.items()):
                print(f"  {name} = {value:.6g}")
            metrics = validate_metrics(layers, declared(spec, "per_layer"), fill_missing=True)
        else:
            metrics = validate_metrics(
                outcome.e2e, declared(spec, "end_to_end"), fill_missing=False
            )
    except ValueError as error:
        print(f"cannot report: {error}", file=sys.stderr)
        return 1
    correct = outcome.failed == 0 and outcome.attempted > 0
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    record_path = os.path.join(
        results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(dict(result, env=env, notes=outcome.notes, problems=outcome.problems), handle)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
