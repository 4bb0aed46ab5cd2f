"""Child processes of the benchmark: isolation, teardown and resource use.

Every measured repetition runs in a fresh interpreter started here, in
its own session so that its whole process tree (realnet peers, the
multiprocessing resource tracker) can be reaped as a group.  A
background sampler reads each tree's peak resident set size from
``/proc`` while the children run, and CPU time comes from the
``RUSAGE_CHILDREN`` delta once a child has been reaped.
"""

from __future__ import annotations

import os
import resource
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

#: How long a finished child's process group may linger before it counts
#: as a leak (the resource tracker exits shortly after its parent).
LEAK_GRACE_S = 3.0


def child_env(root: str, workdir: str, hash_seed: int) -> Dict[str, str]:
    """Environment of a child: the program from ``src``, temp files in *workdir*.

    String hashing is seeded from the workload seed: the streaming path
    depends on set iteration order when chunks are built separately, so
    repeats are only comparable under one hash seed.
    """
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed % 4294967296)
    source = os.path.join(root, "src")
    env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = workdir
    return env


def free_port() -> int:
    """An ephemeral localhost TCP port that is free right now."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def cpu_seconds_of_children() -> float:
    """User + system CPU seconds of every reaped descendant so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def cpu_seconds_of_self() -> float:
    """User + system CPU seconds of this process so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


# --------------------------------------------------------------------------- #
# Peak RSS, read from outside
# --------------------------------------------------------------------------- #
def _children_of(pid: int) -> List[int]:
    found: List[int] = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children", "r") as handle:
                found.extend(int(child) for child in handle.read().split())
    except (OSError, ValueError):
        pass
    return found


def _high_water_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", "r") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


class RssSampler:
    """Polls the peak RSS (``VmHWM``) of every process under watched roots."""

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self._roots: Dict[int, Set[int]] = {}
        self._peaks: Dict[int, int] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="rss-sampler", daemon=True)
        self._thread.start()

    def watch(self, pid: int) -> None:
        """Start sampling the process tree rooted at *pid*."""
        with self._lock:
            self._roots[pid] = {pid}
        self._sample(pid)

    def peak_mb(self, pid: int) -> float:
        """Sum of the peak RSS of every process seen under root *pid*."""
        with self._lock:
            members = set(self._roots.get(pid, ()))
            return sum(self._peaks.get(member, 0) for member in members) / 1024.0

    def forget(self, pid: int) -> None:
        """Stop sampling the tree rooted at *pid*."""
        with self._lock:
            self._roots.pop(pid, None)

    def _sample(self, root: int) -> None:
        pending = [root]
        seen: Set[int] = set()
        while pending:
            pid = pending.pop()
            if pid in seen:
                continue
            seen.add(pid)
            peak = _high_water_kb(pid)
            with self._lock:
                if root not in self._roots:
                    return
                self._roots[root].add(pid)
                if peak > self._peaks.get(pid, 0):
                    self._peaks[pid] = peak
            pending.extend(_children_of(pid))

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            with self._lock:
                roots = list(self._roots)
            for root in roots:
                self._sample(root)

    def close(self) -> None:
        """Stop the sampling thread."""
        self._stop.set()
        self._thread.join(timeout=5.0)


# --------------------------------------------------------------------------- #
# Children
# --------------------------------------------------------------------------- #
def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def reap_group(pgid: int, grace: float = LEAK_GRACE_S) -> bool:
    """Wait up to *grace* for group *pgid* to empty, then kill it.

    Returns True when something had to be killed: a leaked process.
    """
    deadline = time.monotonic() + grace
    while time.monotonic() < deadline:
        if not _group_alive(pgid):
            return False
        time.sleep(0.02)
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return False
    deadline = time.monotonic() + 5.0
    while _group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.02)
    return True


@dataclass
class Child:
    """One started child process and its accounting."""

    process: subprocess.Popen
    started: float
    log_path: str
    cpu_before: float
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    returncode: Optional[int] = None
    leaked: bool = False
    timed_out: bool = False

    @property
    def ok(self) -> bool:
        """Exited 0, in time, and left no process behind."""
        return self.returncode == 0 and not self.leaked and not self.timed_out

    def log_tail(self, lines: int = 15) -> str:
        """The last *lines* lines of the child's combined output."""
        try:
            with open(self.log_path, "r", encoding="utf-8", errors="replace") as handle:
                return "".join(handle.readlines()[-lines:])
        except OSError:
            return ""


class Children:
    """Starts, waits for and reaps the benchmark's child processes."""

    def __init__(self, root: str, workdir: str, hash_seed: int) -> None:
        self.root = root
        self.workdir = workdir
        self.hash_seed = hash_seed
        self.sampler = RssSampler()
        self._live: List[Child] = []
        self._count = 0

    def start(self, argv: List[str]) -> Child:
        """Start ``python3 <argv>`` from the checkout root in a new session."""
        self._count += 1
        log_path = os.path.join(self.workdir, f"child-{self._count}.log")
        with open(log_path, "wb") as log:
            process = subprocess.Popen(
                [sys.executable] + argv,
                cwd=self.root,
                env=child_env(self.root, self.workdir, self.hash_seed),
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        child = Child(process, time.perf_counter(), log_path, cpu_seconds_of_children())
        self.sampler.watch(process.pid)
        self._live.append(child)
        return child

    def wait(self, child: Child, timeout: float) -> Child:
        """Wait for *child* (killing its group on timeout) and reap its tree."""
        try:
            child.returncode = child.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            child.timed_out = True
            self._kill(child)
        child.wall_s = time.perf_counter() - child.started
        child.cpu_s = cpu_seconds_of_children() - child.cpu_before
        child.peak_rss_mb = self.sampler.peak_mb(child.process.pid)
        self.sampler.forget(child.process.pid)
        child.leaked = reap_group(child.process.pid) and not child.timed_out
        if child in self._live:
            self._live.remove(child)
        return child

    def run(self, argv: List[str], timeout: float) -> Child:
        """Start *argv* and wait for it."""
        return self.wait(self.start(argv), timeout)

    def terminate(self, child: Child, timeout: float = 30.0) -> Child:
        """SIGTERM *child* (a graceful drain for servers), then wait for it."""
        if child.process.poll() is None:
            try:
                child.process.send_signal(signal.SIGTERM)
            except ProcessLookupError:
                pass
        return self.wait(child, timeout)

    def _kill(self, child: Child) -> None:
        try:
            os.killpg(child.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            child.returncode = child.process.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            pass

    def close(self) -> None:
        """Kill and reap whatever is still running (failure paths)."""
        for child in list(self._live):
            self._kill(child)
            reap_group(child.process.pid, grace=0.0)
            self._live.remove(child)
        self.sampler.close()
