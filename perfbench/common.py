"""Shared plumbing: run context, statistics, HTTP client, processes."""

from __future__ import annotations

import http.client
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Pool and service worker count; the benchmark host has two cores.
WORKERS = 2


@dataclass
class Context:
    """Everything one benchmark invocation shares across its phases."""

    workload: str
    seed: int
    seconds: float
    work: Path
    tracer: Any = None
    trace_dir: Optional[Path] = None
    #: Operation latencies (s), and each divided by the host probe's
    #: time next to it (``op_cost``).
    latencies: List[float] = field(default_factory=list)
    costs: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: perf_counter bounds of the timed window.
    window: Tuple[float, float] = (0.0, 0.0)
    #: Workload-specific figures for the report and per-layer metrics.
    extra: Dict[str, Any] = field(default_factory=dict)
    probe: "HostProbe" = field(default_factory=lambda: HostProbe())

    def problem(self, message: str) -> None:
        self.problems.append(message)

    def op_id(self, index: int) -> str:
        return f"op-{index}"


class HostProbe:
    """Times a fixed, repo-independent pure-Python kernel (~10 ms).

    The benchmark host is shared: other tenants' load changes the speed
    of all code, by up to 2x, for minutes at a time.  Each operation is
    paired with probe samples taken next to it; the operation's latency
    divided by the probe's time is a cost the host's current speed
    cancels out of (``op_cost``).
    """

    def __init__(self) -> None:
        #: (perf_counter at start, seconds) per sample.
        self.samples: List[Tuple[float, float]] = []

    @staticmethod
    def _kernel() -> int:
        table: Dict[int, int] = {}
        total = 0
        for i in range(30000):
            key = (i * 7919) % 1021
            table[key] = table.get(key, 0) + i
            total += table[key] % 13
        return total

    def sample(self, count: int = 1) -> float:
        """Take ``count`` samples; returns their median."""
        taken = []
        for _ in range(count):
            start = time.perf_counter()
            self._kernel()
            taken.append(time.perf_counter() - start)
            self.samples.append((start, taken[-1]))
        return median(taken)

    def around(self, start: float, end: float, side: int = 3) -> float:
        """Median of the samples taken in ``[start, end]`` plus the
        ``side`` nearest on each side of it."""
        before = [s for t, s in self.samples if t < start][-side:]
        inside = [s for t, s in self.samples if start <= t <= end]
        after = [s for t, s in self.samples if t > end][:side]
        return median(before + inside + after)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def peak_rss_mb() -> float:
    """Larger of this process's and its waited-for children's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env


def cold_start_seconds(runs: int = 3) -> float:
    """Median wall time of ``python -m repro.cli worker --help`` in a
    fresh interpreter: what every service worker pays before its
    first claim."""
    samples = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "worker", "--help"],
            env=child_env(),
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            check=True,
            timeout=60,
        )
        samples.append(time.perf_counter() - start)
    return median(samples)


class Client:
    """HTTP client opening one connection per request, never two at once.

    A kept-alive connection is not used: the service writes a response's
    headers and body as two segments, so on a reused connection each
    response waits out the client's delayed ACK (about 40 ms on Linux).
    """

    def __init__(self, port: int) -> None:
        self.port = port

    def request(
        self, method: str, path: str, body: Any = None
    ) -> Tuple[int, Any]:
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            return response.status, json.loads(response.read().decode() or "null")
        finally:
            conn.close()
