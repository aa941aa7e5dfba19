"""Span tracing for the benchmark's traced runs.

The traced run wraps the public entry points of each layer of
``repro`` (``Kernel.run``, the backfill ``select``, scenario ``build``
and ``install_*``, strategy ``launch``, ``run_sweep``, the campaign
engine and steps, the result store) from the benchmark's side; the
program itself is not edited.  A span is ``(name, start, end, parent)``
plus a correlation id (``trace_id``: the operation, submission or sweep
pass) and an optional ``item`` (a point key, an experiment id).

Spans are kept in memory.  A pool or service worker process writes its
spans to ``<trace dir>/<pid>.jsonl`` each time its outermost span
closes (pool workers leave through ``os._exit`` and never run
``atexit``); the benchmark process merges those files when it finishes.
``time.perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, so spans from
different processes share one time axis.

Calls that happen thousands of times per simulated point (the
scheduler's ``select``) are *hot*: they are aggregated as a count and a
total instead of one record each, and still charged to the enclosing
span's child time so self times stay exact.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Layer of every span/hot/count name is its prefix before the first dot.
LAYERS = (
    "sim",
    "scheduler",
    "scenarios",
    "strategies",
    "experiments",
    "sweep",
    "campaigns",
    "store",
    "service",
)

#: (pid, seq, parent_seq, name, trace_id, item, start, end, self_s)
Span = Tuple[int, int, int, str, Any, Any, float, float, float]


class Tracer:
    """Thread-aware span recorder; one per process."""

    def __init__(
        self, out_dir: Optional[os.PathLike] = None, flush_top: bool = False
    ) -> None:
        self.out_dir = Path(out_dir) if out_dir is not None else None
        #: Worker mode: write spans out whenever an outermost span ends.
        self.flush_top = flush_top
        self.trace_id: Any = None
        self._reset(os.getpid())

    def _reset(self, pid: int) -> None:
        self.pid = pid
        self.spans: List[Span] = []
        self.hot: Dict[Tuple[str, Any], List[float]] = defaultdict(
            lambda: [0, 0.0]
        )
        self.counts: Counter = Counter()
        self._seq = 0
        self._local = threading.local()
        # Worker heartbeat threads flush concurrently with the main one.
        self._lock = threading.Lock()

    def _stack(self) -> list:
        pid = os.getpid()
        if pid != self.pid:
            # A forked pool worker: drop the parent's copy and write
            # this process's own spans out as they complete.
            self._reset(pid)
            self.flush_top = self.out_dir is not None
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def clear(self) -> None:
        """Forget everything recorded so far (start of a timed window)."""
        self._reset(os.getpid())

    # -- recording -----------------------------------------------------------

    def begin(self, name: str, item: Any = None) -> None:
        stack = self._stack()
        self._seq += 1
        parent = stack[-1][0] if stack else 0
        # [seq, parent, name, item, start, child_seconds]
        stack.append([self._seq, parent, name, item, time.perf_counter(), 0.0])

    def end(self) -> None:
        stack = self._stack()
        seq, parent, name, item, start, child = stack.pop()
        end = time.perf_counter()
        duration = end - start
        if stack:
            stack[-1][5] += duration
        with self._lock:
            self.spans.append(
                (self.pid, seq, parent, name, self.trace_id, item, start,
                 end, duration - child)
            )
        if not stack and self.flush_top:
            self.flush()

    def add_hot(self, name: str, seconds: float) -> None:
        stack = self._stack()
        if stack:
            stack[-1][5] += seconds
        entry = self.hot[(name, self.trace_id)]
        entry[0] += 1
        entry[1] += seconds

    def count(self, name: str, amount: int = 1) -> None:
        self._stack()
        self.counts[(name, self.trace_id)] += amount

    def span(self, name: str, item: Any = None) -> "_SpanContext":
        return _SpanContext(self, name, item)

    # -- output --------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        return {
            "pid": self.pid,
            "spans": list(self.spans),
            "hot": [[n, t, c, s] for (n, t), (c, s) in self.hot.items()],
            "counts": [[n, t, c] for (n, t), c in self.counts.items()],
        }

    def flush(self) -> None:
        """Append this process's records to its span file and forget them."""
        if self.out_dir is None:
            return
        with self._lock:
            if not (self.spans or self.hot or self.counts):
                return
            line = json.dumps(self.snapshot())
            self.spans = []
            self.hot.clear()
            self.counts.clear()
        path = self.out_dir / f"{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")


class _SpanContext:
    __slots__ = ("tracer", "name", "item")

    def __init__(self, tracer: Tracer, name: str, item: Any) -> None:
        self.tracer = tracer
        self.name = name
        self.item = item

    def __enter__(self) -> None:
        self.tracer.begin(self.name, self.item)

    def __exit__(self, *exc_info: Any) -> None:
        self.tracer.end()


def load_records(
    main: Dict[str, Any], trace_dir: Optional[Path], since: float,
    until: float,
) -> Tuple[List[Span], Dict[Tuple[int, str, Any], List[float]], Counter]:
    """The benchmark process's snapshot merged with every worker span
    file.  A worker snapshot whose spans all began outside
    ``[since, until]`` (set-up, warm-up) is skipped with its counts."""
    snapshots = [main]
    if trace_dir is not None and trace_dir.is_dir():
        for path in sorted(trace_dir.glob("*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    snap = json.loads(line)
                    if any(since <= span[6] <= until for span in snap["spans"]):
                        snapshots.append(snap)
    spans: List[Span] = []
    hot: Dict[Tuple[int, str, Any], List[float]] = defaultdict(
        lambda: [0, 0.0]
    )
    counts: Counter = Counter()
    for snap in snapshots:
        spans.extend(tuple(span) for span in snap["spans"])
        for name, trace_id, calls, seconds in snap["hot"]:
            hot[(snap["pid"], name, trace_id)][0] += calls
            hot[(snap["pid"], name, trace_id)][1] += seconds
        for name, trace_id, amount in snap["counts"]:
            counts[(name, trace_id)] += amount
    return spans, hot, counts


# -- wrapping the program's entry points --------------------------------------


def _spanned(tracer: Tracer, fn: Callable, name: str,
             item: Optional[Callable[..., Any]] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        tracer.begin(name, item(*args, **kwargs) if item else None)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end()

    return wrapper


def _hot(tracer: Tracer, fn: Callable, name: str) -> Callable:
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.add_hot(name, clock() - start)

    return wrapper


def _counted(tracer: Tracer, fn: Callable, name: str) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        tracer.count(name)
        return fn(*args, **kwargs)

    return wrapper


def _replace_everywhere(original: Callable, wrapper: Callable) -> None:
    """Rebind ``original`` in every loaded ``repro`` module namespace.

    Covers callers that imported the function by name
    (``from repro.experiments.sweep import run_sweep``) as well as the
    defining module itself.
    """
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        namespace = getattr(module, "__dict__", {})
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, wrapper)


def _store_call(tracer: Tracer, fn: Callable, name: str) -> Callable:
    """A store method span that also charges ``ResultStore.stats`` decode
    counts (``unpickle``, ``json_decode``) to the tracer."""

    @functools.wraps(fn)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        before = (self.stats["unpickle"], self.stats["json_decode"])
        tracer.begin(name)
        try:
            result = fn(self, *args, **kwargs)
        finally:
            tracer.end()
            unpickle = self.stats["unpickle"] - before[0]
            decode = self.stats["json_decode"] - before[1]
            if unpickle:
                tracer.count("store.unpickle", unpickle)
            if decode:
                tracer.count("store.json_decode", decode)
        if name == "store.lookup":
            tracer.count("store.lookups")
            if result[0]:
                tracer.count("store.hits")
        return result

    return wrapper


#: ResultStore methods traced, by span name.
STORE_METHODS = {
    "store_point": "store.commit",
    "load_point": "store.lookup",
    "record_outcome": "store.outcome",
    "load_outcomes": "store.load_outcomes",
    "finalize_sweep": "store.finalize",
    "read_column": "store.column_read",
    "results_rows": "store.results_rows",
    "submit": "store.submit",
    "claim_next_submission": "store.claim",
    "heartbeat_submission": "store.heartbeat",
    "release_submission": "store.release",
}


def install(tracer: Tracer, worker: bool = False) -> None:
    """Wrap each layer's entry points so calls record spans on ``tracer``.

    ``worker=True`` (service workers) also tags every span with the
    experiment id of the sweep being executed, the only per-submission
    identity a worker sees.
    """
    # Import everything first so by-name imports exist to be rebound.
    # (importlib, not ``import a.b as x``: packages re-export functions
    # under their modules' names, e.g. ``repro.scenarios.build``.)
    import importlib

    import repro.experiments  # noqa: F401 - loads every figure module
    import repro.strategies  # noqa: F401
    from repro.strategies.base import IntegrationStrategy

    module = importlib.import_module
    campaign_engine = module("repro.campaigns.engine")
    campaign_steps = module("repro.campaigns.steps")
    sweep = module("repro.experiments.sweep")
    scenario_build = module("repro.scenarios.build")
    scenario_sweeps = module("repro.scenarios.sweeps")
    backfill = module("repro.scheduler.backfill")
    scheduler = module("repro.scheduler.scheduler")
    kernel = module("repro.sim.kernel")
    store_api = module("repro.store.api")

    if getattr(kernel.Kernel.run, "__wrapped__", None) is not None:
        return  # already installed in this process

    kernel.Kernel.run = _spanned(tracer, kernel.Kernel.run, "sim.run")
    for cls in (
        backfill.FIFOPolicy,
        backfill.EasyBackfillPolicy,
        backfill.ConservativeBackfillPolicy,
    ):
        cls.select = _hot(tracer, cls.__dict__["select"], "scheduler.select")
    scheduler.BatchScheduler._finalise = _counted(
        tracer, scheduler.BatchScheduler._finalise, "sim.jobs"
    )

    for attr in ("build", "install_faults", "install_background",
                 "install_trace"):
        original = getattr(scenario_build, attr)
        name = "scenarios.build" if attr == "build" else "scenarios.install"
        _replace_everywhere(original, _spanned(tracer, original, name))
    # functools.wraps keeps __module__/__qualname__, so the wrapper
    # pickles to pool workers by reference and keeps the runner name
    # (and hence every store key) of the original.
    point = scenario_sweeps.run_scenario_point
    _replace_everywhere(
        point,
        _spanned(tracer, point, "scenarios.point",
                 item=lambda params, seed: f"{sorted(params.items())}:{seed}"),
    )

    pending = list(IntegrationStrategy.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "launch" in cls.__dict__:
            cls.launch = _spanned(tracer, cls.__dict__["launch"],
                                  "strategies.launch")

    original_run_sweep = sweep.run_sweep

    @functools.wraps(original_run_sweep)
    def run_sweep(spec: Any, runner: Any, *args: Any, **kwargs: Any) -> Any:
        if worker:
            tracer.trace_id = spec.experiment_id
        workers = kwargs.get("workers", args[0] if args else None)
        tracer.begin("sweep.run", sweep.resolve_workers(workers))
        try:
            return original_run_sweep(spec, runner, *args, **kwargs)
        finally:
            tracer.end()

    _replace_everywhere(original_run_sweep, run_sweep)

    campaign_engine.CampaignEngine.run = _spanned(
        tracer, campaign_engine.CampaignEngine.run, "campaigns.run"
    )
    original_get = campaign_steps.StepRegistry.get

    def get(self: Any, name: str) -> Callable:
        return _spanned(tracer, original_get(self, name), "campaigns.step",
                        item=lambda ctx: ctx.stage)

    campaign_steps.StepRegistry.get = get

    for method, name in STORE_METHODS.items():
        setattr(
            store_api.ResultStore,
            method,
            _store_call(tracer, getattr(store_api.ResultStore, method), name),
        )


def calibrate(rounds: int = 20000) -> Tuple[float, float]:
    """Seconds one recorded span and one hot call cost, on this host."""

    def noop() -> None:
        return None

    best_span = best_hot = float("inf")
    for _ in range(3):
        tracer = Tracer()
        spanned = _spanned(tracer, noop, "calibrate.span")
        hot = _hot(tracer, noop, "calibrate.hot")
        start = time.perf_counter()
        for _ in range(rounds):
            noop()
        base = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(rounds):
            spanned()
        best_span = min(best_span, (time.perf_counter() - start - base) / rounds)
        start = time.perf_counter()
        for _ in range(rounds):
            hot()
        best_hot = min(best_hot, (time.perf_counter() - start - base) / rounds)
    return max(best_span, 0.0), max(best_hot, 0.0)


# -- analysis -----------------------------------------------------------------


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def union_seconds(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(
    spans: List[Span],
    hot: Dict[Tuple[int, str, Any], List[float]],
    main_pid: int,
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer self seconds: (benchmark process, worker processes)."""
    main: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    workers: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        side = main if span[0] == main_pid else workers
        layer = layer_of(span[3])
        side[layer] = side.get(layer, 0.0) + span[8]
    for (pid, name, _trace_id), (_calls, seconds) in hot.items():
        side = main if pid == main_pid else workers
        layer = layer_of(name)
        side[layer] = side.get(layer, 0.0) + seconds
    return main, workers
