"""``service-openloop``: preset sweeps submitted to ``repro-hpcqc serve``
on a fixed open-loop schedule.

Set-up starts ``repro-hpcqc serve --port 0 --workers 2`` on a fresh
store and waits until one warm-up submission is ``done``.  The
generator then sends ``POST /submissions`` at ``RATE`` per second; the
schedule (send times, presets, seeds, which submissions repeat an
earlier spec) is fixed by ``--seed`` and does not depend on how fast
the service answers.  Each submission is two points at a short horizon
over one of four presets; about a quarter repeat an earlier spec and
are served from the store without simulating.  For each submission the
generator polls ``GET /submissions/<id>`` and then fetches
``/results``; latency runs from the submission's *due* time, so a
stalled generator or service charges every request behind it.  One
HTTP connection, one thread.

A run whose generator fell behind its schedule by more than
``MAX_LAG_S``, or whose backlog kept growing, is reported as invalid
(``correct: false``), not as fast.

Output checks: sampled ``/results`` tables equal an in-process
recompute with ``run_scenario_point``; a repeated spec returns the same
table as its original.
"""

from __future__ import annotations

import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from perfbench.common import (
    ROOT,
    WORKERS,
    Client,
    Context,
    child_env,
    median,
    percentile,
)
from perfbench.tracehooks import TRACE_DIR_ENV

PRESETS = ("baseline-32", "trace-replay", "failure-storm", "multitenant-vqpu")
RATE = 8.0
HORIZON = 1800.0
REPLICATIONS = 2
REPEAT_SHARE = 0.25
#: A repeat copies a spec at least this many slots older (about 2 s),
#: so its original has committed and the repeat is a pure store hit.
REPEAT_MIN_AGE = 12
#: Generator status-poll period per outstanding submission.
POLL_S = 0.02
#: Idle workers' claim cadence.  At the default 0.5 s, half the
#: latency is a worker's sleep, a constant the host's speed does not
#: scale and ``op_cost`` would over-correct; at 0.05 s the latency is
#: the service's own work (HTTP, claim, simulate, commit, finalize).
WORKER_POLL_S = 0.05
MAX_LAG_S = 0.5
#: Host-probe cadence in the generator's idle time.
PROBE_EVERY_S = 0.1
#: Submissions whose results are recomputed in-process.
SAMPLED_SPECS = 3
HOOK_RUNNER = "perfbench.tracehooks:run_scenario_point"
#: Columns fetched from ``/results``, as a client plotting a sweep asks
#: for them.  (Each column read also commits a ``last_read_at`` update,
#: so the full table costs one write transaction per metric.)
RESULT_METRICS = "finished_jobs,queue_depth,utilisation_classical"


@dataclass
class Submission:
    slot: int
    spec_index: int
    due: float
    sid: Optional[int] = None
    posted: float = 0.0
    running_seen: Optional[float] = None
    done_seen: Optional[float] = None
    finished: Optional[float] = None
    next_poll: float = 0.0
    rows: Any = None


class ServiceOpenLoop:
    name = "service-openloop"

    def prepare(self, ctx: Context) -> None:
        from repro.scenarios import get_scenario

        self.nodes = {
            preset: get_scenario(preset).topology.classical_nodes
            for preset in PRESETS
        }
        env = child_env()
        if ctx.trace_dir is not None:
            env[TRACE_DIR_ENV] = str(ctx.trace_dir)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--store", str(ctx.work / "service"),
             "--port", "0", "--workers", str(WORKERS),
             "--poll-interval", str(WORKER_POLL_S)],
            stdout=subprocess.PIPE,
            env=env,
            cwd=ROOT,
            text=True,
        )
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            raise RuntimeError(f"serve did not start: {line!r}")
        self.client = Client(int(line.rsplit(":", 1)[1].strip().rstrip("/")))
        self._build_schedule(ctx)
        warmup = self._payload(ctx, -1)
        status, record = self.client.request("POST", "/submissions", warmup)
        if status != 201:
            raise RuntimeError(f"warm-up submission refused: {record}")
        deadline = time.perf_counter() + 120
        while record["state"] not in ("done", "failed"):
            if time.perf_counter() > deadline:
                raise RuntimeError("warm-up submission never finished")
            time.sleep(POLL_S)
            status, record = self.client.request(
                "GET", f"/submissions/{record['id']}"
            )
        if record["state"] != "done":
            raise RuntimeError(f"warm-up submission failed: {record}")

    # -- the schedule --------------------------------------------------------

    def _build_schedule(self, ctx: Context) -> None:
        rng = random.Random(ctx.seed)
        #: Distinct specs: (preset, seed).  Index -1 is the warm-up.
        self.specs: Dict[int, Tuple[str, int]] = {
            -1: (PRESETS[0], rng.randrange(10**6))
        }
        self.schedule: List[Submission] = []
        count = max(1, int(ctx.seconds * RATE))
        for slot in range(count):
            due = (slot + 0.5 + rng.uniform(-0.25, 0.25)) / RATE
            if slot >= REPEAT_MIN_AGE and rng.random() < REPEAT_SHARE:
                spec_index = self.schedule[
                    rng.randrange(slot - REPEAT_MIN_AGE + 1)
                ].spec_index
            else:
                spec_index = len(self.specs) - 1
                self.specs[spec_index] = (
                    rng.choice(PRESETS), rng.randrange(10**6)
                )
            self.schedule.append(Submission(slot, spec_index, due))

    def _spec(self, ctx: Context, spec_index: int) -> Any:
        """The sweep a submission asks for, as the service builds it.

        Point seeds derive from the experiment id.  Preset submissions
        get the service's default id; traced ones carry one id per
        distinct spec, so worker spans group by submission.
        """
        from repro.scenarios.sweeps import scenario_sweep_spec

        preset, seed = self.specs[spec_index]
        return scenario_sweep_spec(
            preset,
            {"topology.classical_nodes": [self.nodes[preset]]},
            experiment_id=(
                f"scenario:{preset}:{spec_index}" if ctx.trace_dir else None
            ),
            base_seed=seed,
            replications=REPLICATIONS,
            run_horizon=HORIZON,
        )

    def _payload(self, ctx: Context, spec_index: int) -> Dict[str, Any]:
        preset, seed = self.specs[spec_index]
        if ctx.trace_dir is not None:
            # Traced: the same sweep as a raw spec whose runner installs
            # the span wrappers in the worker that imports it.
            return {
                "name": f"spec-{spec_index}",
                "spec": self._spec(ctx, spec_index).to_dict(),
                "runner": HOOK_RUNNER,
            }
        return {
            "name": f"spec-{spec_index}",
            "preset": preset,
            "axes": {"topology.classical_nodes": [self.nodes[preset]]},
            "seed": seed,
            "replications": REPLICATIONS,
            "horizon": HORIZON,
        }

    # -- the generator -------------------------------------------------------

    def _call(self, ctx: Context, span: str, trace_id: Any, method: str,
              path: str, body: Any = None) -> Tuple[int, Any]:
        if ctx.tracer:
            ctx.tracer.trace_id = trace_id
            with ctx.tracer.span(span):
                status, payload = self.client.request(method, path, body)
        else:
            status, payload = self.client.request(method, path, body)
        if not 200 <= status < 300:
            ctx.extra["http_errors"] = ctx.extra.get("http_errors", 0) + 1
        return status, payload

    def operate(self, ctx: Context, deadline: float) -> None:
        clock = time.perf_counter
        start = clock()
        for sub in self.schedule:
            sub.due += start
        pending = list(self.schedule)
        outstanding: List[Submission] = []
        lags: List[float] = []
        backlog: List[int] = []
        give_up = start + ctx.seconds + 120
        last_probe = start
        while pending or outstanding:
            now = clock()
            if now > give_up:
                ctx.problem(f"{len(outstanding) + len(pending)} submissions "
                            "unfinished at the time limit")
                ctx.failed += len(outstanding) + len(pending)
                ctx.attempted += len(pending)
                break
            if pending and pending[0].due <= now:
                sub = pending.pop(0)
                ctx.attempted += 1
                sub.posted = clock()
                lags.append(sub.posted - sub.due)
                backlog.append(len(outstanding))
                status, record = self._call(
                    ctx, "service.post", sub.spec_index, "POST",
                    "/submissions", self._payload(ctx, sub.spec_index),
                )
                if status != 201:
                    ctx.failed += 1
                    continue
                sub.sid = record["id"]
                sub.next_poll = clock() + POLL_S
                outstanding.append(sub)
                continue
            sub = min(outstanding, key=lambda s: s.next_poll, default=None)
            wake = min(
                pending[0].due if pending else float("inf"),
                sub.next_poll if sub else float("inf"),
            )
            if wake > now:
                if wake - now > 0.01 and now - last_probe > PROBE_EVERY_S:
                    ctx.probe.sample()
                    last_probe = clock()
                    continue
                time.sleep(wake - now)
                continue
            status, record = self._call(
                ctx, "service.status", sub.spec_index, "GET",
                f"/submissions/{sub.sid}",
            )
            seen = clock()
            state = record.get("state") if status == 200 else None
            if state == "running" and sub.running_seen is None:
                sub.running_seen = seen
            if state == "done":
                sub.done_seen = seen
                status, table = self._call(
                    ctx, "service.results", sub.spec_index, "GET",
                    f"/submissions/{sub.sid}/results?metrics={RESULT_METRICS}",
                )
                sub.finished = clock()
                outstanding.remove(sub)
                if status != 200:
                    ctx.failed += 1
                    continue
                sub.rows = (table["headers"], table["rows"])
                ctx.latencies.append(sub.finished - sub.due)
            elif state == "failed" or status != 200:
                ctx.failed += 1
                outstanding.remove(sub)
                ctx.problem(f"submission {sub.sid} failed: {record}")
            else:
                sub.next_poll = seen + POLL_S
        done = [sub for sub in self.schedule if sub.finished is not None]
        ctx.costs = [
            (s.finished - s.due) / ctx.probe.around(s.due, s.finished)
            for s in done
        ]
        ctx.extra["op_p50_s"] = median(ctx.latencies)
        ctx.extra["op_cost"] = median(ctx.costs)
        ctx.extra["submissions_per_s"] = len(done) / (clock() - start)
        ctx.extra["lag_max_s"] = max(lags, default=0.0)
        ctx.extra["queue_wait_s"] = [
            s.running_seen - s.posted for s in done if s.running_seen
        ]
        ctx.extra["execute_s"] = [
            s.done_seen - s.running_seen for s in done if s.running_seen
        ]
        ctx.extra["p90_s"] = percentile(ctx.latencies, 90)
        self._judge_generator(ctx, lags, backlog)

    def _judge_generator(self, ctx: Context, lags: List[float],
                         backlog: List[int]) -> None:
        if max(lags, default=0.0) > MAX_LAG_S:
            ctx.problem(f"invalid run: generator fell {max(lags):.3f} s "
                        f"behind schedule (limit {MAX_LAG_S} s)")
        third = len(backlog) // 3
        if third:
            first = sum(backlog[:third]) / third
            last = sum(backlog[-third:]) / third
            if last > 2 * first + 2:
                ctx.problem(f"invalid run: backlog grew from {first:.1f} to "
                            f"{last:.1f} outstanding submissions")

    # -- checks --------------------------------------------------------------

    def check(self, ctx: Context) -> None:
        from repro.scenarios import sweeps

        done = [sub for sub in self.schedule if sub.rows is not None]
        first: Dict[int, Any] = {}
        for sub in done:
            rows = first.setdefault(sub.spec_index, sub.rows)
            if rows != sub.rows:
                ctx.failed += 1
                ctx.problem(f"repeat of spec {sub.spec_index} returned "
                            "a different table")
        rng = random.Random(ctx.seed)
        for spec_index in rng.sample(sorted(first), min(SAMPLED_SPECS, len(first))):
            ctx.attempted += 1
            headers, rows = first[spec_index]
            points = self._spec(ctx, spec_index).points()
            for point, row in zip(points, rows):
                fresh = sweeps.run_scenario_point(dict(point.params), point.seed)
                wrong = [m for m, v in zip(headers[2:], row[2:])
                         if not _same(fresh.get(m), v)]
                if wrong or len(rows) != len(points):
                    ctx.failed += 1
                    ctx.problem(f"spec {spec_index}: /results row "
                                f"{point.index} differs from a recompute "
                                f"in {wrong}")
                    break

    def report(self, ctx: Context) -> List[Tuple[str, Any, str, str]]:
        n = len(ctx.latencies)
        return [
            ("submit_to_results_p50_s", ctx.extra["op_p50_s"], "s",
             f"n={n} at {RATE:g}/s open loop, from due time"),
            ("submit_to_results_p90_s", ctx.extra["p90_s"], "s",
             f"n={n}, {n - int(0.9 * n)} samples beyond p90"),
            ("submissions_per_s", ctx.extra["submissions_per_s"], "1/s",
             f"{len(self.schedule)} scheduled"),
            ("queue_wait_p50_s", median(ctx.extra["queue_wait_s"]), "s",
             f"POST to first observed running, n={len(ctx.extra['queue_wait_s'])}"),
            ("generator_lag_max_s", ctx.extra["lag_max_s"], "s",
             f"limit {MAX_LAG_S} s"),
        ]

    def teardown(self, ctx: Context) -> None:
        proc = getattr(self, "proc", None)
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def _same(a: Any, b: Any) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        try:
            fa, fb = float(a), float(b)
        except (TypeError, ValueError):
            return False
        return fa == fb or (fa != fa and fb != fb)
    return a == b
