"""``paper-repro``: rounds of E1–E7 plus the ``e3-workflow`` campaign.

One closed-loop client.  A round is every paper experiment through
``repro.experiments.EXPERIMENTS`` and the packaged ``e3-workflow``
campaign on ``CampaignEngine``'s ``process`` backend, all at one seed of
the panel.  The panel is fixed, so every run does the same work and
runs stay comparable (a round costs up to 1.8x more at some seeds than
at others); ``--seed`` sets the order rounds visit the panel in.

Output check: per (experiment, seed), the claim outcomes and the digest
of the rendered output, and the campaign's canonical digest, must be
identical in every round of that seed.  A claim that fails is a result
of the reproduction, not a failed operation: it is reported (and
counted in ``experiments.claims_failed``), while an experiment that
raises, a campaign stage that fails, or a round that disagrees with an
earlier round of its seed is a failed operation.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import random
import shutil
import time
from typing import Any, Dict, List, Tuple

from perfbench.common import WORKERS, Context, median

PANEL = (1, 2, 3, 4)
CAMPAIGN = "e3-workflow"


class PaperRepro:
    name = "paper-repro"

    def prepare(self, ctx: Context) -> None:
        from repro.campaigns.engine import CampaignEngine
        from repro.campaigns.spec import load_campaign
        from repro.experiments import EXPERIMENTS

        self.experiments = EXPERIMENTS
        self.engine_cls = CampaignEngine
        self.campaign = load_campaign(CAMPAIGN)
        self.order = list(PANEL)
        random.Random(ctx.seed).shuffle(self.order)
        #: seed -> the first round's outcome at that seed.
        self.seen: Dict[int, Tuple[Any, ...]] = {}
        self.claims: Dict[Tuple[str, int], List[bool]] = {}
        #: (seed, [(component, start, seconds), ...]) per completed round.
        self.rounds: List[Tuple[int, List[Tuple[str, float, float]]]] = []

    def _round(self, ctx: Context, index: int, seed: int) -> None:
        outcome: List[Any] = []
        #: (component, start, seconds); a host probe precedes each one.
        parts: List[Tuple[str, float, float]] = []
        for eid, run in self.experiments.items():
            ctx.probe.sample()
            start = time.perf_counter()
            with (ctx.tracer.span(f"experiments.{eid}") if ctx.tracer
                  else contextlib.nullcontext()):
                result = run(seed=seed)
            parts.append((eid, start, time.perf_counter() - start))
            passed = [check.passed for check in result.checks]
            self.claims[(eid, seed)] = passed
            rendered = hashlib.sha256(result.render().encode()).hexdigest()
            outcome.append((eid, tuple(passed), rendered))
        state_dir = ctx.work / "campaign" / str(index)
        ctx.probe.sample()
        start = time.perf_counter()
        campaign = self.engine_cls(
            dataclasses.replace(self.campaign, seed=seed),
            state_dir,
            backend="process",
            workers=WORKERS,
        ).run()
        parts.append((CAMPAIGN, start, time.perf_counter() - start))
        shutil.rmtree(state_dir, ignore_errors=True)
        outcome.append((CAMPAIGN, campaign.ok, campaign.canonical_digest()))
        self.rounds.append((seed, parts))
        if not campaign.ok:
            ctx.failed += 1
            ctx.problem(f"round {index}: campaign stages failed at seed {seed}")
        elif self.seen.setdefault(seed, tuple(outcome)) != tuple(outcome):
            ctx.failed += 1
            ctx.problem(
                f"round {index}: output at seed {seed} differs from an "
                "earlier round of the same seed"
            )

    def operate(self, ctx: Context, deadline: float) -> None:
        index = 0
        while time.perf_counter() < deadline:
            seed = self.order[index % len(self.order)]
            if ctx.tracer:
                ctx.tracer.trace_id = ctx.op_id(index)
            ctx.attempted += 1
            try:
                self._round(ctx, index, seed)
            except Exception as exc:  # a raising experiment fails the round
                ctx.failed += 1
                ctx.problem(f"round {index} at seed {seed}: {exc!r}")
            index += 1
        ctx.probe.sample()
        # Cost differs by seed, so a median over all rounds falls in the
        # gap between two seeds' clusters and jumps between them.  A
        # round's cost is the sum, over its experiments and campaign, of
        # each one's median cost at that seed (each paired with the
        # probes around it); seeds are weighed equally.
        per_seed: Dict[int, Dict[str, List[float]]] = {}
        round_s: Dict[int, List[float]] = {}
        for seed, parts in self.rounds:
            costs = per_seed.setdefault(seed, {})
            for name, start, seconds in parts:
                cost = seconds / ctx.probe.around(start, start + seconds, 2)
                costs.setdefault(name, []).append(cost)
            round_s.setdefault(seed, []).append(sum(p[2] for p in parts))
            ctx.latencies.append(round_s[seed][-1])
        ctx.costs = [
            sum(median(c) for c in costs.values()) for costs in per_seed.values()
        ]
        ctx.extra["op_cost"] = sum(ctx.costs) / len(ctx.costs)
        ctx.extra["op_p50_s"] = sum(
            median(seconds) for seconds in round_s.values()
        ) / len(round_s)

    def check(self, ctx: Context) -> None:
        ctx.extra["claims_failed"] = sum(
            passed.count(False) for passed in self.claims.values()
        )
        ctx.extra["claims_total"] = sum(
            len(passed) for passed in self.claims.values()
        )
        ctx.extra["claims_failed_at"] = sorted(
            key for key, passed in self.claims.items() if not all(passed)
        )

    def report(self, ctx: Context) -> List[Tuple[str, Any, str, str]]:
        return [
            ("repro_round_s", ctx.extra["op_p50_s"], "s",
             f"per-seed median, mean over panel {list(PANEL)}; "
             f"n={len(ctx.latencies)} rounds"),
            ("claims_failed", ctx.extra["claims_failed"], "count",
             f"of {ctx.extra['claims_total']} claims; failing "
             f"(experiment, seed): {ctx.extra['claims_failed_at']}"),
        ]

    def teardown(self, ctx: Context) -> None:
        pass
