"""Command-line interface: run experiments and print their tables.

Usage::

    repro-hpcqc list
    repro-hpcqc run E1 E4            # specific experiments
    repro-hpcqc run all --seed 7     # everything
    repro-hpcqc run all --markdown   # EXPERIMENTS.md-style output
    repro-hpcqc sweep all --workers 4 --cache-dir .sweep-cache
    repro-hpcqc sweep E4 --retries 2 --timeout 300 --on-error collect
    repro-hpcqc sweep E3 --cache-dir .sweep-cache --resume
    repro-hpcqc scenario list
    repro-hpcqc scenario describe mixed-fleet   # JSON + device table
    repro-hpcqc scenario run --preset baseline-32 --seed 7
    repro-hpcqc scenario run --json my_facility.json --horizon 7200
    repro-hpcqc store submit .store --preset baseline-32 \\
        --axis workload.background_rho=0.5,0.7 --defer
    repro-hpcqc serve --store .store --port 8351 --workers 2
    repro-hpcqc worker --store .store --until-drained
    repro-hpcqc fleet policies
    repro-hpcqc trace info sample-32n.swf
    repro-hpcqc trace replay my_site.swf --time-scale 0.5 --loop
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import List, Optional

from repro._version import __version__
from repro.experiments import EXPERIMENTS
from repro.experiments.sweep import resolve_workers


def _keep_days(text: str) -> float:
    """``store gc --keep-days``: a finite number of days >= 0."""
    try:
        days = float(text)
    except ValueError:
        days = math.nan
    if not 0 <= days < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a finite number of days >= 0, got {text!r}"
        )
    return days


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-hpcqc",
        description=(
            "Hybrid HPC-QC scheduling simulator - experiment runner "
            "(reproduction of Viviani et al., DSN 2025)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser("list", help="list available experiments")

    run_parser = subparsers.add_parser("run", help="run experiments")
    sweep_parser = subparsers.add_parser(
        "sweep",
        help=(
            "run experiments through the parallel sweep engine "
            "(process-pool workers + optional on-disk result cache)"
        ),
    )
    # Both verbs run the one registry: same ids, seed and output.
    for verb_parser in (run_parser, sweep_parser):
        verb_parser.add_argument(
            "experiments",
            nargs="+",
            help="experiment ids (e.g. E1 E4) or 'all'",
        )
        verb_parser.add_argument(
            "--seed", type=int, default=0, help="root RNG seed (default 0)"
        )
        verb_parser.add_argument(
            "--markdown",
            action="store_true",
            help="render results as markdown instead of plain tables",
        )
    run_parser.add_argument(
        "--profile",
        metavar="OUT.pstats",
        default=None,
        help=(
            "profile the run with cProfile and dump pstats data to "
            "OUT.pstats (inspect with 'python -m pstats' or snakeviz); "
            "REPRO_PROFILE=1 enables the same with a default output "
            "path, REPRO_PROFILE=<path> picks the path"
        ),
    )

    sweep_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker processes per sweep (default: $REPRO_SWEEP_WORKERS "
            "or 1 = serial; results are byte-identical either way)"
        ),
    )
    sweep_parser.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "result store directory caching point values (default: "
            "$REPRO_SWEEP_CACHE_DIR or no cache); re-runs only "
            "simulate new grid points"
        ),
    )
    sweep_parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help=(
            "extra attempts a failing grid point gets before its "
            "failure is terminal (default 0)"
        ),
    )
    sweep_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help=(
            "per-point wall-clock timeout in seconds; a hung point's "
            "worker is killed and the point retried or recorded as "
            "timed_out (default: no timeout)"
        ),
    )
    sweep_parser.add_argument(
        "--on-error",
        choices=["raise", "collect"],
        default="raise",
        help=(
            "'raise' aborts on the first terminal point failure; "
            "'collect' records it, keeps sweeping, prints a failure "
            "summary and exits non-zero (default: raise)"
        ),
    )
    sweep_parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume from the cache store's run journal: skip "
            "points already completed or permanently failed in a "
            "previous (possibly killed) run; requires --cache-dir or "
            "$REPRO_SWEEP_CACHE_DIR"
        ),
    )
    sweep_parser.add_argument(
        "--chaos",
        default=None,
        metavar="JSON",
        help=(
            "deterministic fault injection for exercising the "
            "recovery paths, as a ChaosSpec JSON object, e.g. "
            "'{\"seed\": 7, \"raise_rate\": 0.25}' (see "
            "docs/resilience.md)"
        ),
    )

    scenario_parser = subparsers.add_parser(
        "scenario",
        help=(
            "work with declarative facility scenarios "
            "(named presets or JSON files)"
        ),
    )
    scenario_sub = scenario_parser.add_subparsers(dest="scenario_command")
    scenario_sub.add_parser("list", help="list registered scenario presets")
    describe_parser = scenario_sub.add_parser(
        "describe", help="print one preset as JSON"
    )
    describe_parser.add_argument("name", help="preset name")
    scenario_run = scenario_sub.add_parser(
        "run",
        help=(
            "build a scenario, inject its workload and faults, drive "
            "it to the horizon and print facility metrics"
        ),
    )
    source = scenario_run.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", help="registered preset name")
    source.add_argument(
        "--json",
        dest="json_path",
        help="path to a ScenarioSpec JSON file",
    )
    scenario_run.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the scenario's root seed",
    )
    scenario_run.add_argument(
        "--horizon",
        type=float,
        default=None,
        help=(
            "simulated seconds to run (default: the scenario's "
            "workload horizon)"
        ),
    )

    campaign_parser = subparsers.add_parser(
        "campaign",
        help=(
            "run declarative multi-stage campaign DAGs with per-stage "
            "retries, durable resume and pluggable backends"
        ),
    )
    campaign_sub = campaign_parser.add_subparsers(dest="campaign_command")
    campaign_sub.add_parser(
        "list", help="list the campaign specs shipped with the package"
    )
    campaign_describe = campaign_sub.add_parser(
        "describe",
        help="print one campaign spec as JSON plus its stage order",
    )
    campaign_describe.add_argument(
        "spec", help="spec path (.toml/.json) or packaged campaign name"
    )
    for verb, help_text in (
        ("run", "execute a campaign from scratch (truncates its journal)"),
        ("resume", "continue a campaign from its stage journal"),
    ):
        campaign_exec = campaign_sub.add_parser(verb, help=help_text)
        campaign_exec.add_argument(
            "spec",
            help="spec path (.toml/.json) or packaged campaign name",
        )
        campaign_exec.add_argument(
            "--state-dir",
            required=True,
            help=(
                "result store directory for the campaign's durable state "
                "(stage journal, stage values, sweep stores); reuse it "
                "to resume"
            ),
        )
        campaign_exec.add_argument(
            "--backend",
            default="serial",
            help=(
                "execution backend: 'serial' (default) or 'process' "
                "(independent DAG branches in a worker pool); values "
                "are byte-identical either way"
            ),
        )
        campaign_exec.add_argument(
            "--workers",
            type=int,
            default=None,
            help=(
                "worker budget, at least 1 (default 1): 'process' runs "
                "that many stages at once, one process each; 'serial' "
                "runs one stage at a time and gives its sweep all of "
                "them"
            ),
        )
        campaign_exec.add_argument(
            "--seed",
            type=int,
            default=None,
            help="override the spec's campaign seed",
        )
        campaign_exec.add_argument(
            "--chaos",
            default=None,
            metavar="JSON",
            help=(
                "stage-granular fault injection as a ChaosSpec JSON "
                "object, e.g. '{\"stage_plan\": {\"grid\": [\"die\"]}}' "
                "(see docs/campaigns.md)"
            ),
        )
        campaign_exec.add_argument(
            "--json",
            dest="json_output",
            action="store_true",
            help="print the canonical campaign result as JSON",
        )
    campaign_status = campaign_sub.add_parser(
        "status",
        help=(
            "print journal-derived per-stage progress without "
            "executing anything"
        ),
    )
    campaign_status.add_argument(
        "spec", help="spec path (.toml/.json) or packaged campaign name"
    )
    campaign_status.add_argument(
        "--state-dir",
        required=True,
        help="the campaign's durable state directory",
    )
    campaign_status.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the spec's campaign seed",
    )

    store_parser = subparsers.add_parser(
        "store",
        help=(
            "the durable result store: submit scenario sweeps, inspect "
            "their status, read metric columns, reclaim space "
            "(see docs/store.md)"
        ),
    )
    store_sub = store_parser.add_subparsers(dest="store_command")
    store_init = store_sub.add_parser(
        "init",
        help=(
            "create (or migrate) a store at a directory so sweeps "
            "pointed there auto-detect it"
        ),
    )
    store_init.add_argument("directory", help="store directory")
    store_submit = store_sub.add_parser(
        "submit",
        help=(
            "record a scenario-sweep submission and run it to "
            "completion (use --defer to only record it)"
        ),
    )
    store_submit.add_argument("directory", help="store directory")
    store_submit.add_argument(
        "--preset",
        required=True,
        help="scenario preset name supplying the base ScenarioSpec",
    )
    store_submit.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="NAME=V1,V2,...",
        help=(
            "sweep axis as name=comma-separated values (repeatable); "
            "values parse as JSON scalars, falling back to strings"
        ),
    )
    store_submit.add_argument(
        "--name",
        default=None,
        help="submission name (default: the preset name)",
    )
    store_submit.add_argument(
        "--seed", type=int, default=0, help="base seed (default 0)"
    )
    store_submit.add_argument(
        "--replications",
        type=int,
        default=1,
        help="replications per grid point (default 1)",
    )
    store_submit.add_argument(
        "--horizon",
        type=float,
        default=None,
        help="simulated seconds per point (default: the preset's)",
    )
    store_submit.add_argument(
        "--workers",
        default=None,
        help="worker processes ('auto' or an integer, default 1)",
    )
    store_submit.add_argument(
        "--defer",
        action="store_true",
        help="record the submission as pending without executing it",
    )
    store_run = store_sub.add_parser(
        "run",
        help="execute a pending submission recorded with submit --defer",
    )
    store_run.add_argument("directory", help="store directory")
    store_run.add_argument("id", type=int, help="submission id")
    store_run.add_argument(
        "--workers",
        default=None,
        help="worker processes ('auto' or an integer, default 1)",
    )
    store_status = store_sub.add_parser(
        "status",
        help="list submissions newest-first with their point counts",
    )
    store_status.add_argument("directory", help="store directory")
    store_status.add_argument(
        "--json",
        dest="json_output",
        action="store_true",
        help="print the submission rows as JSON",
    )
    store_results = store_sub.add_parser(
        "results",
        help=(
            "print a submission's per-point metric table from the "
            "columnar shards"
        ),
    )
    store_results.add_argument("directory", help="store directory")
    store_results.add_argument("id", type=int, help="submission id")
    store_results.add_argument(
        "--metrics",
        default=None,
        metavar="M1,M2,...",
        help="restrict to these metric columns (default: all)",
    )
    store_results.add_argument(
        "--json",
        dest="json_output",
        action="store_true",
        help="print {headers, rows} as JSON",
    )
    store_gc = store_sub.add_parser(
        "gc",
        help=(
            "remove orphan shard files and expire sweeps not touched "
            "within --keep-days"
        ),
    )
    store_gc.add_argument("directory", help="store directory")
    store_gc.add_argument(
        "--keep-days",
        type=_keep_days,
        default=None,
        help="expire sweeps idle longer than this many days",
    )
    store_gc.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be removed without touching anything",
    )
    store_verify = store_sub.add_parser(
        "verify",
        help="integrity-check the database and every shard's zip directory",
    )
    store_verify.add_argument("directory", help="store directory")

    serve_parser = subparsers.add_parser(
        "serve",
        help=(
            "run the campaign service: a JSON HTTP API over a result "
            "store plus an optional leased worker pool draining its "
            "submission queue (see docs/service.md)"
        ),
    )
    serve_parser.add_argument(
        "--store", required=True, help="store directory to serve"
    )
    serve_parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8351,
        help="TCP port; 0 picks an ephemeral port (default 8351)",
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help=(
            "worker subprocesses draining the queue (0 = API only, "
            "default 2)"
        ),
    )
    serve_parser.add_argument(
        "--lease-seconds",
        type=float,
        default=None,
        help="lease window each worker claim holds (default 60)",
    )
    serve_parser.add_argument(
        "--poll-interval",
        type=float,
        default=None,
        help="idle worker sleep between claim attempts (default 0.5)",
    )
    serve_parser.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help=(
            "seconds workers get to finish their current point on "
            "SIGTERM before being killed (default 30)"
        ),
    )

    worker_parser = subparsers.add_parser(
        "worker",
        help=(
            "run one queue-draining worker against a store: claim the "
            "oldest claimable submission under a lease, execute it, "
            "release, repeat (see docs/service.md)"
        ),
    )
    worker_parser.add_argument(
        "--store", required=True, help="store directory to drain"
    )
    worker_parser.add_argument(
        "--worker-id",
        default=None,
        help="lease identity (default: host:pid:nonce)",
    )
    worker_parser.add_argument(
        "--lease-seconds",
        type=float,
        default=None,
        help="lease window each claim holds (default 60)",
    )
    worker_parser.add_argument(
        "--poll-interval",
        type=float,
        default=None,
        help="idle sleep between claim attempts (default 0.5)",
    )
    worker_parser.add_argument(
        "--point-workers",
        default=None,
        help=(
            "process-pool workers per sweep ('auto' or an integer, "
            "default 1)"
        ),
    )
    worker_parser.add_argument(
        "--max-submissions",
        type=int,
        default=None,
        help="exit after executing this many submissions",
    )
    worker_parser.add_argument(
        "--until-drained",
        action="store_true",
        help=(
            "exit once no submission is pending or running instead of "
            "polling forever"
        ),
    )
    worker_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="exit after this many idle-inclusive wall-clock seconds",
    )

    fleet_parser = subparsers.add_parser(
        "fleet",
        help=(
            "inspect the QPU-fleet routing layer "
            "(policies, per-preset device tables)"
        ),
    )
    fleet_sub = fleet_parser.add_subparsers(dest="fleet_command")
    fleet_sub.add_parser(
        "policies",
        help="list the kernel routing policies a FleetSpec can pick",
    )
    devices_parser = fleet_sub.add_parser(
        "devices",
        help="print the device table a scenario preset's fleet builds",
    )
    devices_parser.add_argument("name", help="preset name")

    trace_parser = subparsers.add_parser(
        "trace",
        help=(
            "inspect and replay SWF workload trace files "
            "(paths resolve against the CWD, then the packaged "
            "sample directory)"
        ),
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command")
    info_parser = trace_sub.add_parser(
        "info", help="parse an SWF file and print summary statistics"
    )
    info_parser.add_argument("path", help="SWF trace file")
    info_parser.add_argument(
        "--nodes",
        type=int,
        default=32,
        help="partition width for the offered-load estimate (default 32)",
    )
    replay_parser = trace_sub.add_parser(
        "replay",
        help=(
            "replay an SWF file through a scenario preset's facility "
            "and print the run metrics"
        ),
    )
    replay_parser.add_argument("path", help="SWF trace file")
    replay_parser.add_argument(
        "--preset",
        default="trace-replay",
        help=(
            "scenario preset supplying the facility "
            "(default: trace-replay)"
        ),
    )
    replay_parser.add_argument(
        "--seed", type=int, default=None, help="override the root seed"
    )
    replay_parser.add_argument(
        "--horizon",
        type=float,
        default=None,
        help="simulated seconds to run (default: the preset's horizon)",
    )
    # Replay-rule flags default to None = "keep the preset's trace
    # setting (or the TraceSpec default)", so a preset's declared
    # mapping rules survive unless explicitly overridden.
    replay_parser.add_argument(
        "--time-scale",
        type=float,
        default=None,
        help="multiply submit times (0.5 doubles the arrival rate)",
    )
    replay_parser.add_argument(
        "--runtime-scale",
        type=float,
        default=None,
        help="multiply runtimes and requested walltimes",
    )
    replay_parser.add_argument(
        "--qpu-fraction",
        type=float,
        default=None,
        help=(
            "deterministic fraction of trace jobs routed to the "
            "quantum partition as qpu gres requests"
        ),
    )
    replay_parser.add_argument(
        "--limit",
        type=int,
        default=None,
        help="truncate to the first N trace jobs",
    )
    replay_parser.add_argument(
        "--loop",
        action=argparse.BooleanOptionalAction,
        default=None,
        help=(
            "repeat the trace until the horizon is filled "
            "(--no-loop forces a single pass)"
        ),
    )
    replay_parser.add_argument(
        "--jitter",
        type=float,
        default=None,
        help="gaussian submit-time jitter std-dev in seconds",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        for experiment_id, runner in sorted(EXPERIMENTS.items()):
            doc = (runner.__module__ or "").rsplit(".", 1)[-1]
            print(f"{experiment_id}: {doc}")
        return 0
    if args.command == "run":
        # Resolved once, so a bad $REPRO_SWEEP_WORKERS is one usage
        # error before any experiment runs.
        run_kwargs = {"workers": _resolve_workers(parser, None)}
        with _maybe_profile(args.profile):
            return _run_experiments(parser, args, run_kwargs=run_kwargs)
    if args.command == "scenario":
        return _scenario_command(parser, args)
    if args.command == "campaign":
        return _campaign_command(parser, args)
    if args.command == "store":
        return _store_command(parser, args)
    if args.command == "serve":
        return _serve_command(parser, args)
    if args.command == "worker":
        return _worker_command(parser, args)
    if args.command == "fleet":
        return _fleet_command(parser, args)
    if args.command == "trace":
        return _trace_command(parser, args)
    if args.command == "sweep":
        workers = _resolve_workers(parser, args.workers)
        run_kwargs = _sweep_run_kwargs(parser, args, workers)
        return _run_experiments(
            parser,
            args,
            run_kwargs=run_kwargs,
            footer=lambda experiment_id, elapsed: (
                f"[sweep] {experiment_id}: {elapsed:.2f}s "
                f"(workers={workers}, "
                f"cache={run_kwargs['cache_dir'] or 'off'})"
            ),
        )
    parser.print_help()
    return 2


def _resolve_workers(parser, value) -> int:
    """:func:`resolve_workers` for a CLI flag (``None``: the
    environment): a count below 1 is a usage error, exit 2."""
    from repro.errors import ConfigurationError

    try:
        return resolve_workers(value)
    except ConfigurationError as exc:
        parser.error(str(exc))


#: Environment knob mirroring ``run --profile``: ``REPRO_PROFILE=1``
#: profiles into :data:`DEFAULT_PROFILE_PATH`, any other non-empty
#: value is taken as the output path itself.
PROFILE_ENV_VAR = "REPRO_PROFILE"
DEFAULT_PROFILE_PATH = "repro-run.pstats"


def _resolve_profile_path(flag_value: Optional[str]) -> Optional[str]:
    """Output path for cProfile data, or None when profiling is off."""
    if flag_value:
        return flag_value
    import os

    env = os.environ.get(PROFILE_ENV_VAR, "")
    if not env or env == "0":
        return None
    return DEFAULT_PROFILE_PATH if env == "1" else env


class _maybe_profile:
    """Context manager running its body under cProfile when enabled.

    The profiler brackets the whole experiment loop (simulation,
    metrics, rendering) so kernel hot spots appear with their real
    relative weight; the pstats file is written even if the body
    raises, so aborted runs can still be inspected.
    """

    def __init__(self, flag_value: Optional[str]) -> None:
        self._path = _resolve_profile_path(flag_value)
        self._profiler = None

    def __enter__(self) -> "_maybe_profile":
        if self._path is not None:
            import cProfile

            self._profiler = cProfile.Profile()
            self._profiler.enable()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._profiler is not None:
            self._profiler.disable()
            self._profiler.dump_stats(self._path)
            print(f"[profile] wrote {self._path}", file=sys.stderr)


def _sweep_run_kwargs(parser, args, workers: int) -> dict:
    """Fold the sweep verb's fault-tolerance flags into run kwargs."""
    import os

    from repro.errors import ReproError
    from repro.experiments.resilience import ChaosSpec, FailurePolicy
    from repro.experiments.sweep import CACHE_ENV_VAR

    if args.retries < 0:
        parser.error("--retries must be >= 0")
    cache_dir = args.cache_dir or os.environ.get(CACHE_ENV_VAR)
    if args.resume and not cache_dir:
        parser.error(
            "--resume needs the run journal kept in the cache store: "
            "pass --cache-dir (or set $REPRO_SWEEP_CACHE_DIR)"
        )
    try:
        policy = FailurePolicy(
            max_attempts=args.retries + 1,
            timeout_seconds=args.timeout,
            on_error=args.on_error,
        )
    except (ReproError, ValueError, TypeError) as exc:
        parser.error(str(exc))
    chaos = None
    if args.chaos:
        try:
            chaos = ChaosSpec.from_dict(json.loads(args.chaos))
        except (ReproError, ValueError, TypeError) as exc:
            parser.error(f"--chaos: {exc}")
    return {
        "workers": workers,
        "cache_dir": cache_dir,
        "policy": policy,
        "chaos": chaos,
        "resume": args.resume,
    }


def _scenario_command(parser, args) -> int:
    """The ``scenario`` verb: list / describe / run."""
    from repro.errors import ReproError
    from repro.scenarios import (
        ScenarioSpec,
        get_scenario,
        list_scenarios,
        run_scenario,
    )

    if args.scenario_command == "list":
        for name in list_scenarios():
            print(f"{name}: {get_scenario(name).description}")
        return 0
    if args.scenario_command == "describe":
        try:
            spec = get_scenario(args.name)
        except ReproError as exc:
            parser.error(str(exc))
        print(spec.to_json())
        # The device table goes to stderr: stdout stays pure JSON for
        # `describe NAME | jq`-style pipelines (`fleet devices NAME`
        # prints the same table on stdout).
        print(_device_table(spec), file=sys.stderr)
        return 0
    if args.scenario_command == "run":
        try:
            if args.preset:
                spec = get_scenario(args.preset)
            else:
                with open(args.json_path, "r", encoding="utf-8") as handle:
                    spec = ScenarioSpec.from_json(handle.read())
            start = time.perf_counter()
            metrics = run_scenario(
                spec, seed=args.seed, horizon=args.horizon
            )
        except (ReproError, OSError) as exc:
            parser.error(str(exc))
        elapsed = time.perf_counter() - start
        print(json.dumps(metrics, indent=2, sort_keys=True))
        print(
            f"[scenario] {spec.name}: {metrics['horizon_s']:.0f}s "
            f"simulated in {elapsed:.2f}s wall"
        )
        return 0
    parser.error("scenario needs a subcommand: list, describe or run")


def _campaign_command(parser, args) -> int:
    """The ``campaign`` verb: list / describe / run / resume / status."""
    import dataclasses

    from repro.errors import CampaignError, ReproError
    from repro.campaigns import (
        CampaignEngine,
        list_campaigns,
        load_campaign,
    )

    if args.campaign_command == "list":
        for name in list_campaigns():
            spec = load_campaign(name)
            print(f"{name}: {spec.description or len(spec.stages)}")
        return 0
    if args.campaign_command == "describe":
        try:
            spec = load_campaign(args.spec)
        except ReproError as exc:
            parser.error(str(exc))
        print(spec.to_json(indent=2))
        order = spec.dag().order
        print(f"[campaign] stage order: {' -> '.join(order)}", file=sys.stderr)
        return 0
    if args.campaign_command in ("run", "resume"):
        try:
            spec = load_campaign(args.spec)
            if args.seed is not None:
                spec = dataclasses.replace(spec, seed=args.seed)
            chaos = None
            if args.chaos:
                from repro.experiments.resilience import ChaosSpec

                chaos = ChaosSpec.from_dict(json.loads(args.chaos))
            engine = CampaignEngine(
                spec,
                args.state_dir,
                backend=args.backend,
                workers=args.workers,
                chaos=chaos,
            )
        except (ReproError, ValueError, TypeError) as exc:
            parser.error(str(exc))
        resume = args.campaign_command == "resume"
        try:
            result = engine.run(resume=resume)
        except CampaignError as exc:
            print(f"error: campaign failed: {exc}", file=sys.stderr)
            return 1
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if args.json_output:
            print(json.dumps(result.canonical(), indent=2, sort_keys=True))
        else:
            from repro.metrics.report import render_table

            rows = [
                [
                    name,
                    result.outcomes[name].status,
                    result.outcomes[name].attempts,
                    "yes" if result.outcomes[name].resumed else "",
                    (result.outcomes[name].error or "")[:60],
                ]
                for name in result.order
            ]
            print(
                render_table(
                    ["stage", "status", "attempts", "resumed", "error"],
                    rows,
                    title=f"campaign {spec.name!r} [{result.backend}]",
                )
            )
        counts = result.counts()
        print(
            f"[campaign] {spec.name}: "
            + ", ".join(
                f"{status}={count}" for status, count in sorted(counts.items())
            )
            + f" in {result.wall_seconds:.2f}s "
            + f"(digest {result.canonical_digest()[:16]})"
        )
        return 0 if result.ok else 1
    if args.campaign_command == "status":
        try:
            spec = load_campaign(args.spec)
            if args.seed is not None:
                spec = dataclasses.replace(spec, seed=args.seed)
            engine = CampaignEngine(spec, args.state_dir)
        except ReproError as exc:
            parser.error(str(exc))
        print(json.dumps(engine.status(), indent=2, sort_keys=True))
        return 0
    parser.error(
        "campaign needs a subcommand: list, describe, run, resume or "
        "status"
    )


def _store_command(parser, args) -> int:
    """The ``store`` verb: init / submit / run / status / results / gc
    / verify."""
    from repro.errors import ReproError, StoreError
    from repro.store import ResultStore

    if args.store_command is None:
        parser.error(
            "store needs a subcommand: init, submit, run, status, "
            "results, gc or verify"
        )
    # submit and run execute through the lease protocol, so they hold
    # the store's shared lock, as service workers do.
    store = ResultStore(
        args.directory,
        shared_writer=args.store_command in ("submit", "run"),
    )
    try:
        if args.store_command == "init":
            store.open()
            store.close()
            print(f"[store] ready: {store.db.db_path}")
            return 0
        if args.store_command == "submit":
            return _store_submit(parser, args, store)
        if args.store_command == "run":
            workers = _resolve_workers(parser, args.workers)
            return _store_execute(args.directory, args.id, workers)
        if args.store_command == "status":
            rows = store.status()
            summary = store.queue_summary()
            if args.json_output:
                # The JSON shape stays a bare row list (scripts pipe it
                # through jq); the queue composition rides on stderr.
                print(json.dumps(rows, indent=2, sort_keys=True))
                print(
                    json.dumps({"queue": summary}, sort_keys=True),
                    file=sys.stderr,
                )
                return 0
            from repro.metrics.report import render_table

            table = [
                [
                    row["id"],
                    row["name"],
                    row["state"],
                    row["ok_points"] if row["ok_points"] is not None else "",
                    (
                        row["failed_points"]
                        if row["failed_points"] is not None
                        else ""
                    ),
                    (row["error"] or "")[:50],
                ]
                for row in rows
            ]
            print(
                render_table(
                    ["id", "name", "state", "ok", "failed", "error"],
                    table,
                    title=f"store {store.directory}",
                )
            )
            print(
                f"[queue] pending={summary['pending']} "
                f"running={summary['running']} "
                f"done={summary['done']} failed={summary['failed']} "
                f"stale_leases={summary['stale_leases']}"
            )
            return 0
        if args.store_command == "results":
            metrics = None
            if args.metrics:
                metrics = [
                    metric.strip()
                    for metric in args.metrics.split(",")
                    if metric.strip()
                ]
            headers, rows = store.results_rows(args.id, metrics=metrics)
            if args.json_output:
                print(
                    json.dumps(
                        {"headers": headers, "rows": rows}, sort_keys=True
                    )
                )
                return 0
            from repro.metrics.report import render_table

            print(
                render_table(
                    headers,
                    rows,
                    title=f"submission {args.id}",
                )
            )
            return 0
        if args.store_command == "gc":
            report = store.gc(
                keep_days=args.keep_days, dry_run=args.dry_run
            )
            print(json.dumps(report, indent=2, sort_keys=True))
            return 0
        if args.store_command == "verify":
            report = store.verify()
            print(json.dumps(report, indent=2, sort_keys=True))
            return 0 if report["ok"] else 1
    except (StoreError, ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        store.close()
    parser.error(f"unknown store subcommand {args.store_command!r}")


def _store_submit(parser, args, store) -> int:
    """Record (and by default execute) a scenario-sweep submission."""
    from repro.errors import ReproError
    from repro.experiments.sweep import runner_name
    from repro.scenarios.sweeps import run_scenario_point, scenario_sweep_spec

    axes = {}
    for item in args.axis:
        name, _, raw = item.partition("=")
        if not name or not raw:
            parser.error(f"--axis must look like name=v1,v2,... (got {item!r})")
        values = []
        for token in raw.split(","):
            token = token.strip()
            try:
                values.append(json.loads(token))
            except ValueError:
                values.append(token)
        axes[name] = values
    if not axes:
        parser.error("submit needs at least one --axis")
    try:
        spec = scenario_sweep_spec(
            args.preset,
            axes,
            base_seed=args.seed,
            replications=args.replications,
            run_horizon=args.horizon,
        )
    except (ReproError, ValueError, TypeError) as exc:
        parser.error(str(exc))
    # Before the submission is recorded: a bad count records nothing.
    workers = None if args.defer else _resolve_workers(parser, args.workers)
    submission_id = store.submit(
        args.name or args.preset, spec, runner_name(run_scenario_point)
    )
    print(
        f"[store] submission {submission_id}: {spec.experiment_id} "
        f"({len(spec.points())} points)"
    )
    if args.defer:
        return 0
    return _store_execute(args.directory, submission_id, workers)


def _store_execute(directory, submission_id: int, workers: int) -> int:
    """Lease one submission and run it as a service worker would
    (heartbeats, fenced release); report its state."""
    from repro.service.workers import Worker

    with Worker(directory, point_workers=workers) as worker:
        record = worker.claim(submission_id)
        if record is not None:
            worker.execute(record)
        record = worker.store.submission(submission_id)
    if record["state"] == "running":
        print(
            f"error: submission {submission_id} is running under a live "
            f"lease held by {record['claimed_by']}",
            file=sys.stderr,
        )
        return 1
    print(
        f"[store] submission {submission_id}: {record['state']} "
        f"(ok={record['ok_points']}, failed={record['failed_points']})"
    )
    return 0 if record["state"] == "done" else 1


def _serve_command(parser, args) -> int:
    """The ``serve`` verb: HTTP API + worker pool until SIGTERM."""
    import signal
    import threading

    from repro.errors import ReproError, StoreError
    from repro.experiments.sweep import runner_name
    from repro.scenarios.sweeps import run_scenario_point
    from repro.service import WorkerSupervisor, make_server
    from repro.service.workers import DEFAULT_POLL_SECONDS, resolve_runner
    from repro.store.api import DEFAULT_LEASE_SECONDS

    if args.workers < 0:
        parser.error("--workers must be >= 0")
    lease_seconds = (
        args.lease_seconds
        if args.lease_seconds is not None
        else DEFAULT_LEASE_SECONDS
    )
    poll_seconds = (
        args.poll_interval
        if args.poll_interval is not None
        else DEFAULT_POLL_SECONDS
    )
    supervisor = None
    if args.workers > 0:
        supervisor = WorkerSupervisor(
            args.store,
            args.workers,
            lease_seconds=lease_seconds,
            poll_seconds=poll_seconds,
        )
    try:
        server = make_server(
            args.store,
            host=args.host,
            port=args.port,
            supervisor=supervisor,
        )
    except (StoreError, ReproError, OSError) as exc:
        parser.error(str(exc))
    host, port = server.server_address[:2]

    def _begin_drain(signum, frame):
        server.service.draining = True
        # shutdown() must come from outside serve_forever's thread.
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _begin_drain)
    signal.signal(signal.SIGINT, _begin_drain)
    # Flushed before serve_forever blocks (and before any worker can
    # print), so wrappers (tests, shell scripts) can scrape the bound
    # port from the first line.
    print(f"[serve] listening on http://{host}:{port}", flush=True)
    try:
        if supervisor is not None:
            # Workers are forks of this process: import the preset
            # runner once here, not once per worker.  Restarts fork
            # from serve_forever's thread (service_actions).
            resolve_runner(runner_name(run_scenario_point))
            supervisor.start()
        server.serve_forever(poll_interval=0.1)
    finally:
        if supervisor is not None:
            supervisor.drain(timeout=args.drain_timeout)
        server.server_close()
        server.service.close()
    print("[serve] drained", flush=True)
    return 0


def _worker_command(parser, args) -> int:
    """The ``worker`` verb: one queue-draining worker until SIGTERM."""
    from repro.errors import ReproError
    from repro.service.workers import run_worker

    if args.max_submissions is not None and args.max_submissions < 1:
        parser.error("--max-submissions must be >= 1")
    kwargs = {}
    if args.lease_seconds is not None:
        kwargs["lease_seconds"] = args.lease_seconds
    if args.poll_interval is not None:
        kwargs["poll_seconds"] = args.poll_interval
    try:
        if args.point_workers is not None:
            kwargs["point_workers"] = resolve_workers(args.point_workers)
        return run_worker(
            args.store,
            worker_id=args.worker_id,
            max_submissions=args.max_submissions,
            until_drained=args.until_drained,
            timeout=args.timeout,
            **kwargs,
        )
    except ReproError as exc:
        # Only building the worker raises; run_worker reports errors
        # while draining itself.
        parser.error(str(exc))


def _device_table(spec) -> str:
    """The per-device table a scenario's fleet builds, as text."""
    from repro.metrics.report import render_table
    from repro.scenarios import fleet_device_rows

    rows = [
        [row["name"], row["technology"], row["qubits"], row["vqpus"]]
        for row in fleet_device_rows(spec.fleet)
    ]
    return render_table(
        ["device", "technology", "qubits", "vqpus"],
        rows,
        title=(
            f"fleet: {len(rows)} device(s), "
            f"routing={spec.fleet.routing}"
        ),
    )


def _fleet_command(parser, args) -> int:
    """The ``fleet`` verb: policies / devices."""
    from repro.errors import ReproError
    from repro.quantum.fleet import POLICY_DESCRIPTIONS, ROUTING_POLICIES
    from repro.scenarios import get_scenario

    if args.fleet_command == "policies":
        for policy in ROUTING_POLICIES:
            print(f"{policy}: {POLICY_DESCRIPTIONS[policy]}")
        return 0
    if args.fleet_command == "devices":
        try:
            spec = get_scenario(args.name)
        except ReproError as exc:
            parser.error(str(exc))
        print(_device_table(spec))
        return 0
    parser.error("fleet needs a subcommand: policies or devices")


def _trace_command(parser, args) -> int:
    """The ``trace`` verb: info / replay."""
    import dataclasses

    from repro.errors import ReproError
    from repro.scenarios import (
        TraceSpec,
        get_scenario,
        resolve_trace_path,
        run_scenario,
    )
    from repro.workloads.arrivals import TraceArrivals
    from repro.workloads.swf import read_swf

    if args.trace_command == "info":
        if args.nodes < 1:
            parser.error("--nodes must be >= 1")
        try:
            path = resolve_trace_path(args.path)
            jobs = read_swf(str(path))
        except ReproError as exc:
            parser.error(str(exc))
        if not jobs:
            print(json.dumps({"path": str(path), "jobs": 0}, indent=2))
            return 0
        # The recorded submit times as an arrival process (sorted and
        # validated); the burstiness stats scan the whole trace.
        arrivals = TraceArrivals(job.submit_time for job in jobs)
        submits = arrivals.submit_times
        span = max(submits) - min(submits)
        busiest_hour = 0
        window_start = 0
        for index, time_s in enumerate(submits):
            while time_s - submits[window_start] > 3600.0:
                window_start += 1
            busiest_hour = max(busiest_hour, index - window_start + 1)
        work = sum(job.nodes * job.runtime for job in jobs)
        from repro.metrics.stats import mean

        summary = {
            "path": str(path),
            "jobs": len(jobs),
            "span_s": span,
            "mean_interarrival_s": span / max(len(jobs) - 1, 1),
            "busiest_hour_jobs": busiest_hour,
            "nodes_min": min(job.nodes for job in jobs),
            "nodes_max": max(job.nodes for job in jobs),
            "nodes_mean": mean([job.nodes for job in jobs]),
            "runtime_min_s": min(job.runtime for job in jobs),
            "runtime_max_s": max(job.runtime for job in jobs),
            "runtime_mean_s": mean([job.runtime for job in jobs]),
            "node_seconds": work,
            "users": len({job.user for job in jobs}),
            f"offered_load_{args.nodes}_nodes": (
                work / (span * args.nodes) if span > 0 else 0.0
            ),
        }
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    if args.trace_command == "replay":
        try:
            spec = get_scenario(args.preset)
            # Start from the preset's own trace (mapping rules like
            # partition/max_nodes/oversize carry over), point it at
            # the given file, and apply only the flags actually set.
            base = spec.workload.trace or TraceSpec(path=args.path)
            updates = {"path": args.path, "jobs": ()}
            for attribute, value in (
                ("time_scale", args.time_scale),
                ("runtime_scale", args.runtime_scale),
                ("qpu_fraction", args.qpu_fraction),
                ("limit", args.limit),
                ("loop", args.loop),
                ("jitter", args.jitter),
            ):
                if value is not None:
                    updates[attribute] = value
            trace = dataclasses.replace(base, **updates)
            spec = dataclasses.replace(
                spec,
                workload=dataclasses.replace(spec.workload, trace=trace),
            ).validate()
            start = time.perf_counter()
            metrics = run_scenario(
                spec, seed=args.seed, horizon=args.horizon
            )
        except ReproError as exc:
            parser.error(str(exc))
        elapsed = time.perf_counter() - start
        print(json.dumps(metrics, indent=2, sort_keys=True))
        print(
            f"[trace] {args.path} via {spec.name}: "
            f"{metrics['trace_jobs']} jobs replayed, "
            f"{metrics['horizon_s']:.0f}s simulated in "
            f"{elapsed:.2f}s wall"
        )
        return 0
    parser.error("trace needs a subcommand: info or replay")


def _run_experiments(parser, args, run_kwargs=None, footer=None) -> int:
    """Shared execute/render loop behind the ``run`` and ``sweep`` verbs."""
    requested = args.experiments
    if any(token.lower() == "all" for token in requested):
        requested = sorted(EXPERIMENTS)
    unknown = [token for token in requested if token not in EXPERIMENTS]
    if unknown:
        parser.error(
            f"unknown experiment(s): {unknown}; "
            f"known: {sorted(EXPERIMENTS)}"
        )
    from repro.errors import ReproError

    any_failed = False
    for experiment_id in requested:
        start = time.perf_counter()
        try:
            result = EXPERIMENTS[experiment_id](
                seed=args.seed, **(run_kwargs or {})
            )
        except ReproError as exc:
            # e.g. a sweep point exhausting its FailurePolicy under
            # on_error="raise": report, keep a non-zero exit, move on.
            hint = (
                " (use --on-error collect for a failure summary "
                "instead of an abort)"
                if args.command == "sweep"
                else ""
            )
            print(f"error: {experiment_id}: {exc}{hint}", file=sys.stderr)
            any_failed = True
            continue
        elapsed = time.perf_counter() - start
        output = (
            result.render_markdown() if args.markdown else result.render()
        )
        print(output)
        if footer is not None:
            print(footer(experiment_id, elapsed))
        print()
        if not result.all_passed:
            any_failed = True
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
