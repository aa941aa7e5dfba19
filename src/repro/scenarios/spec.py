"""Declarative facility scenarios.

The paper's claims are comparisons of integration strategies *under a
particular facility scenario*: a topology, a QPU fleet, a workload mix,
a scheduling policy — and, for dependability studies, a schedule of
faults.  This module makes that scenario a first-class value: a
:class:`ScenarioSpec` is a frozen dataclass tree that

- round-trips losslessly through ``to_dict``/``from_dict`` and JSON,
  so scenarios can live in files, cache keys and sweep parameters;
- validates eagerly (:meth:`ScenarioSpec.validate`), so a bad scenario
  fails before any simulation starts;
- supports *dotted-path overrides* (:func:`with_overrides`), which is
  how sweep axes target individual scenario fields
  (``"topology.classical_nodes"``) without bespoke glue per experiment.

Building a live :class:`~repro.strategies.base.Environment` from a spec
is :func:`repro.scenarios.build.build`'s job; named presets live in
:mod:`repro.scenarios.registry`.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.errors import ConfigurationError

#: Known fault actions, in the order the node lifecycle supports them.
FAULT_ACTIONS = ("fail", "repair", "drain", "undrain")

#: Known background arrival processes.
ARRIVAL_PROCESSES = ("poisson", "diurnal")

#: How a trace job larger than the target partition is handled.
OVERSIZE_RULES = ("clamp", "drop", "error")


@dataclass(frozen=True)
class TopologySpec:
    """Cluster shape: the classical partition plus QPU front-end packing."""

    classical_nodes: int = 32
    cores_per_node: int = 64
    qpus_per_node: int = 1
    classical_max_walltime: Optional[float] = None
    quantum_max_walltime: Optional[float] = None

    def validate(self) -> None:
        if self.classical_nodes < 0:
            raise ConfigurationError("topology.classical_nodes must be >= 0")
        if self.cores_per_node <= 0:
            raise ConfigurationError("topology.cores_per_node must be > 0")
        if self.qpus_per_node <= 0:
            raise ConfigurationError("topology.qpus_per_node must be > 0")
        for label, walltime in (
            ("classical", self.classical_max_walltime),
            ("quantum", self.quantum_max_walltime),
        ):
            if walltime is not None and walltime <= 0:
                raise ConfigurationError(
                    f"topology.{label}_max_walltime must be > 0 when set"
                )


@dataclass(frozen=True)
class DeviceSpec:
    """One homogeneous device group of a heterogeneous fleet.

    ``count`` physical devices of one ``technology``, each optionally
    split into ``vqpus_per_qpu`` virtual QPU gres units.  Devices are
    named ``{prefix}-{index}`` where ``prefix`` defaults to the
    technology name and indices count per prefix across the whole
    fleet (so two groups sharing a prefix keep unique names).

    >>> DeviceSpec(technology="trapped_ion", count=2).validate()
    >>> DeviceSpec(technology="warpdrive").validate()
    Traceback (most recent call last):
        ...
    repro.errors.ConfigurationError: device technology 'warpdrive' \
unknown; known: ['annealer', 'neutral_atom', 'photonic', \
'superconducting', 'trapped_ion']
    """

    technology: str
    count: int = 1
    vqpus_per_qpu: int = 1
    name: Optional[str] = None

    def validate(self) -> None:
        from repro.quantum.technology import TECHNOLOGIES

        if self.technology not in TECHNOLOGIES:
            raise ConfigurationError(
                f"device technology {self.technology!r} unknown; "
                f"known: {sorted(TECHNOLOGIES)}"
            )
        if self.count < 1:
            raise ConfigurationError("device count must be >= 1")
        if self.vqpus_per_qpu < 1:
            raise ConfigurationError("device vqpus_per_qpu must be >= 1")
        if self.name is not None and not self.name:
            raise ConfigurationError(
                "device name prefix must be non-empty when set"
            )


@dataclass(frozen=True)
class FleetSpec:
    """The QPU fleet: devices, routing policy and virtualisation.

    Two authoring forms:

    - the *flat shorthand* (``technology`` × ``qpu_count`` ×
      ``vqpus_per_qpu``) describes a homogeneous fleet and
      canonicalises to a single :class:`DeviceSpec`;
    - ``devices`` lists heterogeneous device groups explicitly and is
      mutually exclusive with non-default flat fields (a contradictory
      combination is rejected rather than silently preferring one).

    ``routing`` picks the :class:`repro.quantum.fleet.QPUFleet` policy
    kernels are dispatched under when work goes through the fleet
    router (one of :data:`repro.quantum.fleet.ROUTING_POLICIES`).

    >>> FleetSpec(devices=(DeviceSpec("superconducting", count=2),
    ...                    DeviceSpec("neutral_atom")),
    ...           routing="round_robin").validate()
    >>> [d.technology for d in FleetSpec(qpu_count=3).canonical_devices()]
    ['superconducting']
    >>> FleetSpec(qpu_count=3,
    ...           devices=(DeviceSpec("photonic"),)).validate()
    Traceback (most recent call last):
        ...
    repro.errors.ConfigurationError: fleet.devices and the flat \
single-technology fields are mutually exclusive; fleet.qpu_count=3 \
contradicts devices=[...]
    """

    technology: str = "superconducting"
    qpu_count: int = 1
    vqpus_per_qpu: int = 1
    jitter: bool = False
    devices: Tuple[DeviceSpec, ...] = ()
    routing: str = "fastest_completion"

    def validate(self) -> None:
        from repro.quantum.fleet import ROUTING_POLICIES
        from repro.quantum.technology import TECHNOLOGIES

        if self.technology not in TECHNOLOGIES:
            raise ConfigurationError(
                f"fleet.technology {self.technology!r} unknown; "
                f"known: {sorted(TECHNOLOGIES)}"
            )
        if self.qpu_count < 1:
            raise ConfigurationError("fleet.qpu_count must be >= 1")
        if self.vqpus_per_qpu < 1:
            raise ConfigurationError("fleet.vqpus_per_qpu must be >= 1")
        if self.routing not in ROUTING_POLICIES:
            raise ConfigurationError(
                f"fleet.routing {self.routing!r} unknown; "
                f"known: {ROUTING_POLICIES}"
            )
        if self.devices:
            contradictions = [
                f"fleet.{field_name}={getattr(self, field_name)!r}"
                for field_name, default in _FLAT_FLEET_DEFAULTS.items()
                if getattr(self, field_name) != default
            ]
            if contradictions:
                raise ConfigurationError(
                    "fleet.devices and the flat single-technology "
                    "fields are mutually exclusive; "
                    f"{', '.join(contradictions)} contradicts "
                    "devices=[...]"
                )
            for device in self.devices:
                device.validate()

    def canonical_devices(self) -> Tuple[DeviceSpec, ...]:
        """The fleet as explicit device groups.

        The flat shorthand canonicalises to one :class:`DeviceSpec`,
        so every consumer (the build pipeline, the CLI device table)
        sees a single representation.

        >>> FleetSpec(technology="neutral_atom", qpu_count=2,
        ...           vqpus_per_qpu=4).canonical_devices()
        (DeviceSpec(technology='neutral_atom', count=2, \
vqpus_per_qpu=4, name=None),)
        """
        if self.devices:
            return self.devices
        return (
            DeviceSpec(
                technology=self.technology,
                count=self.qpu_count,
                vqpus_per_qpu=self.vqpus_per_qpu,
            ),
        )


#: The flat single-technology fields whose non-default values
#: contradict an explicit ``devices`` list, with their defaults read
#: straight off the dataclass so the check can never desync.
_FLAT_FLEET_DEFAULTS = {
    f.name: f.default
    for f in dataclasses.fields(FleetSpec)
    if f.name in ("technology", "qpu_count", "vqpus_per_qpu")
}


@dataclass(frozen=True)
class TraceJobSpec:
    """One inline trace job of a :class:`TraceSpec`.

    Mirrors :class:`repro.workloads.swf.TraceJob` field for field, so
    small traces can live entirely inside a scenario JSON file (no
    side-car SWF file to ship).

    >>> TraceJobSpec(job_id=1, submit_time=0.0, runtime=60.0,
    ...              nodes=4, requested_walltime=120.0).nodes
    4
    """

    job_id: int
    submit_time: float
    runtime: float
    nodes: int
    requested_walltime: float
    user: str = "user0"

    def validate(self) -> None:
        if self.submit_time < 0:
            raise ConfigurationError(
                f"trace job {self.job_id}: submit_time must be >= 0"
            )
        if self.runtime < 0:
            raise ConfigurationError(
                f"trace job {self.job_id}: runtime must be >= 0"
            )
        if self.nodes < 1:
            raise ConfigurationError(
                f"trace job {self.job_id}: nodes must be >= 1"
            )
        if self.requested_walltime <= 0:
            raise ConfigurationError(
                f"trace job {self.job_id}: requested_walltime must be > 0"
            )


@dataclass(frozen=True)
class TraceSpec:
    """A trace-file-backed workload source.

    Exactly one of ``path`` (an SWF file, resolved against the working
    directory and then the packaged sample directory
    ``repro/workloads/data``) or ``jobs`` (inline
    :class:`TraceJobSpec` entries) supplies the jobs.  The remaining
    fields are *replay rules* applied at build time, in order:

    1. ``limit`` truncates to the first N trace jobs;
    2. ``time_scale`` multiplies submit times (0.5 compresses the
       trace to double the arrival rate) and ``runtime_scale``
       multiplies runtimes and requested walltimes;
    3. the trace is cut at the run horizon, or — with ``loop=True`` —
       repeated (with fresh job ids) until the horizon is filled;
    4. ``jitter`` adds zero-mean Gaussian noise (std-dev in seconds)
       to submit times from the scenario's own ``trace-jitter``
       stream, so replications decorrelate deterministically.

    Mapping rules: jobs land on ``partition``; jobs wider than
    ``max_nodes`` (default: the partition size) are clamped, dropped
    or rejected per ``oversize``; ``qpu_fraction`` routes a
    deterministic, seed-independent subset of jobs to the quantum
    partition as single-node ``qpu`` gres requests — turning a purely
    classical archive trace into a hybrid HPC-QC workload.

    >>> TraceSpec(path="sample-32n.swf", time_scale=0.5).validate()
    >>> TraceSpec().validate()
    Traceback (most recent call last):
        ...
    repro.errors.ConfigurationError: workload.trace needs exactly one \
of path= or jobs=
    """

    path: Optional[str] = None
    jobs: Tuple[TraceJobSpec, ...] = ()
    time_scale: float = 1.0
    runtime_scale: float = 1.0
    partition: str = "classical"
    max_nodes: Optional[int] = None
    oversize: str = "clamp"
    qpu_fraction: float = 0.0
    limit: Optional[int] = None
    loop: bool = False
    jitter: float = 0.0

    def validate(self) -> None:
        if (self.path is None) == (not self.jobs):
            raise ConfigurationError(
                "workload.trace needs exactly one of path= or jobs="
            )
        for job in self.jobs:
            job.validate()
        if self.time_scale <= 0:
            raise ConfigurationError("workload.trace.time_scale must be > 0")
        if self.runtime_scale <= 0:
            raise ConfigurationError(
                "workload.trace.runtime_scale must be > 0"
            )
        if not self.partition:
            raise ConfigurationError(
                "workload.trace.partition needs a partition name"
            )
        if self.max_nodes is not None and self.max_nodes < 1:
            raise ConfigurationError(
                "workload.trace.max_nodes must be >= 1 when set"
            )
        if self.oversize not in OVERSIZE_RULES:
            raise ConfigurationError(
                f"workload.trace.oversize {self.oversize!r} unknown; "
                f"known: {OVERSIZE_RULES}"
            )
        if not 0.0 <= self.qpu_fraction <= 1.0:
            raise ConfigurationError(
                "workload.trace.qpu_fraction must be in [0, 1]"
            )
        if self.limit is not None and self.limit < 1:
            raise ConfigurationError(
                "workload.trace.limit must be >= 1 when set"
            )
        if self.jitter < 0:
            raise ConfigurationError("workload.trace.jitter must be >= 0")


@dataclass(frozen=True)
class WorkloadSpec:
    """Classical load offered to the facility.

    Two sources compose: a *synthetic background* (``background_rho``
    is offered load in node-seconds demanded per node-second of
    classical capacity; zero disables it; ``arrivals="diurnal"``
    modulates the submission rate with a day/night cycle) and an
    optional *trace replay* (``trace``) driven by an SWF archive file
    or inline jobs — see :class:`TraceSpec`.
    """

    background_rho: float = 0.0
    horizon: float = 0.0
    min_runtime: float = 300.0
    max_runtime: float = 1800.0
    min_nodes: int = 2
    max_nodes: int = 16
    arrivals: str = "poisson"
    burst_amplitude: float = 0.5
    burst_period: float = 4 * 3600.0
    trace: Optional[TraceSpec] = None

    def validate(self) -> None:
        if self.background_rho < 0:
            raise ConfigurationError("workload.background_rho must be >= 0")
        if not 0 <= self.horizon < math.inf:
            raise ConfigurationError(
                "workload.horizon must be a finite number >= 0"
            )
        if self.background_rho > 0 and self.horizon <= 0:
            raise ConfigurationError(
                "workload.horizon must be > 0 when background_rho > 0"
            )
        if not 0 < self.min_runtime <= self.max_runtime:
            raise ConfigurationError(
                "workload runtimes must satisfy 0 < min_runtime <= max_runtime"
            )
        if not 0 < self.min_nodes <= self.max_nodes:
            raise ConfigurationError(
                "workload sizes must satisfy 0 < min_nodes <= max_nodes"
            )
        if self.arrivals not in ARRIVAL_PROCESSES:
            raise ConfigurationError(
                f"workload.arrivals {self.arrivals!r} unknown; "
                f"known: {ARRIVAL_PROCESSES}"
            )
        if not 0.0 <= self.burst_amplitude < 1.0:
            raise ConfigurationError(
                "workload.burst_amplitude must be in [0, 1)"
            )
        if self.burst_period <= 0:
            raise ConfigurationError("workload.burst_period must be > 0")
        # Looping needs no horizon check here: the trace loops to the
        # *run* horizon (workload.horizon, an explicit horizon=
        # argument, or the build pipeline's default), which
        # run_scenario rejects unless it is finite and positive.
        if self.trace is not None:
            self.trace.validate()


@dataclass(frozen=True)
class PolicySpec:
    """Scheduling policy, cycle and multifactor priority weights."""

    policy: str = "easy"
    scheduling_cycle: float = 0.0
    priority_age: float = 1000.0
    priority_size: float = 0.0
    priority_fairshare: float = 0.0
    priority_qos: float = 1.0

    def validate(self) -> None:
        from repro.scheduler.backfill import POLICIES

        if self.policy not in POLICIES:
            raise ConfigurationError(
                f"policy.policy {self.policy!r} unknown; "
                f"known: {sorted(POLICIES)}"
            )
        if self.scheduling_cycle < 0:
            raise ConfigurationError("policy.scheduling_cycle must be >= 0")
        weights = (
            self.priority_age,
            self.priority_size,
            self.priority_fairshare,
            self.priority_qos,
        )
        if min(weights) < 0:
            raise ConfigurationError("policy priority weights must be >= 0")


@dataclass(frozen=True)
class MonitoringSpec:
    """What the facility records beyond the always-on counters."""

    #: Keep full step histories on the cluster's time-weighted busy
    #: counters (off by default: histories grow unboundedly).
    record_history: bool = False

    def validate(self) -> None:  # nothing further to check, by design
        return None


@dataclass(frozen=True)
class NodeFault:
    """One timed node lifecycle event.

    ``node`` is the node's name (``cn0003``, ``qn00``).  ``fail`` takes
    the node down (evicting and requeueing its job), ``repair`` brings
    it back, ``drain`` stops new work (an allocated node finishes its
    job first, then parks in ``DRAINING``), ``undrain`` returns a
    drained node to service.
    """

    time: float
    action: str
    node: str

    def validate(self) -> None:
        if self.time < 0:
            raise ConfigurationError("fault event time must be >= 0")
        if self.action not in FAULT_ACTIONS:
            raise ConfigurationError(
                f"fault action {self.action!r} unknown; known: {FAULT_ACTIONS}"
            )
        if not self.node:
            raise ConfigurationError("fault event needs a node name")


@dataclass(frozen=True)
class QPUMaintenance:
    """A booked maintenance window on one QPU (by device name)."""

    qpu: str
    start: float
    duration: float

    def validate(self) -> None:
        if not self.qpu:
            raise ConfigurationError("maintenance window needs a QPU name")
        if self.start < 0:
            raise ConfigurationError("maintenance start must be >= 0")
        if self.duration <= 0:
            raise ConfigurationError("maintenance duration must be > 0")


@dataclass(frozen=True)
class RandomFailures:
    """Stochastic exponential fail/repair churn on one partition."""

    mtbf: float
    mean_repair_time: float
    partition: str = "classical"

    def validate(self) -> None:
        if self.mtbf <= 0 or self.mean_repair_time <= 0:
            raise ConfigurationError(
                "random failures need positive mtbf and mean_repair_time"
            )
        if not self.partition:
            raise ConfigurationError("random failures need a partition name")


@dataclass(frozen=True)
class FaultSchedule:
    """Everything that goes wrong, declaratively.

    Deterministic timed events (``events``), booked QPU maintenance
    windows (``maintenance``) and an optional stochastic background of
    exponential failures (``random_failures``).  An empty schedule is
    the default and installs nothing.
    """

    events: Tuple[NodeFault, ...] = ()
    maintenance: Tuple[QPUMaintenance, ...] = ()
    random_failures: Optional[RandomFailures] = None

    def validate(self) -> None:
        for event in self.events:
            event.validate()
        for window in self.maintenance:
            window.validate()
        if self.random_failures is not None:
            self.random_failures.validate()

    def is_empty(self) -> bool:
        return (
            not self.events
            and not self.maintenance
            and self.random_failures is None
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete facility scenario, as data.

    One spec fixes everything :func:`repro.scenarios.build.build` needs
    to produce a live environment: topology, fleet, workload, policy,
    monitoring and fault schedule, plus the root seed.  Experiments,
    sweeps, presets and the CLI all speak this type.

    Specs are values: they compare by content and round-trip
    losslessly through plain dicts and JSON.

    >>> spec = ScenarioSpec(topology=TopologySpec(classical_nodes=64))
    >>> ScenarioSpec.from_dict(spec.to_dict()) == spec
    True
    >>> ScenarioSpec.from_json(spec.to_json()) == spec
    True
    """

    name: str = "custom"
    description: str = ""
    topology: TopologySpec = field(default_factory=TopologySpec)
    fleet: FleetSpec = field(default_factory=FleetSpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    policy: PolicySpec = field(default_factory=PolicySpec)
    monitoring: MonitoringSpec = field(default_factory=MonitoringSpec)
    faults: FaultSchedule = field(default_factory=FaultSchedule)
    seed: int = 0

    def validate(self) -> "ScenarioSpec":
        """Check every section; returns self so calls chain."""
        if not self.name:
            raise ConfigurationError("a scenario needs a name")
        self.topology.validate()
        self.fleet.validate()
        self.workload.validate()
        self.policy.validate()
        self.monitoring.validate()
        self.faults.validate()
        if (
            self.workload.background_rho > 0
            and self.workload.max_nodes > self.topology.classical_nodes
        ):
            raise ConfigurationError(
                f"workload.max_nodes ({self.workload.max_nodes}) exceeds "
                f"topology.classical_nodes "
                f"({self.topology.classical_nodes}): background jobs "
                "would be unschedulable"
            )
        return self

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain nested dict (JSON-ready; tuples become lists)."""
        return _to_plain(dataclasses.asdict(self))

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        return _spec_from_dict(cls, data, path="scenario")

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ConfigurationError(f"invalid scenario JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigurationError("scenario JSON must be an object")
        return cls.from_dict(data)


# -- dict plumbing -----------------------------------------------------------

#: Fields holding nested spec dataclasses (or tuples/optionals of them),
#: keyed by (owner class, field name).
_NESTED: Dict[Tuple[type, str], Any] = {
    (ScenarioSpec, "topology"): TopologySpec,
    (ScenarioSpec, "fleet"): FleetSpec,
    (ScenarioSpec, "workload"): WorkloadSpec,
    (ScenarioSpec, "policy"): PolicySpec,
    (ScenarioSpec, "monitoring"): MonitoringSpec,
    (ScenarioSpec, "faults"): FaultSchedule,
    (FleetSpec, "devices"): ("tuple", DeviceSpec),
    (FaultSchedule, "events"): ("tuple", NodeFault),
    (FaultSchedule, "maintenance"): ("tuple", QPUMaintenance),
    (FaultSchedule, "random_failures"): ("optional", RandomFailures),
    (WorkloadSpec, "trace"): ("optional", TraceSpec),
    (TraceSpec, "jobs"): ("tuple", TraceJobSpec),
}


def _to_plain(value: Any) -> Any:
    if isinstance(value, dict):
        return {key: _to_plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_plain(item) for item in value]
    return value


def _spec_from_dict(cls: type, data: Mapping[str, Any], path: str) -> Any:
    if not isinstance(data, Mapping):
        raise ConfigurationError(f"{path} must be a mapping, got {data!r}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigurationError(
            f"{path} has unknown keys {sorted(unknown)}; "
            f"known: {sorted(fields)}"
        )
    kwargs: Dict[str, Any] = {}
    for name, value in data.items():
        nested = _NESTED.get((cls, name))
        child_path = f"{path}.{name}"
        if nested is None:
            kwargs[name] = value
        elif isinstance(nested, tuple) and nested[0] == "tuple":
            if not isinstance(value, (list, tuple)):
                raise ConfigurationError(f"{child_path} must be a list")
            kwargs[name] = tuple(
                _spec_from_dict(nested[1], item, f"{child_path}[{i}]")
                for i, item in enumerate(value)
            )
        elif isinstance(nested, tuple) and nested[0] == "optional":
            kwargs[name] = (
                None
                if value is None
                else _spec_from_dict(nested[1], value, child_path)
            )
        else:
            kwargs[name] = _spec_from_dict(nested, value, child_path)
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigurationError(f"bad {path}: {exc}") from exc


# -- dotted-path overrides ---------------------------------------------------


def with_overrides(
    spec: ScenarioSpec, overrides: Mapping[str, Any]
) -> ScenarioSpec:
    """A copy of ``spec`` with dotted-path fields replaced.

    The mechanism sweep axes use to target scenario fields.  Paths must
    name existing fields; structured fields (``faults.events``,
    ``workload.trace``) take plain dict/list values as produced by
    :meth:`ScenarioSpec.to_dict`.  Numeric path segments index into
    list-valued fields, so a sweep axis can target one device group of
    a heterogeneous fleet (``"fleet.devices.0.count"``).  The input
    spec is never mutated and the result is validated before it is
    returned.

    >>> spec = with_overrides(
    ...     ScenarioSpec(),
    ...     {"topology.classical_nodes": 64, "fleet.vqpus_per_qpu": 4},
    ... )
    >>> (spec.topology.classical_nodes, spec.fleet.vqpus_per_qpu)
    (64, 4)
    >>> mixed = ScenarioSpec(fleet=FleetSpec(
    ...     devices=(DeviceSpec("superconducting"),
    ...              DeviceSpec("trapped_ion"))))
    >>> with_overrides(
    ...     mixed, {"fleet.devices.0.count": 3}
    ... ).fleet.devices[0].count
    3
    >>> with_overrides(mixed, {"fleet.devices.7.count": 3})
    Traceback (most recent call last):
        ...
    repro.errors.ConfigurationError: unknown scenario field \
'fleet.devices.7' in override 'fleet.devices.7.count' \
(index out of range)
    >>> with_overrides(ScenarioSpec(), {"topology.warp": 9})
    Traceback (most recent call last):
        ...
    repro.errors.ConfigurationError: unknown scenario field \
'topology.warp' (no such key 'warp')
    """
    if not overrides:
        return spec
    data = spec.to_dict()
    for path, value in overrides.items():
        parts = path.split(".")
        cursor: Any = data
        for index, part in enumerate(parts[:-1]):
            bad = ".".join(parts[: index + 1])
            if isinstance(cursor, list):
                if not part.isdigit():
                    raise ConfigurationError(
                        f"unknown scenario field {bad!r} in override "
                        f"{path!r} (expected a list index, got "
                        f"{part!r})"
                    )
                if int(part) >= len(cursor):
                    raise ConfigurationError(
                        f"unknown scenario field {bad!r} in override "
                        f"{path!r} (index out of range)"
                    )
                cursor = cursor[int(part)]
                continue
            if not isinstance(cursor, dict) or part not in cursor:
                raise ConfigurationError(
                    f"unknown scenario field {bad!r} in override {path!r}"
                )
            cursor = cursor[part]
        leaf = parts[-1]
        if isinstance(cursor, list):
            if not leaf.isdigit():
                raise ConfigurationError(
                    f"unknown scenario field {path!r} "
                    f"(expected a list index, got {leaf!r})"
                )
            if int(leaf) >= len(cursor):
                raise ConfigurationError(
                    f"unknown scenario field {path!r} "
                    "(index out of range)"
                )
            cursor[int(leaf)] = value
        elif not isinstance(cursor, dict) or leaf not in cursor:
            raise ConfigurationError(
                f"unknown scenario field {path!r} "
                f"(no such key {leaf!r})"
            )
        else:
            cursor[leaf] = value
    return ScenarioSpec.from_dict(data).validate()
