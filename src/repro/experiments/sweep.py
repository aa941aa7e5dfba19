"""Parallel sweep engine: fan experiment campaigns across processes.

Every paper artefact is a grid of independent (strategy x load x seed)
simulation campaigns.  This module turns those grids into declarative
:class:`SweepSpec` objects and executes them through one engine:

- **Deterministic seed derivation** — each grid point owns a seed
  derived purely from ``(base_seed, experiment_id, params,
  replication)`` via :func:`repro.sim.rng.derive_seed`, so the point's
  result is a function of its coordinates alone, never of which worker
  ran it or in what order.
- **One executor** — :func:`run_sweep` hands every attempt to a
  :class:`~repro.experiments.pool.PoolSupervisor`: ``workers``
  processes, or its in-process mode when ``workers=1``,
  and always returns results in *point order*; streaming consumers see
  the same order regardless of completion order.
- **Opt-in durable cache** — results are memoised in a
  :class:`~repro.store.ResultStore` under a key of (experiment id,
  runner, params, seed, code version), so re-running a benchmark
  suite only simulates new points.
- **Fault tolerance** — a :class:`~repro.experiments.resilience.
  FailurePolicy` gives each point a retry budget, bounded backoff, a
  per-point wall-clock timeout and graceful degradation
  (``on_error="collect"``); worker crashes are detected, the pool is
  rebuilt and orphaned points resubmitted; the store's run journal
  lets a SIGKILL'd campaign resume skipping completed *and*
  permanently-failed points.

Results are *byte-identical* between serial and parallel execution and
between cold and warm cache (see :func:`canonical_bytes`, which the
determinism suite uses to assert exactly that).  Retries never perturb
per-point seed derivation — a retried attempt re-runs the same
``(params, seed)`` — so the guarantee extends to every point that
completes under any failure policy or chaos injection.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import json
import os
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro._version import __version__
from repro.errors import ConfigurationError, PointFailedError
from repro.experiments.resilience import (
    STATUS_OK,
    ChaosSpec,
    FailurePolicy,
    JournaledOk,
    Outcome,
)
from repro.experiments.pool import AttemptLedger, PoolSupervisor
from repro.sim.rng import derive_seed

#: Environment knobs: default worker count and cache directory for
#: sweeps that do not specify them explicitly.
WORKERS_ENV_VAR = "REPRO_SWEEP_WORKERS"
CACHE_ENV_VAR = "REPRO_SWEEP_CACHE_DIR"
#: Override the code-version component of cache keys (e.g. a VCS hash).
CODE_VERSION_ENV_VAR = "REPRO_SWEEP_CODE_VERSION"

#: A point runner: ``runner(params, seed) -> picklable result``.  Must
#: be a module-level callable so worker processes can import it.
PointRunner = Callable[[Dict[str, Any], int], Any]


def canonical_params(params: Mapping[str, Any]) -> str:
    """Stable textual encoding of a parameter mapping.

    Parameters must be JSON-representable (scalars, lists, nested
    mappings) so that the encoding — and everything derived from it:
    seeds, cache keys — is reproducible across processes and runs.
    Keys are sorted, so declaration order never leaks into identities:

    >>> canonical_params({"b": 2, "a": 1})
    '{"a":1,"b":2}'
    >>> canonical_params({"a": 1, "b": 2})
    '{"a":1,"b":2}'
    """
    try:
        return json.dumps(params, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"sweep params must be JSON-representable: {params!r}"
        ) from exc


def derive_point_seed(
    base_seed: int,
    experiment_id: str,
    params: Mapping[str, Any],
    replication: int = 0,
) -> int:
    """The seed owned by one grid point (pure function of coordinates).

    Any process, any year, any worker count derives the same seed for
    the same coordinates — that is what makes sweep results a function
    of the grid alone:

    >>> derive_point_seed(0, "demo", {"x": 1})
    15097343031012186446
    >>> derive_point_seed(0, "demo", {"x": 1}, replication=1) \\
    ...     != derive_point_seed(0, "demo", {"x": 1})
    True
    """
    return _seed_of_key(
        base_seed, experiment_id, f"{canonical_params(params)}:rep{replication}"
    )


def _seed_of_key(base_seed: int, experiment_id: str, point_key: str) -> int:
    """:func:`derive_point_seed` of an already-encoded
    :meth:`SweepPoint.key`."""
    return derive_seed(base_seed, f"sweep:{experiment_id}:{point_key}")


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: parameters, replication index and derived seed.

    Points from :meth:`SweepSpec.points` carry their key precomputed
    (outside the dataclass fields, so ``==``, ``repr`` and
    :func:`canonical_bytes` see only the four fields); treat ``params``
    as a value.
    """

    index: int
    params: Dict[str, Any]
    replication: int
    seed: int

    def key(self) -> str:
        """Canonical identity of the point within its spec."""
        key = self.__dict__.get("_key")
        if key is None:
            key = f"{canonical_params(self.params)}:rep{self.replication}"
        return key


class _ReadOnlyDict(dict):
    """A dict that refuses mutation — a spec's own copy of a caller's
    mapping.  Unlike :class:`types.MappingProxyType` it pickles, and
    :func:`canonical_bytes` and ``json`` read it as the dict it is."""

    def _read_only(self, *args: Any, **kwargs: Any) -> None:
        raise TypeError("a SweepSpec is immutable")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self) -> Any:
        return (type(self), (dict(self),))


@dataclass(frozen=True)
class SweepSpec:
    """A declarative parameter grid with replications.

    Parameters
    ----------
    experiment_id:
        Stable name scoping seeds and cache entries.
    axes:
        Ordered mapping of axis name to its values; points enumerate the
        cartesian product in row-major order (last axis fastest).
    explicit:
        Alternative to ``axes`` for non-rectangular grids: an explicit
        sequence of parameter mappings, enumerated in the given order.
    constants:
        Parameters merged into every point (part of its identity, so
        they participate in derived seeds and cache keys).
    replications:
        Number of seed replications of the whole grid (outermost loop).
    base_seed:
        Root seed the per-point seeds are derived from.
    seed_mode:
        ``"derived"`` (default) gives every (point, replication) its own
        seed via :func:`derive_point_seed` — statistically independent
        points.  ``"shared"`` gives every point of one replication the
        *same* seed (replication 0 uses ``base_seed`` itself) — the
        matched-universe mode comparison experiments need, where each
        strategy must face an identical random environment.

    Points enumerate the cartesian product in row-major order (last
    axis fastest), replications outermost:

    >>> spec = SweepSpec("demo", axes={"a": [1, 2], "b": [10, 20]})
    >>> [p.params for p in spec.points()]
    [{'a': 1, 'b': 10}, {'a': 1, 'b': 20}, {'a': 2, 'b': 10}, {'a': 2, 'b': 20}]
    >>> len(spec)
    4

    A spec is an immutable value: the constructor deep-copies ``axes``,
    ``explicit`` and ``constants`` into read-only containers (axis
    values become tuples), so its identity — :attr:`digest`, each
    point's seed and key — is computed once and memoised.
    """

    experiment_id: str
    axes: Optional[Mapping[str, Sequence[Any]]] = None
    explicit: Optional[Sequence[Mapping[str, Any]]] = None
    constants: Dict[str, Any] = field(default_factory=dict)
    replications: int = 1
    base_seed: int = 0
    seed_mode: str = "derived"

    def __post_init__(self) -> None:
        if (self.axes is None) == (self.explicit is None):
            raise ConfigurationError(
                "a SweepSpec needs exactly one of axes= or explicit="
            )
        if self.replications < 1:
            raise ConfigurationError("replications must be >= 1")
        if self.seed_mode not in ("derived", "shared"):
            raise ConfigurationError(
                f"unknown seed_mode {self.seed_mode!r} "
                "(expected 'derived' or 'shared')"
            )
        # Own read-only copies: no caller's container can change the
        # grid after its identity has been memoised.
        if self.axes is not None:
            axes = copy.deepcopy(dict(self.axes))
            object.__setattr__(self, "axes", _ReadOnlyDict(
                (axis, tuple(values)) for axis, values in axes.items()
            ))
        else:
            object.__setattr__(self, "explicit", tuple(
                _ReadOnlyDict(entry)
                for entry in copy.deepcopy([dict(e) for e in self.explicit])
            ))
        object.__setattr__(self, "constants", _ReadOnlyDict(
            copy.deepcopy(dict(self.constants or {}))
        ))

    def __getstate__(self) -> Dict[str, Any]:
        # The fields only: memoised identity is rebuilt on demand.
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    def param_sets(self) -> List[Dict[str, Any]]:
        """The grid's parameter mappings, one per point, in point order."""
        if self.explicit is not None:
            sets = [dict(entry) for entry in self.explicit]
        else:
            sets = [{}]
            for axis, values in self.axes.items():
                sets = [
                    {**params, axis: value}
                    for params in sets
                    for value in values
                ]
        for params in sets:
            clash = set(params) & set(self.constants)
            if clash:
                raise ConfigurationError(
                    f"sweep constants clash with axis params: {sorted(clash)}"
                )
            params.update(self.constants)
        return sets

    def _shared_seed(self, replication: int) -> int:
        if replication == 0:
            return self.base_seed
        return derive_seed(
            self.base_seed, f"sweep:{self.experiment_id}:rep{replication}"
        )

    @functools.cached_property
    def _identities(self) -> Tuple[Tuple[Dict[str, Any], int, int, str], ...]:
        """``(params, replication, seed, key)`` per point, in point
        order; each point's params are encoded once, for seed and key."""
        encoded = [
            (params, canonical_params(params)) for params in self.param_sets()
        ]
        identities = []
        for replication in range(self.replications):
            for params, text in encoded:
                key = f"{text}:rep{replication}"
                seed = (
                    self._shared_seed(replication)
                    if self.seed_mode == "shared"
                    else _seed_of_key(self.base_seed, self.experiment_id, key)
                )
                identities.append((params, replication, seed, key))
        return tuple(identities)

    def points(self) -> List[SweepPoint]:
        """Every (params, replication) pair, in deterministic order."""
        points: List[SweepPoint] = []
        for index, (params, replication, seed, key) in enumerate(
            self._identities
        ):
            # Own copy per point and call: points must not share
            # mutable params with each other or with the memo.
            point = SweepPoint(index, dict(params), replication, seed)
            point.__dict__["_key"] = key
            points.append(point)
        return points

    @functools.cached_property
    def digest(self) -> str:
        """Stable identity of the grid (axes, constants, seeds): the
        first 16 hex digits of sha256 over canonical :meth:`to_dict`."""
        return hashlib.sha256(
            canonical_bytes(self.to_dict())
        ).hexdigest()[:16]

    def __len__(self) -> int:
        sets = len(self.explicit) if self.explicit is not None else 1
        if self.axes is not None:
            for values in self.axes.values():
                sets *= len(values)
        return sets * self.replications

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (used by the result store's submissions).

        >>> SweepSpec("demo", axes={"a": [1, 2]}).to_dict()
        {'experiment_id': 'demo', 'axes': {'a': [1, 2]}}
        """
        data: Dict[str, Any] = {"experiment_id": self.experiment_id}
        if self.axes is not None:
            data["axes"] = {
                axis: list(values) for axis, values in self.axes.items()
            }
        if self.explicit is not None:
            data["explicit"] = [dict(entry) for entry in self.explicit]
        if self.constants:
            data["constants"] = dict(self.constants)
        if self.replications != 1:
            data["replications"] = self.replications
        if self.base_seed != 0:
            data["base_seed"] = self.base_seed
        if self.seed_mode != "derived":
            data["seed_mode"] = self.seed_mode
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        """Inverse of :meth:`to_dict` (rejects unknown fields)."""
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - fields
        if unknown:
            raise ConfigurationError(
                f"unknown SweepSpec fields: {sorted(unknown)}"
            )
        return cls(**dict(data))


# -- canonical serialisation -------------------------------------------------


def _canonicalise(value: Any) -> Any:
    """Reduce ``value`` to JSON-encodable form, deterministically."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__type__": type(value).__name__,
            **{
                f.name: _canonicalise(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, dict):
        return {str(key): _canonicalise(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonicalise(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(repr(item) for item in value)
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return value
    return repr(value)


def canonical_bytes(value: Any) -> bytes:
    """Deterministic serialisation used for byte-identity assertions.

    Floats round-trip through ``repr`` (shortest exact form), dict keys
    are sorted, dataclasses are expanded field by field — so two results
    serialise identically iff they are value-identical.

    >>> canonical_bytes({"f": 0.5, "n": [1, 2]})
    b'{"f":0.5,"n":[1,2]}'
    """
    return json.dumps(
        _canonicalise(value), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


# -- code version (part of every cache key) ----------------------------------


_CODE_VERSION: Optional[str] = None


def _git_output(args: List[str]) -> str:
    """Stdout of a git command run next to this file ('' on any failure)."""
    try:
        return subprocess.run(
            ["git", *args],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5.0,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return ""


def _untracked_content_digest() -> str:
    """One line of ``path:sha256`` per untracked file, repo-wide."""
    toplevel = _git_output(["rev-parse", "--show-toplevel"]).strip()
    if not toplevel:
        return ""
    listing = _git_output(
        ["ls-files", "--others", "--exclude-standard", "--full-name", ":/"]
    )
    lines = []
    for rel in listing.splitlines():
        if not rel:
            continue
        try:
            content = (Path(toplevel) / rel).read_bytes()
            lines.append(f"{rel}:{hashlib.sha256(content).hexdigest()}")
        except OSError:
            lines.append(f"{rel}:unreadable")
    return "\n".join(lines)


def _default_code_version() -> str:
    """Cache-key component tied to the code that produced a result.

    ``$REPRO_SWEEP_CODE_VERSION`` wins; otherwise the package version
    plus the current VCS revision (when a ``git`` checkout is visible),
    so committed code changes invalidate cached points even without a
    package-version bump.  A dirty working tree appends a marker
    derived from the uncommitted diff: entries written under edits are
    keyed to *those* edits, never silently reused for the bare commit
    (or for different edits on top of it).
    """
    override = os.environ.get(CODE_VERSION_ENV_VAR)
    if override:
        return override
    global _CODE_VERSION
    if _CODE_VERSION is None:
        version = __version__
        revision = _git_output(["rev-parse", "--short", "HEAD"]).strip()
        if revision:
            version = f"{version}+g{revision}"
            status = _git_output(["status", "--porcelain"])
            if status.strip():
                # Key dirty trees by their actual content: the tracked
                # diff, the porcelain status, and the *contents* of
                # untracked files (which neither status nor diff can
                # see — a new module's edits must invalidate too).
                diff = _git_output(["diff", "HEAD"])
                untracked = _untracked_content_digest()
                digest = hashlib.sha256(
                    (status + diff + untracked).encode("utf-8", "replace")
                ).hexdigest()
                version = f"{version}.dirty.{digest[:12]}"
        _CODE_VERSION = version
    return _CODE_VERSION


# -- execution ---------------------------------------------------------------


@dataclass
class SweepResult:
    """Everything one sweep execution produced, in point order."""

    spec: SweepSpec
    points: List[SweepPoint]
    #: Per-point runner return values, index-aligned with ``points``
    #: (``None`` for points that failed under ``on_error="collect"``).
    values: List[Any]
    workers: int
    cache_hits: int = 0
    cache_misses: int = 0
    wall_seconds: float = 0.0
    #: Per-point simulation seconds (0.0 for cache hits).
    point_seconds: List[float] = field(default_factory=list)
    #: Per-point terminal outcomes, index-aligned with ``points``.
    outcomes: List[Outcome] = field(default_factory=list)

    @property
    def ok_count(self) -> int:
        """Points that completed with a value (executed or cached)."""
        if not self.outcomes:
            return len(self.points)
        return sum(1 for outcome in self.outcomes if outcome.ok)

    @property
    def failure_count(self) -> int:
        return len(self.points) - self.ok_count

    def failures(self) -> List[Outcome]:
        """Terminal non-ok outcomes, in point order."""
        return [o for o in self.outcomes if not o.ok]


def runner_name(runner: PointRunner) -> str:
    """The ``module:qualname`` identity cache/journal/store keys use.

    >>> runner_name(canonical_params)
    'repro.experiments.sweep:canonical_params'
    """
    module = getattr(runner, "__module__", "") or ""
    qualname = getattr(runner, "__qualname__", repr(runner))
    return f"{module}:{qualname}"


def _run_point(
    runner: PointRunner,
    params: Dict[str, Any],
    seed: int,
    chaos: Optional[ChaosSpec],
    point_index: int,
    attempt: int,
) -> Any:
    """One attempt of one point, as the supervisor runs it.

    Chaos is injected before the runner runs, so injection can never
    perturb the runner's RNG draws.
    """
    if chaos is not None:
        chaos.inject(point_index, attempt)
    return runner(params, seed)


def resolve_workers(workers: Optional[Any]) -> int:
    """Explicit worker count, else ``$REPRO_SWEEP_WORKERS``, else 1.

    Accepts what the CLI hands through verbatim: an integer, a string
    integer, or ``'auto'`` (one worker per CPU).
    """
    source = "workers"
    if workers is None:
        workers = os.environ.get(WORKERS_ENV_VAR, "1")
        source = f"${WORKERS_ENV_VAR}"
    if isinstance(workers, str):
        if workers.strip().lower() == "auto":
            workers = os.cpu_count() or 1
        else:
            try:
                workers = int(workers)
            except ValueError:
                raise ConfigurationError(
                    f"{source} must be 'auto' or an integer, "
                    f"got {workers!r}"
                ) from None
    if workers < 1:
        raise ConfigurationError(f"{source} must be >= 1, got {workers}")
    return workers


def run_sweep(
    spec: SweepSpec,
    runner: PointRunner,
    workers: Optional[int] = None,
    cache: Optional[Any] = None,
    on_result: Optional[Callable[[SweepPoint, Any], None]] = None,
    policy: Optional[FailurePolicy] = None,
    chaos: Optional[ChaosSpec] = None,
    journal: Optional[Any] = None,
    resume: bool = True,
    on_outcome: Optional[Callable[[SweepPoint, Outcome], None]] = None,
) -> SweepResult:
    """Execute every point of ``spec`` through ``runner``.

    ``on_result(point, value)`` streams points that completed with a
    value **in point order** (out-of-order completions are buffered),
    so aggregation is deterministic no matter how the pool schedules
    the work; ``on_outcome(point, outcome)`` streams *every* terminal
    outcome, failures included, in the same order.  The returned
    :class:`SweepResult` holds values and outcomes in point order.

    ``policy`` governs retries, per-point timeouts and degradation
    (the default policy reproduces the historical behaviour: one
    attempt, no timeout, first failure raises).  ``cache`` is a
    store's :meth:`~repro.store.ResultStore.sweep_cache` (see
    :func:`sweep_cache`); ``journal`` — its
    :meth:`~repro.store.ResultStore.run_journal` — durably records
    terminal outcomes as they happen; with ``resume=True`` a re-run
    skips journaled points (completed ones come back from the cache,
    permanent failures are replayed as outcomes).  ``chaos`` injects
    deterministic faults for testing recovery paths.

    At ``workers=1`` (or with at most one point to run) attempts run
    in this process, one after another in point order, retries
    queued behind the points already submitted.  A point needing
    process isolation (a timeout is set, or chaos may hang/kill)
    executes through a worker pool even at ``workers=1`` — results
    are byte-identical either way.

    >>> spec = SweepSpec("doc", axes={"x": [1, 2, 3]})
    >>> run_sweep(spec, lambda params, seed: params["x"] * 10,
    ...           workers=1).values
    [10, 20, 30]
    """
    workers = resolve_workers(workers)
    policy = policy or FailurePolicy()
    points = spec.points()
    name = runner_name(runner)
    if journal is not None:
        from repro.store.cache import StoreRunJournal

        if not isinstance(journal, StoreRunJournal):
            raise ConfigurationError(
                "journal= takes a ResultStore.run_journal(...), got "
                f"{journal!r}"
            )
    start = time.perf_counter()
    values: List[Any] = [None] * len(points)
    seconds: List[float] = [0.0] * len(points)
    completed = [False] * len(points)
    outcomes: List[Optional[Outcome]] = [None] * len(points)
    delivered = 0
    hits = 0

    def flush() -> None:
        """Stream the completed contiguous prefix, in point order."""
        nonlocal delivered
        while delivered < len(points) and completed[delivered]:
            outcome = outcomes[delivered]
            if on_outcome is not None:
                on_outcome(points[delivered], outcome)
            if on_result is not None and (outcome is None or outcome.ok):
                on_result(points[delivered], values[delivered])
            delivered += 1

    def finish(
        point: SweepPoint, value: Any, outcome: Outcome
    ) -> None:
        values[point.index] = value
        if outcome.attempt_seconds:
            seconds[point.index] = outcome.attempt_seconds[-1]
        completed[point.index] = True
        outcomes[point.index] = outcome
        if cache is not None:
            cache.store(spec, name, point, value)
        if journal is not None and not outcome.resumed:
            journal.record(outcome)

    def fail_terminal(
        point: SweepPoint,
        outcome: Outcome,
        exception: Optional[BaseException] = None,
    ) -> None:
        """Record a permanent failure; collect it or abort the sweep."""
        outcomes[point.index] = outcome
        if journal is not None and not outcome.resumed:
            journal.record(outcome)
        if policy.collects:
            values[point.index] = None
            completed[point.index] = True
            return
        if exception is not None:
            raise exception
        raise PointFailedError(outcome.describe(), outcome=outcome)

    journaled: Dict[str, Union[Outcome, JournaledOk]] = {}
    if journal is not None:
        # Lock before consulting the journal: a second live writer
        # fails fast with StoreLockedError instead of interleaving
        # records with this run later on.
        journal.acquire()
        if resume:
            journaled = journal.load()
        else:
            journal.reset()

    #: Points still to simulate after cache and journal consultation.
    to_run: List[SweepPoint] = []
    try:
        loaded = (
            cache.load_many(spec, name, points) if cache is not None
            else [(False, None)] * len(points)
        )
        for point, (hit, value) in zip(points, loaded):
            key = point.key()
            prior = journaled.get(key)
            if hit:
                values[point.index] = value
                completed[point.index] = True
                hits += 1
                outcomes[point.index] = Outcome(
                    key=key,
                    status=STATUS_OK,
                    index=point.index,
                    attempts=prior.attempts if prior else 0,
                    attempt_seconds=(
                        list(prior.attempt_seconds) if prior else []
                    ),
                    cached=True,
                    resumed=prior is not None,
                )
                continue
            if prior is not None and prior.status != STATUS_OK:
                # Journaled permanent failure: replay the outcome
                # instead of burning attempts on a known-bad point.
                resumed = dataclasses.replace(
                    prior, index=point.index, resumed=True
                )
                fail_terminal(point, resumed)
                continue
            # A journaled ok whose cache entry is gone (no cache, or
            # quarantined) falls through and re-executes.
            to_run.append(point)

        flush()
        isolate = policy.timeout_seconds is not None or (
            chaos is not None and chaos.needs_isolation()
        )
        in_process = (workers == 1 or len(to_run) <= 1) and not isolate
        _run_points(
            to_run,
            runner,
            PoolSupervisor(
                1 if in_process else min(workers, len(to_run)),
                in_process=in_process,
            ),
            policy,
            chaos,
            finish,
            fail_terminal,
            flush,
        )
        flush()
    finally:
        if journal is not None:
            journal.close()

    return SweepResult(
        spec=spec,
        points=points,
        values=values,
        workers=workers,
        cache_hits=hits,
        cache_misses=len(to_run),
        wall_seconds=time.perf_counter() - start,
        point_seconds=seconds,
        outcomes=outcomes,
    )


def _run_points(
    to_run: List[SweepPoint],
    runner: PointRunner,
    supervisor: PoolSupervisor,
    policy: FailurePolicy,
    chaos: Optional[ChaosSpec],
    finish: Callable[[SweepPoint, Any, Outcome], None],
    fail_terminal: Callable[..., None],
    flush: Callable[[], None],
) -> None:
    """Run ``to_run`` to terminal outcomes over a supervisor.

    The :class:`~repro.experiments.pool.PoolSupervisor` runs the
    attempts (in-process or in its pool), enforces the per-point
    timeout and attributes worker crashes (innocents re-run alone,
    uncharged); an :class:`~repro.experiments.pool.AttemptLedger`
    charges each report under ``policy`` and says whether to retry,
    back off or give up.  On *any* abort — ``KeyboardInterrupt``, a
    raising ``on_result`` callback, a terminal failure under
    ``on_error="raise"`` — the supervisor kills its workers, never
    orphaning them.
    """
    points = {point.index: point for point in to_run}
    ledger = AttemptLedger("point")

    def submit(index: int) -> None:
        point = points[index]
        supervisor.submit(
            index,
            _run_point,
            (
                runner,
                # A copy, so an in-process runner mutating it can never
                # corrupt the point's identity (cache key, reports).
                dict(point.params),
                point.seed,
                chaos,
                index,
                ledger.attempt(index),
            ),
            policy.timeout_seconds,
        )

    try:
        for point in to_run:
            ledger.open(point.index, policy, point.key(), point.index)
            submit(point.index)
        while supervisor.pending or ledger.next_due is not None:
            for index in ledger.due():
                submit(index)
            next_due = ledger.next_due
            for index, report in supervisor.drain(
                None if next_due is None else next_due - time.monotonic()
            ):
                verdict = ledger.settle(index, report)
                if verdict.kind == "retry":
                    submit(index)
                elif verdict.kind == "ok":
                    finish(points[index], verdict.value, verdict.outcome)
                elif verdict.kind == "terminal":
                    fail_terminal(
                        points[index], verdict.outcome, verdict.exception
                    )
            flush()
    finally:
        supervisor.stop()


def sweep_cache(cache_dir: Optional[os.PathLike]) -> Optional[Any]:
    """Cache at ``cache_dir``, else ``$REPRO_SWEEP_CACHE_DIR``, else none.

    The cache is a :class:`~repro.store.ResultStore` opened at that
    directory (see :mod:`repro.store`): durable SQLite + columnar
    metrics, byte-identical values.
    """
    cache_dir = cache_dir or os.environ.get(CACHE_ENV_VAR)
    if not cache_dir:
        return None
    from repro.store import ResultStore

    return ResultStore(cache_dir).sweep_cache()


def run_cached_sweep(
    spec: SweepSpec,
    runner: PointRunner,
    cache_dir: Optional[os.PathLike] = None,
    resume: bool = False,
    **kwargs: Any,
) -> SweepResult:
    """:func:`run_sweep` with the store of :func:`sweep_cache` as cache
    and run journal; that store is closed again before returning.

    Every experiment's ``run`` passes its sweep options through to
    here.  ``resume`` defaults to ``False``, unlike :func:`run_sweep`:
    a re-run retries journaled failures unless asked to resume."""
    cache = sweep_cache(cache_dir)
    if cache is None:
        return run_sweep(spec, runner, resume=resume, **kwargs)
    store = cache.result_store
    try:
        return run_sweep(
            spec,
            runner,
            cache=cache,
            journal=store.run_journal(spec.experiment_id, runner_name(runner)),
            resume=resume,
            **kwargs,
        )
    finally:
        store.close()

