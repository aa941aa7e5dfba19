"""Scheduling policies: FIFO, EASY backfill, conservative backfill.

All three policies share an *availability timeline*: a per-partition
piecewise-constant profile of free node and gres counts, built from the
expected end times (start + requested walltime) of running jobs.  EASY
makes a reservation for the highest-priority blocked job and lets later
jobs jump the queue only if they do not delay that reservation;
conservative gives every queued job a reservation.

The timeline is count-based (nodes within a partition are
interchangeable), which matches how production backfill schedulers
reason.  To make the hot path scale to fleet-sized workloads, the
profile is *compiled* rather than rescanned:

- :class:`PartitionTimeline` stores sparse capacity deltas but, on
  demand, materialises prefix-summed ``(time, free_nodes, free_gres)``
  arrays plus suffix running-minima (:meth:`PartitionTimeline.compile`).
  :meth:`PartitionTimeline.fits` is then a bisect plus an O(window)
  scan — with O(1) accept/reject fast paths through the suffix minima —
  instead of two full accumulation passes over every breakpoint.
- :meth:`ClusterTimeline.earliest_start` walks the candidate
  breakpoints *once* per component with a monotonic-deque sliding
  window minimum (O(B) amortised) instead of re-running ``fits`` from
  scratch per candidate (O(B²)).
- Timelines support copy-on-write *forks*
  (:meth:`ClusterTimeline.fork` / :meth:`ClusterTimeline.speculate`):
  a fork shares the delta arrays and compiled profile with its parent
  until one side writes, so :class:`EasyBackfillPolicy` can trial-place
  a backfill candidate without reconstructing the cluster timeline.
- :class:`TimelineCache` keeps one base timeline alive *across*
  scheduling passes, applying only the allocation deltas the cluster
  reports (job starts/ends, malleable grow/shrink) and re-anchoring the
  profile to the current instant (:meth:`ClusterTimeline.advance_to`).
  A capacity checksum acts as the full-rebuild escape hatch (node
  failures/repairs change usable capacity without an allocation
  event), and a debug mode cross-checks every incremental profile
  against a from-scratch rebuild.

Policies receive their timeline through
:meth:`SchedulingPolicy._timeline`, so the public ``select`` API is
unchanged whether or not a cache is attached.
"""

from __future__ import annotations

import bisect
import os
from collections import deque
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.errors import ConfigurationError, SchedulingError
from repro.scheduler.job import Job, JobComponent

#: Cap on how far into the future the timeline reasons (one year); jobs
#: that cannot start within it are treated as unschedulable for now.
HORIZON = 365 * 24 * 3600.0

#: Environment switch for the incremental-vs-rebuild cross-check.
DEBUG_ENV_VAR = "REPRO_TIMELINE_DEBUG"


class PartitionTimeline:
    """Free-capacity profile for one partition, from ``now`` onwards.

    The profile is stored as sorted breakpoint times with capacity
    deltas applied *at* each time, and compiled on demand into
    prefix-summed free-capacity arrays plus suffix running-minima.
    Mutations invalidate the compiled form; forks share both forms
    copy-on-write.
    """

    __slots__ = (
        "now",
        "capacity_nodes",
        "capacity_gres",
        "_times",
        "_node_deltas",
        "_gres_deltas",
        "_pending",
        "_owns",
        "_owns_compiled",
        "_dirty",
        "_cnodes",
        "_cgres",
        "_snodes",
        "_sgres",
    )

    #: Above this many buffered deltas, :meth:`_flush` rebuilds the
    #: breakpoint arrays with one merge pass instead of bisect-inserts.
    _FLUSH_MERGE_THRESHOLD = 4

    def __init__(
        self,
        capacity_nodes: int,
        capacity_gres: Dict[str, int],
        now: float,
    ) -> None:
        self.now = now
        self.capacity_nodes = capacity_nodes
        self.capacity_gres = dict(capacity_gres)
        # Sorted breakpoint times; deltas applied *at* each time.
        self._times: List[float] = [now]
        self._node_deltas: List[int] = [capacity_nodes]
        self._gres_deltas: List[Dict[str, int]] = [dict(capacity_gres)]
        #: Buffered deltas (time -> [nodes, gres]) not yet merged into
        #: the sorted arrays; merged lazily by :meth:`_flush`.
        self._pending: Dict[float, list] = {}
        self._owns = True
        self._owns_compiled = True
        self._dirty = True
        self._cnodes: List[int] = []
        self._cgres: Dict[str, List[int]] = {}
        self._snodes: List[int] = []
        self._sgres: Dict[str, List[int]] = {}

    # -- copy-on-write ------------------------------------------------------

    def fork(self) -> "PartitionTimeline":
        """A trial copy sharing state with this timeline until written."""
        self._flush()
        clone = PartitionTimeline.__new__(PartitionTimeline)
        clone.now = self.now
        clone.capacity_nodes = self.capacity_nodes
        clone.capacity_gres = self.capacity_gres
        clone._times = self._times
        clone._node_deltas = self._node_deltas
        clone._gres_deltas = self._gres_deltas
        clone._pending = {}
        # Neither side may mutate the shared arrays in place from here.
        self._owns = False
        clone._owns = False
        self._owns_compiled = False
        clone._owns_compiled = False
        clone._dirty = self._dirty
        clone._cnodes = self._cnodes
        clone._cgres = self._cgres
        clone._snodes = self._snodes
        clone._sgres = self._sgres
        return clone

    def _materialise(self) -> None:
        if self._owns:
            return
        self._times = list(self._times)
        self._node_deltas = list(self._node_deltas)
        self._gres_deltas = [dict(d) for d in self._gres_deltas]
        self._owns = True

    def _materialise_compiled(self) -> None:
        if self._owns_compiled:
            return
        self._cnodes = list(self._cnodes)
        self._cgres = {t: list(c) for t, c in self._cgres.items()}
        self._snodes = list(self._snodes)
        self._sgres = {t: list(c) for t, c in self._sgres.items()}
        self._owns_compiled = True

    # -- mutation -----------------------------------------------------------

    def _add_delta(
        self, time: float, nodes: int, gres: Optional[Dict[str, int]] = None
    ) -> None:
        """Buffer one capacity delta; O(1) until a reader flushes."""
        self._dirty = True
        time = max(time, self.now)
        entry = self._pending.get(time)
        if entry is None:
            self._pending[time] = [nodes, dict(gres) if gres else {}]
        else:
            entry[0] += nodes
            if gres:
                pending_gres = entry[1]
                for gres_type, count in gres.items():
                    pending_gres[gres_type] = (
                        pending_gres.get(gres_type, 0) + count
                    )

    def _flush(self) -> None:
        """Merge buffered deltas into the sorted breakpoint arrays.

        A handful of deltas bisect-insert individually; larger batches
        (e.g. building a timeline from every active allocation) merge in
        one pass — O(B + k log k) instead of O(k·B) repeated inserts.
        """
        pending = self._pending
        if not pending:
            return
        self._materialise()
        self._pending = {}
        times = self._times
        node_deltas = self._node_deltas
        gres_deltas = self._gres_deltas
        if len(pending) <= self._FLUSH_MERGE_THRESHOLD:
            for time, (nodes, gres) in sorted(pending.items()):
                index = bisect.bisect_left(times, time)
                if index < len(times) and times[index] == time:
                    node_deltas[index] += nodes
                    if gres:
                        entry = gres_deltas[index]
                        for gres_type, count in gres.items():
                            entry[gres_type] = entry.get(gres_type, 0) + count
                else:
                    times.insert(index, time)
                    node_deltas.insert(index, nodes)
                    gres_deltas.insert(index, gres)
            return
        merged_times: List[float] = []
        merged_nodes: List[int] = []
        merged_gres: List[Dict[str, int]] = []
        index = 0
        count = len(times)
        for time, (nodes, gres) in sorted(pending.items()):
            while index < count and times[index] < time:
                merged_times.append(times[index])
                merged_nodes.append(node_deltas[index])
                merged_gres.append(gres_deltas[index])
                index += 1
            if index < count and times[index] == time:
                nodes += node_deltas[index]
                entry = gres_deltas[index]
                for gres_type, delta in entry.items():
                    gres[gres_type] = gres.get(gres_type, 0) + delta
                index += 1
            merged_times.append(time)
            merged_nodes.append(nodes)
            merged_gres.append(gres)
        merged_times.extend(times[index:])
        merged_nodes.extend(node_deltas[index:])
        merged_gres.extend(gres_deltas[index:])
        self._times = merged_times
        self._node_deltas = merged_nodes
        self._gres_deltas = merged_gres

    def occupy(
        self,
        start: float,
        end: float,
        nodes: int,
        gres: Optional[Dict[str, int]] = None,
    ) -> None:
        """Subtract capacity over [start, end) — a running job or
        a reservation.

        When the compiled profile is current, the occupation is *patched
        into* the compiled arrays (an O(window) slice update plus a
        bounded suffix-minima ripple) instead of invalidating them —
        the conservative-backfill loop alternates ``earliest_start``
        and ``occupy``, and this keeps each iteration from paying a
        full O(B) recompile.
        """
        if end <= start:
            return
        if not self._dirty and not self._pending and (
            not gres or all(t in self._cgres for t in gres)
        ):
            self._patch_occupy(start, end, nodes, gres)
            return
        negative_gres = {t: -c for t, c in (gres or {}).items()}
        self._add_delta(start, -nodes, negative_gres)
        if end < HORIZON + self.now:
            self._add_delta(end, nodes, dict(gres or {}))

    def _insert_breakpoint(self, index: int, time: float) -> None:
        """Insert a breakpoint carrying over the values in force.

        Compiled prefix columns duplicate their left neighbour (the
        profile is right-continuous); suffix columns get a placeholder
        that the caller's window recompute overwrites."""
        self._times.insert(index, time)
        self._node_deltas.insert(index, 0)
        self._gres_deltas.insert(index, {})
        self._cnodes.insert(index, self._cnodes[index - 1])
        self._snodes.insert(index, 0)
        for column in self._cgres.values():
            column.insert(index, column[index - 1])
        for column in self._sgres.values():
            column.insert(index, 0)

    @staticmethod
    def _repair_suffix(
        prefix: List[int], suffix: List[int], lo: int, hi: int
    ) -> None:
        """Recompute suffix running-minima over [lo, hi], then ripple
        left of ``lo`` until a value is unchanged."""
        last = len(prefix) - 1
        index = hi if hi < last else last
        while index >= lo:
            value = prefix[index]
            if index < last and suffix[index + 1] < value:
                value = suffix[index + 1]
            suffix[index] = value
            index -= 1
        index = lo - 1
        while index >= 0:
            value = prefix[index]
            if suffix[index + 1] < value:
                value = suffix[index + 1]
            if suffix[index] == value:
                break
            suffix[index] = value
            index -= 1

    def _patch_occupy(
        self,
        start: float,
        end: float,
        nodes: int,
        gres: Optional[Dict[str, int]],
    ) -> None:
        """Apply an occupation to delta *and* compiled arrays in place,
        leaving the compiled form exactly equal to a recompile (integer
        prefix sums patch exactly; no float error can accumulate)."""
        self._materialise()
        self._materialise_compiled()
        start = max(start, self.now)
        times = self._times
        lo = bisect.bisect_left(times, start)
        if lo == len(times) or times[lo] != start:
            self._insert_breakpoint(lo, start)
        bounded = end < HORIZON + self.now
        if bounded:
            hi = bisect.bisect_left(times, end)
            if hi == len(times) or times[hi] != end:
                self._insert_breakpoint(hi, end)
        else:
            hi = len(times)
        node_deltas = self._node_deltas
        node_deltas[lo] -= nodes
        if bounded:
            node_deltas[hi] += nodes
        cnodes = self._cnodes
        if nodes:
            cnodes[lo:hi] = [value - nodes for value in cnodes[lo:hi]]
        self._repair_suffix(cnodes, self._snodes, lo, hi)
        gres_deltas = self._gres_deltas
        for gres_type, count in (gres or {}).items():
            entry = gres_deltas[lo]
            entry[gres_type] = entry.get(gres_type, 0) - count
            if bounded:
                entry = gres_deltas[hi]
                entry[gres_type] = entry.get(gres_type, 0) + count
            if count:
                column = self._cgres[gres_type]
                column[lo:hi] = [value - count for value in column[lo:hi]]
        for gres_type, column in self._cgres.items():
            self._repair_suffix(column, self._sgres[gres_type], lo, hi)

    def apply_busy(
        self,
        start: float,
        end: Optional[float],
        nodes: int,
        gres: Optional[Dict[str, int]] = None,
    ) -> None:
        """Incremental-update primitive: subtract capacity over
        [start, end), or for good when ``end`` is None (a job whose
        expected end lies beyond the horizon)."""
        negative_gres = {t: -c for t, c in (gres or {}).items()}
        self._add_delta(start, -nodes, negative_gres)
        if end is not None:
            self._add_delta(end, nodes, dict(gres or {}))

    def apply_free(
        self,
        start: float,
        end: Optional[float],
        nodes: int,
        gres: Optional[Dict[str, int]] = None,
    ) -> None:
        """Inverse of :meth:`apply_busy` from ``start`` onwards: return
        capacity that an earlier ``apply_busy`` took, cancelling its
        give-back delta at ``end``.  Exactly-cancelled breakpoints are
        pruned so long-lived cached timelines do not accumulate dead
        entries."""
        self._add_delta(start, nodes, dict(gres or {}))
        if end is not None:
            negative_gres = {t: -c for t, c in (gres or {}).items()}
            self._add_delta(end, -nodes, negative_gres)
            self._prune_zero_at(end)
        self._prune_zero_at(start)

    def _prune_zero_at(self, time: float) -> None:
        self._flush()
        index = bisect.bisect_left(self._times, time)
        if index == 0 or index >= len(self._times):
            return  # never prune the anchor entry at ``now``
        if self._times[index] != time or self._node_deltas[index] != 0:
            return
        if any(self._gres_deltas[index].values()):
            return
        del self._times[index]
        del self._node_deltas[index]
        del self._gres_deltas[index]

    def advance_to(self, new_now: float) -> None:
        """Re-anchor the profile at ``new_now``: merge every delta at or
        before it into a single opening entry and drop breakpoints that
        cancelled out."""
        if new_now <= self.now:
            return
        self._flush()
        self._materialise()
        self._dirty = True
        times = self._times
        cut = bisect.bisect_right(times, new_now)
        nodes = sum(self._node_deltas[:cut])
        gres: Dict[str, int] = {}
        for delta in self._gres_deltas[:cut]:
            for gres_type, count in delta.items():
                gres[gres_type] = gres.get(gres_type, 0) + count
        gres = {t: c for t, c in gres.items() if c != 0}
        new_times = [new_now]
        new_nodes = [nodes]
        new_gres = [gres]
        for index in range(cut, len(times)):
            node_delta = self._node_deltas[index]
            gres_delta = self._gres_deltas[index]
            if node_delta == 0 and not any(gres_delta.values()):
                continue
            new_times.append(times[index])
            new_nodes.append(node_delta)
            new_gres.append(gres_delta)
        self._times = new_times
        self._node_deltas = new_nodes
        self._gres_deltas = new_gres
        self.now = new_now

    # -- compiled profile ---------------------------------------------------

    def compile(self) -> None:
        """Materialise prefix-summed free-capacity arrays plus suffix
        running-minima.  Idempotent; mutations re-flag for recompile
        (except :meth:`occupy` against a current profile, which patches
        the compiled arrays in place and stays clean)."""
        self._flush()
        if not self._dirty:
            return
        node_deltas = self._node_deltas
        gres_deltas = self._gres_deltas
        count = len(node_deltas)
        cnodes: List[int] = [0] * count
        acc = 0
        for index in range(count):
            acc += node_deltas[index]
            cnodes[index] = acc
        gres_types = set()
        for delta in gres_deltas:
            gres_types.update(delta)
        cgres: Dict[str, List[int]] = {}
        for gres_type in gres_types:
            column = [0] * count
            acc = 0
            for index in range(count):
                acc += gres_deltas[index].get(gres_type, 0)
                column[index] = acc
            cgres[gres_type] = column
        snodes = list(cnodes)
        for index in range(count - 2, -1, -1):
            if snodes[index + 1] < snodes[index]:
                snodes[index] = snodes[index + 1]
        sgres: Dict[str, List[int]] = {}
        for gres_type, column in cgres.items():
            suffix = list(column)
            for index in range(count - 2, -1, -1):
                if suffix[index + 1] < suffix[index]:
                    suffix[index] = suffix[index + 1]
            sgres[gres_type] = suffix
        self._cnodes = cnodes
        self._cgres = cgres
        self._snodes = snodes
        self._sgres = sgres
        self._owns_compiled = True
        self._dirty = False

    # -- queries ------------------------------------------------------------

    def profile(self) -> List[Tuple[float, int, Dict[str, int]]]:
        """Piecewise-constant (time, free_nodes, free_gres) segments."""
        self.compile()
        segments = []
        gres_acc: Dict[str, int] = {}
        for index, time in enumerate(self._times):
            for gres_type, column in self._cgres.items():
                gres_acc[gres_type] = column[index]
            segments.append((time, self._cnodes[index], dict(gres_acc)))
        return segments

    def free_at(self, time: float) -> Tuple[int, Dict[str, int]]:
        """Free (nodes, gres) in force at ``time``."""
        self.compile()
        index = bisect.bisect_right(self._times, time) - 1
        if index < 0:
            return 0, {}
        return self._cnodes[index], {
            gres_type: column[index]
            for gres_type, column in self._cgres.items()
        }

    def fits(
        self,
        start: float,
        duration: float,
        nodes: int,
        gres: Optional[Dict[str, int]] = None,
    ) -> bool:
        """Whether ``nodes`` + ``gres`` are free throughout
        [start, start+duration).

        One bisect locates the segment in force at ``start``; the suffix
        minima give O(1) accept (and full-horizon reject); otherwise a
        single scan over the segments inside the window decides.
        """
        self.compile()
        times = self._times
        end = start + duration
        lo = bisect.bisect_right(times, start) - 1
        if lo < 0:
            # Before the first breakpoint nothing is free.
            if nodes > 0:
                return False
            if gres and any(count > 0 for count in gres.values()):
                return False
            if end <= times[0]:
                return True
            lo = 0
        elif self._cnodes[lo] < nodes:
            return False  # not even free at the window start
        # O(1) accept: enough capacity from ``lo`` all the way out.
        accepted = self._snodes[lo] >= nodes
        if accepted and gres:
            for gres_type, needed in gres.items():
                column = self._sgres.get(gres_type)
                free = column[lo] if column is not None else 0
                if free < needed:
                    accepted = False
                    break
        if accepted:
            return True
        hi = bisect.bisect_left(times, end) - 1
        if hi < lo:
            hi = lo
        if hi >= len(times) - 1:
            # Window reaches past the final breakpoint, where the
            # suffix minima are exact — and they just rejected.
            return False
        window = slice(lo, hi + 1)
        if min(self._cnodes[window]) < nodes:
            return False
        if gres:
            for gres_type, needed in gres.items():
                column = self._cgres.get(gres_type)
                if column is None:
                    if needed > 0:
                        return False
                elif min(column[window]) < needed:
                    return False
        return True

    def sweep_checker(
        self,
        duration: float,
        nodes: int,
        gres: Optional[Dict[str, int]] = None,
    ) -> "_SweepChecker":
        """A single-pass feasibility checker for ascending start times.

        Feeding it candidate starts in non-decreasing order answers
        "does [t, t+duration) fit?" for each in O(1) amortised via
        monotonic-deque sliding-window minima over the compiled arrays.
        """
        self.compile()
        arrays: List[List[int]] = [self._cnodes]
        suffixes: List[List[int]] = [self._snodes]
        needs: List[int] = [nodes]
        impossible = False
        if gres:
            for gres_type, needed in gres.items():
                column = self._cgres.get(gres_type)
                if column is None:
                    if needed > 0:
                        impossible = True
                    continue
                arrays.append(column)
                suffixes.append(self._sgres[gres_type])
                needs.append(needed)
        return _SweepChecker(
            self._times, duration, arrays, suffixes, needs, impossible
        )


class _SweepChecker:
    """Sliding-window minimum over a compiled partition profile.

    ``check`` must be called with non-decreasing start times; each call
    advances two pointers and per-metric monotonic deques, so a full
    sweep over all breakpoints is O(B) amortised per metric.
    """

    __slots__ = (
        "_times",
        "_duration",
        "_arrays",
        "_suffixes",
        "_needs",
        "_deques",
        "_lo",
        "_hi",
        "_impossible",
    )

    def __init__(
        self,
        times: List[float],
        duration: float,
        arrays: List[List[int]],
        suffixes: List[List[int]],
        needs: List[int],
        impossible: bool,
    ) -> None:
        self._times = times
        self._duration = duration
        self._arrays = arrays
        self._suffixes = suffixes
        self._needs = needs
        self._deques = [deque() for _ in arrays]
        self._lo = 0
        self._hi = 0
        self._impossible = impossible

    def check(self, start: float) -> bool:
        if self._impossible:
            return False
        times = self._times
        count = len(times)
        lo = self._lo
        while lo + 1 < count and times[lo + 1] <= start:
            lo += 1
        self._lo = lo
        end = start + self._duration
        hi = self._hi
        if hi < count and times[hi] < end:
            deques = self._deques
            arrays = self._arrays
            while hi < count and times[hi] < end:
                for dq, array in zip(deques, arrays):
                    value = array[hi]
                    while dq and array[dq[-1]] >= value:
                        dq.pop()
                    dq.append(hi)
                hi += 1
            self._hi = hi
        if hi >= count:
            # The window reaches past the final breakpoint: suffix
            # minima are exact for [lo, ...).
            for suffix, needed in zip(self._suffixes, self._needs):
                if suffix[lo] < needed:
                    return False
            return True
        for dq, array, needed in zip(self._deques, self._arrays, self._needs):
            while dq and dq[0] < lo:
                dq.popleft()
            if dq:
                if array[dq[0]] < needed:
                    return False
            elif array[lo] < needed:
                # Empty window: only the value in force at ``start``.
                return False
        return True


class ClusterTimeline:
    """Availability timelines for every partition of a cluster."""

    __slots__ = ("now", "partitions")

    def __init__(self, cluster: Cluster, now: float) -> None:
        self.now = now
        self.partitions: Dict[str, PartitionTimeline] = {}
        for name, partition in cluster.partitions.items():
            gres_capacity = {
                gres_type: partition.gres_capacity(gres_type)
                for gres_type in partition.gres_types()
            }
            self.partitions[name] = PartitionTimeline(
                partition.usable_node_count(), gres_capacity, now
            )
        # Subtract running allocations until their expected ends.
        for allocation in cluster.active_allocations():
            timeline = self.partitions[allocation.partition_name]
            timeline.occupy(
                now,
                min(allocation.expected_end, now + HORIZON),
                allocation.node_count,
                allocation.gres_counts(),
            )

    # -- copy-on-write ------------------------------------------------------

    def fork(self) -> "ClusterTimeline":
        """A trial copy: cheap, copy-on-write per partition."""
        clone = ClusterTimeline.__new__(ClusterTimeline)
        clone.now = self.now
        clone.partitions = {
            name: timeline.fork()
            for name, timeline in self.partitions.items()
        }
        return clone

    @contextmanager
    def speculate(self) -> Iterator["ClusterTimeline"]:
        """Context manager yielding a disposable trial fork.

        Mutations on the trial never reach this timeline; the fork is
        simply dropped on exit.
        """
        yield self.fork()

    def advance_to(self, new_now: float) -> None:
        """Re-anchor every partition profile at ``new_now``."""
        if new_now <= self.now:
            return
        for timeline in self.partitions.values():
            timeline.advance_to(new_now)
        self.now = new_now

    # -- queries ------------------------------------------------------------

    def _partition_timeline(self, name: str) -> PartitionTimeline:
        timeline = self.partitions.get(name)
        if timeline is None:
            raise ConfigurationError(f"unknown partition {name!r}")
        return timeline

    def fits_at(self, components: List[JobComponent], start: float,
                duration: float) -> bool:
        """Whether every component fits simultaneously at ``start``."""
        for component in components:
            timeline = self._partition_timeline(component.partition)
            if not timeline.fits(
                start, duration, component.nodes, component.gres
            ):
                return False
        return True

    def earliest_start(
        self, components: List[JobComponent], duration: float
    ) -> Optional[float]:
        """Earliest time all components fit for ``duration``, or None.

        The only feasible start times are ``now`` and capacity
        breakpoints (the profile is piecewise constant and windows
        starting inside a segment dominate windows starting at its
        left edge), so one merged ascending sweep with per-component
        sliding-window minima decides in O(B) amortised.
        """
        limit = self.now + HORIZON
        candidates = {self.now}
        checkers = []
        for component in components:
            timeline = self._partition_timeline(component.partition)
            # Build the checker first: it compiles the profile, which
            # also merges any buffered deltas into ``_times``.
            checkers.append(
                timeline.sweep_checker(
                    duration, component.nodes, component.gres
                )
            )
            candidates.update(
                t for t in timeline._times if self.now <= t <= limit
            )
        for candidate in sorted(candidates):
            if all(checker.check(candidate) for checker in checkers):
                return candidate
        return None

    def occupy(
        self, components: List[JobComponent], start: float, duration: float
    ) -> None:
        """Record a job/reservation across all its components."""
        for component in components:
            self.partitions[component.partition].occupy(
                start, start + duration, component.nodes, component.gres
            )


def profiles_equal(
    left: PartitionTimeline, right: PartitionTimeline
) -> bool:
    """Whether two timelines describe the same free-capacity function.

    Compares values segment by segment over the merged breakpoints, so
    representation differences (extra zero-delta breakpoints, absent vs
    zero gres entries) do not count as mismatches.
    """
    left.compile()
    right.compile()
    times = sorted(set(left._times) | set(right._times))
    gres_types = set(left._cgres) | set(right._cgres)
    for time in times:
        left_nodes, left_gres = left.free_at(time)
        right_nodes, right_gres = right.free_at(time)
        if left_nodes != right_nodes:
            return False
        for gres_type in gres_types:
            if left_gres.get(gres_type, 0) != right_gres.get(gres_type, 0):
                return False
    return True


class TimelineCache:
    """Incrementally-maintained base timeline for one cluster.

    Subscribes to the cluster's allocation-delta feed and keeps a
    :class:`ClusterTimeline` alive across scheduling passes: each pass
    re-anchors the cached profile at the current instant instead of
    rebuilding it from every active allocation.  Policies receive
    copy-on-write forks, so their reservations never leak into the base.

    Escape hatches back to a full rebuild:

    - :meth:`invalidate` (manual);
    - a capacity checksum per partition (node failures/repairs change
      usable capacity without an allocation event);
    - an allocation-event version counter (catches deltas the listener
      missed, e.g. after being detached);
    - any allocation whose bookkeeping the listener cannot replay.

    With ``debug=True`` (or ``REPRO_TIMELINE_DEBUG=1``) every served
    timeline is cross-checked against a from-scratch rebuild, and every
    partition's free-node index against a rescan of its nodes; a
    :class:`~repro.errors.SchedulingError` is raised on divergence.
    """

    def __init__(self, cluster: Cluster, debug: Optional[bool] = None) -> None:
        self.cluster = cluster
        if debug is None:
            debug = bool(os.environ.get(DEBUG_ENV_VAR))
        self.debug = debug
        self._base: Optional[ClusterTimeline] = None
        #: Per-allocation [nodes_applied, gres, end] bookkeeping so a
        #: release cancels exactly what the earlier events applied.
        self._records: Dict[object, list] = {}
        self._applied_version = -1
        self._needs_rebuild = True
        self._node_state_version = -1
        #: Smallest finite expected end among allocations recorded as
        #: unbounded (expected end at/past the horizon when applied).
        #: Once ``now + HORIZON`` overtakes it, a rebuild would place a
        #: give-back breakpoint the incremental profile lacks, so the
        #: cache rebuilds instead of serving a divergent timeline.
        self._horizon_watch = float("inf")
        #: Introspection counters (exposed for tests/benchmarks).
        self.rebuilds = 0
        self.incremental_passes = 0
        cluster.add_allocation_listener(self._on_delta)

    def close(self) -> None:
        """Detach from the cluster's allocation feed."""
        self.cluster.remove_allocation_listener(self._on_delta)
        self._needs_rebuild = True

    # -- cluster delta feed -------------------------------------------------

    def _on_delta(self, kind: str, allocation, count: int) -> None:
        if self._needs_rebuild or self._base is None:
            return  # a full rebuild will pick this up anyway
        self._applied_version += 1
        timeline = self._base.partitions.get(allocation.partition_name)
        if timeline is None:
            self._needs_rebuild = True
            return
        now = self.cluster.kernel.now
        if kind == "allocate":
            expected_end = allocation.expected_end
            end = expected_end if expected_end < now + HORIZON else None
            if end is None and expected_end < self._horizon_watch:
                self._horizon_watch = expected_end
            gres = allocation.gres_counts()
            timeline.apply_busy(now, end, count, gres)
            self._records[allocation] = [count, gres, end]
            return
        record = self._records.get(allocation)
        if record is None:
            self._needs_rebuild = True
            return
        if kind == "release":
            del self._records[allocation]
            timeline.apply_free(now, record[2], record[0], record[1])
        elif kind == "grow":
            timeline.apply_busy(now, record[2], count)
            record[0] += count
        elif kind == "shrink":
            timeline.apply_free(now, record[2], count)
            record[0] -= count
        else:
            self._needs_rebuild = True

    # -- serving ------------------------------------------------------------

    def timeline(self, cluster: Cluster, now: float) -> ClusterTimeline:
        """A timeline equivalent to ``ClusterTimeline(cluster, now)``.

        Served as a copy-on-write fork of the cached base; the caller
        may occupy it freely.
        """
        if cluster is not self.cluster:
            # Not our cluster (e.g. a shared policy object): stay
            # correct, skip the cache.
            return ClusterTimeline(cluster, now)
        base = self._base
        if (
            self._needs_rebuild
            or base is None
            or now < base.now
            or now + HORIZON > self._horizon_watch
            or self._applied_version != cluster.allocation_version
            or self._capacity_changed()
        ):
            base = self._rebuild(now)
        else:
            base.advance_to(now)
            self.incremental_passes += 1
        if self.debug:
            self._cross_check(now)
        return base.fork()

    def _capacity_changed(self) -> bool:
        """O(1): the cluster bumps ``node_state_version`` on every
        capacity-affecting node transition (failure/repair/drain), so a
        version compare replaces the per-pass scan of all node states."""
        return self._node_state_version != self.cluster.node_state_version

    def _rebuild(self, now: float) -> ClusterTimeline:
        base = ClusterTimeline(self.cluster, now)
        self._base = base
        self._records = {}
        self._horizon_watch = float("inf")
        for allocation in self.cluster.active_allocations():
            expected_end = allocation.expected_end
            end = expected_end if expected_end < now + HORIZON else None
            if end is None and expected_end < self._horizon_watch:
                self._horizon_watch = expected_end
            self._records[allocation] = [
                allocation.node_count,
                allocation.gres_counts(),
                end,
            ]
        self._node_state_version = self.cluster.node_state_version
        self._applied_version = self.cluster.allocation_version
        self._needs_rebuild = False
        self.rebuilds += 1
        return base

    def _cross_check(self, now: float) -> None:
        assert self._base is not None
        fresh = ClusterTimeline(self.cluster, now)
        for name, timeline in self._base.partitions.items():
            if not profiles_equal(timeline, fresh.partitions[name]):
                raise SchedulingError(
                    f"incremental timeline diverged from rebuild for "
                    f"partition {name!r} at t={now}: "
                    f"incremental={timeline.profile()!r} "
                    f"rebuilt={fresh.partitions[name].profile()!r}"
                )
        for name, partition in self.cluster.partitions.items():
            indexed = [node.name for node in partition.available_nodes()]
            rescanned = sorted(
                node.name for node in partition.nodes if node.is_available
            )
            if indexed != rescanned:
                raise SchedulingError(
                    f"free-node index diverged from rescan for partition "
                    f"{name!r} at t={now}: indexed={indexed!r} "
                    f"rescanned={rescanned!r}"
                )


class SchedulingPolicy:
    """Interface: pick which pending jobs start *now*."""

    name = "abstract"

    #: Optional incremental timeline source, attached by the owning
    #: :class:`~repro.scheduler.scheduler.BatchScheduler`.  Policies
    #: stay correct without one (standalone ``select`` calls build a
    #: fresh timeline).
    timeline_cache: Optional[TimelineCache] = None

    def _timeline(self, cluster: Cluster, now: float) -> ClusterTimeline:
        cache = self.timeline_cache
        if cache is not None:
            return cache.timeline(cluster, now)
        return ClusterTimeline(cluster, now)

    def select(
        self, pending: List[Job], cluster: Cluster, now: float
    ) -> List[Job]:
        """Jobs (subset of ``pending``, in start order) to launch now.

        ``pending`` is already sorted by descending priority.
        """
        raise NotImplementedError


def _starts_now(timeline: ClusterTimeline, job: Job) -> bool:
    return timeline.fits_at(
        job.spec.components, timeline.now, job.spec.walltime_limit
    )


class FIFOPolicy(SchedulingPolicy):
    """Strict first-come-first-served: never schedules around a blocker."""

    name = "fifo"

    def select(
        self, pending: List[Job], cluster: Cluster, now: float
    ) -> List[Job]:
        timeline = self._timeline(cluster, now)
        started: List[Job] = []
        for job in pending:
            if _starts_now(timeline, job):
                timeline.occupy(
                    job.spec.components, now, job.spec.walltime_limit
                )
                started.append(job)
            else:
                break
        return started


class EasyBackfillPolicy(SchedulingPolicy):
    """EASY (aggressive) backfill: one reservation for the head blocker.

    Jobs behind the blocked head may start now only if doing so does
    not push back the head's earliest start time.  Each candidate is
    trial-placed on a copy-on-write fork of the working timeline
    instead of a from-scratch cluster rebuild.
    """

    name = "easy"

    def select(
        self, pending: List[Job], cluster: Cluster, now: float
    ) -> List[Job]:
        timeline = self._timeline(cluster, now)
        started: List[Job] = []
        head: Optional[Job] = None
        head_start: Optional[float] = None
        for job in pending:
            duration = job.spec.walltime_limit
            if head is None:
                if _starts_now(timeline, job):
                    timeline.occupy(job.spec.components, now, duration)
                    started.append(job)
                else:
                    head = job
                    head_start = timeline.earliest_start(
                        job.spec.components, duration
                    )
                continue
            # Backfill candidate: must fit now and not delay the head.
            if not _starts_now(timeline, job):
                continue
            if head_start is None:
                # Head can never start (oversized job): don't let it
                # block the queue, backfill freely.
                timeline.occupy(job.spec.components, now, duration)
                started.append(job)
                continue
            with timeline.speculate() as trial:
                trial.occupy(job.spec.components, now, duration)
                new_head_start = trial.earliest_start(
                    head.spec.components, head.spec.walltime_limit
                )
            if new_head_start is not None and new_head_start <= head_start:
                timeline.occupy(job.spec.components, now, duration)
                started.append(job)
        return started


class ConservativeBackfillPolicy(SchedulingPolicy):
    """Conservative backfill: every queued job gets a reservation.

    A job may only start now if doing so respects the reservations of
    every higher-priority job, which the incremental timeline enforces
    by construction.
    """

    name = "conservative"

    def select(
        self, pending: List[Job], cluster: Cluster, now: float
    ) -> List[Job]:
        timeline = self._timeline(cluster, now)
        started: List[Job] = []
        for job in pending:
            duration = job.spec.walltime_limit
            start = timeline.earliest_start(job.spec.components, duration)
            if start is None:
                continue  # unschedulable within horizon; skip
            timeline.occupy(job.spec.components, start, duration)
            if start <= now:
                started.append(job)
        return started


#: Registry for CLI/experiment configuration.
POLICIES: Dict[str, type] = {
    policy.name: policy
    for policy in (FIFOPolicy, EasyBackfillPolicy, ConservativeBackfillPolicy)
}


def make_policy(name: str) -> SchedulingPolicy:
    """Instantiate a policy by registry name."""
    try:
        return POLICIES[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown policy {name!r}; known: {sorted(POLICIES)}"
        ) from None
