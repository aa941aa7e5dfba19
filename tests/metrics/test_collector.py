"""Tests for record aggregation and facility snapshots."""

import pytest

from repro.metrics.collector import (
    StrategySummary,
    facility_snapshot,
    summarise,
)
from repro.quantum.circuit import Circuit
from repro.scenarios import ScenarioSpec, TopologySpec, build
from repro.strategies.application import vqe_like
from repro.strategies.base import RunRecord
from repro.strategies.coschedule import CoScheduleStrategy


def record(strategy, submit, end, wait=0.0, held=100.0, useful=50.0):
    r = RunRecord(app_name="a", strategy=strategy, submit_time=submit)
    r.end_time = end
    r.queue_waits = [wait]
    r.classical_held_node_seconds = held
    r.classical_useful_node_seconds = useful
    r.qpu_held_seconds = end - submit
    r.qpu_busy_seconds = (end - submit) / 10.0
    return r


class TestSummarise:
    def test_groups_by_strategy(self):
        records = [
            record("coschedule", 0.0, 100.0),
            record("coschedule", 0.0, 200.0),
            record("workflow", 0.0, 150.0),
        ]
        summaries = summarise(records)
        assert set(summaries) == {"coschedule", "workflow"}
        assert summaries["coschedule"].runs == 2
        assert summaries["workflow"].runs == 1

    def test_turnaround_statistics(self):
        records = [
            record("s", 0.0, 100.0),
            record("s", 0.0, 300.0),
        ]
        summary = summarise(records)["s"]
        assert summary.mean_turnaround == 200.0
        assert summary.median_turnaround == 200.0

    def test_makespan_spans_first_submit_to_last_end(self):
        records = [
            record("s", 10.0, 100.0),
            record("s", 50.0, 400.0),
        ]
        assert summarise(records)["s"].makespan == 390.0

    def test_row_and_headers_align(self):
        summary = summarise([record("s", 0.0, 10.0)])["s"]
        assert len(summary.as_row()) == len(StrategySummary.headers())


class TestFacilitySnapshot:
    def test_snapshot_after_run(self):
        env = build(ScenarioSpec(topology=TopologySpec(classical_nodes=8)))
        app = vqe_like(2, 100.0, Circuit(5, 10), classical_nodes=4)
        run = CoScheduleStrategy().launch(env, app)
        env.kernel.run(until=run.done)
        snapshot = facility_snapshot(env)
        assert 0.0 < snapshot.classical_node_utilisation <= 1.0
        assert 0.0 < snapshot.qpu_allocation_fraction <= 1.0
        assert 0.0 < snapshot.qpu_busy_fraction <= 1.0
        # Exclusive co-scheduling: allocated far more than busy.
        assert (
            snapshot.qpu_allocation_fraction
            > snapshot.qpu_busy_fraction
        )

    def test_idle_facility(self):
        env = build(ScenarioSpec())
        env.kernel.timeout(100.0)
        env.kernel.run()
        snapshot = facility_snapshot(env)
        assert snapshot.classical_node_utilisation == 0.0
        assert snapshot.qpu_busy_fraction == 0.0
        assert snapshot.window_s == pytest.approx(100.0)
