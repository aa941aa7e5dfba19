"""Property-based tests: invariants every integration strategy obeys.

The strategies differ in *when resources are held*, never in *what the
application computes*.  For any randomly-shaped hybrid application, on
an idle facility:

1. every strategy completes the app;
2. the useful work (classical node-seconds, device-busy seconds,
   kernel count) is identical across strategies;
3. turnaround is never below the app's ideal makespan;
4. held resources are never below useful resources.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quantum.circuit import Circuit
from repro.quantum.technology import SUPERCONDUCTING
from repro.scenarios import FleetSpec, ScenarioSpec, TopologySpec, build
from repro.strategies.application import (
    HybridApplication,
    classical,
    quantum,
)
from repro.strategies.coschedule import CoScheduleStrategy
from repro.strategies.elastic import ElasticQPUStrategy
from repro.strategies.malleability import MalleableStrategy
from repro.strategies.vqpu import VQPUStrategy
from repro.strategies.workflow import WorkflowStrategy

app_shapes = st.lists(
    st.tuples(
        st.floats(min_value=1.0, max_value=600.0),  # classical work
        st.integers(min_value=100, max_value=5000),  # shots
    ),
    min_size=1,
    max_size=5,
)


def build_app(shape, nodes):
    circuit = Circuit(8, 50, geometry="prop")
    phases = []
    for work, shots in shape:
        phases.append(classical(work))
        phases.append(quantum(circuit, shots))
    return HybridApplication(
        phases=phases,
        classical_nodes=nodes,
        min_classical_nodes=1,
        name="prop-app",
    )


def run_strategy(strategy, app, vqpus=1):
    env = build(
        ScenarioSpec(
            topology=TopologySpec(classical_nodes=16),
            fleet=FleetSpec(
                technology=SUPERCONDUCTING.name, vqpus_per_qpu=vqpus
            ),
        )
    )
    run = strategy.launch(env, app)
    env.kernel.run(until=run.done)
    return run.record


ALL_STRATEGIES = [
    (CoScheduleStrategy, 1),
    (WorkflowStrategy, 1),
    (VQPUStrategy, 2),
    (MalleableStrategy, 1),
    (ElasticQPUStrategy, 1),
]


@given(shape=app_shapes, nodes=st.sampled_from([1, 2, 4, 8]))
@settings(max_examples=15, deadline=None)
def test_all_strategies_do_identical_useful_work(shape, nodes):
    app = build_app(shape, nodes)
    records = [
        run_strategy(strategy_class(), app, vqpus)
        for strategy_class, vqpus in ALL_STRATEGIES
    ]
    reference = records[0]
    for record in records:
        assert record.details["final_state"] == "completed", (
            record.strategy,
            record.details,
        )
        assert record.classical_useful_node_seconds == pytest.approx(
            reference.classical_useful_node_seconds, rel=1e-6
        ), record.strategy
        assert record.qpu_busy_seconds == pytest.approx(
            reference.qpu_busy_seconds, rel=1e-6
        ), record.strategy
        assert len(record.quantum_access_waits) == len(
            reference.quantum_access_waits
        ), record.strategy


@given(shape=app_shapes, nodes=st.sampled_from([2, 8]))
@settings(max_examples=15, deadline=None)
def test_turnaround_never_beats_ideal_makespan(shape, nodes):
    app = build_app(shape, nodes)
    ideal = app.ideal_makespan(SUPERCONDUCTING)
    for strategy_class, vqpus in ALL_STRATEGIES:
        record = run_strategy(strategy_class(), app, vqpus)
        assert record.turnaround >= ideal - 1e-6, (
            strategy_class.name,
            record.turnaround,
            ideal,
        )


@given(shape=app_shapes)
@settings(max_examples=15, deadline=None)
def test_held_never_below_useful(shape):
    app = build_app(shape, 4)
    for strategy_class, vqpus in ALL_STRATEGIES:
        record = run_strategy(strategy_class(), app, vqpus)
        assert (
            record.classical_held_node_seconds
            >= record.classical_useful_node_seconds - 1e-6
        ), strategy_class.name
        assert (
            record.qpu_held_seconds >= record.qpu_busy_seconds - 1e-6
        ), strategy_class.name
