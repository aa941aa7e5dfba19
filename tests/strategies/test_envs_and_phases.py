"""Edge-path tests: scenario-to-environment wiring and the phase driver."""

import pytest

from repro.quantum.circuit import Circuit
from repro.quantum.qpu import QPU
from repro.quantum.technology import SUPERCONDUCTING, TRAPPED_ION
from repro.scenarios import (
    DeviceSpec,
    FleetSpec,
    PolicySpec,
    ScenarioSpec,
    TopologySpec,
    build,
)
from repro.scheduler.backfill import ConservativeBackfillPolicy
from repro.scheduler.job import JobComponent, JobSpec
from repro.strategies.application import (
    HybridApplication,
    classical,
    quantum,
)
from repro.strategies.base import RunRecord
from repro.strategies.phases import execute_phases


class TestEnvironmentWiring:
    def test_policy_name_propagates(self):
        env = build(ScenarioSpec(policy=PolicySpec(policy="conservative")))
        assert isinstance(env.scheduler.policy, ConservativeBackfillPolicy)

    def test_scheduling_cycle_propagates(self):
        env = build(ScenarioSpec(policy=PolicySpec(scheduling_cycle=45.0)))
        assert env.scheduler.cycle_time == 45.0

    def test_technology_propagates(self):
        env = build(ScenarioSpec(fleet=FleetSpec(technology="trapped_ion")))
        assert env.primary_qpu().technology is TRAPPED_ION

    def test_jitter_enables_stochastic_durations(self):
        deterministic = build(ScenarioSpec(fleet=FleetSpec(jitter=False)))
        stochastic = build(ScenarioSpec(fleet=FleetSpec(jitter=True)))
        assert deterministic.primary_qpu()._rng is None
        assert stochastic.primary_qpu()._rng is not None

    def test_seed_isolation(self):
        env_a = build(ScenarioSpec(fleet=FleetSpec(jitter=True), seed=1))
        env_b = build(ScenarioSpec(fleet=FleetSpec(jitter=True), seed=2))
        draw_a = env_a.streams.stream("x").random()
        draw_b = env_b.streams.stream("x").random()
        assert draw_a != draw_b


class TestPlanningTechnology:
    """Fleet-aware walltime planning on the Environment."""

    def _hetero_env(self):
        return build(
            ScenarioSpec(
                fleet=FleetSpec(
                    devices=(
                        DeviceSpec("superconducting"),
                        DeviceSpec("trapped_ion"),
                    )
                )
            )
        )

    @staticmethod
    def _app(qubits: int) -> HybridApplication:
        return HybridApplication(
            phases=[classical(60.0), quantum(Circuit(qubits, 50), 1000)],
            classical_nodes=4,
            name=f"plan-{qubits}",
        )

    def test_homogeneous_env_matches_primary_qpu(self):
        env = build(ScenarioSpec(fleet=FleetSpec(technology="trapped_ion")))
        app = self._app(10)
        assert env.planning_technology(app) is env.primary_qpu().technology

    def test_heterogeneous_env_plans_for_the_slowest_capable(self):
        env = self._hetero_env()
        app = self._app(10)  # fits both; trapped ion is far slower
        assert env.planning_technology(app).name == "trapped_ion"

    def test_wide_circuit_excludes_small_registers(self):
        env = self._hetero_env()
        app = self._app(100)  # beyond trapped ion's 32 qubits
        assert env.planning_technology(app).name == "superconducting"

    def test_impossible_width_rejected(self):
        from repro.errors import ConfigurationError

        env = self._hetero_env()
        with pytest.raises(ConfigurationError, match="qubits"):
            env.planning_technology(self._app(500))

    def test_technologies_deduplicates_in_order(self):
        env = build(
            ScenarioSpec(
                fleet=FleetSpec(
                    devices=(
                        DeviceSpec("trapped_ion", count=2),
                        DeviceSpec("superconducting"),
                        DeviceSpec("trapped_ion", name="extra"),
                    )
                )
            )
        )
        assert [t.name for t in env.technologies()] == [
            "trapped_ion",
            "superconducting",
        ]

    def test_strategy_walltime_provisions_for_slow_device(self):
        """A co-schedule launch into a mixed fleet requests a walltime
        sized for the slowest capable technology, not whichever device
        happens to be first."""
        from repro.strategies.coschedule import (
            WALLTIME_SAFETY,
            CoScheduleStrategy,
        )

        env = self._hetero_env()
        app = self._app(10)
        run = CoScheduleStrategy()
        walltime = run._walltime_for(env, app)
        assert walltime == pytest.approx(
            app.ideal_makespan(TRAPPED_ION) * WALLTIME_SAFETY
        )
        assert walltime > app.ideal_makespan(SUPERCONDUCTING)


class TestExecutePhasesDriver:
    """Drive execute_phases directly through a minimal job context."""

    def _run(self, app, hooks=False):
        env = build(ScenarioSpec(topology=TopologySpec(classical_nodes=8)))
        record = RunRecord(
            app_name=app.name, strategy="direct", submit_time=0.0
        )
        calls = []

        def before(phase):
            calls.append(("before", env.kernel.now))
            yield env.kernel.timeout(0.0)

        def after(phase):
            calls.append(("after", env.kernel.now))
            yield env.kernel.timeout(0.0)

        def work(ctx):
            yield from execute_phases(
                app,
                ctx,
                record,
                qpu_device=ctx.first_qpu(),
                nodes_getter=lambda: app.classical_nodes,
                before_quantum=before if hooks else None,
                after_quantum=after if hooks else None,
            )

        spec = JobSpec(
            name="direct",
            components=[
                JobComponent("classical", app.classical_nodes, 10000.0),
                JobComponent("quantum", 1, 10000.0, gres={"qpu": 1}),
            ],
            work=work,
        )
        job = env.scheduler.submit(spec)
        env.kernel.run(until=job.finished)
        return record, calls

    def _app(self):
        return HybridApplication(
            phases=[
                classical(80.0),
                quantum(Circuit(5, 10), 500),
                classical(40.0),
                quantum(Circuit(5, 10), 500),
            ],
            classical_nodes=4,
            name="driver-app",
        )

    def test_accounting_matches_phase_structure(self):
        app = self._app()
        record, _ = self._run(app)
        expected_classical = sum(
            app.classical_time(p, 4) * 4
            for p in app.phases
            if not p.is_quantum
        )
        assert record.classical_useful_node_seconds == pytest.approx(
            expected_classical
        )
        expected_quantum = 2 * SUPERCONDUCTING.execution_time(
            Circuit(5, 10), 500
        )
        assert record.qpu_busy_seconds == pytest.approx(expected_quantum)
        assert len(record.quantum_access_waits) == 2

    def test_hooks_bracket_each_quantum_phase(self):
        app = self._app()
        _, calls = self._run(app, hooks=True)
        kinds = [kind for kind, _ in calls]
        assert kinds == ["before", "after", "before", "after"]

    def test_zero_duration_classical_phase_skips_timeout(self):
        app = HybridApplication(
            phases=[classical(0.0), quantum(Circuit(5, 10), 100)],
            classical_nodes=2,
            name="zero-phase",
        )
        record, _ = self._run(app)
        assert record.classical_useful_node_seconds == 0.0
        assert record.qpu_busy_seconds > 0


class TestAllocationRollback:
    def test_failed_gres_packing_rolls_back_nodes(self, kernel):
        """If the chosen nodes cannot jointly satisfy the gres request,
        nothing stays allocated."""
        from repro.cluster.cluster import Cluster
        from repro.cluster.node import GresInstance, Node
        from repro.cluster.partition import Partition
        from repro.errors import AllocationError

        # Two nodes, one gres unit: ask for 1 node + 2 qpu units, which
        # find_nodes approves by count... except capacity checks catch
        # it; craft the rollback path by requesting through _grant
        # directly with an impossible spread.
        node_a = Node("a", gres=[GresInstance("qpu", 0)])
        node_b = Node("b")
        cluster = Cluster(
            kernel, [Partition("p", [node_a, node_b])]
        )
        with pytest.raises(AllocationError):
            cluster._grant_on_nodes("job-x", [node_b], {"qpu": 1})
        assert node_b.is_available
        assert node_a.is_available
