"""Closed forms: what each strategy costs over the ideal makespan.

On an idle facility nothing queues, so a strategy's turnaround is the
app's ideal makespan plus the overhead its own model adds, exactly:

- co-scheduling and workflow add nothing;
- malleability pays ``reconfiguration_cost`` twice per quantum phase
  (shrink before it, grow after it);
- elastic QPU access pays ``attach_overhead`` once per quantum phase.

``test_strategy_properties.py`` keeps the weaker ``>=`` bound for
randomly shaped apps.
"""

import pytest

from repro.experiments.common import campaign_scenario, standard_hybrid_app
from repro.quantum.technology import TECHNOLOGIES
from repro.scenarios import run_campaign
from repro.strategies.coschedule import CoScheduleStrategy
from repro.strategies.elastic import ElasticQPUStrategy
from repro.strategies.malleability import MalleableStrategy
from repro.strategies.workflow import WorkflowStrategy

#: Seconds; the overheads are whole seconds and turnarounds reach hours.
TOLERANCE = 1e-6


def _overhead(strategy, app):
    """The closed-form overhead ``strategy`` adds to ``app``."""
    phases = app.quantum_phase_count
    if isinstance(strategy, MalleableStrategy):
        return 2.0 * phases * strategy.reconfiguration_cost
    if isinstance(strategy, ElasticQPUStrategy):
        return phases * strategy.attach_overhead
    return 0.0


@pytest.mark.parametrize(
    "make_strategy",
    [CoScheduleStrategy, WorkflowStrategy, MalleableStrategy,
     ElasticQPUStrategy],
    ids=["coschedule", "workflow", "malleable", "elastic"],
)
@pytest.mark.parametrize("technology", sorted(TECHNOLOGIES))
@pytest.mark.parametrize("iterations", [1, 3])
@pytest.mark.parametrize("phase_seconds", [30.0, 300.0])
def test_idle_turnaround_is_ideal_plus_closed_form_overhead(
    make_strategy, technology, iterations, phase_seconds
):
    tech = TECHNOLOGIES[technology]
    strategy = make_strategy()
    app = standard_hybrid_app(
        tech, iterations=iterations, classical_phase_seconds=phase_seconds
    )
    [record], _ = run_campaign(strategy, [app], campaign_scenario(tech))
    assert record.details["final_state"] == "completed"
    excess = record.turnaround - app.ideal_makespan(tech)
    assert excess == pytest.approx(_overhead(strategy, app), abs=TOLERANCE)


def test_default_overheads_match_the_documented_figures():
    app = standard_hybrid_app(TECHNOLOGIES["superconducting"], iterations=1)
    assert _overhead(MalleableStrategy(), app) == 10.0
    assert _overhead(ElasticQPUStrategy(), app) == 1.0
