"""Experiment registry: one regenerable experiment per paper artefact."""

from typing import Callable, Dict

from repro.experiments import (
    access_model,
    crossover,
    fig1_timescales,
    fig2_workflow,
    fig3_vqpu,
    fig4_malleability,
    listing1_coschedule,
)
from repro.experiments.harness import (
    ClaimCheck,
    ExperimentResult,
    ResultTable,
    assert_all_claims,
)
from repro.experiments.resilience import (
    ChaosSpec,
    FailurePolicy,
    Outcome,
)
from repro.experiments.sweep import (
    SweepPoint,
    SweepResult,
    SweepSpec,
    canonical_bytes,
    derive_point_seed,
    run_sweep,
    sweep_values,
)

#: Experiment id -> run callable (keyword args: seed, ...).
EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "E1": fig1_timescales.run,
    "E2": listing1_coschedule.run,
    "E3": fig2_workflow.run,
    "E4": fig3_vqpu.run,
    "E5": fig4_malleability.run,
    "E6": crossover.run,
    "E7": access_model.run,
}

#: The subset whose grids execute through the sweep engine (their
#: ``run`` accepts ``workers=``/``cache_dir=``).
SWEEP_EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "E4": fig3_vqpu.run,
    "E5": fig4_malleability.run,
    "E6": crossover.run,
    "E7": access_model.run,
}

__all__ = [
    "ChaosSpec",
    "ClaimCheck",
    "EXPERIMENTS",
    "ExperimentResult",
    "FailurePolicy",
    "Outcome",
    "ResultTable",
    "SWEEP_EXPERIMENTS",
    "SweepPoint",
    "SweepResult",
    "SweepSpec",
    "assert_all_claims",
    "canonical_bytes",
    "derive_point_seed",
    "run_sweep",
    "sweep_values",
]
