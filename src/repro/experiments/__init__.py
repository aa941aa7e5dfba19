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
from repro.experiments.harness import ExperimentResult, assert_all_claims
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
    run_sweep,
)

#: Experiment id -> run callable (keyword args: seed, ..., and the
#: sweep options of :func:`~repro.experiments.sweep.run_cached_sweep`).
EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "E1": fig1_timescales.run,
    "E2": listing1_coschedule.run,
    "E3": fig2_workflow.run,
    "E4": fig3_vqpu.run,
    "E5": fig4_malleability.run,
    "E6": crossover.run,
    "E7": access_model.run,
}

__all__ = [
    # Registry and results
    "EXPERIMENTS",
    "ExperimentResult",
    "assert_all_claims",
    # Sweep engine
    "SweepPoint",
    "SweepResult",
    "SweepSpec",
    "canonical_bytes",
    "run_sweep",
    # Resilience
    "ChaosSpec",
    "FailurePolicy",
    "Outcome",
]
