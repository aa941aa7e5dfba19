"""Resilient campaign orchestration: declarative DAGs of stages.

The PR-2 sweep engine executes one parameter grid; real reproduction
pipelines chain many — sweeps feeding aggregations feeding reports,
with independent branches that should not die together.  This package
runs such pipelines as declarative, journaled, resumable DAGs:

- :mod:`~repro.campaigns.spec` — :class:`CampaignSpec` /
  :class:`StageSpec`, loadable from TOML/JSON (checked-in specs ship
  in ``repro/campaigns/data``);
- :mod:`~repro.campaigns.dag` — deterministic topological order and
  downstream-cone computation;
- :mod:`~repro.campaigns.steps` — the :data:`STEPS` registry mapping
  step names (``scenario.sweep``, ``strategy.compare``, …) to code;
- :mod:`~repro.campaigns.engine` — :class:`CampaignEngine`, tying the
  above to per-stage retries, timeouts, cone-skipping and chaos; its
  stages run in-process (``serial``) or in a process pool
  (``process``) with byte-identical values, both through the sweep
  engine's :class:`~repro.experiments.pool.PoolSupervisor` and
  :class:`~repro.experiments.pool.AttemptLedger`.  Each stage ends in
  an :class:`~repro.experiments.resilience.Outcome`, the record sweep
  points end in too, journaled in the result store for resume.
"""

from repro.campaigns.dag import CampaignDAG
from repro.campaigns.engine import (
    CampaignEngine,
    CampaignResult,
    run_campaign_spec,
    stage_seed,
)
from repro.campaigns.spec import (
    CampaignSpec,
    StageSpec,
    list_campaigns,
    load_campaign,
)
from repro.campaigns.steps import (
    STEPS,
    StageContext,
    StepRegistry,
    register_step,
    resolve_step,
)

__all__ = [
    "CampaignDAG",
    "CampaignEngine",
    "CampaignResult",
    "CampaignSpec",
    "STEPS",
    "StageContext",
    "StageSpec",
    "StepRegistry",
    "list_campaigns",
    "load_campaign",
    "register_step",
    "resolve_step",
    "run_campaign_spec",
    "stage_seed",
]
