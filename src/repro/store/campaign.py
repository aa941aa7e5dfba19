"""The campaign engine's stage journal, backed by a result store.

:class:`StoreCampaignJournal` keeps terminal stage outcomes in the
store's ``campaigns``/``stages`` tables and stage *values* in
``stage_values`` (pickled blobs, verified against the outcome's
``result_digest`` on load).  :class:`~repro.campaigns.engine.
CampaignEngine` keeps one in a store at its ``state_dir``.

The durability ordering the engine relies on: the value commits in its
own transaction *before* the stage outcome that promises it, so a
crash between the two re-executes the stage rather than trusting a
phantom value.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.store.api import ResultStore

if TYPE_CHECKING:  # the campaigns package imports this module
    from repro.campaigns.journal import StageOutcome


class StoreCampaignJournal:
    """Stage outcomes and values of one (name, seed, code version).

    ``acquire()`` takes the store's writer flock, so a second live
    orchestrator fails fast with :class:`~repro.errors.StoreLockedError`;
    :meth:`load` is a pure read, safe while another process runs the
    campaign.
    """

    def __init__(
        self,
        store: ResultStore,
        name: str,
        seed: int,
        code_version: str,
    ) -> None:
        self.result_store = store
        self.campaign_name = name
        self.campaign_seed = seed
        self.campaign_code_version = code_version
        self._campaign_id: Optional[int] = None

    @property
    def campaign_id(self) -> int:
        if self._campaign_id is None:
            self._campaign_id = self.result_store.campaign_id(
                self.campaign_name,
                self.campaign_seed,
                self.campaign_code_version,
            )
        return self._campaign_id

    def acquire(self) -> None:
        self.result_store.acquire()

    def load(self) -> Dict[str, StageOutcome]:
        # Read-only lookup: a status query on a campaign that never
        # ran must not create its row (or take the writer lock).
        found = self.result_store.find_campaign_id(
            self.campaign_name,
            self.campaign_seed,
            self.campaign_code_version,
        )
        if found is None:
            return {}
        self._campaign_id = found
        return self.result_store.load_stage_outcomes(found)

    def record(self, record: StageOutcome) -> None:
        self.result_store.record_stage_outcome(self.campaign_id, record)

    def reset(self) -> None:
        """Forget every stage outcome and value (a fresh run)."""
        self.result_store.clear_stages(self.campaign_id)

    def close(self) -> None:
        self.result_store.release()

    def save_value(self, stage: str, digest: str, value: Any) -> None:
        self.result_store.save_stage_value(
            self.campaign_id, stage, digest, value
        )

    def load_value(
        self, stage: str, expect_digest: Optional[str]
    ) -> Tuple[bool, Any]:
        """``(found, value)``; missing, unreadable or digest-mismatched
        values all mean "re-execute", never "crash"."""
        return self.result_store.load_stage_value(
            self.campaign_id, stage, expect_digest
        )
