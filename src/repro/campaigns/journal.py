"""The stage outcome record the campaign engine journals.

The engine journals one :class:`StageOutcome` per terminal stage in its
result store (:meth:`repro.store.ResultStore.campaign_journal`), each in
its own committed transaction, so a SIGKILL between stages loses
nothing.  On ``--resume`` the engine replays journaled outcomes instead
of re-executing: a completed stage's value comes back from the store, a
permanently-failed stage replays as a failure (cone-skipped under
``on_error="collect"``).  *Skipped* stages are deliberately never
journaled — a resume that recovers their failed ancestor must be free
to run them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.experiments.resilience import (
    STATUS_CRASHED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMED_OUT,
)

#: Stage-only status: an ancestor failed, so the stage never ran.
STATUS_SKIPPED = "skipped"

#: Every status a StageOutcome may carry.  ``skipped`` appears in
#: results but is never journaled (see module docstring).
STAGE_STATUSES = (
    STATUS_OK,
    STATUS_FAILED,
    STATUS_TIMED_OUT,
    STATUS_CRASHED,
    STATUS_SKIPPED,
)


@dataclass
class StageOutcome:
    """The terminal record of one campaign stage.

    ``result_digest`` is ``sha256(canonical_bytes(value))[:16]`` — the
    engine uses it on resume to verify the stored stage value still
    matches what the journal promised, and the crash-resume suite uses
    it to assert byte-identity without shipping values around.
    ``resumed`` marks an outcome replayed from the journal rather than
    executed this run.
    """

    stage: str
    status: str
    attempts: int = 1
    error: Optional[str] = None
    traceback: Optional[str] = None
    attempt_seconds: List[float] = field(default_factory=list)
    result_digest: Optional[str] = None
    resumed: bool = False

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def describe(self) -> str:
        """One-line human summary (used by CLI status tables)."""
        text = (
            f"stage {self.stage!r}: {self.status} after "
            f"{self.attempts} attempt(s)"
        )
        if self.error:
            text += f" — {self.error}"
        return text
