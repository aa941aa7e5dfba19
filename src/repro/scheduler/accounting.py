"""Usage accounting and fair-share bookkeeping.

The paper notes that QPU-vendor access is "managed through proprietary
accounting mechanisms" which must be reconciled with "institutional
resource management policies".  This module is the institutional side:
a ledger of node-seconds and gres-seconds per user/account, from which
a classic SLURM-style fair-share factor is derived (usage decayed
exponentially; every account holds an equal share).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError


@dataclass
class UsageRecord:
    """Accumulated decayed usage for one (user, account) pair."""

    node_seconds: float = 0.0
    gres_seconds: Dict[str, float] = field(default_factory=dict)
    last_update: float = 0.0


class AccountingLedger:
    """Decayed-usage ledger with fair-share factors.

    Parameters
    ----------
    half_life:
        Usage half-life in simulated seconds (SLURM's
        ``PriorityDecayHalfLife``).  Older consumption counts
        progressively less against a user.
    gres_weight:
        How many node-second-equivalents one gres-second costs.  QPUs
        are scarce, so their default weight is high — this is the
        knob institutions would use to charge quantum time.
    """

    def __init__(
        self, half_life: float = 7 * 24 * 3600.0, gres_weight: float = 50.0
    ) -> None:
        if half_life <= 0:
            raise ConfigurationError("half_life must be positive")
        self.half_life = half_life
        self.gres_weight = gres_weight
        self.records: Dict[Tuple[str, str], UsageRecord] = {}

    def _decay_factor(self, elapsed: float) -> float:
        return 0.5 ** (elapsed / self.half_life)

    def _record(self, user: str, account: str) -> UsageRecord:
        return self.records.setdefault((user, account), UsageRecord())

    def charge(
        self,
        user: str,
        account: str,
        now: float,
        node_seconds: float,
        gres_seconds: Optional[Dict[str, float]] = None,
    ) -> None:
        """Add consumption, decaying previously recorded usage to ``now``."""
        if node_seconds < 0:
            raise ConfigurationError("cannot charge negative usage")
        record = self._record(user, account)
        factor = self._decay_factor(max(now - record.last_update, 0.0))
        record.node_seconds = record.node_seconds * factor + node_seconds
        for gres_type in set(record.gres_seconds) | set(gres_seconds or {}):
            decayed = record.gres_seconds.get(gres_type, 0.0) * factor
            record.gres_seconds[gres_type] = decayed + (
                (gres_seconds or {}).get(gres_type, 0.0)
            )
        record.last_update = now

    def effective_usage(self, user: str, account: str, now: float) -> float:
        """Node-second-equivalents charged to the pair, decayed to ``now``."""
        record = self.records.get((user, account))
        if record is None:
            return 0.0
        factor = self._decay_factor(max(now - record.last_update, 0.0))
        gres_total = sum(record.gres_seconds.values())
        return (record.node_seconds + self.gres_weight * gres_total) * factor

    def fair_share_factor(self, user: str, account: str, now: float) -> float:
        """SLURM-classic factor ``2^(-usage_norm/shares_norm)`` in (0, 1],
        with every account's ``shares_norm`` equal to 1.

        1.0 means "no recorded usage"; heavy users decay toward 0.
        """
        total_usage = sum(
            self.effective_usage(u, a, now) for (u, a) in self.records
        )
        if total_usage <= 0:
            return 1.0
        usage_norm = self.effective_usage(user, account, now) / total_usage
        return math.pow(2.0, -usage_norm)

    def __repr__(self) -> str:
        return f"<AccountingLedger pairs={len(self.records)}>"
