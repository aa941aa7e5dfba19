"""Tests for the accounting ledger and fair-share factors."""

import pytest

from repro.errors import ConfigurationError
from repro.scheduler.accounting import AccountingLedger


class TestCharging:
    def test_usage_accumulates(self):
        ledger = AccountingLedger()
        ledger.charge("alice", "proj", now=0.0, node_seconds=100.0)
        ledger.charge("alice", "proj", now=0.0, node_seconds=50.0)
        assert ledger.effective_usage("alice", "proj", now=0.0) == 150.0

    def test_negative_charge_rejected(self):
        ledger = AccountingLedger()
        with pytest.raises(ConfigurationError):
            ledger.charge("a", "p", now=0.0, node_seconds=-1.0)

    def test_gres_weighting(self):
        ledger = AccountingLedger(gres_weight=50.0)
        ledger.charge(
            "alice", "proj", now=0.0, node_seconds=0.0,
            gres_seconds={"qpu": 10.0},
        )
        assert ledger.effective_usage("alice", "proj", now=0.0) == 500.0

    def test_decay_halves_after_half_life(self):
        ledger = AccountingLedger(half_life=100.0)
        ledger.charge("alice", "proj", now=0.0, node_seconds=200.0)
        assert ledger.effective_usage(
            "alice", "proj", now=100.0
        ) == pytest.approx(100.0)

    def test_unknown_pair_has_zero_usage(self):
        ledger = AccountingLedger()
        assert ledger.effective_usage("ghost", "proj", now=0.0) == 0.0

    def test_invalid_half_life(self):
        with pytest.raises(ConfigurationError):
            AccountingLedger(half_life=0.0)


class TestFairShare:
    def test_no_usage_gives_full_factor(self):
        ledger = AccountingLedger()
        assert ledger.fair_share_factor("new", "proj", now=0.0) == 1.0

    def test_heavy_user_penalised(self):
        ledger = AccountingLedger()
        ledger.charge("heavy", "proj", now=0.0, node_seconds=1000.0)
        ledger.charge("light", "proj", now=0.0, node_seconds=10.0)
        heavy = ledger.fair_share_factor("heavy", "proj", now=0.0)
        light = ledger.fair_share_factor("light", "proj", now=0.0)
        assert light > heavy
        assert 0.0 < heavy < 1.0

    def test_factor_in_unit_interval(self):
        ledger = AccountingLedger()
        ledger.charge("u", "a", now=0.0, node_seconds=123.0)
        factor = ledger.fair_share_factor("u", "a", now=0.0)
        assert 0.0 < factor <= 1.0

    def test_factor_halves_per_unit_of_usage_share(self):
        ledger = AccountingLedger()
        ledger.charge("light", "a", now=0.0, node_seconds=100.0)
        ledger.charge("heavy", "b", now=0.0, node_seconds=300.0)
        assert ledger.fair_share_factor(
            "light", "a", now=0.0
        ) == pytest.approx(2.0 ** -0.25)
        assert ledger.fair_share_factor(
            "heavy", "b", now=0.0
        ) == pytest.approx(2.0 ** -0.75)

    def test_repr(self):
        assert "AccountingLedger" in repr(AccountingLedger())
