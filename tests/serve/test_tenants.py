"""TenantLedgers: registration rules and budget enforcement."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.exceptions import BudgetExceededError
from repro.serve.tenants import TenantLedgers


class TestRegistration:
    def test_register_creates_accountant(self):
        ledgers = TenantLedgers(default_budget=5.0)
        acc = ledgers.register("alpha", 2.0)
        assert acc.total.epsilon == 2.0

    def test_register_without_budget_uses_default(self):
        ledgers = TenantLedgers(default_budget=5.0)
        assert ledgers.register("alpha").total.epsilon == 5.0

    def test_reregister_same_budget_is_idempotent(self):
        ledgers = TenantLedgers()
        first = ledgers.register("alpha", 2.0)
        assert ledgers.register("alpha", 2.0) is first

    def test_reregister_conflicting_budget_rejected(self):
        ledgers = TenantLedgers()
        ledgers.register("alpha", 2.0)
        with pytest.raises(ValueError, match="already registered"):
            ledgers.register("alpha", 3.0)

    def test_bad_names_rejected(self):
        ledgers = TenantLedgers()
        for bad in ("", "   ", None, 7):
            with pytest.raises(ValueError):
                ledgers.register(bad)

    def test_nonpositive_budget_rejected(self):
        ledgers = TenantLedgers()
        with pytest.raises(ValueError):
            ledgers.register("alpha", 0.0)
        with pytest.raises(ValueError):
            TenantLedgers(default_budget=-1.0)


class TestCharging:
    def test_charge_auto_registers_at_default(self):
        ledgers = TenantLedgers(default_budget=1.0)
        remaining = ledgers.charge("walk-in", 0.25, purpose="q")
        assert remaining == pytest.approx(0.75)
        assert ledgers.accountant("walk-in") is not None

    def test_exhaustion_raises_and_spends_nothing(self):
        ledgers = TenantLedgers()
        ledgers.register("alpha", 1.0)
        ledgers.charge("alpha", 0.6, purpose="q")
        with pytest.raises(BudgetExceededError):
            ledgers.charge("alpha", 0.6, purpose="q")
        acc = ledgers.accountant("alpha")
        assert acc.spent.epsilon == pytest.approx(0.6)
        assert len(acc.ledger) == 1

    def test_quota_is_floor_budget_over_epsilon(self):
        ledgers = TenantLedgers()
        ledgers.register("alpha", 1.0)
        answered = 0
        for _ in range(10):
            try:
                ledgers.charge("alpha", 0.3, purpose="q")
                answered += 1
            except BudgetExceededError:
                break
        assert answered == 3  # floor(1.0 / 0.3)

    def test_snapshot_tracks_queries_and_spends(self):
        ledgers = TenantLedgers()
        ledgers.register("alpha", 2.0)
        ledgers.charge("alpha", 0.5, purpose="q")
        ledgers.charge("alpha", 0.5, purpose="q")
        snap = ledgers.snapshot()
        assert snap["alpha"]["budget"] == 2.0
        assert snap["alpha"]["spent"] == pytest.approx(1.0)
        assert snap["alpha"]["remaining"] == pytest.approx(1.0)
        assert snap["alpha"]["queries"] == 2
        assert snap["alpha"]["spends"] == 2

    def test_tenants_are_isolated(self):
        ledgers = TenantLedgers()
        ledgers.register("alpha", 1.0)
        ledgers.register("beta", 1.0)
        ledgers.charge("alpha", 1.0, purpose="q")
        # Alpha being broke does not touch beta.
        assert ledgers.charge("beta", 1.0, purpose="q") == pytest.approx(
            0.0
        )


def _race_charges(ledgers, name, n_threads, per_thread, epsilon):
    """Charge one tenant from N threads at once; returns every reply."""
    barrier = threading.Barrier(n_threads)
    replies = []
    lock = threading.Lock()

    def worker():
        barrier.wait()
        for _ in range(per_thread):
            remaining = ledgers.charge(name, epsilon, purpose="race")
            with lock:
                replies.append(remaining)

    threads = [threading.Thread(target=worker) for _ in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return replies


class TestConcurrentRemaining:
    """Each debit reports the balance *it* left, not a later one."""

    BUDGET = 100.0
    EPSILON = 0.25  # exact in binary, so balances are exact too

    def _expected(self, n):
        return sorted(self.BUDGET - self.EPSILON * k for k in range(1, n + 1))

    def test_balances_are_the_distinct_post_debit_balances(self):
        ledgers = TenantLedgers()
        ledgers.register("alpha", self.BUDGET)
        replies = _race_charges(ledgers, "alpha", 8, 25, self.EPSILON)
        assert sorted(replies) == self._expected(200)

    def test_balance_read_with_the_debit(self, monkeypatch):
        """Other debits landing right after a spend do not leak into it.

        The accountant's ``spend`` yields after recording, which lets the
        other threads debit before the balance is read unless the read
        happens in the same critical section as the spend.
        """
        ledgers = TenantLedgers()
        acc = ledgers.register("alpha", self.BUDGET)
        real_spend = acc.spend

        def spend_then_yield(*args, **kwargs):
            out = real_spend(*args, **kwargs)
            time.sleep(0.005)
            return out

        monkeypatch.setattr(acc, "spend", spend_then_yield)
        replies = _race_charges(ledgers, "alpha", 8, 1, self.EPSILON)
        assert sorted(replies) == self._expected(8)
