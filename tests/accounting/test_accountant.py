"""Tests for the enforcing Accountant."""

import pytest

from repro.accounting.accountant import Accountant
from repro.accounting.budget import PrivacyBudget
from repro.exceptions import BudgetExceededError


class TestConstruction:
    def test_from_float(self):
        acc = Accountant(1.0)
        assert acc.total.epsilon == 1.0

    def test_from_budget(self):
        acc = Accountant(PrivacyBudget(0.5, 1e-6))
        assert acc.total.delta == 1e-6

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            Accountant(True)

    def test_rejects_string(self):
        with pytest.raises(TypeError):
            Accountant("1.0")


class TestSpend:
    def test_spend_tracks(self):
        acc = Accountant(1.0)
        acc.spend(0.4, purpose="noise")
        assert acc.spent.epsilon == pytest.approx(0.4)
        assert acc.remaining.epsilon == pytest.approx(0.6)

    def test_overdraft_raises(self):
        acc = Accountant(1.0)
        acc.spend(0.8, "a")
        with pytest.raises(BudgetExceededError):
            acc.spend(0.3, "b")

    def test_overdraft_does_not_record(self):
        acc = Accountant(1.0)
        with pytest.raises(BudgetExceededError):
            acc.spend(2.0, "too much")
        assert acc.spent.epsilon == 0.0
        assert len(acc.ledger) == 0

    def test_exact_split_spends_cleanly(self):
        acc = Accountant(1.0)
        for part in PrivacyBudget(1.0).split(7):
            acc.spend(part, "slice")
        assert acc.spent.epsilon == pytest.approx(1.0)

    def test_parallel_group_only_costs_max(self):
        acc = Accountant(0.5)
        acc.spend(0.5, "l0", parallel_group="level")
        acc.spend(0.5, "l1", parallel_group="level")
        assert acc.spent.epsilon == pytest.approx(0.5)

    def test_charge_returns_remaining_after_the_spend(self):
        acc = Accountant(PrivacyBudget(1.0, 1e-6))
        left = acc.charge(PrivacyBudget(0.25, 1e-7), "q")
        assert left == acc.remaining
        assert left.epsilon == 0.75
        with pytest.raises(BudgetExceededError):
            acc.charge(0.8, "too much")
        assert len(acc.ledger) == 1

    def test_rejects_nonnumeric(self):
        acc = Accountant(1.0)
        with pytest.raises(TypeError):
            acc.spend("0.5", "x")


class TestSpendAll:
    def test_spend_all_consumes_rest(self):
        acc = Accountant(1.0)
        acc.spend(0.3, "a")
        acc.spend_all("rest")
        assert acc.remaining.epsilon == pytest.approx(0.0)

    def test_spend_all_on_empty_raises(self):
        acc = Accountant(1.0)
        acc.spend_all("everything")
        with pytest.raises(BudgetExceededError):
            acc.spend_all("again")


class TestRepr:
    def test_repr_mentions_totals(self):
        acc = Accountant(1.0)
        assert "total" in repr(acc)
