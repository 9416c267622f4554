"""The :class:`Accountant`: enforced budget withdrawal.

An accountant is created with a total :class:`PrivacyBudget` and hands
out spends until the budget is exhausted, raising
:class:`~repro.exceptions.BudgetExceededError` on overdraft.  Publishers
receive an accountant rather than a raw epsilon so their composition is
checked, not merely asserted in a docstring.
"""

from __future__ import annotations

import threading

from repro.accounting.budget import EPS_TOL, PrivacyBudget
from repro.accounting.ledger import Ledger, SpendRecord
from repro.exceptions import BudgetExceededError

__all__ = ["Accountant"]


class Accountant:
    """Tracks and enforces spends against a fixed total budget.

    Each spend costs the same at any ledger depth: the overdraft check
    projects the ledger's running composition by the one candidate
    record (:meth:`Ledger.total_with`) instead of re-folding the ledger.
    The overdraft check and the ledger append are atomic under an
    internal lock, so concurrent spenders (e.g. the query service's
    per-request handler threads debiting one tenant) can never race two
    debits past the total: sequential composition holds even when the
    spends themselves are issued in parallel.

    Example
    -------
    >>> acc = Accountant(PrivacyBudget(1.0))
    >>> acc.spend(PrivacyBudget(0.4), purpose="structure")
    >>> acc.spent.epsilon
    0.4
    >>> acc.remaining.epsilon
    0.6
    """

    def __init__(self, total: "PrivacyBudget | float") -> None:
        if isinstance(total, (int, float)) and not isinstance(total, bool):
            total = PrivacyBudget(float(total))
        if not isinstance(total, PrivacyBudget):
            raise TypeError(
                "total must be a PrivacyBudget or a number, "
                f"got {type(total).__name__}"
            )
        self._total = total
        self._ledger = Ledger()
        # Reentrant so spend_all and charge can hold it across
        # remaining + spend.
        self._lock = threading.RLock()

    @property
    def total(self) -> PrivacyBudget:
        """The budget this accountant was created with."""
        return self._total

    @property
    def ledger(self) -> Ledger:
        """The append-only spend ledger."""
        return self._ledger

    @property
    def spent(self) -> PrivacyBudget:
        """Composed budget spent so far."""
        return self._ledger.total()

    @property
    def remaining(self) -> PrivacyBudget:
        """Budget still available (never negative)."""
        spent = self.spent
        return PrivacyBudget(
            max(self._total.epsilon - spent.epsilon, 0.0),
            max(self._total.delta - spent.delta, 0.0),
        )

    def spend(
        self,
        budget: "PrivacyBudget | float",
        purpose: str,
        parallel_group: "str | None" = None,
    ) -> PrivacyBudget:
        """Withdraw ``budget``; raise :class:`BudgetExceededError` on overdraft.

        Returns the budget actually recorded, so callers can chain.
        """
        if isinstance(budget, (int, float)) and not isinstance(budget, bool):
            budget = PrivacyBudget(float(budget))
        if not isinstance(budget, PrivacyBudget):
            raise TypeError(
                f"budget must be a PrivacyBudget or number, got {type(budget).__name__}"
            )
        record = SpendRecord(budget, purpose, parallel_group)
        with self._lock:
            projected = self._ledger.total_with(record)
            if (
                projected.epsilon > self._total.epsilon + EPS_TOL
                or projected.delta > self._total.delta + EPS_TOL
            ):
                raise BudgetExceededError(
                    requested=budget.epsilon,
                    remaining=self.remaining.epsilon,
                )
            self._ledger.append(record)
        return budget

    def charge(
        self,
        budget: "PrivacyBudget | float",
        purpose: str,
        parallel_group: "str | None" = None,
    ) -> PrivacyBudget:
        """:meth:`spend`, then return :attr:`remaining` under the same lock.

        The balance returned is the one left by *this* spend, even when
        other threads spend from the same accountant concurrently.
        """
        with self._lock:
            self.spend(budget, purpose, parallel_group)
            return self.remaining

    def spend_all(self, purpose: str) -> PrivacyBudget:
        """Withdraw everything that remains, in one spend."""
        with self._lock:
            remaining = self.remaining
            if remaining.epsilon <= 0 and remaining.delta <= 0:
                raise BudgetExceededError(requested=0.0, remaining=0.0)
            return self.spend(remaining, purpose)

    def __repr__(self) -> str:
        return (
            f"Accountant(total={self._total}, spent={self.spent}, "
            f"records={len(self._ledger)})"
        )
