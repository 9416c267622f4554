"""The full left-to-right composition fold, kept as a test oracle.

This is the body ``Ledger.total()`` had before composition became
incremental: every call walks all records.  The incremental ledger must
agree with it bit for bit (``==``, not approx) on every ledger.
"""

from __future__ import annotations

from typing import Iterable

from repro.accounting.budget import PrivacyBudget
from repro.accounting.ledger import SpendRecord


def reference_total(records: Iterable[SpendRecord]) -> PrivacyBudget:
    """Sequential spends add; each parallel group adds its max, in order."""
    sequential = PrivacyBudget(0.0)
    groups: dict = {}
    for rec in records:
        if rec.parallel_group is None:
            sequential = sequential + rec.budget
        else:
            current = groups.get(rec.parallel_group, PrivacyBudget(0.0))
            if rec.budget.epsilon > current.epsilon or (
                rec.budget.epsilon == current.epsilon
                and rec.budget.delta > current.delta
            ):
                groups[rec.parallel_group] = rec.budget
            else:
                groups.setdefault(rec.parallel_group, current)
    for group_budget in groups.values():
        sequential = sequential + group_budget
    return sequential
