"""Append-only ledger of privacy spends.

Every mechanism invocation inside a publisher records *what* was spent
and *why* (a free-form purpose label), so the composed privacy claim of
any algorithm can be audited after the fact.  Tests across the suite
assert that each publisher's ledger sums exactly to its declared budget.

Composition is incremental: the ledger keeps the running sum of its
sequential spends and the running maximum of each parallel group, both
updated by :meth:`Ledger.append`, so :meth:`Ledger.total` costs one
addition per parallel group however many spends were recorded.  The
additions happen in the same order as a full left-to-right fold over
the records, so every composed total is bit-identical to that fold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.accounting.budget import PrivacyBudget

__all__ = ["SpendRecord", "Ledger"]

_ZERO = PrivacyBudget(0.0)


@dataclass(frozen=True)
class SpendRecord:
    """One budget spend: how much, what for, and under which composition.

    ``parallel_group`` tags spends that act on *disjoint* subsets of the
    data: spends sharing a group compose in parallel (max) rather than
    sequentially (sum).  ``None`` means plain sequential composition.
    """

    budget: PrivacyBudget
    purpose: str
    parallel_group: "str | None" = None


class Ledger:
    """Ordered record of every spend drawn from an accountant.

    ``append`` is the only mutator, so the running composition state
    can never drift from the records; initial ``records`` are folded in
    through it.
    """

    def __init__(self, records: Iterable[SpendRecord] = ()) -> None:
        self._records: List[SpendRecord] = []
        self._sequential = _ZERO
        # Per-group maxima in first-seen order (dicts keep insertion
        # order, and re-assigning an existing key keeps its place).
        self._groups: Dict[str, PrivacyBudget] = {}
        for record in records:
            self.append(record)

    @property
    def records(self) -> Tuple[SpendRecord, ...]:
        """Every spend, in spend order (a read-only copy)."""
        return tuple(self._records)

    def _fold(
        self, record: SpendRecord
    ) -> Tuple[PrivacyBudget, Optional[PrivacyBudget]]:
        """The sequential sum and the record's group max after ``record``."""
        if record.parallel_group is None:
            return self._sequential + record.budget, None
        current = self._groups.get(record.parallel_group, _ZERO)
        budget = record.budget
        if budget.epsilon > current.epsilon or (
            budget.epsilon == current.epsilon
            and budget.delta > current.delta
        ):
            return self._sequential, budget
        return self._sequential, current

    def append(self, record: SpendRecord) -> None:
        """Add a spend record (called by the accountant only)."""
        self._sequential, group_max = self._fold(record)
        if group_max is not None:
            self._groups[record.parallel_group] = group_max
        self._records.append(record)

    def __iter__(self) -> Iterator[SpendRecord]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:
        return f"Ledger(records={len(self._records)}, total={self.total()})"

    def total(self) -> PrivacyBudget:
        """Composed total: sequential spends add; parallel groups take max.

        Within a ``parallel_group`` the worst single spend bounds the
        group's privacy cost (the spends touch disjoint records); groups
        and ungrouped spends then compose sequentially.
        """
        total = self._sequential
        for group_budget in self._groups.values():
            total = total + group_budget
        return total

    def total_with(self, record: SpendRecord) -> PrivacyBudget:
        """What :meth:`total` would return after appending ``record``.

        Leaves the ledger untouched, so a spend can be checked against
        its limit before it is recorded.
        """
        total, group_max = self._fold(record)
        group = record.parallel_group
        for name, group_budget in self._groups.items():
            total = total + (group_max if name == group else group_budget)
        if group_max is not None and group not in self._groups:
            total = total + group_max
        return total

    def purposes(self) -> List[str]:
        """Purpose labels in spend order (handy for test assertions)."""
        return [rec.purpose for rec in self._records]
