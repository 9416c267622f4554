"""Per-debit accounting work is flat in ledger depth.

A deterministic count, not a timing: every ``PrivacyBudget`` the
accountant builds while it checks and records one spend is counted, at
several ledger depths.  A spend that re-folded the ledger would build
one budget per record already spent; the incremental ledger builds the
same small number at any depth.
"""

from __future__ import annotations

import pytest

from repro.accounting.accountant import Accountant
from repro.accounting.budget import PrivacyBudget

GROUPS = ("level-0", "level-1")


def _fill(acc: Accountant, depth: int) -> None:
    """Spend ``depth`` times: mostly sequential, some in parallel groups."""
    for i in range(depth):
        group = GROUPS[i % 2] if i % 10 == 0 else None
        acc.spend(PrivacyBudget(1e-6), purpose="fill", parallel_group=group)


def _constructions_per_spend(monkeypatch, depth: int) -> list:
    acc = Accountant(PrivacyBudget(1e6))
    _fill(acc, depth)
    assert len(acc.ledger) == depth
    budget = PrivacyBudget(1e-6)
    count = [0]
    original = PrivacyBudget.__post_init__

    def counting(self):
        count[0] += 1
        original(self)

    counts = []
    with monkeypatch.context() as patch:
        patch.setattr(PrivacyBudget, "__post_init__", counting)
        for group in (None, GROUPS[0], "fresh"):
            count[0] = 0
            acc.spend(budget, purpose="probe", parallel_group=group)
            counts.append(count[0])
    return counts


def test_count_is_small(monkeypatch):
    counts = _constructions_per_spend(monkeypatch, 100)
    assert all(0 < c <= 8 for c in counts), counts


def test_count_flat_to_ten_thousand(monkeypatch):
    counts = {
        depth: _constructions_per_spend(monkeypatch, depth)
        for depth in (100, 1_000, 10_000)
    }
    assert counts[1_000] == counts[100], counts
    assert counts[10_000] == counts[100], counts


@pytest.mark.slow
def test_count_flat_at_one_hundred_thousand(monkeypatch):
    shallow = _constructions_per_spend(monkeypatch, 100)
    assert _constructions_per_spend(monkeypatch, 100_000) == shallow
