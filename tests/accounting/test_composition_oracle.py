"""Bit-identity of incremental composition against the full fold.

``Ledger`` keeps a running sequential sum and per-group maxima instead of
re-folding its records on every ``total()``; ``Accountant.spend`` checks
overdraft against a projection of that state.  Over random spend
sequences (grouped and ungrouped, nonzero δ, near-tie group maxima and
interleaved overdraft rejections) every composed budget must equal the
reference fold exactly, and every accept/reject decision must be the one
the reference fold implies.
"""

from __future__ import annotations

import math

import pytest

from repro.accounting.accountant import Accountant
from repro.accounting.budget import EPS_TOL, PrivacyBudget
from repro.accounting.ledger import Ledger, SpendRecord
from repro.exceptions import BudgetExceededError

from tests.accounting.reference import reference_total

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_BASE_EPS = [0.0, 0.1, 0.2, 0.3, 1 / 3, 0.7, 1e-9, 0.05]
_BASE_DELTA = [0.0, 0.0, 1e-7, 1e-6, 3e-5]


@st.composite
def budgets(draw):
    """Budgets drawn near a few shared values so group maxima nearly tie."""
    eps = draw(st.sampled_from(_BASE_EPS))
    for _ in range(draw(st.integers(0, 2))):
        eps = math.nextafter(eps, draw(st.sampled_from([0.0, 1.0])))
    if draw(st.booleans()):
        eps = draw(st.floats(0.0, 0.8, allow_nan=False))
    delta = draw(st.sampled_from(_BASE_DELTA))
    if delta and draw(st.booleans()):
        delta = math.nextafter(delta, 1.0)
    return PrivacyBudget(eps, delta)


records = st.builds(
    SpendRecord,
    budget=budgets(),
    purpose=st.sampled_from(["structure", "noise", "query"]),
    parallel_group=st.one_of(
        st.none(), st.sampled_from(["level-0", "level-1", "leaves"])
    ),
)


def _overdraws(projected: PrivacyBudget, total: PrivacyBudget) -> bool:
    return (
        projected.epsilon > total.epsilon + EPS_TOL
        or projected.delta > total.delta + EPS_TOL
    )


class TestLedgerMatchesFold:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(records, max_size=60))
    def test_total_after_every_append(self, recs):
        ledger = Ledger()
        for i, rec in enumerate(recs):
            assert ledger.total_with(rec) == reference_total(recs[: i + 1])
            ledger.append(rec)
            assert ledger.total() == reference_total(recs[: i + 1])
        assert ledger.records == tuple(recs)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(records, max_size=60))
    def test_initial_records_are_folded(self, recs):
        assert Ledger(records=recs).total() == reference_total(recs)
        assert Ledger(recs).records == tuple(recs)


class TestAccountantMatchesFold:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(records, max_size=60),
        st.floats(0.05, 3.0, allow_nan=False),
        st.sampled_from([0.0, 1e-6, 5e-5]),
    )
    def test_decisions_and_totals_are_bit_identical(
        self, recs, total_eps, total_delta
    ):
        total = PrivacyBudget(total_eps, total_delta)
        acc = Accountant(total)
        accepted = []
        for rec in recs:
            expect_ok = not _overdraws(
                reference_total(accepted + [rec]), total
            )
            before = acc.ledger.total()
            try:
                acc.spend(rec.budget, rec.purpose, rec.parallel_group)
                ok = True
            except BudgetExceededError:
                ok = False
            assert ok == expect_ok
            if ok:
                accepted.append(rec)
            else:
                assert acc.ledger.total() == before
            expected = reference_total(accepted)
            assert acc.ledger.total() == expected
            assert acc.spent == expected
            assert acc.remaining == PrivacyBudget(
                max(total.epsilon - expected.epsilon, 0.0),
                max(total.delta - expected.delta, 0.0),
            )
        assert acc.ledger.records == tuple(accepted)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(records, max_size=30))
    def test_spend_all_drains_to_the_fold(self, recs):
        acc = Accountant(PrivacyBudget(2.0, 1e-4))
        accepted = []
        for rec in recs:
            try:
                acc.spend(rec.budget, rec.purpose, rec.parallel_group)
                accepted.append(rec)
            except BudgetExceededError:
                pass
        remaining = acc.remaining
        if remaining.epsilon <= 0 and remaining.delta <= 0:
            return
        acc.spend_all("rest")
        accepted.append(SpendRecord(remaining, "rest"))
        assert acc.spent == reference_total(accepted)


def test_rejected_grouped_spend_leaves_state_untouched():
    acc = Accountant(PrivacyBudget(1.0))
    acc.spend(0.4, "a", parallel_group="g")
    acc.spend(0.3, "b")
    with pytest.raises(BudgetExceededError):
        acc.spend(0.9, "c", parallel_group="g")
    with pytest.raises(BudgetExceededError):
        acc.spend(0.7, "d", parallel_group="new")
    assert acc.spent == reference_total(acc.ledger.records)
    assert acc.spent.epsilon == pytest.approx(0.7)
    # A later in-budget raise of the group max still composes exactly.
    acc.spend(0.7, "e", parallel_group="g")
    assert acc.spent == reference_total(acc.ledger.records)
    assert acc.spent.epsilon == pytest.approx(1.0)
