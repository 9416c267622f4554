"""Tests for the spend ledger and its composition rules."""

from types import SimpleNamespace

import pytest

from repro.accounting.budget import PrivacyBudget
from repro.accounting.ledger import Ledger, SpendRecord
from repro.obs.report import _epsilon_ledger

from tests.accounting.reference import reference_total


class TestSequentialComposition:
    def test_empty_ledger_totals_zero(self):
        assert Ledger().total().epsilon == 0.0

    def test_sequential_spends_add(self):
        ledger = Ledger()
        ledger.append(SpendRecord(PrivacyBudget(0.3), "a"))
        ledger.append(SpendRecord(PrivacyBudget(0.2), "b"))
        assert ledger.total().epsilon == 0.5

    def test_delta_adds_too(self):
        ledger = Ledger()
        ledger.append(SpendRecord(PrivacyBudget(0.1, 1e-7), "a"))
        ledger.append(SpendRecord(PrivacyBudget(0.1, 1e-7), "b"))
        assert ledger.total().delta == 2e-7


class TestParallelComposition:
    def test_same_group_takes_max(self):
        ledger = Ledger()
        ledger.append(SpendRecord(PrivacyBudget(0.3), "a", parallel_group="g"))
        ledger.append(SpendRecord(PrivacyBudget(0.5), "b", parallel_group="g"))
        ledger.append(SpendRecord(PrivacyBudget(0.2), "c", parallel_group="g"))
        assert ledger.total().epsilon == 0.5

    def test_different_groups_add(self):
        ledger = Ledger()
        ledger.append(SpendRecord(PrivacyBudget(0.3), "a", parallel_group="g1"))
        ledger.append(SpendRecord(PrivacyBudget(0.5), "b", parallel_group="g2"))
        assert ledger.total().epsilon == 0.8

    def test_groups_compose_with_sequential(self):
        ledger = Ledger()
        ledger.append(SpendRecord(PrivacyBudget(0.1), "seq"))
        ledger.append(SpendRecord(PrivacyBudget(0.3), "a", parallel_group="g"))
        ledger.append(SpendRecord(PrivacyBudget(0.2), "b", parallel_group="g"))
        assert ledger.total().epsilon == 0.4


class TestLedgerApi:
    def test_len_and_iter(self):
        ledger = Ledger()
        ledger.append(SpendRecord(PrivacyBudget(0.1), "x"))
        assert len(ledger) == 1
        assert [r.purpose for r in ledger] == ["x"]

    def test_purposes_in_order(self):
        ledger = Ledger()
        for name in ["structure", "noise"]:
            ledger.append(SpendRecord(PrivacyBudget(0.1), name))
        assert ledger.purposes() == ["structure", "noise"]


class TestRunningTotals:
    """``append`` is the only mutator, so the running totals track the records."""

    def test_records_are_read_only(self):
        ledger = Ledger()
        ledger.append(SpendRecord(PrivacyBudget(0.1), "x"))
        assert isinstance(ledger.records, tuple)
        with pytest.raises(AttributeError):
            ledger.records.append(SpendRecord(PrivacyBudget(5.0), "sneak"))
        with pytest.raises(AttributeError):
            ledger.records = []
        assert ledger.total().epsilon == 0.1
        assert len(ledger) == 1

    def test_initial_records_are_folded(self):
        recs = [
            SpendRecord(PrivacyBudget(0.1, 1e-7), "seq"),
            SpendRecord(PrivacyBudget(0.3), "a", parallel_group="g"),
            SpendRecord(PrivacyBudget(0.5, 1e-6), "b", parallel_group="h"),
            SpendRecord(PrivacyBudget(0.4), "c", parallel_group="g"),
            SpendRecord(PrivacyBudget(0.2), "seq2"),
        ]
        ledger = Ledger(records=recs)
        assert ledger.records == tuple(recs)
        assert ledger.total() == reference_total(recs)
        assert ledger.purposes() == ["seq", "a", "b", "c", "seq2"]
        # The caller's list is copied, not aliased.
        recs.append(SpendRecord(PrivacyBudget(9.0), "later"))
        assert len(ledger) == 5

    def test_total_with_does_not_mutate(self):
        ledger = Ledger([SpendRecord(PrivacyBudget(0.3), "a", "g")])
        probe = SpendRecord(PrivacyBudget(0.5), "b", "g")
        assert ledger.total_with(probe).epsilon == 0.5
        assert ledger.total().epsilon == 0.3
        assert len(ledger) == 1


def test_report_epsilon_ledger_unchanged():
    """The run report's ε-ledger section composes through ``Ledger``."""
    recs = []
    for spec, pub, eps, n in [
        ("step-64", "noisefirst", 0.1, 7),
        ("step-64", "structurefirst", 0.1, 3),
        ("smooth", "noisefirst", 1 / 3, 5),
        ("age", "dwork", 0.05, 11),
    ]:
        recs += [
            SimpleNamespace(spec_name=spec, publisher=pub, epsilon=eps,
                            meta={})
            for _ in range(n)
        ]
    recs.append(SimpleNamespace(spec_name="age", publisher="ahp",
                                epsilon=9.9, meta={"spec_epsilon": 0.7}))
    assert _epsilon_ledger(recs) == [
        "## ε-ledger",
        "",
        "| spec | publisher | ε per trial | trials ok | composed ε "
        "(sequential) |\n"
        "| --- | --- | --- | --- | --- |\n"
        "| age | ahp | 0.7 | 1 | 0.7 |\n"
        "| age | dwork | 0.05 | 11 | 0.55 |\n"
        "| smooth | noisefirst | 0.333333 | 5 | 1.66667 |\n"
        "| step-64 | noisefirst | 0.1 | 7 | 0.7 |\n"
        "| step-64 | structurefirst | 0.1 | 3 | 0.3 |",
        "",
        "Grand total across every journaled trial (sequential "
        "composition): **ε = 3.91667**.  Each trial re-queries the same "
        "dataset, so spends compose sequentially; see `docs/privacy.md` "
        "for the composition rules.",
    ]
