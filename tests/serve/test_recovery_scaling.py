"""Warm-restart recovery is linear in the write-ahead ledger.

Recovery replays every journaled debit through ``Accountant.spend``
(which keeps the per-debit overdraft check).  With incremental
composition each replayed debit costs the same, so a 10^5-debit WAL
recovers in seconds.  The WAL is built through ``LedgerLog`` itself,
with the per-line fsync swapped for one buffered write.
"""

from __future__ import annotations

import time

import pytest

import repro.serve.ledgerlog as ledgerlog
from repro.serve.ledgerlog import LedgerLog
from repro.serve.service import QueryService

TENANTS = ("alpha", "beta", "gamma")
EPSILONS = (0.001, 0.0025, 1 / 3000)


def _write_wal(state_dir, n_debits, monkeypatch):
    """Journal ``n_debits`` keyed debits round-robin over the tenants.

    Returns each tenant's spent ε, folded in journal order exactly as
    the accountant composes it.
    """
    lines = []
    log = LedgerLog(state_dir / "ledger.jsonl")
    with monkeypatch.context() as patch:
        patch.setattr(ledgerlog, "append_line",
                      lambda _path, line: lines.append(line))
        for tenant in TENANTS:
            log.append_tenant(tenant, 1e6)
        spent = {tenant: 0.0 for tenant in TENANTS}
        for i in range(n_debits):
            tenant = TENANTS[i % len(TENANTS)]
            epsilon = EPSILONS[(i // len(TENANTS)) % len(EPSILONS)]
            log.append_debit(tenant, epsilon, key=f"k{i}", purpose="query",
                             digest=f"d{i}", value=float(i))
            spent[tenant] = spent[tenant] + epsilon
    log.path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return spent


@pytest.mark.parametrize("n_debits", [
    1_000,
    pytest.param(100_000, marks=pytest.mark.slow),
])
def test_recovery_is_exact_and_linear(tmp_path, monkeypatch, n_debits):
    spent = _write_wal(tmp_path, n_debits, monkeypatch)
    started = time.perf_counter()
    service = QueryService(cache_entries=4, default_tenant_budget=10.0,
                           state_dir=tmp_path)
    elapsed = time.perf_counter() - started
    assert service.recovery == {
        "tenants": len(TENANTS), "debits": n_debits, "artifacts": 0,
        "torn_lines": 0, "duplicate_debits": 0,
        "overdraft_skipped": 0, "quarantined": 0,
    }
    snapshot = service.tenants.snapshot()
    for tenant in TENANTS:
        assert snapshot[tenant]["spent"] == spent[tenant]
        assert snapshot[tenant]["remaining"] == 1e6 - spent[tenant]
    assert sum(s["spends"] for s in snapshot.values()) == n_debits
    # Generous: the quadratic replay took minutes at 10^4 debits.
    assert elapsed < 30.0, elapsed
