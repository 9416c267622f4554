"""The bounded-thread load driver against ``run_replay``'s transcript."""

import threading

import numpy as np
import pytest

import pbload
from repro.serve.replay import (
    ReplayManifest,
    ReplayPhase,
    ReplayResult,
    ReplayTenant,
    build_schedule,
    run_replay,
)
from repro.serve.spec import ServeSpec


def _manifest(tenants=5, queries=60, budget=200.0):
    return ReplayManifest(
        name="loadtest",
        seed=11,
        spec=ServeSpec.from_payload({
            "dataset": "age", "publisher": "noisefirst", "epsilon": 0.5,
            "k": 8, "n_bins": 64, "total": 20000, "seed": 3,
        }),
        tenants=tuple(ReplayTenant(name=f"t{i}", budget=budget)
                      for i in range(tenants)),
        phases=(ReplayPhase(name="load", queries=queries,
                            point_fraction=0.5),),
        issue_slots=2,
        time_scale=0.0,
    )


def test_deal_keeps_each_tenant_on_one_worker_in_order():
    schedule = build_schedule(_manifest(tenants=7, queries=200))
    shares = pbload.deal(schedule, 2)
    assert len(shares) == 2
    seen = {}
    for worker, share in enumerate(shares):
        indices = [item.index for item in share]
        assert indices == sorted(indices)
        for item in share:
            assert seen.setdefault(item.tenant, worker) == worker
    assert sum(len(s) for s in shares) == len(schedule)


def test_deal_never_makes_more_workers_than_tenants():
    schedule = build_schedule(_manifest(tenants=1, queries=10))
    assert len(pbload.deal(schedule, 8)) == 1


@pytest.fixture
def server():
    from repro.serve.client import ServeClient
    from repro.serve.server import make_server
    from repro.serve.service import QueryService

    httpd = make_server("127.0.0.1", 0, QueryService())
    thread = threading.Thread(target=httpd.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        yield ServeClient(httpd.url)
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def _drive_sha(client, manifest, workers):
    for tenant in manifest.tenants:
        assert client.register_tenant(tenant.name, tenant.budget)[0] == 200
    code, payload = client.publish(manifest.spec.to_payload())
    assert code == 200
    schedule = build_schedule(manifest)
    load = pbload.drive(client, payload["fingerprint"], schedule,
                        pbload.key_prefix(manifest), workers=workers)
    assert len(load.records) == len(schedule)
    result = ReplayResult(
        manifest=manifest, fingerprint=payload["fingerprint"],
        records=load.ordered_records(),
        latencies=np.asarray(list(load.latencies.values())),
        elapsed_seconds=load.elapsed,
    )
    return result.transcript_sha(), result


@pytest.mark.parametrize("budget", [200.0, 3.0])  # 3.0: budgets run out
def test_transcript_hashes_equal_to_run_replay(server, budget):
    manifest = _manifest(budget=budget)
    expected = run_replay(manifest).transcript_sha()
    sha, result = _drive_sha(server, manifest, workers=2)
    assert sha == expected
    if budget == 3.0:
        assert result.status_counts().get("exhausted", 0) > 0


def test_retried_keys_are_answered_free(server):
    manifest = _manifest(tenants=2, queries=20)
    _drive_sha(server, manifest, workers=2)
    # Same keys again: every answer is a replay, so nothing is charged.
    spent = {n: e["spent"] for n, e in server.stats()["tenants"].items()}
    schedule = build_schedule(manifest)
    fp = server.publish(manifest.spec.to_payload())[1]["fingerprint"]
    pbload.drive(server, fp, schedule, pbload.key_prefix(manifest), 2)
    again = {n: e["spent"] for n, e in server.stats()["tenants"].items()}
    assert again == spent
