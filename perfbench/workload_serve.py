"""``serve_deep_ledger`` and ``serve_fresh``: the serving wing end to end.

Both run ``python -m repro serve --port 0 --state-dir DIR`` as a child
process with default flags (access log, write-ahead ledger and
admission control on), publish one artifact, register the tenants,
and drive a seeded 50/50 point/range schedule closed-loop from at most
``nproc`` threads (:mod:`pbload`).  The unit of work (``op``) is one
query as the client sees it.  After the load the server is drained and
a fresh process times ``QueryService(state_dir=DIR)``: recovery.

- ``serve_deep_ledger``: 2 tenants, each ledger ends at >= 1,000 debits.
- ``serve_fresh``: 256 tenants, 3,072 queries, so no ledger passes 32
  debits (about 12 on average).

Correctness: every reply is 200 and answers exactly what the reference
artifact (:func:`reference_artifact`) answers; the transcript hashes to
the recorded SHA for the default seed; after recovery each tenant's
spent epsilon is its ok-answers x epsilon, with no overdraft skipped and
no torn ledger line.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

import pbload
import pbprom
from pbcore import (
    SERVE_STAGES,
    Outcome,
    Tally,
    median,
    peak_rss_mb_pid,
    summarize,
)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SPEC = {
    "dataset": "searchlogs",
    "publisher": "structurefirst",
    "epsilon": 0.5,
    "k": 16,
    "n_bins": 4096,
}
#: Large enough that no tenant is ever refused.
TENANT_BUDGET = 1e6
#: workload -> (tenants, queries in the schedule).
PROFILES = {
    "serve_deep_ledger": (2, 2200),
    "serve_fresh": (256, 3072),
}
DEEP_MIN_DEBITS = 1000
SETUPS = 2
START_TIMEOUT = 60.0


def build_manifest(workload: str, seed: int):
    from repro.serve.replay import ReplayManifest, ReplayPhase, ReplayTenant
    from repro.serve.spec import ServeSpec

    tenants, queries = PROFILES[workload]
    return ReplayManifest(
        name=workload,
        seed=seed,
        spec=ServeSpec.from_payload(dict(SPEC, seed=seed)),
        tenants=tuple(
            ReplayTenant(name=f"tenant-{i:02d}", budget=TENANT_BUDGET)
            for i in range(tenants)
        ),
        phases=(ReplayPhase(name="load", queries=queries,
                            point_fraction=0.5),),
        issue_slots=2,
        time_scale=0.0,
    )


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("REPRO_TRACE", None)
    return env


class Server:
    """A ``repro serve`` child process bound to an ephemeral port."""

    def __init__(self, state_dir: Path, trace: bool) -> None:
        from repro.serve.client import ServeClient

        argv = [sys.executable, "-m", "repro", "serve", "--port", "0",
                "--state-dir", str(state_dir)]
        if trace:
            argv.append("--trace")
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, text=True, env=_env(),
        )
        try:
            banner = self.proc.stdout.readline()
            if not banner.startswith("serving on "):
                raise RuntimeError(f"server did not start: {banner!r}")
            self.client = ServeClient(banner.split()[-1])
            self.client.wait_ready(START_TIMEOUT)
        except BaseException:
            self.kill()
            raise

    def stop(self) -> None:
        """Graceful drain via ``/v1/shutdown``, then reap the process."""
        try:
            self.client.shutdown()
            self.proc.communicate(timeout=START_TIMEOUT)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def setup(manifest, state_dir: Path, trace: bool) -> Tuple[Server, str]:
    """Start a server, publish the artifact, register the tenants."""
    server = Server(state_dir, trace)
    try:
        code, payload = server.client.publish(manifest.spec.to_payload())
        if code != 200:
            raise RuntimeError(f"publish failed ({code}): {payload}")
        for tenant in manifest.tenants:
            code, reply = server.client.register_tenant(tenant.name,
                                                        tenant.budget)
            if code != 200:
                raise RuntimeError(f"register {tenant.name} failed: {reply}")
    except BaseException:
        server.kill()
        raise
    return server, payload["fingerprint"]


def recover(state_dir: Path) -> dict:
    """Time ``QueryService(state_dir=...)`` in a fresh process."""
    out = subprocess.run(
        [sys.executable, str(HERE / "recover_probe.py"), str(state_dir)],
        capture_output=True, text=True, env=_env(), timeout=170,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def reference_artifact(manifest, fingerprint: str, state_dir: Path,
                       trace: bool):
    """The artifact every answer must match.

    A traced run publishes the spec again in this untraced process, so
    the traced server is checked against an untraced publish.  An
    untraced run reads the server's own checksummed spill instead, which
    checks the answer path without paying for a second publish.
    """
    from repro.serve.artifacts import publish_artifact
    from repro.serve.store import ArtifactStore

    if trace:
        return publish_artifact(manifest.spec)
    return ArtifactStore(state_dir / "artifacts").load(fingerprint)


def run(workload: str, seed: int, trace: bool, recorded: Optional[str],
        workdir: Path) -> Tuple[Outcome, Tally, str]:
    from repro.serve.replay import ReplayResult, build_schedule

    manifest = build_manifest(workload, seed)
    schedule = build_schedule(manifest)
    depth: Dict[str, int] = {t.name: 0 for t in manifest.tenants}
    for item in schedule:
        depth[item.tenant] += 1
    if workload == "serve_deep_ledger" and min(depth.values()) < \
            DEEP_MIN_DEBITS:
        raise RuntimeError(f"seed {seed}: a tenant gets fewer than "
                           f"{DEEP_MIN_DEBITS} queries: {depth}")

    setup_seconds = []
    server = None
    for attempt in range(SETUPS):
        if server is not None:
            server.stop()
            shutil.rmtree(state_dir, ignore_errors=True)
        state_dir = workdir / f"state-{attempt}"
        started = time.perf_counter()
        server, fingerprint = setup(manifest, state_dir, trace)
        setup_seconds.append(time.perf_counter() - started)
    try:
        load = pbload.drive(server.client, fingerprint, schedule,
                            pbload.key_prefix(manifest))
        metrics_text = server.client.metrics_text()
        peak_rss = peak_rss_mb_pid(server.proc.pid)
    finally:
        server.stop()
    recovery = recover(state_dir)

    tally = Tally()
    oracle = reference_artifact(manifest, fingerprint, state_dir, trace)
    tally.check(oracle is not None and oracle.fingerprint == fingerprint,
                "no reference artifact for the served fingerprint")
    ok: Dict[str, int] = {t.name: 0 for t in manifest.tenants}
    for item in schedule:
        record = load.records[item.index]
        expected = None if oracle is None else oracle.range(item.lo, item.hi)
        good = (record["code"] == 200 and record["status"] == "ok"
                and record.get("value") == expected)
        if tally.check(good, f"query {item.index}: {record}"):
            ok[item.tenant] += 1
    latencies = [load.latencies[i] for i in sorted(load.latencies)]
    result = ReplayResult(
        manifest=manifest, fingerprint=fingerprint,
        records=load.ordered_records(), latencies=np.asarray(latencies),
        elapsed_seconds=load.elapsed,
    )
    sha = result.transcript_sha()
    if recorded is not None:
        tally.check(sha == recorded, "transcript SHA differs from the "
                    f"recorded one ({sha[:16]} vs {recorded[:16]})")
    report = recovery["report"]
    epsilon = manifest.spec.epsilon
    tally.check(report["overdraft_skipped"] == 0 and report["torn_lines"] == 0,
                f"recovery report not clean: {report}")
    tally.check(report["debits"] == sum(ok.values()),
                f"recovered {report['debits']} debits, "
                f"{sum(ok.values())} ok answers")
    wrong = {name: recovery["spent"].get(name) for name, answered in ok.items()
             if recovery["spent"].get(name) != answered * epsilon}
    tally.check(not wrong,
                f"recovered spent != ok answers x {epsilon}: {wrong}")

    queries = summarize(latencies)
    tenth = max(1, len(latencies) // 10)
    growth = median(latencies[-tenth:]) / median(latencies[:tenth])
    qps = len(latencies) / load.elapsed
    outcome = Outcome(end_to_end={
        "setup_s": median(setup_seconds),
        "peak_rss_mb": peak_rss,
        "op_p50_ms": queries.p50 * 1e3,
        "ops_per_s": qps,
    })
    outcome.notes += [
        f"{len(manifest.tenants)} tenants, {len(schedule)} queries, "
        f"ledger depth {min(depth.values())}..{max(depth.values())} debits, "
        f"{len(pbload.deal(schedule, os.cpu_count() or 1))} client thread(s)",
        f"query_p50_ms {queries.p50 * 1e3:.4f} ms  "
        f"query_p{queries.tail_q:g}_ms {queries.tail * 1e3:.4f} ms  "
        f"(n={queries.n}, "
        f"{queries.tail_beyond} beyond p{queries.tail_q:g})",
        f"query_qps {qps:.3f} 1/s  latency growth (last/first tenth p50, "
        f"n={tenth} each) {growth:.3f}",
        f"recover_s {recovery['seconds']:.4f} s for {report['debits']} "
        f"debits",
        f"transcript sha256 {sha[:16]}",
    ]
    if trace:
        outcome.per_layer = _per_layer(metrics_text, latencies, growth,
                                       recovery)
    return outcome, tally, sha


def _per_layer(text: str, latencies, growth: float,
               recovery: dict) -> Dict[str, float]:
    out: Dict[str, float] = {}
    stages = pbprom.histogram_totals(text, "repro_serve_stage_seconds",
                                     "stage", endpoint="query")
    for stage in SERVE_STAGES:
        out[f"serve.stage_ms.{stage}"] = pbprom.mean_ms(stages,
                                                        f"serve.{stage}")
    requests = pbprom.histogram_totals(text, "repro_serve_request_seconds",
                                       "endpoint", endpoint="query")
    request_ms = pbprom.mean_ms(requests, "query")
    out["serve.request_ms"] = request_ms
    out["serve.transport_ms"] = 1e3 * float(np.mean(latencies)) - request_ms
    out["serve.latency_growth"] = growth
    out["serve.recover_s"] = recovery["seconds"]
    out["serve.recovery.debits_per_s"] = (
        recovery["report"]["debits"] / recovery["seconds"])
    out["serve.cache_hit_ratio"] = pbprom.gauge(text,
                                                "repro_serve_cache_hit_ratio")
    return out
