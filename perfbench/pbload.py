"""Closed-loop serve load driver with a bounded number of worker threads.

``repro.serve.replay.run_replay`` starts one thread per tenant, which
on a 64-tenant manifest is 64 threads on a 2-core box.  This driver
sends the same schedule (``build_schedule``) with the same idempotency
keys through ``ServeClient``, but from at most ``workers`` threads:
tenants are dealt round-robin to workers, and each worker sends its
share in schedule order, waiting for every reply.  A tenant therefore
lives on one worker, so its queries stay serial and in order, which is
all the transcript depends on: the transcript of a run against a fresh
server hashes equal to ``run_replay``'s for the same manifest.
"""

from __future__ import annotations

import http.client
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

_TRANSPORT_ERRORS = (OSError, http.client.HTTPException)


@dataclass
class LoadResult:
    """Per-query records and client-observed latencies, by index."""

    records: Dict[int, dict] = field(default_factory=dict)
    latencies: Dict[int, float] = field(default_factory=dict)
    elapsed: float = 0.0

    def ordered_records(self) -> List[dict]:
        return [self.records[i] for i in sorted(self.records)]


def key_prefix(manifest) -> str:
    """``run_replay``'s idempotency-key prefix for a manifest."""
    return f"{manifest.name}:{manifest.seed}"


def deal(schedule: Sequence, workers: int) -> List[list]:
    """Split a schedule into per-worker lists, one tenant per worker.

    Tenants are dealt round-robin in sorted-name order; each list keeps
    schedule order.
    """
    tenants = sorted({item.tenant for item in schedule})
    count = max(1, min(workers, len(tenants)))
    owner = {name: i % count for i, name in enumerate(tenants)}
    shares: List[list] = [[] for _ in range(count)]
    for item in schedule:
        shares[owner[item.tenant]].append(item)
    return shares


def _record(item, code: int, payload: dict) -> dict:
    """One transcript record, field for field as ``run_replay`` keeps it."""
    result = (payload.get("results") or [{}])[0]
    record = {
        "index": item.index,
        "tenant": item.tenant,
        "phase": item.phase,
        "kind": item.kind,
        "lo": item.lo,
        "hi": item.hi,
        "status": result.get("status", "error"),
        "code": code,
    }
    if "value" in result:
        record["value"] = result["value"]
    if "error" in result:
        record["error"] = result["error"]
    return record


def drive(client, fingerprint: str, schedule: Sequence, prefix: str,
          workers: int = 0) -> LoadResult:
    """Send ``schedule`` closed-loop; ``workers`` defaults to ``nproc``."""
    workers = workers or os.cpu_count() or 1
    out = LoadResult()
    lock = threading.Lock()
    errors: List[BaseException] = []

    def work(items: list) -> None:
        try:
            for item in items:
                started = time.perf_counter()
                try:
                    code, payload = client.query(
                        item.tenant, [item.wire_query()],
                        fingerprint=fingerprint,
                        idempotency_key=f"{prefix}:{item.index}",
                    )
                except _TRANSPORT_ERRORS as exc:
                    code, payload = 0, {"results": [
                        {"status": "error", "error": repr(exc)}]}
                latency = time.perf_counter() - started
                with lock:
                    out.records[item.index] = _record(item, code, payload)
                    out.latencies[item.index] = latency
        except BaseException as exc:  # surfaced after join
            errors.append(exc)
            raise

    threads = [
        threading.Thread(target=work, args=(share,), name=f"load-{i}")
        for i, share in enumerate(deal(schedule, workers))
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    out.elapsed = time.perf_counter() - started
    if errors:
        raise errors[0]
    return out
