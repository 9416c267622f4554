"""``sweep_small``: the scenario radar as thousands of small trials.

All 12 registered scenarios (n = 64 and 256) x the scenario roster x
eps in {0.1, 1.0} x :data:`N_SEEDS` trial seeds, run by
``run_sweep(n_jobs=2, journal=...)``.  The benchmark seed picks the
trial seeds.  The unit of work (``op``) is one trial: publish plus
workload evaluation, as the worker timed it.

The traced run traces the parallel sweep (``REPRO_TRACE`` reaches the
pool workers through the environment) and then runs the same sweep
serially and untraced: that pass is both the speed-up baseline and
the untraced reference the traced records must equal.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace
from pathlib import Path
from typing import List, Optional, Tuple

from pbcore import (
    Outcome,
    Tally,
    median,
    peak_rss_mb_children,
    sha256_json,
    summarize,
)

EPSILONS = (0.1, 1.0)
N_SEEDS = 10
N_JOBS = 2
SETUPS = 5


def setup(seed: int, journal: Path):
    """The sweep's specs, with trial seeds drawn from the run seed."""
    from repro.robust.journal import CheckpointJournal
    from repro.scenarios.registry import build_scenario_specs

    first = seed * N_SEEDS
    specs = [
        replace(spec, seeds=tuple(range(first, first + N_SEEDS)))
        for spec in build_scenario_specs(epsilons=EPSILONS, n_seeds=N_SEEDS)
    ]
    return specs, CheckpointJournal(journal)


def sweep(specs, n_jobs: int, journal) -> Tuple[list, float, object]:
    """Run the sweep; returns (records in spec order, wall s, stats)."""
    from repro.obs.monitor import RunStats
    from repro.robust.sweep import run_sweep

    stats = RunStats()
    started = time.perf_counter()
    results = run_sweep(specs, n_jobs=n_jobs, journal=journal, observer=stats)
    wall = time.perf_counter() - started
    records = [record for spec in specs for record in results[spec.name]]
    return records, wall, stats


def records_digest(records) -> str:
    """SHA-256 over the timing-stripped records (failed ones as-is)."""
    from repro.experiments.runner import RunRecord, strip_timing
    from repro.robust.journal import record_to_payload

    return sha256_json([
        record_to_payload(
            strip_timing(r) if isinstance(r, RunRecord) else r)
        for r in records
    ])


def run(seed: int, trace: bool, recorded: Optional[str],
        workdir: Path) -> Tuple[Outcome, Tally, str]:
    from repro.obs import trace as obs_trace
    from repro.robust.records import is_failed

    setup_seconds = []
    for attempt in range(SETUPS):
        journal_path = workdir / f"sweep-{attempt}.jsonl"
        started = time.perf_counter()
        specs, journal = setup(seed, journal_path)
        setup_seconds.append(time.perf_counter() - started)

    previous_env = os.environ.get(obs_trace.ENV_VAR)
    if trace:
        os.environ[obs_trace.ENV_VAR] = "1"
    try:
        records, wall, stats = sweep(specs, N_JOBS, journal)
    finally:
        if previous_env is None:
            os.environ.pop(obs_trace.ENV_VAR, None)
        else:
            os.environ[obs_trace.ENV_VAR] = previous_env
    peak_rss = peak_rss_mb_children()

    tally = Tally()
    trial_seconds: List[float] = []
    publish_sum = eval_sum = 0.0
    for record in records:
        if is_failed(record):
            tally.check(False, f"trial quarantined: {record.describe()}")
            continue
        tally.check(True)
        eval_seconds = float(record.meta["t_eval_seconds"])
        publish_sum += record.seconds
        eval_sum += eval_seconds
        trial_seconds.append(record.seconds + eval_seconds)
    digest = records_digest(records)
    if recorded is not None:
        tally.check(digest == recorded,
                    "timing-stripped records differ from the recorded digest")

    trials = summarize(trial_seconds or [0.0])
    outcome = Outcome(end_to_end={
        "setup_s": median(setup_seconds),
        "peak_rss_mb": peak_rss,
        "op_p50_ms": trials.p50 * 1e3,
        "ops_per_s": len(records) / wall,
    })
    outcome.notes += [
        f"{len(specs)} specs, {len(records)} trials, n_jobs={N_JOBS}; "
        f"trial {trials.describe(1e3, ' ms')}",
        f"sweep_trials_per_s {len(records) / wall:.3f} 1/s "
        f"(wall {wall:.3f} s)",
        f"records sha256 {digest[:16]}",
    ]
    if trace:
        serial_journal = workdir / "sweep-serial.jsonl"
        serial_records, serial_wall, _ = sweep(specs, 1, serial_journal)
        tally.check(records_digest(serial_records) == digest,
                    "traced parallel records differ from the untraced serial "
                    "records")
        outcome.notes.append(
            f"untraced serial reference "
            f"{len(serial_records) / serial_wall:.3f} trials/s "
            f"(wall {serial_wall:.3f} s)"
        )
        outcome.per_layer = {
            "experiments.runner.publish_s_sum": publish_sum,
            "experiments.runner.eval_s_sum": eval_sum,
            "robust.executor.parallel_efficiency":
                (publish_sum + eval_sum) / (wall * N_JOBS),
            "robust.executor.speedup_vs_serial": serial_wall / wall,
            "robust.executor.retries": float(stats.retries_total),
            "robust.executor.quarantined": float(stats.quarantined),
        }
    return outcome, tally, digest
