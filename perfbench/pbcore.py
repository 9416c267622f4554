"""Shared plumbing for the benchmark: statistics, run tally, output.

Everything here is workload-agnostic: the percentile/sample-count
summary every timing is reported with, the :class:`Tally` that counts
attempted and failed operations and records which correctness gates
tripped, digest helpers for the gates, peak-RSS readers, and the final
report (human-readable table, then one JSON line).
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Sequence, Tuple

#: End-to-end metrics (``--trace 0``): name -> unit.  Every workload
#: reports every one of them; ``op`` is the workload's unit of work
#: (a four-publisher release, a sweep trial, a served query).  The
#: tail percentile is printed with its sample count but not gated: on a
#: shared 2-vCPU machine its run-to-run spread exceeds any usable bound.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "ops_per_s": "1/s",
}

#: Publishers of the ``publish_bign`` release, in call order.
PUBLISHERS: Tuple[str, ...] = ("structurefirst", "dawa-lite", "noisefirst",
                               "ahp")

#: The 6 serving stages the ``serve_*`` workloads report (the 7th,
#: ``serve.publish``, only runs during set-up).
SERVE_STAGES: Tuple[str, ...] = ("admission_wait", "cache_lookup",
                                 "ledger_charge", "journal_fsync", "answer",
                                 "serialize")


def _per_layer_units() -> Dict[str, str]:
    units: Dict[str, str] = {}
    for pub in ("structurefirst", "dawa-lite"):
        units[f"partition.gibbs.forward_filter_s.{pub}"] = "s"
        units[f"partition.gibbs.backward_sample_s.{pub}"] = "s"
    units["perf.costrows.sae_columns_s"] = "s"
    for pub in ("noisefirst", "ahp"):
        units[f"perf.kernels.dp_s.{pub}"] = "s"
    for pub in PUBLISHERS:
        units[f"core.publish_s.{pub}"] = "s"
        units[f"mechanisms.noise_s.{pub}"] = "s"
        units[f"postprocess_s.{pub}"] = "s"
        units[f"publish.unattributed_s.{pub}"] = "s"
    units.update({
        "experiments.runner.publish_s_sum": "s",
        "experiments.runner.eval_s_sum": "s",
        "robust.executor.parallel_efficiency": "ratio",
        "robust.executor.speedup_vs_serial": "ratio",
        "robust.executor.retries": "count",
        "robust.executor.quarantined": "count",
    })
    for stage in SERVE_STAGES:
        units[f"serve.stage_ms.{stage}"] = "ms"
    units.update({
        "serve.request_ms": "ms",
        "serve.transport_ms": "ms",
        "serve.latency_growth": "ratio",
        "serve.recover_s": "s",
        "serve.recovery.debits_per_s": "1/s",
        "serve.cache_hit_ratio": "ratio",
    })
    return units


#: Per-layer metrics (``--trace 1``): name -> unit.  Every workload
#: reports every one; a layer the workload does not exercise reads 0.
PER_LAYER: Dict[str, str] = _per_layer_units()


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default), ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the ``q``-th percentile.

    The percentile's rank is ``(n - 1) q / 100``; the samples beyond it
    are those with a larger rank.  A percentile is only well supported
    when this count is at least ten.
    """
    if n < 1:
        return 0
    rank = (n - 1) * q / 100.0
    return n - 1 - math.floor(rank)


#: Tail percentiles, highest first: a summary reports the first one with
#: at least :data:`MIN_BEYOND` samples above it (the median as a last
#: resort, for runs with only a handful of operations).
TAIL_PERCENTILES = (99.0, 90.0, 50.0)
MIN_BEYOND = 10


def tail_percentile(n: int) -> float:
    """The highest percentile of :data:`TAIL_PERCENTILES` ``n`` supports."""
    for q in TAIL_PERCENTILES:
        if beyond(n, q) >= MIN_BEYOND:
            return q
    return TAIL_PERCENTILES[-1]


@dataclass(frozen=True)
class Summary:
    """A timing sample as median and tail percentile, with its count."""

    n: int
    p50: float
    tail_q: float
    tail: float

    @property
    def tail_beyond(self) -> int:
        return beyond(self.n, self.tail_q)

    def describe(self, scale: float = 1.0, unit: str = "") -> str:
        text = f"p50 {self.p50 * scale:.4f}{unit} "
        if self.tail_q > 50.0:
            text += f"p{self.tail_q:g} {self.tail * scale:.4f}{unit} "
        return text + (f"(n={self.n}, {self.tail_beyond} beyond "
                       f"p{self.tail_q:g})")


def summarize(values: Sequence[float]) -> Summary:
    values = list(values)
    q = tail_percentile(len(values))
    return Summary(n=len(values), p50=percentile(values, 50.0), tail_q=q,
                   tail=percentile(values, q))


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


# ---------------------------------------------------------------------------
# Correctness tally
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    """Attempted/failed operation counts plus the checks that tripped.

    Each :meth:`check` is one attempted operation: a publish, a trial or
    a query, or a whole-run gate such as a digest comparison.  So
    ``failed`` is non-zero whenever anything was wrong.
    """

    attempted: int = 0
    failed: int = 0
    tripped: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if what:
                self.tripped.append(what)
        return ok

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def sha256_json(payload: Any) -> str:
    """SHA-256 of a payload's sorted-key JSON text."""
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_array(values: Any) -> str:
    """SHA-256 of a float64 array's little-endian bytes."""
    import numpy as np

    arr = np.ascontiguousarray(values, dtype="<f8")
    return hashlib.sha256(arr.tobytes()).hexdigest()


# ---------------------------------------------------------------------------
# Peak resident memory
# ---------------------------------------------------------------------------

def peak_rss_mb_self() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_children() -> float:
    """Largest peak RSS of any waited-for child process (Linux: kB)."""
    import resource

    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def peak_rss_mb_pid(pid: int) -> float:
    """``VmHWM`` (peak RSS) of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

#: Failed checks listed by name in the report; the rest are counted.
MAX_TRIPPED_SHOWN = 20


@dataclass
class Outcome:
    """What one workload run produced."""

    end_to_end: Dict[str, float]
    #: Only the layers this workload exercises; the rest report 0.
    per_layer: Dict[str, float] = field(default_factory=dict)
    #: Human-readable lines (named metrics with sample counts).
    notes: List[str] = field(default_factory=list)


def result_line(outcome: Outcome, tally: Tally, trace: bool) -> Dict[str, Any]:
    """The final JSON object: the contract's four keys, nothing else."""
    units = PER_LAYER if trace else END_TO_END
    source = outcome.per_layer if trace else outcome.end_to_end
    unknown = sorted(set(source) - set(units))
    missing = [] if trace else sorted(set(units) - set(source))
    if unknown or missing:
        raise KeyError(f"unknown metric(s) {unknown}, missing {missing}")
    metrics = {
        name: {"value": float(source.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    return {
        "correct": tally.correct,
        "attempted": int(tally.attempted),
        "failed": int(tally.failed),
        "metrics": metrics,
    }


def print_report(workload: str, seed: int, trace: bool, outcome: Outcome,
                 tally: Tally) -> Dict[str, Any]:
    """Print the table, then the result JSON as the last line."""
    out = sys.stdout
    mode = "traced" if trace else "untraced"
    print(f"== {workload} (seed {seed}, {mode}) ==", file=out)
    for line in outcome.notes:
        print(f"  {line}", file=out)
    print(f"  -- end-to-end ({mode}) --", file=out)
    for name, unit in END_TO_END.items():
        value = outcome.end_to_end.get(name)
        if value is not None:
            print(f"  {name:<44} {value:>14.6g} {unit}", file=out)
    if trace:
        print("  -- per layer (traced; 0 = layer idle here) --", file=out)
        for name, unit in PER_LAYER.items():
            print(f"  {name:<44} {outcome.per_layer.get(name, 0.0):>14.6g}"
                  f" {unit}", file=out)
    print(f"  attempted {tally.attempted}  failed {tally.failed}  "
          f"correct {str(tally.correct).lower()}", file=out)
    for what in tally.tripped[:MAX_TRIPPED_SHOWN]:
        print(f"  GATE FAILED: {what}", file=out)
    if len(tally.tripped) > MAX_TRIPPED_SHOWN:
        print(f"  ... and {len(tally.tripped) - MAX_TRIPPED_SHOWN} more",
              file=out)
    line = result_line(outcome, tally, trace)
    print(json.dumps(line, sort_keys=True), file=out, flush=True)
    return line
