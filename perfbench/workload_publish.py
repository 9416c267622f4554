"""``publish_bign``: the four structure-aware publishers at n = 2^18.

One seeded shuffled-Zipf histogram, published by StructureFirst(k=32),
DAWA-lite(k=32), NoiseFirst and AHP in that fixed order, :data:`ROUNDS`
times, single-threaded in this process.  The unit of work (``op``) is
one *release*: the four publishes of one round.

Untraced runs time every round untraced.  Traced runs make the first
round the untraced reference and trace the rest, so each publisher's
traced output is checked against its untraced output and the tracing
overhead shows next to the reference.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from pbcore import (
    PUBLISHERS,
    Outcome,
    Tally,
    median,
    peak_rss_mb_self,
    sha256_array,
    summarize,
)
from pbtrace import layer_self_seconds

N_BINS = 1 << 18
TOTAL = 1_000_000
EPSILON = 0.5
K = 32
ROUNDS = 2
SETUPS = 5


def _factories() -> List[Tuple[str, Callable[[], Any]]]:
    from repro import NoiseFirst, StructureFirst
    from repro.baselines import Ahp, DawaLite

    return [
        ("structurefirst", lambda: StructureFirst(k=K)),
        ("dawa-lite", lambda: DawaLite(k=K)),
        ("noisefirst", NoiseFirst),
        ("ahp", Ahp),
    ]


def setup(seed: int):
    """The input histogram and the four publishers."""
    from repro.datasets.generators import zipf_histogram

    hist = zipf_histogram(N_BINS, total=TOTAL, rng=seed, shuffle=True)
    return hist, [(name, make()) for name, make in _factories()]


def sae_columns_seconds(counts) -> float:
    """Time every ``LazySAECost.column`` over the coarse Gibbs grid."""
    from repro.partition.coarsen import (
        COARSE_MAX_CELLS,
        coarsen_counts,
        uniform_cell_edges,
    )
    from repro.perf.costrows import LazySAECost

    cells = coarsen_counts(counts, uniform_cell_edges(len(counts),
                                                      COARSE_MAX_CELLS))
    cost = LazySAECost(cells)
    started = time.perf_counter()
    for j in range(1, cost.n + 1):
        cost.column(j)
    return time.perf_counter() - started


def run(seed: int, trace: bool, recorded: Optional[Dict[str, str]],
        workdir) -> Tuple[Outcome, Tally, Dict[str, str]]:
    from repro.obs import trace as obs_trace

    setup_seconds = []
    for _ in range(SETUPS):
        started = time.perf_counter()
        hist, publishers = setup(seed)
        setup_seconds.append(time.perf_counter() - started)

    tally = Tally()
    reference: Dict[str, str] = {}
    publish_seconds: Dict[str, List[float]] = {p: [] for p in PUBLISHERS}
    layers: Dict[str, List[Dict[str, float]]] = {p: [] for p in PUBLISHERS}
    timed_rounds: List[float] = []
    untraced_round = 0.0
    for index in range(ROUNDS):
        traced = trace and index > 0
        previous = obs_trace.set_enabled(traced)
        try:
            round_seconds = 0.0
            for name, publisher in publishers:
                started = time.perf_counter()
                try:
                    with obs_trace.capture("publish", publisher=name) as root:
                        result = publisher.publish(hist, budget=EPSILON,
                                                   rng=seed)
                except Exception as exc:  # one failed op, keep measuring
                    tally.check(False, f"{name} round {index}: {exc!r}")
                    continue
                seconds = time.perf_counter() - started
                round_seconds += seconds
                digest = sha256_array(result.histogram.counts)
                expected = reference.setdefault(name, digest)
                tally.check(digest == expected,
                            f"{name} round {index}: output differs from "
                            f"round 0 ({'traced' if traced else 'untraced'})")
                if traced or not trace:
                    publish_seconds[name].append(seconds)
                if root is not None:
                    layers[name].append(layer_self_seconds(root.to_dict()))
        finally:
            obs_trace.set_enabled(previous)
        if traced or not trace:
            timed_rounds.append(round_seconds)
        else:
            untraced_round = round_seconds

    if recorded is not None:
        for name in PUBLISHERS:
            tally.check(reference.get(name) == recorded.get(name),
                        f"{name}: digest differs from the recorded one")

    rounds = summarize(timed_rounds)
    outcome = Outcome(end_to_end={
        "setup_s": median(setup_seconds),
        "peak_rss_mb": peak_rss_mb_self(),
        "op_p50_ms": rounds.p50 * 1e3,
        "ops_per_s": len(timed_rounds) / sum(timed_rounds),
    })
    outcome.notes.append(
        f"n={N_BINS} eps={EPSILON} k={K}; release (op) = 4 publishes; "
        f"{rounds.describe(1.0, ' s')}"
    )
    for name in PUBLISHERS:
        values = publish_seconds[name] or [0.0]
        outcome.notes.append(
            f"publish_s.{name:<15} {median(values):.4f} s median "
            f"(n={len(publish_seconds[name])})  "
            f"sha256 {reference.get(name, '-')[:16]}"
        )
    if trace:
        outcome.notes.append(
            f"untraced reference release {untraced_round:.4f} s vs traced "
            f"median {rounds.p50:.4f} s"
        )
        outcome.per_layer = _per_layer(publish_seconds, layers,
                                       sae_columns_seconds(hist.counts))
    return outcome, tally, reference


def _per_layer(publish_seconds, layers,
               sae_seconds: float) -> Dict[str, float]:
    out: Dict[str, float] = {}

    def med(name: str, family: str) -> float:
        values = [entry[family] for entry in layers[name]]
        return median(values) if values else 0.0

    for name in ("structurefirst", "dawa-lite"):
        out[f"partition.gibbs.forward_filter_s.{name}"] = med(
            name, "forward_filter")
        out[f"partition.gibbs.backward_sample_s.{name}"] = med(
            name, "backward_sample")
    for name in ("noisefirst", "ahp"):
        out[f"perf.kernels.dp_s.{name}"] = med(name, "kernel_dp")
    for name in PUBLISHERS:
        out[f"core.publish_s.{name}"] = (
            median(publish_seconds[name]) if publish_seconds[name] else 0.0
        )
        out[f"mechanisms.noise_s.{name}"] = med(name, "noise")
        out[f"postprocess_s.{name}"] = med(name, "postprocess")
        out[f"publish.unattributed_s.{name}"] = med(name, "unattributed")
    out["perf.costrows.sae_columns_s"] = sae_seconds
    return out
