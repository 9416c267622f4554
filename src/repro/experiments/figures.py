"""The paper's figures and tables, as table-producing functions.

Each function regenerates one experiment of the (reconstructed)
evaluation — see the per-experiment index in DESIGN.md — and returns a
list of :class:`~repro.experiments.tables.Table` carrying the same
rows/series the paper reports.  ``quick=True`` shrinks domains, seed
counts and grids so a bench finishes in seconds; ``quick=False`` runs the
full configuration recorded in EXPERIMENTS.md.

All randomness is seeded: re-running an experiment reproduces its tables
bit-for-bit.

Every publisher cell runs through :func:`_cell` — an
:class:`~repro.experiments.spec.ExperimentSpec` handed to
:func:`~repro.experiments.runner.run_matrix` — so ``n_jobs`` fans the
seeds of any cell out over a process pool without changing a number.
The ablation and extension modules share the same helper.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.core import NoiseFirst, StructureFirst
from repro.core.kselect import smoothness_profile
from repro.datasets import registry as dataset_registry
from repro.datasets.generators import step_histogram
from repro.datasets.standard import age, searchlogs
from repro.experiments.aggregate import aggregate_records
from repro.experiments.runner import RunRecord, run_matrix, run_once
from repro.experiments.spec import ROSTER, ExperimentSpec, PublisherFactory
from repro.experiments.tables import Table
from repro.hist.histogram import Histogram
from repro.workloads.builders import fixed_length_ranges, unit_queries
from repro.workloads.workload import Workload

__all__ = [
    "table1_datasets",
    "fig_point_vs_eps",
    "fig_range_vs_len",
    "fig_kl_vs_eps",
    "fig_k_sensitivity",
    "fig_budget_split",
    "fig_scalability",
    "table_crossover",
    "fig_smoothness",
    "fig_data_scale",
]

def _datasets(quick: bool) -> Dict[str, Histogram]:
    """Evaluation datasets, shrunk in quick mode for bench runtimes."""
    if quick:
        return {
            "age": age(n_bins=100, total=100_000),
            "searchlogs": searchlogs(n_bins=256, total=100_000),
        }
    return {name: dataset_registry.get_dataset(name)
            for name in dataset_registry.list_datasets()}


def _eps_grid(quick: bool) -> List[float]:
    if quick:
        return [0.01, 0.1]
    return [0.01, 0.02, 0.05, 0.1, 0.5, 1.0]


def _seeds(quick: bool) -> List[int]:
    return list(range(3 if quick else 10))


def _cell(
    name: str,
    hist: Histogram,
    factory: PublisherFactory,
    eps: float,
    workloads: Sequence[Workload],
    seeds: Sequence[int],
    n_jobs: int,
) -> List[RunRecord]:
    """One publisher cell: every seed through the supervised trial path.

    Pass a class or a :func:`functools.partial` as ``factory`` (not a
    lambda) so the spec pickles and ``n_jobs > 1`` really runs parallel.
    """
    return run_matrix(ExperimentSpec(
        name=name,
        histogram=hist,
        publisher_factory=factory,
        epsilon=eps,
        workloads=tuple(workloads),
        seeds=tuple(seeds),
        n_jobs=n_jobs,
    ))


def _mean(records: List[RunRecord], workload: str, metric: str = "mse") -> float:
    """Seed mean of one workload metric over a cell's records."""
    return aggregate_records(records, lambda r: r.metric(workload, metric)).mean


# ---------------------------------------------------------------------------
# table1: dataset statistics
# ---------------------------------------------------------------------------

def table1_datasets(quick: bool = False, n_jobs: int = 1) -> List[Table]:
    """Dataset summary statistics (paper's dataset table)."""
    table = Table(
        title="table1: evaluation datasets",
        headers=["dataset", "bins", "total", "nonzero", "max count",
                 "smoothness"],
        notes="smoothness = total variation of adjacent bins / total count "
              "(lower = smoother)",
    )
    for name, hist in _datasets(quick=False).items():
        table.add_row(
            name,
            hist.size,
            int(hist.total),
            int(np.count_nonzero(hist.counts)),
            int(hist.counts.max()),
            round(smoothness_profile(hist.counts), 4),
        )
    return [table]


# ---------------------------------------------------------------------------
# fig_point_vs_eps: unit-query MSE vs epsilon
# ---------------------------------------------------------------------------

def _vs_eps(
    figure: str, label: str, quick: bool, n_jobs: int, unit: bool,
    extract: Callable[[RunRecord], float],
) -> List[Table]:
    """One table per dataset: seed mean of ``extract`` per epsilon x publisher.

    ``unit`` adds the unit-query workload to every cell.
    """
    tables = []
    seeds = _seeds(quick)
    for ds_name, hist in _datasets(quick).items():
        workloads = [unit_queries(hist.size)] if unit else []
        table = Table(
            title=f"{figure} [{ds_name}]: {label} vs epsilon",
            headers=["epsilon"] + list(ROSTER),
        )
        for eps in _eps_grid(quick):
            row: List[object] = [eps]
            for pub_name, factory in ROSTER.items():
                records = _cell(f"{figure}/{ds_name}/{pub_name}/{eps:g}",
                                hist, factory, eps, workloads, seeds, n_jobs)
                row.append(aggregate_records(records, extract).mean)
            table.add_row(*row)
        tables.append(table)
    return tables


def fig_point_vs_eps(quick: bool = False, n_jobs: int = 1) -> List[Table]:
    """MSE of unit-length (point) queries vs epsilon, per dataset.

    Expected shape: NoiseFirst tracks or beats Dwork everywhere and wins
    clearly once noise dominates (small epsilon); the tree/wavelet/
    structure publishers pay their overhead and lose on points.
    """
    return _vs_eps("fig_point_vs_eps", "unit-query MSE", quick, n_jobs, True,
                   lambda r: r.metric("unit", "mse"))


# ---------------------------------------------------------------------------
# fig_range_vs_len: range-query MSE vs query length (the crossover figure)
# ---------------------------------------------------------------------------

def _range_sweep(
    name: str, hist: Histogram, eps: float, lengths: Sequence[int],
    seeds: Sequence[int], n_jobs: int,
) -> Dict[str, Dict[int, float]]:
    """Mean range-MSE per publisher per length; one cell per publisher."""
    workloads = [fixed_length_ranges(hist.size, length) for length in lengths]
    out: Dict[str, Dict[int, float]] = {}
    for pub_name, factory in ROSTER.items():
        records = _cell(f"{name}/{pub_name}", hist, factory, eps, workloads,
                        seeds, n_jobs)
        out[pub_name] = {length: _mean(records, f"len-{length}")
                         for length in lengths}
    return out


def _sweep_lengths(n: int) -> List[int]:
    lengths = []
    length = 1
    while length <= n // 2:
        lengths.append(length)
        length *= 4
    if lengths[-1] != n // 2:
        lengths.append(n // 2)
    return lengths


def fig_range_vs_len(quick: bool = False, n_jobs: int = 1) -> List[Table]:
    """MSE of fixed-length range queries vs length at fixed epsilon.

    Expected shape: Dwork/NoiseFirst grow linearly in the length;
    StructureFirst/Privelet/Boost stay flat-ish, so the curves cross.
    """
    hist = searchlogs(n_bins=512 if quick else 1024, total=100_000)
    eps = 0.01
    lengths = _sweep_lengths(hist.size)
    sweep = _range_sweep("range_vs_len/searchlogs", hist, eps, lengths,
                         _seeds(quick), n_jobs)
    table = Table(
        title=f"fig_range_vs_len [searchlogs, eps={eps}]: range MSE vs length",
        headers=["length"] + list(ROSTER),
        notes="expected crossover: dwork/noisefirst win short ranges, "
              "structurefirst/privelet/boost win long ranges",
    )
    for length in lengths:
        table.add_row(length, *[sweep[name][length] for name in ROSTER])
    return [table]


# ---------------------------------------------------------------------------
# fig_kl_vs_eps: distribution-level KL divergence vs epsilon
# ---------------------------------------------------------------------------

def fig_kl_vs_eps(quick: bool = False, n_jobs: int = 1) -> List[Table]:
    """KL(truth || published) vs epsilon per dataset."""
    return _vs_eps("fig_kl_vs_eps", "KL divergence", quick, n_jobs, False,
                   lambda r: r.kl)


# ---------------------------------------------------------------------------
# fig_k_sensitivity: error vs bucket count k
# ---------------------------------------------------------------------------

def fig_k_sensitivity(quick: bool = False, n_jobs: int = 1) -> List[Table]:
    """StructureFirst/NoiseFirst error as a function of the bucket count.

    Sweeps k for both algorithms at fixed epsilon and reports unit and
    long-range MSE; the last row is NoiseFirst's adaptive k* for
    reference.
    """
    hist = searchlogs(n_bins=256, total=100_000)
    eps = 0.05
    n = hist.size
    workloads = [unit_queries(n), fixed_length_ranges(n, n // 4)]
    long_name = workloads[1].name
    ks = [2, 4, 8, 16, 32, 64, 128]
    seeds = _seeds(quick)
    table = Table(
        title=f"fig_k_sensitivity [searchlogs, eps={eps}]: error vs bucket count",
        headers=["k", "SF unit MSE", "SF range MSE", "NF unit MSE",
                 "NF range MSE"],
    )
    for k in ks:
        sf = _cell(f"k_sensitivity/structurefirst/k={k}", hist,
                   partial(StructureFirst, k=k), eps, workloads, seeds, n_jobs)
        nf = _cell(f"k_sensitivity/noisefirst/k={k}", hist,
                   partial(NoiseFirst, k=k), eps, workloads, seeds, n_jobs)
        table.add_row(k, _mean(sf, "unit"), _mean(sf, long_name),
                      _mean(nf, "unit"), _mean(nf, long_name))
    # Adaptive NoiseFirst reference row.
    nf = _cell("k_sensitivity/noisefirst/adaptive", hist, NoiseFirst, eps,
               workloads, seeds, n_jobs)
    k_star = int(np.median([r.meta["k"] for r in nf]))
    table.add_row(f"NF k*={k_star}", float("nan"), float("nan"),
                  _mean(nf, "unit"), _mean(nf, long_name))
    return [table]


# ---------------------------------------------------------------------------
# fig_budget_split: StructureFirst structure/noise budget split
# ---------------------------------------------------------------------------

def fig_budget_split(quick: bool = False, n_jobs: int = 1) -> List[Table]:
    """StructureFirst error vs the fraction of budget spent on structure."""
    hist = searchlogs(n_bins=256, total=100_000)
    eps = 0.1
    n = hist.size
    workloads = [unit_queries(n), fixed_length_ranges(n, n // 4)]
    fractions = [0.1, 0.25, 0.5, 0.75, 0.9]
    seeds = _seeds(quick)
    table = Table(
        title=f"fig_budget_split [searchlogs, eps={eps}]: SF error vs "
              "structure fraction",
        headers=["structure fraction", "unit MSE", "range MSE"],
    )
    for fraction in fractions:
        records = _cell(f"budget_split/{fraction:g}", hist,
                        partial(StructureFirst, structure_fraction=fraction),
                        eps, workloads, seeds, n_jobs)
        table.add_row(fraction, _mean(records, "unit"),
                      _mean(records, workloads[1].name))
    return [table]


# ---------------------------------------------------------------------------
# fig_scalability: wall-clock runtime vs domain size
# ---------------------------------------------------------------------------

def fig_scalability(quick: bool = False, n_jobs: int = 1) -> List[Table]:
    """Publish-time (seconds) vs domain size n for every publisher.

    Stays serial whatever ``n_jobs`` says: the timings must not run
    under contention from sibling workers.
    """
    sizes = [128, 256, 512] if quick else [128, 256, 512, 1024, 2048]
    eps = 0.1
    table = Table(
        title="fig_scalability: publish seconds vs domain size",
        headers=["n"] + list(ROSTER),
        notes="NoiseFirst's adaptive search runs the exact blocked "
              "O(n^2 k) DP (noisy counts are unsorted, so the Monge "
              "divide-and-conquer kernel cannot engage; see "
              "docs/performance.md) and remains the scaling outlier; "
              "AHP's sorted clustering rides the O(n k log n) kernel "
              "and the others are O(n log n) or better",
    )
    for n in sizes:
        hist = searchlogs(n_bins=n, total=100_000)
        row: List[object] = [n]
        for factory in ROSTER.values():
            record = run_once(hist, factory(), eps, [], seed=0)
            row.append(round(record.seconds, 4))
        table.add_row(*row)
    return [table]


# ---------------------------------------------------------------------------
# table_crossover: winner per (dataset, range length) regime
# ---------------------------------------------------------------------------

def table_crossover(quick: bool = False, n_jobs: int = 1) -> List[Table]:
    """Which publisher wins at each query length, per dataset."""
    eps = 0.01
    seeds = _seeds(quick)
    table = Table(
        title=f"table_crossover [eps={eps}]: winning publisher by range length",
        headers=["dataset", "length", "winner", "winner MSE", "dwork MSE"],
        notes="the paper's qualitative claim: noise-dominated short ranges "
              "go to noisefirst/dwork, long ranges to the structured trio",
    )
    for ds_name, hist in _datasets(quick).items():
        lengths = _sweep_lengths(hist.size)
        sweep = _range_sweep(f"crossover/{ds_name}", hist, eps, lengths,
                             seeds, n_jobs)
        for length in lengths:
            scores = {name: sweep[name][length] for name in ROSTER}
            winner = min(scores, key=scores.get)
            table.add_row(ds_name, length, winner, scores[winner],
                          scores["dwork"])
    return [table]


# ---------------------------------------------------------------------------
# fig_smoothness: error vs ground-truth smoothness
# ---------------------------------------------------------------------------

def fig_data_scale(quick: bool = False, n_jobs: int = 1) -> List[Table]:
    """Relative error vs dataset cardinality at fixed epsilon.

    Noise is data-independent, so scaling the data total down makes the
    privacy/utility trade harder: the *scaled* (relative) error of every
    publisher grows as the total shrinks, and the structured methods'
    advantage widens (their per-bin noise shrinks with bucket width, not
    with data volume).
    """
    eps = 0.05
    n = 256
    totals = [10_000, 100_000] if quick else [3_000, 10_000, 30_000,
                                              100_000, 300_000, 1_000_000]
    seeds = _seeds(quick)
    table = Table(
        title=f"fig_data_scale [searchlogs shape, n={n}, eps={eps}]: "
              "scaled unit error vs total count",
        headers=["total"] + list(ROSTER),
        notes="scaled error = MAE / mean true count (unit-free); smaller "
              "totals make the same noise relatively larger",
    )
    for total in totals:
        hist = searchlogs(n_bins=n, total=total)
        unit = unit_queries(n)
        row: List[object] = [total]
        for pub_name, factory in ROSTER.items():
            records = _cell(f"data_scale/{total}/{pub_name}", hist, factory,
                            eps, [unit], seeds, n_jobs)
            row.append(_mean(records, "unit", "scaled"))
        table.add_row(*row)
    return [table]


def fig_smoothness(quick: bool = False, n_jobs: int = 1) -> List[Table]:
    """Error vs number of true steps in piecewise-constant data.

    Structure-based publishers shine when the data really is bucketed
    (few steps) and degrade toward Dwork as the data loses structure.
    """
    n = 256
    eps = 0.05
    unit = unit_queries(n)
    steps = [2, 8, 32, 128]
    seeds = _seeds(quick)
    table = Table(
        title=f"fig_smoothness [step data, n={n}, eps={eps}]: unit MSE vs "
              "true step count",
        headers=["steps"] + list(ROSTER),
    )
    for n_steps in steps:
        hist = step_histogram(n, n_steps, total=100_000, rng=7)
        row: List[object] = [n_steps]
        for pub_name, factory in ROSTER.items():
            records = _cell(f"smoothness/{n_steps}/{pub_name}", hist, factory,
                            eps, [unit], seeds, n_jobs)
            row.append(_mean(records, "unit"))
        table.add_row(*row)
    return [table]
