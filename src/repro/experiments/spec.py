"""Experiment specification objects.

An :class:`ExperimentSpec` pins down everything a run needs — dataset,
publisher factory, budget, workloads, seeds — so experiments are
reproducible from their spec alone.  :data:`ROSTER` is the paper's
publisher comparison roster, shared by the figures, sweeps and
scenario runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro._validation import check_positive
from repro.baselines import Boost, DworkIdentity, Privelet
from repro.core import NoiseFirst, StructureFirst
from repro.core.publisher import Publisher
from repro.hist.histogram import Histogram
from repro.workloads.workload import Workload

__all__ = ["ExperimentSpec", "ROSTER"]

PublisherFactory = Callable[[], Publisher]

#: The paper's comparison roster: its two algorithms plus the three
#: published baselines it was evaluated against.
ROSTER: Dict[str, PublisherFactory] = {
    "dwork": DworkIdentity,
    "noisefirst": NoiseFirst,
    "structurefirst": StructureFirst,
    "boost": Boost,
    "privelet": Privelet,
}


def _roster_request(publishers: Optional[Sequence[str]], n_seeds: int) -> List[str]:
    """Validate a sweep request: roster names (default: all) and seed count."""
    names = list(publishers) if publishers else list(ROSTER)
    unknown = [p for p in names if p not in ROSTER]
    if unknown:
        raise ValueError(
            f"unknown publisher(s) {unknown}; available: {', '.join(ROSTER)}"
        )
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    return names


@dataclass(frozen=True)
class ExperimentSpec:
    """One experimental cell: a publisher on a dataset at a budget.

    ``publisher_factory`` is a zero-argument callable so every repetition
    gets a fresh publisher (publishers are cheap and some carry
    per-publish defaults we do not want reused).
    """

    name: str
    histogram: Histogram
    publisher_factory: PublisherFactory
    epsilon: float
    workloads: Tuple[Workload, ...] = field(default_factory=tuple)
    seeds: Tuple[int, ...] = (0, 1, 2)
    n_jobs: int = 1

    def __post_init__(self) -> None:
        check_positive(self.epsilon, "epsilon")
        if not isinstance(self.n_jobs, int) or isinstance(self.n_jobs, bool):
            raise TypeError("n_jobs must be an int")
        if self.n_jobs != -1 and self.n_jobs < 1:
            raise ValueError(
                f"n_jobs must be >= 1 or -1, got {self.n_jobs}"
            )
        if not isinstance(self.histogram, Histogram):
            raise TypeError("histogram must be a Histogram")
        if not callable(self.publisher_factory):
            raise TypeError("publisher_factory must be callable")
        workloads = tuple(self.workloads)
        for w in workloads:
            if not isinstance(w, Workload):
                raise TypeError(f"expected Workload, got {type(w).__name__}")
            if w.n != self.histogram.size:
                raise ValueError(
                    f"workload {w.name!r} built for {w.n} bins, "
                    f"dataset has {self.histogram.size}"
                )
        object.__setattr__(self, "workloads", workloads)
        seeds = tuple(int(s) for s in self.seeds)
        if not seeds:
            raise ValueError("seeds must be non-empty")
        object.__setattr__(self, "seeds", seeds)

    def fingerprint(self) -> str:
        """SHA-256 identity of everything that determines this spec's output.

        Used by the checkpoint journal to guarantee that ``--resume``
        only ever reuses records produced by an identical configuration
        (same dataset bytes, publisher, budget, seeds and workloads).
        ``n_jobs`` is excluded: parallelism does not change results.
        """
        from repro.robust.journal import spec_fingerprint

        return spec_fingerprint(self)
