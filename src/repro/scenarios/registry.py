"""DPBench-grade scenario families: named, seeded, fingerprinted cells.

A *scenario* composes a dataset generator (shape × domain size × scale)
with a workload battery (point, marginal, clustered, heavy-tailed and
fixed-length range queries) into a named, fully self-describing unit.
DPBench (Hay et al.) showed DP-histogram conclusions flip across these
regimes, so the utility radar sweeps a *family* of scenarios rather than
a single dataset, and every scenario can be reconstructed offline from
its name alone — which is what lets history ingest re-derive
oracle-anchored utility rows from journals long after the run.

Spec names follow the sweep convention::

    scenario/<family>/<label>/<publisher>/eps=<eps>

so the history store, journals, and drift radar treat scenario runs
exactly like sweep runs, with the scenario registry as the offline
source of dataset bytes and workload definitions.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.spec import ROSTER, ExperimentSpec, _roster_request
from repro.hist.histogram import Histogram
from repro.workloads.workload import Workload

__all__ = [
    "Scenario",
    "SCENARIOS",
    "FAMILIES",
    "get_scenario",
    "list_families",
    "list_scenarios",
    "build_scenario_specs",
    "parse_scenario_spec_name",
]

_NAME_PART = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")

_SCENARIO_SPEC_RE = re.compile(
    r"^scenario/(?P<family>[^/]+)/(?P<label>[^/]+)/"
    r"(?P<publisher>[^/]+)/eps=(?P<eps>[^/]+)$"
)

#: Workload-spec opcodes understood by :meth:`Scenario.build_workloads`.
#: Each is a plain tuple so scenarios stay hashable and serializable:
#:   ("unit",)                              -> one query per bin
#:   ("marginal", block)                    -> disjoint aligned blocks
#:   ("clustered", count, k, spread, seed)  -> hotspot-clustered ranges
#:   ("heavy-tail", count, alpha, seed)     -> power-law length ranges
#:   ("len", length)                        -> all ranges of one length
_WORKLOAD_OPS = ("unit", "marginal", "clustered", "heavy-tail", "len")


@dataclass(frozen=True)
class Scenario:
    """One named evaluation cell: a dataset shape plus its workload battery.

    Everything needed to rebuild the histogram and workloads is stored
    in plain values, so a scenario is reconstructible from the registry
    with no run-time state — the property the offline ingest path and
    the journal fingerprint check both rely on.
    """

    family: str
    label: str
    generator: str
    n_bins: int
    total: int
    gen_params: Tuple[Tuple[str, object], ...] = ()
    workload_specs: Tuple[Tuple, ...] = (("unit",),)
    description: str = ""

    def __post_init__(self) -> None:
        for part, value in (("family", self.family), ("label", self.label)):
            if not _NAME_PART.match(value):
                raise ValueError(
                    f"scenario {part} {value!r} must match {_NAME_PART.pattern}"
                )
        if self.n_bins < 1:
            raise ValueError(f"n_bins must be >= 1, got {self.n_bins}")
        if self.total < 0:
            raise ValueError(f"total must be >= 0, got {self.total}")
        for spec in self.workload_specs:
            if not spec or spec[0] not in _WORKLOAD_OPS:
                raise ValueError(f"unknown workload spec {spec!r}")

    @property
    def name(self) -> str:
        """Registry key: ``<family>/<label>``."""
        return f"{self.family}/{self.label}"

    def build_histogram(self) -> Histogram:
        """Rebuild the scenario's dataset — deterministic for a scenario."""
        from repro.datasets import generators

        factory = getattr(generators, f"{self.generator}_histogram", None)
        if factory is None:
            raise ValueError(f"unknown generator {self.generator!r}")
        return factory(self.n_bins, total=self.total, **dict(self.gen_params))

    def build_workloads(self) -> Tuple[Workload, ...]:
        """Rebuild the workload battery — deterministic for a scenario."""
        from repro.workloads import builders

        out: List[Workload] = []
        n = self.n_bins
        for spec in self.workload_specs:
            op = spec[0]
            if op == "unit":
                out.append(builders.unit_queries(n))
            elif op == "marginal":
                out.append(builders.marginal_ranges(n, block=spec[1]))
            elif op == "clustered":
                _, count, k, spread, seed = spec
                out.append(
                    builders.clustered_ranges(
                        n, count=count, n_clusters=k, spread=spread, rng=seed
                    )
                )
            elif op == "heavy-tail":
                _, count, alpha, seed = spec
                out.append(
                    builders.heavy_tailed_ranges(
                        n, count=count, alpha=alpha, rng=seed
                    )
                )
            elif op == "len":
                out.append(builders.fixed_length_ranges(n, spec[1]))
        return tuple(out)

    def fingerprint(self) -> str:
        """SHA-256 identity covering dataset bytes and workload battery.

        Two scenarios with the same name but different generator
        parameters (or a generator whose output changed) get different
        fingerprints, so stale history rows never silently mix.
        """
        h = hashlib.sha256()
        h.update(self.name.encode())
        h.update(repr((self.generator, self.n_bins, self.total)).encode())
        h.update(repr(self.gen_params).encode())
        h.update(repr(self.workload_specs).encode())
        h.update(self.build_histogram().counts.tobytes())
        return h.hexdigest()


def _crossover_lengths(n_bins: int) -> List[int]:
    """Query lengths for the crossover figure: powers of 4 plus n/2."""
    lengths = [l for l in (4, 16, 64, 256, 1024) if l <= n_bins // 2]
    half = n_bins // 2
    if half >= 2 and half not in lengths:
        lengths.append(half)
    return sorted(lengths)


def _default_workloads(n_bins: int) -> Tuple[Tuple, ...]:
    block = max(1, int(round(n_bins ** 0.5)))
    specs: List[Tuple] = [
        ("unit",),
        ("marginal", block),
        ("clustered", 64, 3, 0.05, 0),
        ("heavy-tail", 64, 1.2, 0),
    ]
    specs.extend(("len", l) for l in _crossover_lengths(n_bins))
    return tuple(specs)


def _build_registry() -> Dict[str, Scenario]:
    """The default DPBench-style matrix: 6 shape families × 2 domain sizes."""
    shapes = (
        ("smooth", "gaussian_mixture", "gmm", (),
         "bimodal Gaussian mixture — merge-friendly"),
        ("spiky", "power_law", "power-law", (("alpha", 1.5), ("rng", 0)),
         "i.i.d. heavy-tail magnitudes — merge-hostile"),
        ("heavy-tail", "zipf", "zipf", (("exponent", 1.2), ("rng", 0)),
         "rank-sorted Zipf head — the paper's search-log shape"),
        ("shifted", "shifted", "shifted", (("shift", 0.6), ("rng", 0)),
         "single mode away from the origin — placement-sensitive"),
        ("cliff", "cliff", "cliff",
         (("cliff_at", 0.35), ("ratio", 50.0), ("rng", 0)),
         "two plateaus, one sharp boundary — bias concentrates at the edge"),
        ("step", "step", "step", (("rng", 0),),
         "piecewise-constant — v-optimal's ideal case"),
    )
    registry: Dict[str, Scenario] = {}
    for family, generator, label_base, params, desc in shapes:
        for n_bins in (64, 256):
            gen_params = tuple(params)
            if generator == "step":
                gen_params = (("n_steps", max(4, n_bins // 16)),) + gen_params
            s = Scenario(
                family=family,
                label=f"{label_base}-{n_bins}",
                generator=generator,
                n_bins=n_bins,
                total=50_000,
                gen_params=gen_params,
                workload_specs=_default_workloads(n_bins),
                description=desc,
            )
            registry[s.name] = s
    return registry


#: The scenario registry, keyed by ``<family>/<label>``.
SCENARIOS: Dict[str, Scenario] = _build_registry()

#: Family names in registration order.
FAMILIES: Tuple[str, ...] = tuple(
    dict.fromkeys(s.family for s in SCENARIOS.values())
)


def list_families() -> List[str]:
    return list(FAMILIES)


def list_scenarios(family: Optional[str] = None) -> List[Scenario]:
    if family is None:
        return list(SCENARIOS.values())
    if family not in FAMILIES:
        raise ValueError(
            f"unknown family {family!r}; available: {', '.join(FAMILIES)}"
        )
    return [s for s in SCENARIOS.values() if s.family == family]


def get_scenario(name: str) -> Scenario:
    """Look up a scenario by ``<family>/<label>``."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; see list_scenarios()"
        ) from None


def build_scenario_specs(
    scenarios: Optional[Sequence[str]] = None,
    publishers: Optional[Sequence[str]] = None,
    epsilons: Sequence[float] = (0.1, 1.0),
    n_seeds: int = 3,
    n_jobs: int = 1,
) -> List[ExperimentSpec]:
    """Expand scenario names × publishers × epsilons into experiment specs.

    Like :func:`repro.robust.sweep.build_sweep_specs`, the same arguments
    always yield specs with the same journal fingerprints (scenarios are
    deterministic), so journaled scenario runs resume and dedup cleanly.
    """
    pub_names = _roster_request(publishers, n_seeds)
    chosen = (
        [get_scenario(name) for name in scenarios]
        if scenarios
        else list(SCENARIOS.values())
    )
    specs: List[ExperimentSpec] = []
    for scenario in chosen:
        hist = scenario.build_histogram()
        workloads = scenario.build_workloads()
        for pub_name in pub_names:
            for eps in epsilons:
                specs.append(
                    ExperimentSpec(
                        name=(
                            f"scenario/{scenario.family}/{scenario.label}/"
                            f"{pub_name}/eps={eps:g}"
                        ),
                        histogram=hist,
                        publisher_factory=ROSTER[pub_name],
                        epsilon=float(eps),
                        workloads=workloads,
                        seeds=tuple(range(n_seeds)),
                        n_jobs=n_jobs,
                    )
                )
    return specs


def parse_scenario_spec_name(
    spec_name: str,
) -> "Optional[Tuple[Scenario, str, float]]":
    """Parse ``scenario/<family>/<label>/<publisher>/eps=<eps>``.

    Returns ``(scenario, publisher, epsilon)`` when the name follows the
    convention *and* the scenario exists in the registry, else ``None``
    (unknown scenarios are ignored rather than fatal so history ingest
    keeps working across registry renames).
    """
    m = _SCENARIO_SPEC_RE.match(spec_name)
    if not m:
        return None
    key = f"{m.group('family')}/{m.group('label')}"
    scenario = SCENARIOS.get(key)
    if scenario is None:
        return None
    try:
        eps = float(m.group("eps"))
    except ValueError:
        return None
    return scenario, m.group("publisher"), eps
