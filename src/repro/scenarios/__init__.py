"""Scenario-family registry: DPBench-grade evaluation cells.

See :mod:`repro.scenarios.registry` for the design; `docs/evaluation.md`
for the catalogue and how the utility radar consumes it.
"""

from repro.scenarios.registry import (
    FAMILIES,
    SCENARIOS,
    Scenario,
    build_scenario_specs,
    get_scenario,
    list_families,
    list_scenarios,
    parse_scenario_spec_name,
)

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
