"""Tests for the experiment registry (smoke level; heavy runs live in
benchmarks/)."""

import inspect

import pytest

from repro.experiments.registry import (
    EXPERIMENTS,
    list_experiments,
    run_experiment,
)
from repro.experiments.tables import Table, render_table


class TestRegistry:
    def test_all_design_md_ids_present(self):
        expected = {
            "table1", "fig_point_vs_eps", "fig_range_vs_len", "fig_kl_vs_eps",
            "fig_k_sensitivity", "fig_budget_split", "fig_scalability",
            "table_crossover", "fig_smoothness", "fig_data_scale",
            "abl_nf_kstar",
            "abl_sf_sampling", "abl_consistency", "abl_postprocess",
            "ext_spatial", "ext_streaming", "ext_successors",
            "abl_error_model", "abl_shape_prior",
        }
        assert expected == set(list_experiments())

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError, match="available"):
            run_experiment("fig_nonexistent")

    def test_table1_runs_and_has_four_rows(self):
        tables = run_experiment("table1", quick=True)
        assert len(tables) == 1
        assert isinstance(tables[0], Table)
        assert len(tables[0].rows) == 4

    def test_every_experiment_returns_tables_quick(self):
        """Smoke: every experiment id produces at least one non-empty table.

        Uses quick mode; the full configurations run in benchmarks/.
        """
        for name in EXPERIMENTS:
            tables = run_experiment(name, quick=True)
            assert tables, name
            for table in tables:
                assert table.rows, f"{name} produced an empty table"
                assert table.render()


class TestOneTrialLoop:
    """Every experiment takes ``(quick, n_jobs)`` and parallel is serial."""

    def test_every_experiment_accepts_n_jobs(self):
        for name, fn in EXPERIMENTS.items():
            assert "n_jobs" in inspect.signature(fn).parameters, name

    @pytest.mark.parametrize("n_jobs", [0, -2])
    @pytest.mark.parametrize(
        "name", ["table1", "fig_budget_split", "abl_consistency"]
    )
    def test_invalid_n_jobs_raises_for_every_id(self, name, n_jobs):
        with pytest.raises(ValueError, match="n_jobs"):
            run_experiment(name, quick=True, n_jobs=n_jobs)

    @pytest.mark.parametrize("name", ["fig_budget_split", "abl_consistency"])
    def test_parallel_tables_match_serial(self, name):
        def rendered(n_jobs):
            tables = run_experiment(name, quick=True, n_jobs=n_jobs)
            return "\n\n".join(render_table(t) for t in tables)

        assert rendered(2) == rendered(1)
