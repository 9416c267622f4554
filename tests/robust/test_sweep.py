"""Sweep building blocks behind ``python -m repro run``."""

import pytest

from repro.experiments.spec import ROSTER
from repro.robust.journal import spec_fingerprint
from repro.robust.records import FailedRecord
from repro.robust.sweep import (
    build_sweep_specs,
    run_sweep,
    sweep_table,
)

QUICK = dict(
    dataset="age", n_bins=16, total=5_000, publishers=["dwork"],
    epsilons=(0.5,), n_seeds=2,
)


class TestBuildSweepSpecs:
    def test_expands_roster_times_epsilons(self):
        specs = build_sweep_specs(
            dataset="age", n_bins=16, total=5_000,
            publishers=["dwork", "boost"], epsilons=(0.1, 0.5), n_seeds=2,
        )
        assert [s.name for s in specs] == [
            "sweep/age/dwork/eps=0.1",
            "sweep/age/dwork/eps=0.5",
            "sweep/age/boost/eps=0.1",
            "sweep/age/boost/eps=0.5",
        ]
        assert all(s.seeds == (0, 1) for s in specs)

    def test_default_roster_is_the_figures_roster(self):
        specs = build_sweep_specs(
            dataset="age", n_bins=16, total=5_000, epsilons=(0.1,),
        )
        assert len(specs) == len(ROSTER)

    def test_same_args_same_fingerprints(self):
        """The --resume contract: rebuilt specs hit the same journal keys."""
        first = build_sweep_specs(**QUICK)
        second = build_sweep_specs(**QUICK)
        assert [spec_fingerprint(s) for s in first] == [
            spec_fingerprint(s) for s in second
        ]

    def test_n_jobs_does_not_change_fingerprints(self):
        a = build_sweep_specs(**QUICK, n_jobs=1)
        b = build_sweep_specs(**QUICK, n_jobs=4)
        assert spec_fingerprint(a[0]) == spec_fingerprint(b[0])

    def test_unknown_publisher_rejected(self):
        with pytest.raises(ValueError, match="unknown publisher"):
            build_sweep_specs(publishers=["nope"])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep dataset"):
            build_sweep_specs(dataset="census2090")

    def test_nonpositive_seeds_rejected(self):
        with pytest.raises(ValueError, match="n_seeds"):
            build_sweep_specs(n_seeds=0)


class TestRunSweepAndTable:
    def test_clean_sweep_renders_without_failures(self, no_sleep, tmp_path):
        specs = build_sweep_specs(**QUICK)
        results = run_sweep(
            specs, n_jobs=1, journal=str(tmp_path / "j.jsonl"),
            sleep=no_sleep,
        )
        table, failures = sweep_table(results)
        assert failures == []
        (row,) = table.rows
        assert row[0] == "sweep/age/dwork/eps=0.5"
        assert row[1] == 2 and row[2] == 0
        assert row[3] != "n/a"

    def test_failed_cells_are_reported_not_fatal(
        self, fault_env, no_sleep
    ):
        specs = build_sweep_specs(**QUICK)
        fault_env([{"action": "raise", "seed": 1}])
        results = run_sweep(specs, n_jobs=1, retries=0, sleep=no_sleep)
        table, failures = sweep_table(results)
        assert len(failures) == 1
        assert isinstance(failures[0], FailedRecord)
        (row,) = table.rows
        assert row[1] == 1 and row[2] == 1  # one ok, one quarantined
        assert row[3] != "n/a"  # metrics from the surviving seed

    def test_all_failed_cell_renders_na(self, fault_env, no_sleep):
        specs = build_sweep_specs(**QUICK)
        fault_env([{"action": "raise"}])  # every seed poisoned
        results = run_sweep(specs, n_jobs=1, retries=0, sleep=no_sleep)
        table, failures = sweep_table(results)
        assert len(failures) == 2
        (row,) = table.rows
        assert row[1] == 0 and row[3] == "n/a" and row[4] == "n/a"
