"""The ``repro scenarios`` / ``repro paper`` CLI commands.

End-to-end through :func:`repro.cli.main`: a quick scenario sweep
journals its trials, auto-ingests trial + per-workload utility rows
into the history store, ``history ingest --rebuild`` derives the same
utility rows from the journal idempotently, and ``repro paper``
renders the deterministic publication bundle from the result.
"""

import pytest

from repro.cli import main
from repro.obs.history import HistoryStore

SCENARIO_ARGS = ["scenarios", "--scenarios", "smooth/gmm-64",
                 "--publishers", "dwork", "--epsilons", "1",
                 "--seeds", "2"]


class TestScenariosCLI:
    def test_list(self, capsys):
        assert main(["scenarios", "--list"]) == 0
        out = capsys.readouterr().out
        assert "smooth/gmm-64" in out
        assert "cliff/cliff-256" in out
        assert "workloads=" in out

    def test_bad_scenario_name_is_an_error(self, capsys):
        assert main(["scenarios", "--scenarios", "nope/missing"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_bad_family_is_an_error(self, capsys):
        assert main(["scenarios", "--families", "nope"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_resume_requires_journal(self, capsys):
        assert main(["scenarios", "--resume"]) == 2
        assert "--resume requires --journal" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--retries", "-1"), ("--timeout", "0"),
    ])
    def test_bad_option_values_exit_two(self, flag, value, capsys):
        assert main(SCENARIO_ARGS + [flag, value]) == 2
        assert flag in capsys.readouterr().err

    def test_quick_keeps_explicit_epsilons_and_seeds(self, capsys):
        assert main(["scenarios", "--quick", "--scenarios",
                     "smooth/gmm-64", "--publishers", "dwork",
                     "--epsilons", "0.1,1.0", "--seeds", "3"]) == 0
        out = capsys.readouterr().out
        assert "scenario/smooth/gmm-64/dwork/eps=0.1" in out
        assert "scenario/smooth/gmm-64/dwork/eps=1" in out
        assert "summary: 6 ok" in out

    def test_run_ingests_trials_and_utility(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.setenv("REPRO_COMMIT", "c1")
        db = tmp_path / "h.sqlite"
        assert main(SCENARIO_ARGS + ["--history", str(db)]) == 0
        out = capsys.readouterr().out
        assert "scenario sweep" in out
        assert "scenario/smooth/gmm-64/dwork/eps=1" in out
        with HistoryStore(db) as store:
            assert store.utility_families() == ["smooth"]
            cells = store.utility_cells("smooth")
            # the full 7-workload battery, one cell each
            assert len(cells) == 7
            series = store.utility_series(
                "smooth", "gmm-64", "dwork", 1.0, "unit"
            )
            assert series[0]["n_ok"] == 2
            assert series[0]["oracle_kind"] == "exact"

    def test_journal_then_rebuild_matches_live_ingest(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_COMMIT", "c1")
        journal = tmp_path / "scen.jsonl"
        live_db = tmp_path / "live.sqlite"
        assert main(SCENARIO_ARGS + ["--journal", str(journal),
                                     "--history", str(live_db)]) == 0
        rebuilt_db = tmp_path / "rebuilt.sqlite"
        assert main(["history", "ingest", str(journal),
                     "--db", str(rebuilt_db), "--rebuild"]) == 0
        out = capsys.readouterr().out
        assert "utility: 14 new row(s)" in out
        # Re-running the rebuild is a no-op.
        assert main(["history", "ingest", str(journal),
                     "--db", str(rebuilt_db), "--rebuild"]) == 0
        assert "0 new row(s), 14 duplicate(s)" in \
            capsys.readouterr().out
        with HistoryStore(live_db) as live, \
                HistoryStore(rebuilt_db) as rebuilt:
            assert live.utility_cells() == rebuilt.utility_cells()
            for cell in live.utility_cells():
                a = live.utility_series(*cell)[0]
                b = rebuilt.utility_series(*cell)[0]
                assert a["mean_mse"] == pytest.approx(b["mean_mse"])
                assert a["oracle_mse"] == pytest.approx(b["oracle_mse"])

    def test_ingest_without_rebuild_skips_utility(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("REPRO_COMMIT", "c1")
        journal = tmp_path / "scen.jsonl"
        assert main(SCENARIO_ARGS + ["--journal", str(journal)]) == 0
        db = tmp_path / "h.sqlite"
        assert main(["history", "ingest", str(journal),
                     "--db", str(db)]) == 0
        with HistoryStore(db) as store:
            assert store.utility_families() == []


class TestPaperCLI:
    @pytest.fixture()
    def populated_db(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_COMMIT", "c1")
        db = tmp_path / "h.sqlite"
        assert main(["scenarios", "--scenarios", "smooth/gmm-64",
                     "--publishers", "noisefirst,structurefirst",
                     "--epsilons", "1", "--seeds", "2",
                     "--history", str(db)]) == 0
        return db

    def test_missing_db_is_an_error(self, tmp_path, capsys):
        assert main(["paper", "--db", str(tmp_path / "nope.sqlite"),
                     "--out", str(tmp_path / "out")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_renders_bundle(self, populated_db, tmp_path, capsys):
        out_dir = tmp_path / "paper"
        assert main(["paper", "--db", str(populated_db),
                     "--out", str(out_dir)]) == 0
        stdout = capsys.readouterr().out
        assert "wrote" in stdout
        assert (out_dir / "paper.md").exists()
        assert (out_dir / "tables" / "crossover.md").exists()
        assert (out_dir / "tables" / "crossover.tex").exists()
        assert (out_dir / "figures" / "crossover-smooth.svg").exists()

    def test_cli_output_is_byte_deterministic(self, populated_db,
                                              tmp_path):
        for sub in ("a", "b"):
            assert main(["paper", "--db", str(populated_db),
                         "--out", str(tmp_path / sub)]) == 0
        a_files = sorted(p.relative_to(tmp_path / "a")
                         for p in (tmp_path / "a").rglob("*")
                         if p.is_file())
        b_files = sorted(p.relative_to(tmp_path / "b")
                         for p in (tmp_path / "b").rglob("*")
                         if p.is_file())
        assert a_files == b_files and a_files
        for rel in a_files:
            assert (tmp_path / "a" / rel).read_bytes() == \
                (tmp_path / "b" / rel).read_bytes()
