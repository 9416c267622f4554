"""The ``repro history`` CLI family and the ``--history`` wiring."""

import json

import pytest

from repro.cli import main
from repro.obs.history import HistoryStore, TrialRow
from repro.robust.journal import CheckpointJournal

FP = "a" * 64


@pytest.fixture
def journal(tmp_path, make_record):
    """dwork at eps=1: the fixture's unit MSE of 2.0 sits exactly on
    the 2/eps^2 oracle, so the store reads as drift-clean."""
    j = CheckpointJournal(tmp_path / "sweep.jsonl")
    for seed in range(2):
        j.append(
            make_record(seed=seed, publisher="dwork", epsilon=1.0,
                        spec_name="sweep/age/dwork/eps=1"),
            FP,
        )
    return j


class TestIngest:
    def test_ingest_and_idempotency(self, journal, tmp_path, capsys,
                                    monkeypatch):
        monkeypatch.setenv("REPRO_COMMIT", "c1")
        db = tmp_path / "h.sqlite"
        assert main(["history", "ingest", str(journal.path),
                     "--db", str(db)]) == 0
        assert "2 new row(s)" in capsys.readouterr().out
        assert main(["history", "ingest", str(journal.path),
                     "--db", str(db)]) == 0
        assert "0 new row(s), 2 duplicate(s)" in capsys.readouterr().out

    def test_missing_source_is_an_error(self, tmp_path, capsys):
        assert main(["history", "ingest", str(tmp_path / "nope.jsonl"),
                     "--db", str(tmp_path / "h.sqlite")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_directory_source_is_an_error(self, tmp_path, capsys):
        assert main(["history", "ingest", str(tmp_path),
                     "--db", str(tmp_path / "h.sqlite")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unclassifiable_source_is_an_error(self, tmp_path, capsys):
        junk = tmp_path / "junk.txt"
        junk.write_text("not an artifact\n")
        assert main(["history", "ingest", str(junk),
                     "--db", str(tmp_path / "h.sqlite")]) == 2
        assert "cannot classify" in capsys.readouterr().err

    def test_commit_flag_overrides(self, journal, tmp_path):
        db = tmp_path / "h.sqlite"
        assert main(["history", "ingest", str(journal.path),
                     "--db", str(db), "--commit", "pinned"]) == 0
        with HistoryStore(db) as store:
            series = store.trial_series(
                "sweep/age/dwork/eps=1", "dwork", 1.0
            )
            assert series[0]["commit_sha"] == "pinned"


class TestDrift:
    def _misscaled_db(self, tmp_path):
        """A store whose single cell sits 4x above its exact oracle."""
        db = tmp_path / "bad.sqlite"
        with HistoryStore(db) as store:
            store.add_trials([
                TrialRow(
                    commit="c1", fingerprint=FP,
                    spec_name="sweep/age/dwork/eps=0.5",
                    publisher="dwork", epsilon=0.5, seed=seed, ok=True,
                    n=64, unit_mse=32.0, oracle_mse=8.0,
                    oracle_kind="exact", content_sha=f"c1/{seed}",
                )
                for seed in range(3)
            ])
        return db

    def test_confirmed_drift_exits_nonzero(self, tmp_path, capsys):
        db = self._misscaled_db(tmp_path)
        assert main(["history", "drift", "--db", str(db)]) == 1
        out = capsys.readouterr().out
        assert "1 drift" in out
        assert "exceeds oracle" in out

    def test_json_document_written(self, tmp_path, capsys):
        db = self._misscaled_db(tmp_path)
        verdicts = tmp_path / "v.json"
        assert main(["history", "drift", "--db", str(db),
                     "--json", str(verdicts)]) == 1
        doc = json.loads(verdicts.read_text())
        assert doc["schema"] == 1
        assert doc["summary"]["confirmed_drift"] is True

    def test_clean_store_exits_zero(self, journal, tmp_path,
                                    monkeypatch):
        monkeypatch.setenv("REPRO_COMMIT", "c1")
        db = tmp_path / "h.sqlite"
        main(["history", "ingest", str(journal.path), "--db", str(db)])
        assert main(["history", "drift", "--db", str(db)]) == 0

    def test_missing_db_is_an_error(self, tmp_path, capsys):
        assert main(["history", "drift",
                     "--db", str(tmp_path / "nope.sqlite")]) == 2
        assert "does not exist" in capsys.readouterr().err


class TestDash:
    def test_stdout_is_deterministic(self, journal, tmp_path, capsys,
                                     monkeypatch):
        monkeypatch.setenv("REPRO_COMMIT", "c1")
        db = tmp_path / "h.sqlite"
        main(["history", "ingest", str(journal.path), "--db", str(db)])
        capsys.readouterr()
        assert main(["history", "dash", "--db", str(db)]) == 0
        first = capsys.readouterr().out
        assert main(["history", "dash", "--db", str(db)]) == 0
        assert capsys.readouterr().out == first
        assert first.startswith("# Regression radar")

    def test_html_from_out_suffix(self, journal, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_COMMIT", "c1")
        db = tmp_path / "h.sqlite"
        main(["history", "ingest", str(journal.path), "--db", str(db)])
        out = tmp_path / "dash.html"
        assert main(["history", "dash", "--db", str(db),
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("<!DOCTYPE html>")


class TestRunHistoryWiring:
    def test_sweep_auto_ingest(self, tmp_path, capsys, monkeypatch):
        """run --history lands trials + metrics totals in the store."""
        monkeypatch.setenv("REPRO_COMMIT", "c1")
        db = tmp_path / "h.sqlite"
        code = main([
            "run", "--journal", str(tmp_path / "s.jsonl"),
            "--sweep-seeds", "2", "--epsilons", "1.0",
            "--publishers", "dwork", "--history", str(db),
        ])
        assert code == 0
        assert "history:" in capsys.readouterr().out
        with HistoryStore(db) as store:
            counts = store.counts()
            assert counts["trials"] == 2
            assert counts["metric_totals"] > 0
            series = store.trial_series(
                "sweep/age/dwork/eps=1", "dwork", 1.0
            )
            # In-memory oracle anchoring: dwork's exact 2/eps^2.
            assert series[0]["oracle_mse"] == pytest.approx(2.0)

    def test_rerunning_same_commit_is_idempotent(self, tmp_path,
                                                 monkeypatch, capsys):
        monkeypatch.setenv("REPRO_COMMIT", "c1")
        db = tmp_path / "h.sqlite"
        argv = [
            "run", "--journal", str(tmp_path / "s.jsonl"),
            "--sweep-seeds", "1", "--epsilons", "1.0",
            "--publishers", "dwork", "--history", str(db),
        ]
        assert main(argv) == 0
        assert main(argv + ["--resume"]) == 0
        with HistoryStore(db) as store:
            assert store.counts()["trials"] == 1

    def test_bad_straggler_factor_rejected(self, tmp_path, capsys):
        code = main([
            "run", "--journal", str(tmp_path / "s.jsonl"),
            "--sweep-seeds", "1", "--epsilons", "1.0",
            "--publishers", "dwork", "--progress", "jsonl",
            "--straggler-factor", "-2",
        ])
        assert code == 2
        assert "straggler_factor" in capsys.readouterr().err
