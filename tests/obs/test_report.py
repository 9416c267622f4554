"""End-to-end run reports rendered from real checkpoint journals."""

import pytest

from repro.obs.report import render_report, write_report
from repro.robust.journal import CheckpointJournal

FP = "f" * 64  # a fingerprint; the report groups by it, never verifies it


@pytest.fixture
def journal(tmp_path, make_record, make_failed, trace_tree):
    """A journal with 2 traced successes and 1 quarantined failure."""
    j = CheckpointJournal(tmp_path / "sweep.jsonl")
    j.append(
        make_record(seed=0, meta={
            "trace": trace_tree, "t_eval_seconds": 0.15, "spec_epsilon": 0.5,
        }),
        FP,
    )
    j.append(make_record(seed=1, meta={"trace": trace_tree}), FP)
    j.append(make_failed(seed=2), FP)
    return j


class TestRenderReport:
    def test_all_sections_present(self, journal):
        report = render_report(journal)
        assert report.startswith("# Run report — `sweep.jsonl`")
        for heading in ("## Overview", "## Per-publisher stage breakdown",
                        "## Failure taxonomy", "## ε-ledger"):
            assert heading in report

    def test_overview_counts(self, journal):
        report = render_report(journal)
        assert "- trials: 2 ok, 1 failed" in report
        assert "- publishers: boost, noisefirst" in report

    def test_stage_breakdown_from_traces(self, journal):
        report = render_report(journal)
        # Nested stage rows with calls summed across the 2 traced trials.
        assert "| noisefirst | trial | 2 |" in report
        assert "&nbsp;&nbsp;&nbsp;&nbsp;partition.dp | 2 | 1.2 |" in report

    def test_failure_taxonomy_groups_by_error(self, journal):
        report = render_report(journal)
        assert "| TrialTimeoutError | 1 | boost | 3 |" in report
        assert "timed out after 5.0s" in report
        assert "docs/robustness.md" in report

    def test_epsilon_ledger_composes_sequentially(self, journal):
        report = render_report(journal)
        # 2 successful trials at eps=0.5 compose to eps=1.
        assert "| spec | noisefirst | 0.5 | 2 | 1 |" in report
        assert "**ε = 1**" in report

    def test_accepts_a_path(self, journal):
        assert render_report(str(journal.path)) == render_report(journal)

    def test_deterministic(self, journal):
        assert render_report(journal) == render_report(journal)

    def test_later_entries_win(self, journal, make_record):
        # Heal the quarantined (boost, seed=2) cell on a second pass.
        journal.append(make_record(publisher="boost", seed=2), FP)
        report = render_report(journal)
        assert "- trials: 3 ok, 0 failed" in report
        assert "No quarantined trials" in report

    def test_empty_journal(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert "_Empty journal" in render_report(path)

    def test_untraced_journal_falls_back_to_coarse_split(
            self, tmp_path, make_record):
        j = CheckpointJournal(tmp_path / "plain.jsonl")
        j.append(make_record(seed=0, meta={"t_eval_seconds": 0.1}), FP)
        report = render_report(j)
        assert "_No trace data in this journal" in report
        assert "mean publish s" in report


class TestWriteReport:
    def test_writes_markdown_atomically(self, journal, tmp_path):
        out = tmp_path / "report.md"
        returned = write_report(journal, out)
        assert returned == out
        assert out.read_text().startswith("# Run report")


class TestReportCli:
    def test_report_to_stdout(self, journal, capsys):
        from repro.cli import main

        assert main(["report", str(journal.path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Run report")
        assert "## ε-ledger" in out

    def test_report_to_file(self, journal, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.md"
        assert main(["report", str(journal.path), "--out", str(out)]) == 0
        assert out.read_text().startswith("# Run report")
        assert "wrote" in capsys.readouterr().out

    def test_missing_journal_is_an_error(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["report", str(tmp_path / "nope.jsonl")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_missing_path_is_an_error(self, capsys):
        from repro.cli import main

        assert main(["report"]) == 2
        assert "needs a journal path" in capsys.readouterr().err


    def test_missing_history_store_is_an_error(self, journal, tmp_path,
                                                capsys):
        from repro.cli import main

        db = tmp_path / "nope.sqlite"
        assert main(["report", str(journal.path),
                     "--history", str(db)]) == 2
        assert "does not exist" in capsys.readouterr().err
        assert not db.exists()


class TestHistoryDeltas:
    @pytest.fixture
    def store_path(self, tmp_path, journal, monkeypatch):
        """A history store holding one prior commit of the same cells."""
        from repro.obs.history import HistoryStore

        monkeypatch.setenv("REPRO_COMMIT", "prior")
        with HistoryStore(tmp_path / "h.sqlite") as store:
            store.ingest_journal(journal.path)
        return tmp_path / "h.sqlite"

    def test_no_section_without_history(self, journal):
        assert "## History deltas" not in render_report(journal)

    def test_self_comparison_yields_no_priors(self, journal, store_path):
        """The journal's own rows are excluded: deltas read em-dash."""
        report = render_report(journal, history=store_path)
        assert "## History deltas" in report
        assert "| spec | 0.5 | 2 | — |" in report
        assert "excluded by content hash" in report

    def test_delta_against_a_prior_run(self, tmp_path, journal,
                                       make_record, monkeypatch):
        """A genuinely prior observation produces a percentage delta."""
        from repro.metrics.evaluate import WorkloadErrors
        from repro.obs.history import HistoryStore, trial_row_from_record

        store = HistoryStore(tmp_path / "h2.sqlite")
        # Prior run of the same cell with double the MSE (mse=4 vs 2).
        prior = make_record(seed=9)
        errors = prior.workload_errors["unit"]
        prior.workload_errors["unit"] = WorkloadErrors(
            workload="unit", n_queries=errors.n_queries, mae=errors.mae,
            mse=4.0, scaled=errors.scaled, max_abs=errors.max_abs,
        )
        store.add_trials([
            trial_row_from_record(prior, "b" * 64, "prior-commit")
        ])
        store.close()
        report = render_report(journal, history=tmp_path / "h2.sqlite")
        # This journal's mean MSE is 2, prior mean is 4: -50%.
        assert "| spec | 0.5 | 2 | -50.0% |" in report
        assert "| 1 |" in report  # one prior trial

    def test_cli_passes_history_through(self, journal, store_path, capsys):
        from repro.cli import main

        assert main([
            "report", str(journal.path), "--history", str(store_path),
        ]) == 0
        assert "## History deltas" in capsys.readouterr().out
