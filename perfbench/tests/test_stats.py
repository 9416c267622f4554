"""Percentiles, sample counts, the failure tally and the result line."""

import json

import numpy as np
import pytest

import pbcore


@pytest.mark.parametrize("n", [1, 2, 7, 100, 1001])
@pytest.mark.parametrize("q", [0.0, 50.0, 90.0, 99.0, 100.0])
def test_percentile_matches_numpy_linear(n, q):
    values = list(np.random.default_rng(n).exponential(size=n))
    assert pbcore.percentile(values, q) == pytest.approx(
        float(np.percentile(values, q)), rel=1e-12)


def test_percentile_rejects_empty_and_bad_q():
    with pytest.raises(ValueError):
        pbcore.percentile([], 50.0)
    with pytest.raises(ValueError):
        pbcore.percentile([1.0], 101.0)


@pytest.mark.parametrize("n,q,expected", [
    (1000, 99.0, 10),   # rank 989.01 -> samples 990..999 lie beyond
    (1001, 99.0, 10),   # rank 990.0 exactly -> 991..1000
    (1100, 99.0, 11),
    (2, 50.0, 1),
    (3, 99.0, 1),
    (1, 50.0, 0),
    (0, 50.0, 0),
])
def test_beyond_counts_samples_above_the_rank(n, q, expected):
    assert pbcore.beyond(n, q) == expected


def test_beyond_agrees_with_a_direct_count():
    for n in (5, 64, 999, 1001, 2200):
        values = np.arange(n, dtype=float)
        p99 = pbcore.percentile(list(values), 99.0)
        assert pbcore.beyond(n, 99.0) == int((values > p99).sum())


def test_summary_reports_count_with_every_percentile():
    summary = pbcore.summarize([float(i) for i in range(1, 2001)])
    assert summary.n == 2000
    assert summary.p50 == pytest.approx(1000.5)
    assert summary.tail_q == 99.0 and summary.tail_beyond == 20
    text = summary.describe(1.0, " ms")
    assert "n=2000" in text and "20 beyond p99" in text


@pytest.mark.parametrize("n,q", [
    (3072, 99.0), (902, 99.0), (901, 90.0), (92, 90.0), (91, 50.0),
    (3, 50.0), (1, 50.0),
])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, q):
    assert pbcore.tail_percentile(n) == q
    if q > 50.0:
        assert pbcore.beyond(n, q) >= pbcore.MIN_BEYOND


def test_tail_of_a_few_samples_falls_back_to_the_median():
    summary = pbcore.summarize([3.0, 1.0, 2.0])
    assert summary.tail_q == 50.0 and summary.tail == summary.p50 == 2.0
    assert summary.describe() == "p50 2.0000 (n=3, 1 beyond p50)"


def test_tally_counts_failed_ops_and_gates():
    tally = pbcore.Tally()
    tally.check(True)
    tally.check(False, "bad answer")
    tally.check(True, "fine")
    assert (tally.attempted, tally.failed) == (3, 1)
    assert not tally.correct
    assert tally.tripped == ["bad answer"]
    tally = pbcore.Tally()
    assert not tally.correct  # nothing attempted is not a pass
    tally.check(True)
    assert tally.correct


def _outcome():
    return pbcore.Outcome(
        end_to_end={name: 1.5 for name in pbcore.END_TO_END},
        per_layer={name: 0.25 for name in pbcore.PER_LAYER},
    )


@pytest.mark.parametrize("trace", [False, True])
def test_result_line_has_exactly_the_contract_keys(trace, capsys):
    tally = pbcore.Tally()
    tally.check(True)
    pbcore.print_report("w", 1, trace, _outcome(), tally)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    line = json.loads(last)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    wanted = pbcore.PER_LAYER if trace else pbcore.END_TO_END
    assert set(line["metrics"]) == set(wanted)
    for name, metric in line["metrics"].items():
        assert metric == {"value": metric["value"], "unit": wanted[name]}


def test_result_line_refuses_a_missing_metric():
    outcome = _outcome()
    del outcome.end_to_end["ops_per_s"]
    with pytest.raises(KeyError, match="ops_per_s"):
        pbcore.result_line(outcome, pbcore.Tally(), trace=False)


def test_per_layer_fills_idle_layers_with_zero_and_rejects_unknown():
    tally = pbcore.Tally()
    tally.check(True)
    outcome = pbcore.Outcome(end_to_end={},
                             per_layer={"serve.request_ms": 2.5})
    line = pbcore.result_line(outcome, tally, trace=True)
    assert line["metrics"]["serve.request_ms"]["value"] == 2.5
    assert line["metrics"]["serve.recover_s"] == {"value": 0.0, "unit": "s"}
    outcome.per_layer["serve.typo_ms"] = 1.0
    with pytest.raises(KeyError, match="serve.typo_ms"):
        pbcore.result_line(outcome, tally, trace=True)


def test_failed_gate_is_reported_as_incorrect(capsys):
    tally = pbcore.Tally()
    tally.check(True)
    tally.check(False, "digest differs")
    line = pbcore.print_report("w", 1, False, _outcome(), tally)
    assert line["correct"] is False and line["failed"] == 1
    assert "GATE FAILED: digest differs" in capsys.readouterr().out


def test_metric_names_follow_the_contract_grammar():
    import re

    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    for table in (pbcore.END_TO_END, pbcore.PER_LAYER):
        for metric, metric_unit in table.items():
            assert name.match(metric), metric
            assert unit.match(metric_unit), metric_unit
