"""Each workload's correctness gates, on shrunken inputs.

The workloads are run for real (same code path as ``run.py``) with
module constants patched down to toy sizes; a doctored digest or
transcript must trip the gate and count as a failed operation.
"""

import pytest

import workload_publish
import workload_serve
import workload_sweep
from pbcore import END_TO_END, PER_LAYER, PUBLISHERS


@pytest.fixture
def small_publish(monkeypatch):
    monkeypatch.setattr(workload_publish, "N_BINS", 512)
    monkeypatch.setattr(workload_publish, "TOTAL", 20_000)
    monkeypatch.setattr(workload_publish, "SETUPS", 1)


def test_publish_digests_pass_then_a_doctored_one_fails(small_publish,
                                                         tmp_path):
    outcome, tally, digests = workload_publish.run(3, False, None, tmp_path)
    assert tally.correct and set(digests) == set(PUBLISHERS)
    assert set(outcome.end_to_end) == set(END_TO_END)
    _, tally, _ = workload_publish.run(3, False, digests, tmp_path)
    assert tally.correct
    doctored = dict(digests, noisefirst="0" * 64)
    _, tally, _ = workload_publish.run(3, False, doctored, tmp_path)
    assert not tally.correct and tally.failed == 1
    assert any("noisefirst" in what for what in tally.tripped)


def test_publish_traced_run_agrees_with_untraced(small_publish, tmp_path):
    outcome, tally, _ = workload_publish.run(4, True, None, tmp_path)
    assert tally.correct
    assert set(outcome.per_layer) < set(PER_LAYER)
    assert outcome.per_layer["perf.kernels.dp_s.noisefirst"] > 0.0
    assert outcome.per_layer["partition.gibbs.forward_filter_s.dawa-lite"] > 0


def test_publish_exception_counts_as_failed_op(small_publish, tmp_path,
                                               monkeypatch):
    class Broken:
        def publish(self, *args, **kwargs):
            raise RuntimeError("boom")

    real = workload_publish._factories()
    monkeypatch.setattr(workload_publish, "_factories",
                        lambda: real[:3] + [("ahp", Broken)])
    _, tally, _ = workload_publish.run(3, False, None, tmp_path)
    rounds = workload_publish.ROUNDS
    assert tally.attempted == 4 * rounds and tally.failed == rounds
    assert "boom" in tally.tripped[0]


def test_sweep_digest_gate(monkeypatch, tmp_path):
    from repro.scenarios import registry

    real = registry.build_scenario_specs
    monkeypatch.setattr(
        registry, "build_scenario_specs",
        lambda **kw: real(scenarios=["step/step-64"],
                          publishers=["dwork", "noisefirst"], **kw))
    monkeypatch.setattr(workload_sweep, "N_SEEDS", 2)
    monkeypatch.setattr(workload_sweep, "SETUPS", 1)
    _, tally, digest = workload_sweep.run(5, False, None, tmp_path)
    assert tally.correct and tally.attempted == 8
    _, tally, again = workload_sweep.run(5, True, digest, tmp_path)
    assert tally.correct and again == digest
    _, tally, _ = workload_sweep.run(5, False, "f" * 64, tmp_path)
    assert not tally.correct
    assert any("recorded digest" in what for what in tally.tripped)


@pytest.fixture
def small_serve(monkeypatch):
    monkeypatch.setattr(workload_serve, "SPEC", {
        "dataset": "age", "publisher": "noisefirst", "epsilon": 0.5,
        "k": 8, "n_bins": 64})
    monkeypatch.setattr(workload_serve, "PROFILES", {
        "serve_deep_ledger": (2, 60), "serve_fresh": (6, 60)})
    monkeypatch.setattr(workload_serve, "DEEP_MIN_DEBITS", 10)
    monkeypatch.setattr(workload_serve, "SETUPS", 1)


@pytest.mark.parametrize("workload", ["serve_deep_ledger", "serve_fresh"])
def test_serve_transcript_gate(small_serve, tmp_path, workload):
    outcome, tally, sha = workload_serve.run(workload, 2, False, None,
                                             tmp_path)
    assert tally.correct, tally.tripped
    assert set(outcome.end_to_end) == set(END_TO_END)
    _, tally, again = workload_serve.run(workload, 2, True, sha, tmp_path)
    assert tally.correct and again == sha
    doctored = sha[:-1] + ("0" if sha[-1] != "0" else "1")
    _, tally, _ = workload_serve.run(workload, 2, False, doctored, tmp_path)
    assert not tally.correct and tally.failed == 1
    assert any("transcript" in what for what in tally.tripped)


def test_serve_traced_run_reports_every_layer(small_serve, tmp_path):
    outcome, tally, _ = workload_serve.run("serve_deep_ledger", 2, True, None,
                                           tmp_path)
    assert tally.correct
    layers = outcome.per_layer
    assert set(layers) < set(PER_LAYER)
    assert layers["serve.stage_ms.ledger_charge"] > 0.0
    assert layers["serve.stage_ms.journal_fsync"] > 0.0
    assert layers["serve.recover_s"] > 0.0
    assert 0.0 < layers["serve.cache_hit_ratio"] <= 1.0
