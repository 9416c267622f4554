"""Parsing the server's ``/metrics`` text for stage and request means."""

import pytest

import pbprom
from repro.obs.metrics import MetricsRegistry


def _registry_text():
    reg = MetricsRegistry()
    stages = reg.histogram("repro_serve_stage_seconds", "stage latency",
                           labelnames=("endpoint", "stage"))
    for value in (0.001, 0.003):
        stages.labels(endpoint="query",
                      stage="serve.ledger_charge").observe(value)
    stages.labels(endpoint="query", stage="serve.answer").observe(0.0002)
    stages.labels(endpoint="publish", stage="serve.ledger_charge").observe(9.0)
    requests = reg.histogram("repro_serve_request_seconds", "requests",
                             labelnames=("endpoint",))
    requests.labels(endpoint="query").observe(0.004)
    requests.labels(endpoint="query").observe(0.006)
    reg.gauge("repro_serve_cache_hit_ratio", "ratio").set(0.75)
    return reg.render_prometheus()


def test_stage_means_from_the_real_exposition():
    text = _registry_text()
    stages = pbprom.histogram_totals(text, "repro_serve_stage_seconds",
                                     "stage", endpoint="query")
    assert stages["serve.ledger_charge"][0] == 2
    assert pbprom.mean_ms(stages, "serve.ledger_charge") == pytest.approx(2.0)
    assert pbprom.mean_ms(stages, "serve.answer") == pytest.approx(0.2)
    assert pbprom.mean_ms(stages, "serve.admission_wait") == 0.0
    requests = pbprom.histogram_totals(text, "repro_serve_request_seconds",
                                       "endpoint", endpoint="query")
    assert pbprom.mean_ms(requests, "query") == pytest.approx(5.0)
    assert pbprom.gauge(text, "repro_serve_cache_hit_ratio") == 0.75


def test_bucket_lines_are_not_mistaken_for_totals():
    text = "\n".join([
        '# TYPE h histogram',
        'h_bucket{endpoint="q",le="0.1"} 4',
        'h_bucket{endpoint="q",le="+Inf"} 5',
        'h_sum{endpoint="q"} 0.5',
        'h_count{endpoint="q"} 5',
    ])
    assert pbprom.histogram_totals(text, "h", "endpoint") == {"q": (5, 0.5)}


def test_label_values_with_escapes_and_commas():
    text = 'm_count{a="x,\\"y\\"",b="2"} 3\nm_sum{a="x,\\"y\\"",b="2"} 1.5\n'
    got = pbprom.histogram_totals(text, "m", "b")
    assert got == {"2": (3, 1.5)}


def test_garbage_and_missing_gauge_raise():
    with pytest.raises(ValueError):
        list(pbprom.samples("not a metric line at all {"))
    with pytest.raises(KeyError):
        pbprom.gauge("x 1\n", "y")
