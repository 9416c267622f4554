"""Span self-time aggregation over ``repro.obs.trace`` trees."""

import pytest

from pbtrace import FAMILIES, layer_self_seconds
from repro.obs import trace


def _tree():
    return {
        "name": "publish", "seconds": 10.0, "children": [
            {"name": "partition.em", "seconds": 7.0, "children": [
                {"name": "gibbs.forward-filter", "seconds": 5.0},
                {"name": "gibbs.backward-sample", "seconds": 1.5},
            ]},
            {"name": "noise.bucket-sums", "seconds": 1.0},
            {"name": "postprocess.broadcast", "seconds": 0.5},
            {"name": "partition.dp", "seconds": 1.0, "children": [
                {"name": "kernel.dp", "seconds": 0.75},
            ]},
        ],
    }


def test_families_sum_self_times():
    got = layer_self_seconds(_tree())
    assert got["forward_filter"] == pytest.approx(5.0)
    assert got["backward_sample"] == pytest.approx(1.5)
    assert got["kernel_dp"] == pytest.approx(0.75)
    assert got["noise"] == pytest.approx(1.0)
    assert got["postprocess"] == pytest.approx(0.5)
    # root self time: 10 - (7 + 1 + 0.5 + 1)
    assert got["unattributed"] == pytest.approx(0.5)


def test_self_time_excludes_children_of_the_same_family():
    tree = {"name": "publish", "seconds": 3.0, "children": [
        {"name": "noise.outer", "seconds": 2.0, "children": [
            {"name": "noise.inner", "seconds": 1.5},
        ]},
    ]}
    got = layer_self_seconds(tree)
    assert got["noise"] == pytest.approx(2.0)  # 0.5 own + 1.5 inner
    assert got["unattributed"] == pytest.approx(1.0)


def test_idle_families_read_zero():
    got = layer_self_seconds({"name": "publish", "seconds": 0.25})
    assert set(got) == set(FAMILIES) | {"unattributed"}
    assert all(got[f] == 0.0 for f in FAMILIES)
    assert got["unattributed"] == pytest.approx(0.25)


def test_live_capture_of_a_real_publish():
    from repro import NoiseFirst
    from repro.datasets.generators import zipf_histogram

    hist = zipf_histogram(256, total=10_000, rng=1, shuffle=True)
    previous = trace.set_enabled(True)
    try:
        with trace.capture("publish") as root:
            NoiseFirst().publish(hist, budget=1.0, rng=1)
    finally:
        trace.set_enabled(previous)
    tree = root.to_dict()
    got = layer_self_seconds(tree)
    assert got["kernel_dp"] > 0.0 and got["noise"] > 0.0
    total = sum(got.values())
    # The families plus partition.dp's own time partition the root.
    assert total <= tree["seconds"] + 1e-9
