"""Native cost kernels: bit-identity with the Python paths, build, fallback.

:mod:`repro.perf.native` compiles ``_native.c`` on first use; the Python
paths it replaces (:func:`repro.perf.costrows._running_sae` and the
numpy block of :func:`repro.perf.approx._eval_batch`) are the oracles.
Every equality here is bitwise (``view(np.int64)``), so a ``-0.0`` or a
last-ulp difference fails.
"""

from __future__ import annotations

import hashlib
import logging
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition.sae import sae_matrix
from repro.perf import approx, native
from repro.perf.costrows import LazySAECost, PrefixSSECost, _running_sae

SRC = Path(__file__).resolve().parents[2] / "src"

requires_native = pytest.mark.skipif(
    not native.available(), reason="no C compiler: native helper not built"
)


@contextmanager
def python_paths():
    """Run the body with the native library unloaded (the fallback)."""
    with mock.patch.object(native, "_lib", None), \
            mock.patch.object(native, "_tried", True):
        yield


def bits(arr) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np.float64).view(np.int64)


# Ties, negative counts, signed zeros, fractions and wide magnitudes.
_value = st.one_of(
    st.integers(-4, 4).map(float),
    st.sampled_from([0.0, -0.0, 0.5, -2.25, 1e-300, 3e15]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)
_counts = st.lists(_value, min_size=1, max_size=48).map(
    lambda xs: np.array(xs, dtype=np.float64)
)


@requires_native
class TestRunningSAE:
    @given(_counts)
    @settings(max_examples=150, deadline=None)
    def test_columns_and_first_row_bitequal(self, counts):
        cost = LazySAECost(counts)
        for j in range(1, len(counts) + 1):
            oracle = _running_sae(counts[j - 1 :: -1])[::-1]
            assert np.array_equal(bits(cost.column(j)), bits(oracle))
        assert np.array_equal(bits(cost.first_row()),
                              bits(_running_sae(counts)))

    @given(_counts)
    @settings(max_examples=60, deadline=None)
    def test_sae_matrix_bitequal(self, counts):
        fast = sae_matrix(counts)
        with python_paths():
            slow = sae_matrix(counts)
        assert np.array_equal(bits(fast), bits(slow))

    @pytest.mark.parametrize("n", [1, 2, 1 << 12])
    def test_sizes(self, n):
        rng = np.random.default_rng(n)
        counts = rng.integers(-3, 40, size=n).astype(np.float64)
        counts[:: 7] = -0.0
        cost = LazySAECost(counts)
        for j in sorted({1, n // 2 + 1, n}):
            with python_paths():
                oracle = LazySAECost(counts).column(j)
            assert np.array_equal(bits(cost.column(j)), bits(oracle))
        assert np.array_equal(bits(cost.first_row()),
                              bits(_running_sae(counts)))

    def test_column_is_contiguous_copy(self):
        counts = np.arange(6, dtype=np.float64)
        col = LazySAECost(counts).column(6)
        assert col.flags.c_contiguous
        assert np.array_equal(counts, np.arange(6, dtype=np.float64))

    def test_two_threads_share_one_provider(self):
        rng = np.random.default_rng(5)
        counts = rng.poisson(30.0, size=700).astype(np.float64)
        cost = LazySAECost(counts)
        expected = [cost.column(j) for j in range(1, cost.n + 1)]

        def sweep(order):
            return {j: cost.column(j) for j in order}

        forward = range(1, cost.n + 1)
        backward = range(cost.n, 0, -1)
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(sweep, [forward, backward]))
        for got in results:
            for j, col in got.items():
                assert np.array_equal(bits(col), bits(expected[j - 1]))


def _numpy_block(cost, prev_idx, prev_val, pos):
    """The numpy sequence the fused minimum replaces, verbatim."""
    grid = cost.grid(prev_idx, pos)
    totals = grid + prev_val[None, :]
    invalid = prev_idx[None, :] >= pos[:, None]
    if invalid.any():
        totals = np.where(invalid, np.inf, totals)
    best = np.argmin(totals, axis=1)
    return totals[np.arange(len(pos)), best], best


@st.composite
def _layer_inputs(draw):
    counts = draw(st.lists(
        st.one_of(st.integers(-3, 3).map(float), _value),
        min_size=1, max_size=40,
    ))
    n = len(counts)
    prev_idx = sorted(draw(st.sets(st.integers(0, n), min_size=1,
                                   max_size=n + 1)))
    prev_val = draw(st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, 1.0, np.inf]),
                  st.floats(0, 1e6, allow_nan=False)),
        min_size=len(prev_idx), max_size=len(prev_idx),
    ))
    positions = draw(st.lists(st.integers(1, n), min_size=1, max_size=12))
    return (np.array(counts), np.array(prev_idx, dtype=np.int64),
            np.array(prev_val), np.array(positions, dtype=np.int64))


@requires_native
class TestFusedSSEMinimum:
    @given(_layer_inputs())
    @settings(max_examples=200, deadline=None)
    def test_bitequal_numpy_block(self, inputs):
        counts, prev_idx, prev_val, pos = inputs
        cost = PrefixSSECost(counts)
        vals, idx = cost.grid_argmin(prev_idx, prev_val, pos)
        with np.errstate(invalid="ignore"):
            want_vals, want_idx = _numpy_block(cost, prev_idx, prev_val, pos)
        assert np.array_equal(bits(vals), bits(want_vals))
        assert np.array_equal(idx, want_idx)

    @given(_layer_inputs())
    @settings(max_examples=100, deadline=None)
    def test_eval_batch_bitequal(self, inputs):
        counts, prev_idx, prev_val, pos = inputs
        cost = PrefixSSECost(counts)
        fast = approx._eval_batch(cost, prev_idx, prev_val, pos)
        with python_paths(), np.errstate(invalid="ignore"):
            assert cost.grid_argmin(prev_idx, prev_val, pos) is None
            slow = approx._eval_batch(cost, prev_idx, prev_val, pos)
        assert np.array_equal(bits(fast[0]), bits(slow[0]))
        assert np.array_equal(fast[1], slow[1])
        assert np.array_equal(fast[2], slow[2])

    def test_width_one(self):
        cost = PrefixSSECost([3.0, 1.0, 4.0, 1.0, 5.0])
        prev_idx = np.array([2], dtype=np.int64)
        pos = np.arange(1, 6, dtype=np.int64)
        vals, idx = cost.grid_argmin(prev_idx, np.array([7.0]), pos)
        want_vals, want_idx = _numpy_block(cost, prev_idx, np.array([7.0]),
                                           pos)
        assert np.array_equal(bits(vals), bits(want_vals))
        assert np.array_equal(idx, want_idx)
        assert np.isinf(vals[:2]).all() and (idx[:2] == 0).all()

    def test_all_invalid_rows_give_inf_at_zero(self):
        cost = PrefixSSECost(np.ones(8))
        prev_idx = np.array([5, 6, 7], dtype=np.int64)
        vals, idx = cost.grid_argmin(prev_idx, np.zeros(3),
                                     np.array([1, 4, 5], dtype=np.int64))
        assert np.isinf(vals).all()
        assert (idx == 0).all()

    def test_ties_go_left(self):
        # Constant counts: every segment costs 0, so every valid
        # candidate ties at its offset.
        cost = PrefixSSECost(np.full(10, 2.0))
        prev_idx = np.array([1, 3, 4, 6], dtype=np.int64)
        prev_val = np.array([1.0, 1.0, 0.5, 0.5])
        vals, idx = cost.grid_argmin(prev_idx, prev_val,
                                     np.array([2, 5, 10], dtype=np.int64))
        assert list(idx) == [0, 2, 2]
        assert list(vals) == [1.0, 0.5, 0.5]


def _digests(publishers, hist):
    out = {}
    for name, publisher in publishers:
        counts = publisher.publish(hist, budget=0.5, rng=3).histogram.counts
        out[name] = hashlib.sha256(
            np.ascontiguousarray(counts, dtype="<f8").tobytes()
        ).hexdigest()
    return out


@requires_native
def test_fallback_keeps_publisher_digests():
    from repro import NoiseFirst, StructureFirst
    from repro.baselines import Ahp, DawaLite
    from repro.datasets.generators import zipf_histogram

    hist = zipf_histogram(1 << 12, total=200_000, rng=2, shuffle=True)
    publishers = [
        ("structurefirst", StructureFirst(k=16)),
        ("dawa-lite", DawaLite(k=16)),
        ("noisefirst", NoiseFirst(kernel="approx")),
        ("ahp", Ahp(kernel="approx")),
    ]
    fast = _digests(publishers, hist)
    with python_paths():
        slow = _digests(publishers, hist)
    assert fast == slow


class TestBuildAndLoad:
    def test_import_repro_neither_builds_nor_loads(self):
        code = (
            "import repro, repro.perf.native as nv; "
            "print(nv._tried, nv._lib is None)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)}, check=True,
        ).stdout.split()
        assert out == ["False", "True"]

    @requires_native
    def test_two_processes_build_into_one_directory(self, tmp_path):
        code = (
            "import sys, ctypes; from repro.perf import native; "
            "path = native.build(sys.argv[1]); ctypes.CDLL(str(path)); "
            "print(path)"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        procs = [
            subprocess.Popen([sys.executable, "-c", code, str(tmp_path)],
                             stdout=subprocess.PIPE, text=True, env=env)
            for _ in range(2)
        ]
        paths = [p.communicate(timeout=120)[0].strip() for p in procs]
        assert all(p.returncode == 0 for p in procs)
        assert paths[0] == paths[1]
        assert [f.name for f in tmp_path.iterdir()] == [Path(paths[0]).name]
        assert native.build(tmp_path) == Path(paths[0])

    def test_failed_build_warns_once_and_falls_back(self, monkeypatch,
                                                    caplog):
        def broken(directory):
            raise OSError("no C compiler (cc) on PATH")

        monkeypatch.setattr(native, "build", broken)
        monkeypatch.setattr(native, "_tried", False)
        monkeypatch.setattr(native, "_lib", None)
        with caplog.at_level(logging.WARNING, logger=native.__name__):
            assert not native.available()
            assert not native.available()
            counts = np.array([1.0, 5.0, 2.0])
            assert native.running_sae(counts) is None
            col = LazySAECost(counts).column(3)
        warnings = [r for r in caplog.records if r.name == native.__name__]
        assert len(warnings) == 1
        assert np.array_equal(col, _running_sae(counts[::-1])[::-1])

    def test_unwritable_directory_raises(self, tmp_path):
        # A regular file where the cache directory should go: the build
        # cannot create it, whatever the process's permissions.
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        with pytest.raises(OSError):
            native.build(blocker / "cache")
