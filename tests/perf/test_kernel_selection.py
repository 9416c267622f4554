"""Kernel selection: one explicit knob, auto collapse, pool determinism.

The ``kernel=`` argument is the only way to pick a DP engine: ``None``
means ``auto``, and no environment variable or process-wide default
steers the choice.  ``auto`` collapses to a concrete engine by domain
size.  The approx engine itself is RNG-free, so the same histogram must
produce bit-identical sparse tables in every process-pool worker.
"""

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.partition.voptimal import voptimal_table
from repro.perf.kernels import AUTO_APPROX_THRESHOLD, KERNELS, _pick_kernel


class TestPrecedence:
    def test_explicit_beats_everything(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARTITION_KERNEL", "exact_blocked")
        monkeypatch.setenv("REPRO_KERNEL", "reference")
        assert _pick_kernel("approx") == "approx"

    def test_default_when_nothing_set(self):
        assert _pick_kernel(None) == "auto"
        assert _pick_kernel(None, 16) == "exact_dc"

    def test_environment_is_ignored(self, monkeypatch):
        """No environment variable steers the kernel of any DP call."""
        monkeypatch.setenv("REPRO_PARTITION_KERNEL", "approx")
        monkeypatch.setenv("REPRO_KERNEL", "warp-drive")
        assert _pick_kernel(None, 16) == "exact_dc"
        counts = np.random.default_rng(5).poisson(9.0, size=40)
        table = voptimal_table(counts.astype(float), 6)
        assert table.delta == 0.0
        assert table.prefix_table().shape == (7, 41)


class TestAutoCollapse:
    def test_auto_small_is_exact_dc(self):
        assert _pick_kernel("auto", AUTO_APPROX_THRESHOLD) == "exact_dc"

    def test_auto_large_is_approx(self):
        assert _pick_kernel("auto", AUTO_APPROX_THRESHOLD + 1) == "approx"

    def test_concrete_kernels_pass_through(self):
        for kernel in KERNELS:
            if kernel == "auto":
                continue
            assert _pick_kernel(kernel) == kernel
            assert _pick_kernel(kernel, 10) == kernel
            assert _pick_kernel(kernel, 1 << 20) == kernel


def _worker_digest(payload):
    """Run the approx table in a worker; return comparable raw arrays."""
    seed, n, max_k = payload
    rng = np.random.default_rng(seed)
    counts = rng.poisson(40.0, size=n).astype(np.float64)
    table = voptimal_table(counts, max_k, kernel="approx")
    return (
        table.cost_by_k.tobytes(),
        tuple(table.partition_for(k).boundaries
              for k in range(1, max_k + 1)),
        os.getpid(),
    )


class TestPoolDeterminism:
    def test_approx_identical_across_process_pool_workers(self):
        """Same seed, four workers: bit-identical tables and partitions.

        The approx engine draws no randomness and depends on no
        process-local state, so a process pool fanning one histogram
        out to many workers (the repo's n_jobs path) must not be able
        to produce divergent partitions.
        """
        payload = (20120401, 1500, 12)
        inline = _worker_digest(payload)
        with ProcessPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(_worker_digest, [payload] * 4))
        for sse_bytes, boundaries, _pid in results:
            assert sse_bytes == inline[0]
            assert boundaries == inline[1]

    def test_distinct_seeds_distinct_workloads(self):
        a = _worker_digest((1, 1500, 8))
        b = _worker_digest((2, 1500, 8))
        assert a[0] != b[0]
