"""Approximate (1+δ) v-optimal DP: sparse candidate-boundary thinning.

The exact kernels in :mod:`repro.perf.kernels` fill the v-optimal
recurrence

    opt[k][j] = min_{k-1 <= i < j}  opt[k-1][i] + cost(i, j)

over **every** prefix ``i``, which is ``O(n^2 k)`` off the Monge fast
path — the quadratic wall every structure-aware publisher hits beyond
``n ~ 2^13``.  This module trades an arbitrarily small, *provable* cost
inflation for near-linear time, in the style of the Guha–Koudas–Shim
approximation scheme for histogram construction (STOC 2001 / TODS 2006):

**Per-layer value thinning.**  The exact DP row ``opt[k][.]`` is
monotone non-decreasing in the prefix length, so it is summarized by the
*breakpoints* of a geometric value ladder: for rungs
``u0, u0 (1+tau), u0 (1+tau)^2, ...`` keep only the **rightmost** prefix
whose value does not exceed each rung.  Layer ``k+1`` then minimizes
over the retained candidates only.

**The wavefront candidate.**  Thinning alone is not sound: a query ``j``
that falls *inside* a ladder run (strictly between two retained
breakpoints) would otherwise be forced to a candidate left of the true
argmin, whose segment cost is unbounded.  Every query therefore also
sees the *surrogate* candidate ``(j - 1, v̂)`` where ``v̂`` is the value
of the nearest retained breakpoint at-or-right-of ``j - 1`` — an upper
bound on the layer value at ``j - 1`` by monotonicity, and achievable
for the prefix ``j - 1`` by truncation-and-refinement (dropping the
bins past ``j - 1`` from the breakpoint's partition never increases any
bucket's cost, and re-splitting only decreases it).

**The bound.**  For any query ``j`` and true argmin ``i*``:

* ``value(i*) = 0`` — the rightmost zero-valued prefix is always
  retained; either it or the surrogate matches the argmin exactly.
* ``i*`` at or left of a retained breakpoint ``b`` with
  ``value(b) <= (1+tau) value(i*)`` and ``b < j`` — take ``b``:
  ``cost(b, j) <= cost(i*, j)`` because ``[b, j)`` is a sub-segment of
  ``[i*, j)``.
* otherwise ``i*`` shares a ladder run with ``j - 1`` — take the
  surrogate: ``v̂ <= rung <= (1+tau) value(i*)`` and
  ``cost(j-1, j) = 0 <= cost(i*, j)``.

Each consumed layer hence inflates the cost by at most ``(1+tau)``;
with ``tau = (1+delta)^(1/(max_k-1)) - 1`` the ``k``-bucket result is
within ``(1+delta)`` of the exact optimum — the property suite asserts
this end-to-end against the exact kernels, *including* the materialized
partition.  The scheme requires single-bin segment costs to be exactly
zero (true for SSE and SAE); providers advertise this via the
``single_bin_free`` flag and the dispatcher falls back to the exact
blocked kernel when it is absent.

**Budgeted mode.**  The rung count per layer is capped at
``max_rungs`` (default :data:`APPROX_MAX_RUNGS`); when the cap binds,
the layer's effective ``tau`` widens and the *achieved* bound is
reported per bucket count in ``delta_certified_by_k`` — the guarantee
degrades *visibly*, never silently.  ``max_rungs=None`` disables the
cap, making the configured ``delta`` unconditional.

**Evaluation modes.**  Small inputs evaluate every prefix per layer
(dense, ``O(n R)`` per layer for ``R`` retained candidates).  Large
inputs never touch most prefixes: breakpoints are located by parallel
bisection over the monotone layer value — ``O(R^2 log n)`` probes per
layer — which is what makes ``n = 2^20`` a seconds-scale workload.

Like :mod:`repro.perf.kernels`, this module imports nothing from
:mod:`repro.partition` so the partition package can layer on top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

__all__ = [
    "APPROX_DELTA",
    "APPROX_MAX_RUNGS",
    "APPROX_DENSE_THRESHOLD",
    "ApproxDP",
    "approx_tables",
]

#: Default multiplicative slack: approx cost <= (1 + delta) * exact cost
#: (unconditional when the rung budget does not bind).
APPROX_DELTA = 0.05

#: Default per-layer candidate budget.  Bounds the work of one layer at
#: roughly ``max_rungs^2 * log2(n)`` candidate evaluations, which is what
#: keeps ``n = 2^20, k = 128`` in seconds; the certified delta is
#: reported whenever the budget forces a wider ladder.
APPROX_MAX_RUNGS = 512

#: At or below this many bins each layer is evaluated densely (every
#: prefix); above it, breakpoints are located by parallel bisection.
#: Measured crossover is ~400 bins at the default rung budget — the
#: bisection's ``O(R^2 log n)`` probes beat the dense ``O(n R)`` sweep
#: much earlier than asymptotics suggest because probes batch into a
#: few hundred grid rows while the sweep touches every prefix per layer.
APPROX_DENSE_THRESHOLD = 256

#: Chunk bound (elements) for the (positions x candidates) grids.
_GRID_CHUNK = 1 << 22

_RETAINED = 0
_SURROGATE = 1


@dataclass
class _Layer:
    """Thinned summary of one DP layer.

    ``idx`` are retained prefix positions (sorted ascending), ``val``
    their approximate layer values (non-decreasing), ``pred_kind`` /
    ``pred_ref`` the winning candidate of each retained position's own
    evaluation — ``_RETAINED`` refs an entry of the previous layer,
    ``_SURROGATE`` refs the previous-layer breakpoint certifying the
    wavefront candidate at ``position - 1``.
    """

    idx: np.ndarray
    val: np.ndarray
    pred_kind: np.ndarray
    pred_ref: np.ndarray
    tau: float


@dataclass
class ApproxDP:
    """Sparse result of the approximate v-optimal DP.

    ``cost_by_k[k]`` upper-bounds the exact optimum by the factor
    ``1 + delta_certified_by_k[k]``; :meth:`boundaries_for` materializes
    a ``k``-bucket partition whose *true* cost is at most ``cost_by_k[k]``.
    """

    n: int
    max_k: int
    delta: float
    cost_by_k: np.ndarray
    delta_certified_by_k: np.ndarray
    _layers: List[_Layer] = field(repr=False)
    _final_kind: np.ndarray = field(repr=False)
    _final_ref: np.ndarray = field(repr=False)

    @property
    def delta_certified(self) -> float:
        """The certified bound for the largest bucket count."""
        return float(self.delta_certified_by_k[self.max_k])

    def boundaries_for(self, k: int) -> Tuple[int, ...]:
        """Materialize the ``k - 1`` boundaries of the approx partition.

        Walks the stored predecessor chain from ``(k, n)``.  Surrogate
        steps emit the wavefront boundary ``j - 1`` and continue from
        the certifying breakpoint, whose chain may carry boundaries at
        or beyond the emitted one; those are *dropped* (truncation — a
        sub-segment never costs more than its segment) and the bucket
        count is restored by splitting the widest bucket (refinement —
        splitting never increases total cost).  The returned partition's
        true cost is therefore at most ``cost_by_k[k]``.
        """
        if not 1 <= k <= self.max_k:
            raise ValueError(f"k must be in [1, {self.max_k}], got {k}")
        if k == 1:
            return ()
        if not np.isfinite(self.cost_by_k[k]):
            raise ValueError(f"no feasible {k}-bucket partition recorded")
        kept: List[int] = []
        cap = self.n
        kind = int(self._final_kind[k])
        ref = int(self._final_ref[k])
        query = self.n
        for level in range(k, 1, -1):
            layer = self._layers[level - 2]  # layer `level - 1` summary
            if kind == _SURROGATE:
                boundary = query - 1
            else:
                boundary = int(layer.idx[ref])
            if 1 <= boundary < cap:
                kept.append(boundary)
                cap = boundary
            query = int(layer.idx[ref])
            kind = int(layer.pred_kind[ref])
            ref = int(layer.pred_ref[ref])
        kept.reverse()
        return _refine_to_k(kept, self.n, k)


def _refine_to_k(boundaries: List[int], n: int, k: int) -> Tuple[int, ...]:
    """Pad a valid-but-short boundary list to exactly ``k - 1`` splits.

    Deterministic: repeatedly bisect the (leftmost) widest bucket.  Pure
    refinement, so the partition's total cost can only decrease.
    """
    edges = [0] + boundaries + [n]
    while len(edges) - 2 < k - 1:
        widths = [edges[t + 1] - edges[t] for t in range(len(edges) - 1)]
        widest = max(range(len(widths)), key=lambda t: (widths[t], -t))
        if widths[widest] < 2:  # pragma: no cover - k <= n guards this
            raise ValueError("cannot refine partition: all buckets width 1")
        edges.insert(widest + 1, edges[widest] + widths[widest] // 2)
    return tuple(edges[1:-1])


# ---------------------------------------------------------------------------
# candidate evaluation
# ---------------------------------------------------------------------------

def _eval_batch(
    cost,
    prev_idx: np.ndarray,
    prev_val: np.ndarray,
    positions: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Approx layer value at ``positions`` given the thinned previous layer.

    Returns ``(values, kinds, refs)``: the minimum over retained
    candidates strictly left of each position plus the surrogate
    ``(position - 1, v̂)``; retained wins ties so backtracks stay short.
    """
    positions = np.asarray(positions, dtype=np.int64)
    count = len(positions)
    width = len(prev_idx)
    values = np.empty(count, dtype=np.float64)
    kinds = np.empty(count, dtype=np.int8)
    refs = np.empty(count, dtype=np.int64)

    # An SSE provider fuses grid + offsets + mask + argmin natively.
    fused = getattr(cost, "grid_argmin", None)
    chunk = max(1, _GRID_CHUNK // max(width, 1))
    for lo in range(0, count, chunk):
        hi = min(lo + chunk, count)
        pos = positions[lo:hi]
        found = fused(prev_idx, prev_val, pos) if fused is not None else None
        if found is not None:
            best_vals, best = found
        else:
            grid = cost.grid(prev_idx, pos)  # (len(pos), width)
            totals = grid + prev_val[None, :]
            invalid = prev_idx[None, :] >= pos[:, None]
            if invalid.any():
                totals = np.where(invalid, np.inf, totals)
            best = np.argmin(totals, axis=1)
            best_vals = totals[np.arange(hi - lo), best]

        # Wavefront surrogate: value of the nearest retained breakpoint
        # at-or-right-of `pos - 1` (single-bin closing cost is zero).
        sref = np.searchsorted(prev_idx, pos - 1, side="left")
        s_ok = sref < width
        sref_c = np.minimum(sref, width - 1)
        svals = np.where(s_ok, prev_val[sref_c], np.inf)

        use_s = svals < best_vals
        values[lo:hi] = np.where(use_s, svals, best_vals)
        kinds[lo:hi] = np.where(use_s, _SURROGATE, _RETAINED).astype(np.int8)
        refs[lo:hi] = np.where(use_s, sref_c, best)
    return values, kinds, refs


def _first_layer_values(cost, positions: np.ndarray) -> np.ndarray:
    """``cost(0, j)`` at the given positions."""
    zero = np.zeros(1, dtype=np.int64)
    return cost.grid(zero, np.asarray(positions, dtype=np.int64))[:, 0]


# ---------------------------------------------------------------------------
# thinning: ladder construction + breakpoint location
# ---------------------------------------------------------------------------

def _ladder(
    u0: float, u_max: float, tau: float, max_rungs: Optional[int]
) -> Tuple[np.ndarray, float]:
    """Geometric rung values spanning ``[u0, u_max]`` and the achieved tau.

    Uses the configured ``tau`` when the implied rung count fits the
    budget; otherwise spreads exactly ``max_rungs`` rungs geometrically
    and reports the (wider) achieved ratio.
    """
    if u_max <= u0:
        return np.array([u_max], dtype=np.float64), 0.0
    span = math.log(u_max / u0)
    if tau > 0.0:
        needed = int(math.ceil(span / math.log1p(tau))) + 1
    else:  # delta == 0 degenerates to one rung per distinct value step
        needed = None
    if needed is not None and (max_rungs is None or needed <= max_rungs):
        ratio = 1.0 + tau
        count = needed
    else:
        if max_rungs is None:
            raise ValueError(
                "delta=0 requires a finite max_rungs budget"
            )
        count = max(2, int(max_rungs))
        ratio = math.exp(span / (count - 1))
    rungs = u0 * np.power(ratio, np.arange(count, dtype=np.float64))
    rungs[-1] = u_max  # guard float drift at the top of the ladder
    return rungs, ratio - 1.0


def _breakpoints_dense(
    row: np.ndarray,
    positions: np.ndarray,
    tau: float,
    max_rungs: Optional[int],
) -> Tuple[np.ndarray, float]:
    """Retained positions of a fully-evaluated monotone layer row."""
    keep: List[np.ndarray] = []
    positive = row > 0.0
    if not positive.all():
        last_zero = int(np.nonzero(~positive)[0][-1])
        keep.append(positions[last_zero : last_zero + 1])
    tau_used = 0.0
    if positive.any():
        first_pos = int(np.argmax(positive))
        u0 = float(row[first_pos])
        u_max = float(row[-1])
        rungs, tau_used = _ladder(u0, u_max, tau, max_rungs)
        # row is monotone: last index with row <= rung, vectorized.
        hits = np.searchsorted(row, rungs, side="right") - 1
        keep.append(positions[hits[hits >= 0]])
    retained = np.unique(np.concatenate(keep))
    return retained, tau_used


def _breakpoints_bisect(
    eval_values: Callable[[np.ndarray], np.ndarray],
    lo: int,
    hi: int,
    tau: float,
    max_rungs: Optional[int],
) -> Tuple[np.ndarray, float]:
    """Retained positions of a layer evaluated only where probed.

    Locates, for every rung ``T``, the largest position whose (monotone)
    layer value is ``<= T`` — all rungs bisected in parallel, so each
    round costs one batched evaluation of at most one probe per rung.
    """
    v_ends = eval_values(np.array([lo, hi], dtype=np.int64))
    v_lo, v_hi = float(v_ends[0]), float(v_ends[1])
    if v_hi <= 0.0:  # whole domain zero: one candidate summarizes it
        return np.array([hi], dtype=np.int64), 0.0

    thresholds: List[float] = []
    if v_lo <= 0.0:
        # Rightmost zero, then the ladder from the first positive value.
        last_zero = _bisect_last_leq(eval_values, lo, hi, 0.0)
        u0 = float(eval_values(np.array([last_zero + 1]))[0])
        thresholds.append(0.0)
    else:
        u0 = v_lo
    rungs, tau_used = _ladder(u0, v_hi, tau, max_rungs)
    thresholds.extend(rungs.tolist())

    marks = np.asarray(thresholds, dtype=np.float64)
    lo_arr = np.full(len(marks), lo - 1, dtype=np.int64)
    hi_arr = np.full(len(marks), hi, dtype=np.int64)
    while True:
        active = lo_arr < hi_arr
        if not active.any():
            break
        mid = (lo_arr + hi_arr + 1) >> 1
        probes, inverse = np.unique(mid[active], return_inverse=True)
        vals = eval_values(probes)[inverse]
        ok = vals <= marks[active]
        lo_sel = np.where(ok, mid[active], lo_arr[active])
        hi_sel = np.where(ok, hi_arr[active], mid[active] - 1)
        lo_arr[active] = lo_sel
        hi_arr[active] = hi_sel
    found = lo_arr[lo_arr >= lo]
    retained = np.unique(found)
    if retained.size == 0 or retained[-1] != hi:
        retained = np.unique(np.append(retained, hi))
    return retained, tau_used


def _bisect_last_leq(
    eval_values: Callable[[np.ndarray], np.ndarray],
    lo: int,
    hi: int,
    threshold: float,
) -> int:
    """Largest position in ``[lo, hi]`` with value ``<= threshold``.

    Caller guarantees one exists (the value at ``lo`` qualifies).
    """
    while lo < hi:
        mid = (lo + hi + 1) >> 1
        if float(eval_values(np.array([mid], dtype=np.int64))[0]) <= threshold:
            lo = mid
        else:
            hi = mid - 1
    return lo


# ---------------------------------------------------------------------------
# the DP driver
# ---------------------------------------------------------------------------

def approx_tables(
    cost,
    max_k: int,
    delta: Optional[float] = None,
    max_rungs: Optional[int] = APPROX_MAX_RUNGS,
    dense_threshold: int = APPROX_DENSE_THRESHOLD,
) -> ApproxDP:
    """Run the thinned v-optimal DP for every bucket count ``1..max_k``.

    Parameters
    ----------
    cost:
        A cost-rows provider (:mod:`repro.perf.costrows`) additionally
        offering ``grid(starts, stops)`` and the ``single_bin_free``
        flag (single-bin segments must cost exactly 0 — SSE/SAE do).
    max_k:
        Largest bucket count.
    delta:
        Target multiplicative slack; ``None`` uses
        :data:`APPROX_DELTA`.  Guaranteed outright whenever the rung
        budget does not bind; the achieved bound is always recorded in
        ``delta_certified_by_k``.
    max_rungs:
        Per-layer candidate budget; ``None`` removes the cap (the
        configured ``delta`` becomes unconditional).
    dense_threshold:
        Inputs with at most this many bins evaluate layers densely;
        larger inputs use parallel-bisection breakpoint location.
    """
    n = cost.n
    if not 1 <= max_k <= n:
        raise ValueError(f"max_k must be in [1, {n}], got {max_k}")
    if delta is None:
        delta = APPROX_DELTA
    if delta < 0.0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if not getattr(cost, "single_bin_free", False):
        raise ValueError(
            "approx kernel requires a cost provider whose single-bin "
            "segments cost exactly zero (single_bin_free flag)"
        )

    tau = (1.0 + delta) ** (1.0 / max(max_k - 1, 1)) - 1.0
    dense = n <= dense_threshold

    cost_by_k = np.full(max_k + 1, np.inf, dtype=np.float64)
    certified = np.zeros(max_k + 1, dtype=np.float64)
    final_kind = np.zeros(max_k + 1, dtype=np.int8)
    final_ref = np.zeros(max_k + 1, dtype=np.int64)
    layers: List[_Layer] = []

    # ---- layer 1: value(j) = cost(0, j), exactly -------------------------
    cost_by_k[1] = float(_first_layer_values(cost, np.array([n]))[0])
    factor = 1.0
    if max_k >= 2:
        lo, hi = 1, n - 1
        if dense:
            positions = np.arange(lo, hi + 1, dtype=np.int64)
            row = np.maximum.accumulate(_first_layer_values(cost, positions))
            retained, tau_used = _breakpoints_dense(
                row, positions, tau, max_rungs
            )
            values = row[retained - lo]
        else:
            def eval_layer1(pos: np.ndarray) -> np.ndarray:
                return _first_layer_values(cost, pos)

            retained, tau_used = _breakpoints_bisect(
                eval_layer1, lo, hi, tau, max_rungs
            )
            values = _first_layer_values(cost, retained)
        layers.append(
            _Layer(
                idx=retained,
                val=values,
                pred_kind=np.zeros(len(retained), dtype=np.int8),
                pred_ref=np.zeros(len(retained), dtype=np.int64),
                tau=tau_used,
            )
        )

    # ---- layers 2..max_k -------------------------------------------------
    for level in range(2, max_k + 1):
        prev = layers[level - 2]
        factor *= 1.0 + prev.tau
        certified[level] = factor - 1.0

        v_n, k_n, r_n = _eval_batch(
            cost, prev.idx, prev.val, np.array([n], dtype=np.int64)
        )
        cost_by_k[level] = float(v_n[0])
        final_kind[level] = k_n[0]
        final_ref[level] = r_n[0]
        if level == max_k:
            break

        lo, hi = level, n - 1
        if lo > hi:  # pragma: no cover - only reachable when max_k == n
            layers.append(
                _Layer(
                    idx=np.empty(0, dtype=np.int64),
                    val=np.empty(0, dtype=np.float64),
                    pred_kind=np.empty(0, dtype=np.int8),
                    pred_ref=np.empty(0, dtype=np.int64),
                    tau=0.0,
                )
            )
            continue
        if dense:
            positions = np.arange(lo, hi + 1, dtype=np.int64)
            row, kinds, refs = _eval_batch(cost, prev.idx, prev.val, positions)
            row = np.maximum.accumulate(row)
            retained, tau_used = _breakpoints_dense(
                row, positions, tau, max_rungs
            )
            sel = retained - lo
            layer = _Layer(
                idx=retained,
                val=row[sel],
                pred_kind=kinds[sel],
                pred_ref=refs[sel],
                tau=tau_used,
            )
        else:
            def eval_level(pos: np.ndarray) -> np.ndarray:
                return _eval_batch(cost, prev.idx, prev.val, pos)[0]

            retained, tau_used = _breakpoints_bisect(
                eval_level, lo, hi, tau, max_rungs
            )
            values, kinds, refs = _eval_batch(
                cost, prev.idx, prev.val, retained
            )
            layer = _Layer(
                idx=retained,
                val=values,
                pred_kind=kinds,
                pred_ref=refs,
                tau=tau_used,
            )
        layers.append(layer)

    return ApproxDP(
        n=n,
        max_k=max_k,
        delta=float(delta),
        cost_by_k=cost_by_k,
        delta_certified_by_k=certified,
        _layers=layers,
        _final_kind=final_kind,
        _final_ref=final_ref,
    )
