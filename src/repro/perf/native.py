"""Native helpers for the two hot cost primitives, built on first use.

``_native.c`` (next to this module) holds two C loops:

* ``running_sae`` — the two-heap running median of
  :func:`repro.perf.costrows._running_sae`, behind every
  :class:`~repro.perf.costrows.LazySAECost` column and
  :func:`repro.partition.sae.sae_matrix` row;
* ``sse_argmin`` — the fused "SSE grid + offsets, masked, argmin" block
  of the approximate DP (:func:`repro.perf.approx._eval_batch`) for a
  :class:`~repro.perf.costrows.PrefixSSECost`.

Both repeat the Python arithmetic operation for operation, so results
are bit-identical to the Python paths, which stay in the tree as the
fallback and as the test oracle.

The library is compiled the first time a kernel asks for it, never at
``import repro``: ``cc -O2 -ffp-contract=off -fPIC -shared`` into the
``__pycache__`` directory beside the source (the same trust boundary as
the ``.pyc`` files there), under a file name keyed on the source, the
flags and the machine.  The compiler writes to a temporary name that is
then ``os.replace``-d into place, so concurrent builds (pool workers)
are safe.  One build is attempted per process; if it fails (no
compiler, read-only directory, compile error) one WARNING is logged and
every caller keeps the Python path.  :func:`available` reports which
path is live.
"""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

__all__ = ["available", "build", "running_sae", "sse_argmin"]

_SOURCE = Path(__file__).with_name("_native.c")
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

_lock = threading.Lock()
_tried = False
_lib = None  # ctypes.CDLL once loaded; None while unloaded or on failure


def build(directory: "str | os.PathLike[str]") -> Path:
    """Compile ``_native.c`` into ``directory`` and return the library.

    Returns at once when the keyed library is already there.  Raises
    ``OSError`` (no compiler, unwritable directory) or
    ``subprocess.CalledProcessError`` (compile error).
    """
    source = _SOURCE.read_bytes()
    key = hashlib.sha256(
        source + " ".join(_FLAGS).encode() + platform.machine().encode()
    ).hexdigest()[:16]
    directory = Path(directory)
    target = directory / f"_native-{key}.so"
    if target.exists():
        return target
    compiler = shutil.which("cc")
    if compiler is None:
        raise OSError("no C compiler (cc) on PATH")
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".native-", suffix=".so", dir=directory)
    os.close(fd)
    try:
        subprocess.run(
            [compiler, *_FLAGS, "-o", tmp, str(_SOURCE), "-lm"],
            check=True,
            capture_output=True,
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def _open(path: Path):
    import ctypes

    lib = ctypes.CDLL(str(path))
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    lib.running_sae.argtypes = [ptr, i64, ctypes.c_int, ptr]
    lib.running_sae.restype = ctypes.c_int
    lib.sse_argmin.argtypes = [ptr, ptr, ptr, ptr, i64, ptr, i64, ptr, ptr]
    lib.sse_argmin.restype = None
    return lib


def _load():
    """The loaded library, building it on the first call; None on failure."""
    global _tried, _lib
    if not _tried:
        with _lock:
            if not _tried:
                try:
                    _lib = _open(build(_SOURCE.parent / "__pycache__"))
                except (OSError, subprocess.CalledProcessError) as exc:
                    import logging  # only on failure: keeps workers lean

                    detail = getattr(exc, "stderr", b"") or b""
                    logging.getLogger(__name__).warning(
                        "native cost kernels unavailable, using the Python "
                        "paths: %s %s", exc, detail.decode(errors="replace")
                    )
                _tried = True
    return _lib


def available() -> bool:
    """True iff the native library is (or can now be) loaded."""
    return _load() is not None


def running_sae(
    values: np.ndarray, reverse: bool = False, out: Optional[np.ndarray] = None
) -> Optional[np.ndarray]:
    """Native :func:`~repro.perf.costrows._running_sae`, or None.

    ``values`` must be a contiguous float64 array.  ``reverse=True``
    feeds ``values[m-1], …, values[0]`` and stores each prefix result at
    its read position, so ``out[i] = SAE(values[i:])``.  ``out`` (a
    contiguous float64 array of the same length) receives the result in
    place.  Returns None when the library is unavailable.
    """
    lib = _load()
    if lib is None:
        return None
    if out is None:
        out = np.empty(len(values), dtype=np.float64)
    if lib.running_sae(values.ctypes.data, len(values), int(reverse),
                       out.ctypes.data):
        raise MemoryError("running_sae: heap scratch allocation failed")
    return out


def sse_argmin(
    prefix: np.ndarray,
    prefix_sq: np.ndarray,
    starts: np.ndarray,
    offsets: np.ndarray,
    stops: np.ndarray,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Per stop, the min and leftmost argmin of ``SSE(start, stop) + offset``.

    Candidates with ``start >= stop`` are excluded; a stop with none left
    gets ``(inf, 0)``.  Arrays must be contiguous (float64 prefix sums
    and offsets, int64 positions).  Returns None when the library is
    unavailable.
    """
    lib = _load()
    if lib is None:
        return None
    best_val = np.empty(len(stops), dtype=np.float64)
    best_idx = np.empty(len(stops), dtype=np.int64)
    lib.sse_argmin(
        prefix.ctypes.data, prefix_sq.ctypes.data, starts.ctypes.data,
        offsets.ctypes.data, len(starts), stops.ctypes.data, len(stops),
        best_val.ctypes.data, best_idx.ctypes.data,
    )
    return best_val, best_idx
