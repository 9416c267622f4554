"""Read the serving layer's numbers from its ``/metrics`` exposition.

Only the Prometheus text format the server already renders is parsed:
``name{label="value",...} number`` sample lines, ``#`` comments
skipped.  Histograms are read through their ``_sum`` and ``_count``
series, which is all a mean needs.
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, Tuple

_SAMPLE = re.compile(
    r"^([A-Za-z_:][A-Za-z0-9_:]*)(?:\{(.*)\})?\s+(\S+)(?:\s+\S+)?\s*$"
)
_LABEL = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')


def samples(text: str) -> Iterator[Tuple[str, Dict[str, str], float]]:
    """Every sample line as ``(name, labels, value)``."""
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            raise ValueError(f"unparseable metrics line: {raw!r}")
        name, labels, value = match.groups()
        yield name, dict(_LABEL.findall(labels or "")), float(value)


def histogram_totals(
    text: str, family: str, group_by: str, **match: str
) -> Dict[str, Tuple[int, float]]:
    """``{label value: (count, sum)}`` of one histogram family.

    Only series whose labels include every ``match`` pair count; they
    are grouped by the value of their ``group_by`` label.
    """
    out: Dict[str, Tuple[int, float]] = {}
    for name, labels, value in samples(text):
        if name == f"{family}_count":
            slot = 0
        elif name == f"{family}_sum":
            slot = 1
        else:
            continue
        if any(labels.get(k) != v for k, v in match.items()):
            continue
        key = labels.get(group_by, "")
        count, total = out.get(key, (0, 0.0))
        if slot == 0:
            count += int(value)
        else:
            total += value
        out[key] = (count, total)
    return out


def mean_ms(totals: Dict[str, Tuple[int, float]], key: str) -> float:
    """Mean milliseconds of one group; 0.0 when it never observed."""
    count, total = totals.get(key, (0, 0.0))
    return 1e3 * total / count if count else 0.0


def gauge(text: str, name: str) -> float:
    """Value of an unlabelled gauge."""
    for sample_name, labels, value in samples(text):
        if sample_name == name and not labels:
            return value
    raise KeyError(f"no gauge {name!r} in metrics text")
