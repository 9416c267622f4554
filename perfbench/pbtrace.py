"""Per-layer self-times from the span trees the publishers already emit.

A publish run under ``repro.obs.trace.capture`` yields a tree such as
``publish / partition.em / gibbs.forward-filter``.  Each span's *self*
time (its duration minus its direct children's, from
``repro.obs.trace.self_seconds``) is attributed to one layer family
below; the root's self time is the publish time no span accounts for.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.obs.trace import self_seconds, walk

#: Layer family -> span-name test.  Exact names first, then prefixes.
FAMILIES = {
    "forward_filter": lambda name: name == "gibbs.forward-filter",
    "backward_sample": lambda name: name == "gibbs.backward-sample",
    "kernel_dp": lambda name: name == "kernel.dp",
    "noise": lambda name: name.startswith("noise."),
    "postprocess": lambda name: name.startswith("postprocess."),
}


def layer_self_seconds(tree: Dict[str, Any]) -> Dict[str, float]:
    """Sum span self-times per layer family over one serialized tree.

    The result has every family of :data:`FAMILIES` (0.0 when no span
    of it ran) plus ``"unattributed"``: the root span's self time.
    """
    totals = {family: 0.0 for family in FAMILIES}
    for _path, node in walk(tree):
        name = str(node.get("name", ""))
        for family, test in FAMILIES.items():
            if test(name):
                totals[family] += self_seconds(node)
                break
    totals["unattributed"] = self_seconds(tree)
    return totals
