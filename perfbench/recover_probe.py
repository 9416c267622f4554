"""Time warm-restart recovery of a serve state directory.

Usage: ``python3 perfbench/recover_probe.py STATE_DIR``.  Builds
``QueryService(state_dir=STATE_DIR)`` once in this fresh process and
prints one JSON line: the seconds the constructor took (ledger replay
and store scan), the recovery report, and each tenant's spent epsilon.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.serve.service import QueryService  # noqa: E402


def main(state_dir: str) -> None:
    started = time.perf_counter()
    service = QueryService(state_dir=state_dir)
    seconds = time.perf_counter() - started
    spent = {name: entry["spent"]
             for name, entry in service.tenants.snapshot().items()}
    print(json.dumps({"seconds": seconds, "report": service.recovery,
                      "spent": spent}, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv[1])
