#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload publish_bign --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures with tracing off and reports the end-to-end
metrics; ``--trace 1`` repeats the workload traced and reports the
per-layer metrics, with the traced run's own end-to-end numbers beside
them.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every correctness gate passed; 2 means the run
could not start (for example, no ``src/repro`` next to this directory).

Every workload does a fixed amount of work chosen by its module, so
runs with different seeds are comparable; ``--seconds`` is accepted
for the harness and only validated.  ``--record`` rewrites this
workload's entry in ``digests.json`` from a run at the default seed.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
WORK_ROOT = ROOT / ".bench_build" / "perfbench"
DEFAULT_SEED = 1
WORKLOADS = ("publish_bign", "sweep_small", "serve_deep_ledger",
             "serve_fresh")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's digest as the recorded one "
                             "(default seed only)")
    return parser


def _run(workload: str, seed: int, trace: bool, recorded, workdir: Path):
    if workload == "publish_bign":
        import workload_publish

        return workload_publish.run(seed, trace, recorded, workdir)
    if workload == "sweep_small":
        import workload_sweep

        return workload_sweep.run(seed, trace, recorded, workdir)
    import workload_serve

    return workload_serve.run(workload, seed, trace, recorded, workdir)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro package under {ROOT}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.record and args.seed != DEFAULT_SEED:
        print(f"error: --record needs the default seed {DEFAULT_SEED}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from pbcore import print_report

    digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    recorded = None
    if args.seed == DEFAULT_SEED and not args.record:
        recorded = digests.get(args.workload)
        if recorded is None:
            print(f"error: no recorded digest for {args.workload} in "
                  f"{DIGESTS.name}", file=sys.stderr)
            return 2
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=WORK_ROOT))
    try:
        outcome, tally, digest = _run(args.workload, args.seed,
                                      bool(args.trace), recorded, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    line = print_report(args.workload, args.seed, bool(args.trace), outcome,
                        tally)
    if args.record and line["correct"]:
        digests[args.workload] = digest
        DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True)
                           + "\n")
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
