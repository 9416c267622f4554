"""Command-line interface: ``python -m repro <command> [...]``.

One command table (``_COMMANDS``) maps each first token to its own
parser and body; each command has its own ``--help``.  Worked examples
live in README.md ("Reproducing the paper's evaluation") and docs/*.md::

    --list              print the experiment ids
    <experiment-id>     regenerate one figure/table ('all': every one)
    verify              calibrate a publisher against its error oracle
    bench               refresh and gate the tracked perf benchmarks
    run                 fault-tolerant, journaled, resumable sweep
    report              markdown run report from a sweep journal
    history             regression radar: ingest, drift, dashboards
    serve               the DP histogram query service
    replay              deterministic workload-trace replay
    scenarios           DPBench-grade scenario sweep (utility radar)
    paper               repro-paper bundle from the history store
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["main"]

#: Default trial count for ``verify``; 60 keeps the CLI check fast while
#: the z=5 band still puts the false-alarm rate well below 1e-5.
_VERIFY_TRIALS = 60

_HISTORY_HELP = (
    "run-history SQLite store (regression radar): 'run' "
    "auto-ingests its sweep results, metrics totals, and "
    "straggler alerts; 'bench' appends trajectory entries "
    "and gates --check against the history median; 'report' "
    "adds the vs-previous-runs delta section (see 'python "
    "-m repro history --help')"
)

_QUICK_HELP = "shrink grids/seeds so each experiment finishes in seconds"

_N_JOBS_HELP = (
    "worker processes for seed-parallel experiments "
    "(1 = serial, -1 = all CPUs); results are bit-identical "
    "to the serial run"
)


class _UsageError(Exception):
    """A bad command line: :func:`main` prints ``error: <msg>``, exits 2."""


# ---------------------------------------------------------------------------
# Shared validation
# ---------------------------------------------------------------------------

def _check_shared_flags(args: argparse.Namespace) -> None:
    """Validate the flags several commands share.

    Checks only the flags the command's parser declares, so this one
    helper serves the experiments, 'run', 'scenarios' and 'replay'.
    """
    flags = vars(args)
    n_jobs = flags.get("n_jobs", 1)
    if n_jobs != -1 and n_jobs < 1:
        raise _UsageError(f"--n-jobs must be >= 1 or -1, got {n_jobs}")
    retries = flags.get("retries", 0)
    if retries < 0:
        raise _UsageError(f"--retries must be >= 0, got {retries}")
    timeout = flags.get("timeout")
    if timeout is not None and timeout <= 0:
        raise _UsageError(f"--timeout must be > 0, got {timeout}")
    if flags.get("resume") and not flags.get("journal"):
        raise _UsageError("--resume requires --journal")


def _csv(text: Optional[str]) -> Optional[List[str]]:
    """Split a comma-separated flag value; ``None`` when it is unset."""
    if not text:
        return None
    return [part.strip() for part in text.split(",") if part.strip()]


def _epsilons(text: str) -> List[float]:
    """Parse the ``--epsilons`` grid."""
    try:
        return [float(e) for e in _csv(text) or []]
    except ValueError:
        raise _UsageError(f"bad --epsilons {text!r}") from None


def _require_store(db: str) -> None:
    """Refuse to read a history store that does not exist yet."""
    if not Path(db).exists():
        raise _UsageError(f"history store {db} does not exist "
                          "(ingest something first)")


def _write_metrics(registry, path: str) -> None:
    """Dump the registry to ``path``; ``.json`` selects JSON rendering."""
    from repro.robust.atomicio import atomic_write_text

    out = Path(path)
    if out.suffix == ".json":
        text = registry.render_json_text()
    else:
        text = registry.render_prometheus()
    atomic_write_text(out, text)


# ---------------------------------------------------------------------------
# Experiment ids, 'verify', 'bench', 'report'
# ---------------------------------------------------------------------------

def _build_top_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dphist",
        description="Regenerate the evaluation of 'Differentially Private "
                    "Histogram Publication' (ICDE 2012).",
    )
    parser.add_argument(
        "command",
        nargs="?",
        help="experiment id (see --list), 'all' to run everything, or "
             f"one of: {', '.join(_COMMANDS)} (each has its own --help)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_experiments",
        help="list the available experiment ids and exit",
    )
    return parser


def _build_experiment_parser(prog: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Regenerate one experiment of the paper's evaluation "
                    "('all' runs every experiment id).",
    )
    parser.add_argument("--quick", action="store_true", help=_QUICK_HELP)
    parser.add_argument("--n-jobs", type=int, default=1, metavar="N",
                        help=_N_JOBS_HELP)
    return parser


def _run_experiments(args: argparse.Namespace) -> int:
    """Render the tables of one experiment id, or of ``all`` of them."""
    from repro.experiments.registry import list_experiments, run_experiment
    from repro.experiments.tables import render_table

    names = list_experiments() if args.command == "all" else [args.command]
    for name in names:
        try:
            tables = run_experiment(name, quick=args.quick, n_jobs=args.n_jobs)
        except KeyError as exc:
            raise _UsageError(exc.args[0]) from None
        for table in tables:
            print(render_table(table))
            print()
    return 0


def _build_verify_parser(prog: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Calibrate one publisher's empirical error against "
                    "its closed-form oracle (docs/verification.md).",
    )
    parser.add_argument(
        "--publisher",
        default="dwork",
        help="publisher to calibrate (see repro.verify.ORACLE_BUILDERS)",
    )
    parser.add_argument(
        "--epsilon",
        type=float,
        default=0.5,
        help="privacy budget for the calibration publishes",
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=_VERIFY_TRIALS,
        help="number of independent publishes to average",
    )
    parser.add_argument(
        "--bins",
        type=int,
        default=64,
        help="domain size of the synthetic step dataset",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="root seed of the deterministic verification streams",
    )
    return parser


def _verify_factories(bins: int) -> Dict[str, Callable[[], object]]:
    """Publisher factories for CLI calibration, keyed by oracle name.

    The structure publishers get a small fixed ``k`` matching the step
    dataset so their conditional oracles are sharp; MWEM runs its exact
    full-range regime.
    """
    from repro.baselines import (
        Ahp,
        Boost,
        DawaLite,
        DworkIdentity,
        FourierPublisher,
        Mwem,
        Privelet,
        UniformFlat,
    )
    from repro.core import NoiseFirst, StructureFirst
    from repro.workloads.builders import fixed_length_ranges

    return {
        "dwork": DworkIdentity,
        "uniform": UniformFlat,
        "boost": Boost,
        "privelet": Privelet,
        "noisefirst": lambda: NoiseFirst(k=4),
        "structurefirst": lambda: StructureFirst(k=4),
        "dawa-lite": lambda: DawaLite(k=4),
        "ahp": Ahp,
        "fourier": FourierPublisher,
        "mwem": lambda: Mwem(workload=fixed_length_ranges(bins, bins)),
    }


def _run_verify(args: argparse.Namespace) -> int:
    """Empirical-vs-oracle calibration of one publisher, from the CLI."""
    from repro.datasets.generators import step_histogram
    from repro.verify.calibration import check_mean, run_conditional_trials
    from repro.verify.oracles import oracle_from_result
    from repro.verify.streams import StreamAllocator

    if args.epsilon <= 0:
        raise _UsageError(f"--epsilon must be > 0, got {args.epsilon}")
    if args.trials < 2:
        raise _UsageError(f"--trials must be >= 2, got {args.trials}")
    if args.bins < 8:
        raise _UsageError(f"--bins must be >= 8, got {args.bins}")
    factories = _verify_factories(args.bins)
    try:
        factory = factories[args.publisher]
    except KeyError:
        raise _UsageError(
            f"unknown publisher {args.publisher!r}; available: "
            f"{', '.join(sorted(factories))}"
        ) from None

    # Well-separated steps keep the structure publishers' realized
    # partitions deterministic, so the conditional oracles are sharp.
    histogram = step_histogram(args.bins, 4, total=50_000, rng=7)
    streams = StreamAllocator(args.seed, namespace="cli-verify")
    empirical, predicted = run_conditional_trials(
        factory,
        histogram,
        args.epsilon,
        args.trials,
        streams,
        f"verify/{args.publisher}",
        oracle_from_result=lambda result: oracle_from_result(
            args.publisher, histogram, args.epsilon, result
        ),
    )
    report = check_mean(empirical, predicted)
    print(f"verify {args.publisher} eps={args.epsilon:g} "
          f"bins={args.bins} trials={args.trials}")
    print(report)
    return 0 if report.ok else 1


def _build_bench_parser(prog: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Refresh the tracked performance benchmarks "
                    "(BENCH_*.json) and optionally gate on regressions "
                    "(docs/performance.md).",
    )
    parser.add_argument("--quick", action="store_true", help=_QUICK_HELP)
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed BENCH_*.json baselines and "
             "exit 1 on a >25%% calibration-normalized regression",
    )
    parser.add_argument(
        "--output-dir",
        default=None,
        metavar="DIR",
        help="directory for BENCH_*.json (default: the repository root)",
    )
    parser.add_argument(
        "--profile",
        default=None,
        choices=("quick", "full", "bign"),
        help="benchmark profile (overrides --quick): 'quick' is the CI "
             "gate, 'full' the long exact-kernel sweep, 'bign' the "
             "2^14..2^20 scaling grid written to BENCH_bign.json",
    )
    parser.add_argument(
        "--max-n",
        type=int,
        default=None,
        metavar="N",
        help="slice the requested bench grid at this domain size; "
             "dropped cases are recorded as skipped coverage gaps "
             "(the CI bench-bign lane stops at 2^18)",
    )
    parser.add_argument("--history", default=None, metavar="DB",
                        help=_HISTORY_HELP)
    return parser


def _run_bench(args: argparse.Namespace) -> int:
    """Run one benchmark profile (see repro.perf.bench)."""
    from repro.perf.bench import run_bench

    return run_bench(
        quick=args.quick,
        check=args.check,
        output_dir=args.output_dir,
        history=args.history,
        profile=args.profile,
        max_n=args.max_n,
    )


def _build_report_parser(prog: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Render the markdown run report from a checkpoint "
                    "journal (docs/observability.md).",
    )
    parser.add_argument("journal", nargs="?", default=None,
                        help="the checkpoint-journal path to render")
    parser.add_argument("--history", default=None, metavar="DB",
                        help=_HISTORY_HELP)
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the markdown report to PATH (default: stdout)",
    )
    return parser


def _run_report(args: argparse.Namespace) -> int:
    """Render the markdown run report from a journal."""
    from repro.obs.report import render_report, write_report

    if not args.journal:
        raise _UsageError("report needs a journal path: "
                          "python -m repro report <journal.jsonl> "
                          "[--out report.md]")
    journal = Path(args.journal)
    if not journal.exists():
        raise _UsageError(f"journal {journal} does not exist")
    if args.history:
        _require_store(args.history)
    if args.out:
        write_report(journal, args.out, history=args.history)
        print(f"wrote {args.out}")
    else:
        print(render_report(journal, history=args.history), end="")
    return 0


# ---------------------------------------------------------------------------
# The 'serve' / 'replay' commands (query service + load harness)
# ---------------------------------------------------------------------------

def _build_serve_parser(prog: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Long-lived DP histogram query service: publish "
                    "once per (dataset, publisher, epsilon, k) spec, "
                    "cache artifacts in a fingerprint-keyed LRU, and "
                    "answer point/range count queries under per-tenant "
                    "epsilon-budget ledgers (docs/serving.md).",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8377,
                        help="bind port; 0 picks an ephemeral port "
                             "(default 8377)")
    parser.add_argument("--cache-entries", dest="cache_entries", type=int,
                        default=8, metavar="N",
                        help="max cached artifacts before LRU eviction "
                             "(default 8)")
    parser.add_argument("--cache-bytes", dest="cache_bytes", type=int,
                        default=None, metavar="B",
                        help="optional byte bound on cached artifact "
                             "arrays (evicts LRU-first)")
    parser.add_argument("--tenant-budget", dest="tenant_budget",
                        type=float, default=100.0, metavar="EPS",
                        help="default epsilon budget for tenants that "
                             "were never explicitly registered "
                             "(default 100)")
    parser.add_argument("--state-dir", dest="state_dir", default=None,
                        metavar="DIR",
                        help="durable state directory: write-ahead "
                             "epsilon ledger + on-disk artifact store; "
                             "a restart replays the ledger to exact "
                             "spent totals and rehydrates artifacts "
                             "byte-identically (docs/serving.md)")
    parser.add_argument("--publish-slots", dest="publish_slots", type=int,
                        default=None, metavar="N",
                        help="bound concurrent cold publishes; when "
                             "saturated, queries degrade to a stale "
                             "compatible artifact or shed with 503 + "
                             "Retry-After (default: unbounded)")
    parser.add_argument("--max-inflight", dest="max_inflight", type=int,
                        default=8, metavar="N",
                        help="admission control: max concurrently "
                             "executing requests (default 8)")
    parser.add_argument("--max-queue", dest="max_queue", type=int,
                        default=16, metavar="N",
                        help="admission control: max requests waiting "
                             "for a slot before shedding (default 16)")
    parser.add_argument("--queue-timeout", dest="queue_timeout",
                        type=float, default=1.0, metavar="S",
                        help="admission control: max seconds a request "
                             "may queue before shedding (default 1.0)")
    parser.add_argument("--retry-after", dest="retry_after", type=float,
                        default=1.0, metavar="S",
                        help="Retry-After hint sent with 503 sheds "
                             "(default 1.0)")
    parser.add_argument("--drain-seconds", dest="drain_seconds",
                        type=float, default=5.0, metavar="S",
                        help="graceful-shutdown deadline for in-flight "
                             "requests (default 5.0)")
    parser.add_argument("--trace", action="store_true",
                        help="enable per-request span capture (stage "
                             "trees on /v1/debug); equivalent to "
                             "exporting REPRO_TRACE=1")
    parser.add_argument("--access-log", dest="access_log", default=None,
                        metavar="PATH",
                        help="structured JSONL access log (one "
                             "sorted-key line per request; rotated); "
                             "defaults to STATE_DIR/access.log when "
                             "--state-dir is set")
    parser.add_argument("--slo-window", dest="slo_window", type=float,
                        default=60.0, metavar="S",
                        help="SLO sliding-window length in seconds "
                             "(default 60)")
    parser.add_argument("--slo-latency-ms", dest="slo_latency_ms",
                        type=float, default=250.0, metavar="MS",
                        help="latency objective threshold: a request "
                             "slower than this is SLO-bad "
                             "(default 250)")
    parser.add_argument("--slo-latency-target", dest="slo_latency_target",
                        type=float, default=0.99, metavar="F",
                        help="good fraction target for the latency "
                             "objective (default 0.99)")
    parser.add_argument("--slo-error-target", dest="slo_error_target",
                        type=float, default=0.999, metavar="F",
                        help="good fraction target for the 5xx error "
                             "objective (default 0.999)")
    parser.add_argument("--slo-shed-target", dest="slo_shed_target",
                        type=float, default=0.99, metavar="F",
                        help="good fraction target for the shed "
                             "objective (default 0.99)")
    parser.add_argument("--debug-traces", dest="debug_traces", type=int,
                        default=8, metavar="N",
                        help="slowest-N traced requests kept for "
                             "/v1/debug (default 8)")
    parser.add_argument("--verbose", action="store_true",
                        help="log one line per request to stderr")
    return parser


def _run_serve(args: argparse.Namespace) -> int:
    """Bind the query service and serve until shutdown."""
    from repro.obs import trace
    from repro.serve.admission import AdmissionController
    from repro.serve.server import make_server, run_server
    from repro.serve.service import QueryService
    from repro.serve.telemetry import SLOConfig

    if args.port < 0:
        raise _UsageError(f"--port must be >= 0, got {args.port}")
    if args.trace:
        os.environ[trace.ENV_VAR] = "1"
    access_log = args.access_log
    if access_log is None and args.state_dir is not None:
        access_log = Path(args.state_dir) / "access.log"
    try:
        service = QueryService(
            cache_entries=args.cache_entries,
            cache_bytes=args.cache_bytes,
            default_tenant_budget=args.tenant_budget,
            state_dir=args.state_dir,
            publish_slots=args.publish_slots,
            retry_after=args.retry_after,
            slo=SLOConfig(
                window_seconds=args.slo_window,
                latency_threshold=args.slo_latency_ms / 1000.0,
                latency_target=args.slo_latency_target,
                error_target=args.slo_error_target,
                shed_target=args.slo_shed_target,
            ),
            access_log=access_log,
            slow_traces=args.debug_traces,
        )
        admission = AdmissionController(
            max_inflight=args.max_inflight,
            max_queue=args.max_queue,
            queue_timeout=args.queue_timeout,
        )
        server = make_server(args.host, args.port, service,
                             verbose=args.verbose, admission=admission,
                             drain_seconds=args.drain_seconds,
                             retry_after=args.retry_after)
    except (ValueError, OSError) as exc:
        raise _UsageError(str(exc)) from None
    # The parseable startup line the e2e tests and scripts wait for.
    print(f"serving on {server.url}", flush=True)
    if service.recovery:
        rec = service.recovery
        print(
            f"recovered state from {args.state_dir}: "
            f"{rec.get('tenants', 0)} tenant(s), "
            f"{rec.get('debits', 0)} debit(s), "
            f"{rec.get('artifacts', 0)} artifact(s), "
            f"{rec.get('torn_lines', 0)} torn line(s)",
            flush=True,
        )
    return run_server(server)


def _build_replay_parser(prog: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Deterministic workload-trace replay against the "
                    "query service: same manifest + seed => identical "
                    "query-answer transcript; p50/p99 latency and "
                    "throughput land in the metrics registry and the "
                    "run-history store (docs/serving.md).",
    )
    parser.add_argument("manifest", metavar="MANIFEST",
                        help="replay manifest (JSON; see "
                             "examples/manifests/)")
    parser.add_argument("--server", default=None, metavar="URL",
                        help="replay against a running server instead "
                             "of self-hosting a fresh in-process one "
                             "(self-hosting is what the determinism "
                             "guarantee is stated against)")
    parser.add_argument("--time-scale", dest="time_scale", type=float,
                        default=None, metavar="F",
                        help="scale the manifest's arrival gaps "
                             "(0 = issue as fast as the slots allow; "
                             "default: the manifest's time_scale)")
    parser.add_argument("--retries", type=int, default=2, metavar="K",
                        help="transport retries per query before the "
                             "tenant worker quarantines its trace "
                             "(default 2)")
    parser.add_argument("--transcript", default=None, metavar="PATH",
                        help="write the deterministic transcript JSON "
                             "to PATH")
    parser.add_argument("--metrics-out", dest="metrics_out", default=None,
                        metavar="PATH",
                        help="write the replay metrics registry: "
                             "Prometheus text, or JSON when PATH ends "
                             "in .json")
    parser.add_argument("--history", default=None, metavar="DB",
                        help="ingest replay latency/throughput into "
                             "the run-history store (rendered by "
                             "'repro history dash')")
    parser.add_argument("--cache-entries", dest="cache_entries", type=int,
                        default=8, metavar="N",
                        help="artifact cache size of the self-hosted "
                             "server (ignored with --server)")
    parser.add_argument("--trace", action="store_true",
                        help="enable span capture on the self-hosted "
                             "server (per-request stage trees; the "
                             "transcript stays bit-identical to an "
                             "untraced run); with --server, start the "
                             "remote server with 'repro serve --trace' "
                             "instead")
    parser.add_argument("--chaos", action="store_true",
                        help="kill-and-restart drill: run the server as "
                             "a subprocess with injected crashes at the "
                             "ledger/spill boundaries, restart it every "
                             "time it dies, and assert no-overdraft, "
                             "no-double-spend, byte-identical artifacts "
                             "and a deterministic transcript "
                             "(requires --state-dir)")
    parser.add_argument("--state-dir", dest="state_dir", default=None,
                        metavar="DIR",
                        help="durable state directory for --chaos (the "
                             "ledger, artifact store, fault plan, and "
                             "chaos report/transcript live here)")
    parser.add_argument("--tenant-budget", dest="tenant_budget",
                        type=float, default=100.0, metavar="EPS",
                        help="default tenant budget for the chaos "
                             "server and baseline (default 100)")
    return parser


def _load_manifest(path: str):
    """Load a replay manifest, turning a missing or bad file into usage."""
    from repro.serve.replay import load_manifest

    manifest_path = Path(path)
    if not manifest_path.exists():
        raise _UsageError(f"manifest {manifest_path} does not exist")
    try:
        return load_manifest(manifest_path)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _replay_chaos(args: argparse.Namespace) -> int:
    """The ``repro replay --chaos`` drill (see repro.serve.chaos)."""
    from repro.serve.chaos import run_chaos_replay

    if args.state_dir is None:
        raise _UsageError("--chaos requires --state-dir")
    if args.server is not None:
        raise _UsageError("--chaos manages its own server; drop --server")
    manifest = _load_manifest(args.manifest)
    try:
        report = run_chaos_replay(
            manifest, args.state_dir,
            tenant_budget=args.tenant_budget,
            retries=max(args.retries, 6),
        )
    except (RuntimeError, TimeoutError, OSError) as exc:
        print(f"error: chaos replay failed: {exc}", file=sys.stderr)
        return 1
    for line in report.summary_lines():
        print(line)
    print(f"wrote {Path(args.state_dir) / 'chaos_report.json'}")
    print(f"wrote {Path(args.state_dir) / 'chaos_transcript.json'}")
    return 0 if report.ok else 1


def _run_replay(args: argparse.Namespace) -> int:
    """Replay a manifest against a fresh or a running server."""
    import json as json_mod

    from repro.obs.metrics import MetricsRegistry
    from repro.robust.atomicio import atomic_write_text
    from repro.serve.replay import record_replay_metrics, run_replay

    if args.chaos:
        return _replay_chaos(args)
    manifest = _load_manifest(args.manifest)
    previous_trace = None
    if args.trace:
        from repro.obs import trace

        previous_trace = trace.set_enabled(True)
    try:
        result = run_replay(
            manifest,
            base_url=args.server,
            time_scale=args.time_scale,
            retries=args.retries,
            cache_entries=args.cache_entries,
        )
    except (RuntimeError, TimeoutError, OSError) as exc:
        print(f"error: replay failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if args.trace:
            from repro.obs import trace

            trace.set_enabled(previous_trace)
    registry = MetricsRegistry()
    record_replay_metrics(result, registry)
    for line in result.summary_lines():
        print(line)
    if args.transcript:
        atomic_write_text(
            Path(args.transcript),
            json_mod.dumps(result.transcript(), indent=2,
                           sort_keys=True) + "\n",
        )
        print(f"wrote {args.transcript}")
    if args.metrics_out:
        _write_metrics(registry, args.metrics_out)
        print(f"wrote {args.metrics_out}")
    if args.history:
        from repro.obs.history import HistoryStore, default_commit

        try:
            with HistoryStore(args.history) as store:
                outcome = store.ingest_metrics_payload(
                    registry.render_json(),
                    source=f"replay:{manifest.name}",
                    commit=default_commit(),
                )
            print(f"history: {args.history}: {outcome.describe()}")
        except Exception as exc:  # pragma: no cover - defensive firewall
            print(f"warning: history ingest failed: {exc}",
                  file=sys.stderr)
    return 1 if result.had_server_errors() else 0


# ---------------------------------------------------------------------------
# The 'history' command family (regression radar)
# ---------------------------------------------------------------------------

def _build_history_parser(prog: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Regression radar: ingest run artifacts into the "
                    "SQLite run-history store, detect accuracy/perf "
                    "drift against the closed-form error oracles, and "
                    "render trend dashboards (docs/observability.md).",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    ingest = sub.add_parser(
        "ingest",
        help="ingest checkpoint journals, BENCH_*.json snapshots, "
             "and --metrics-out JSON exports (type auto-detected; "
             "re-ingesting the same artifact is a no-op)",
    )
    ingest.add_argument("sources", nargs="+", metavar="PATH",
                        help="artifacts to ingest")
    ingest.add_argument("--db", required=True, metavar="DB",
                        help="history store path (created on first use)")
    ingest.add_argument("--commit", default=None, metavar="SHA",
                        help="commit stamp for the new rows (default: "
                             "REPRO_COMMIT, then git rev-parse HEAD)")
    ingest.add_argument("--bins", type=int, default=64, metavar="N",
                        help="sweep dataset size for offline oracle "
                             "anchoring (must match the sweep's "
                             "--bins-sweep; default 64)")
    ingest.add_argument("--total", type=int, default=50_000, metavar="N",
                        help="sweep dataset total for offline oracle "
                             "anchoring (default 50000)")
    ingest.add_argument("--rebuild", action="store_true",
                        help="also (re-)derive per-workload utility "
                             "rows from journal sources — scenario "
                             "datasets and workloads are reconstructed "
                             "offline from the spec names, so journals "
                             "whose trial rows are already ingested "
                             "gain utility trajectories without "
                             "re-running anything (idempotent)")

    drift = sub.add_parser(
        "drift",
        help="evaluate drift verdicts; exit 1 on confirmed drift "
             "(oracle-band violation / sustained perf CUSUM), 0 on "
             "ok/watch/no-data",
    )
    drift.add_argument("--db", required=True, metavar="DB")
    drift.add_argument("--json", default=None, metavar="PATH",
                       help="write the machine-readable verdict "
                            "document to PATH")
    drift.add_argument("--window", type=int, default=5, metavar="N",
                       help="trailing window for the longitudinal "
                            "z-score (default 5)")
    drift.add_argument("--z", type=float, default=4.0, metavar="Z",
                       help="z-score threshold for 'watch' (default 4)")
    drift.add_argument("--band-z", dest="band_z", type=float,
                       default=4.0, metavar="Z",
                       help="sigma multiplier of the oracle tolerance "
                            "band (default 4)")
    drift.add_argument("--cusum-h", dest="cusum_h", type=float,
                       default=5.0, metavar="H",
                       help="CUSUM alarm threshold for bench "
                            "trajectories (default 5)")

    dash = sub.add_parser(
        "dash",
        help="render the deterministic trend dashboard (markdown, or "
             "HTML when --out ends in .html)",
    )
    dash.add_argument("--db", required=True, metavar="DB")
    dash.add_argument("--out", default=None, metavar="PATH",
                      help="write to PATH instead of stdout")
    dash.add_argument("--format", choices=("md", "html"), default=None,
                      help="force the output format (default: from the "
                           "--out suffix, else markdown)")
    return parser


def _run_history(args: argparse.Namespace) -> int:
    """Ingest into, or read drift/dashboards from, the history store."""
    from repro.exceptions import HistoryError
    from repro.obs.history import HistoryStore

    if args.subcommand == "ingest":
        from repro.obs.history import sniff_source

        missing = [s for s in args.sources if not Path(s).is_file()]
        if missing:
            raise _UsageError(f"no such file(s): {', '.join(missing)}")
        try:
            with HistoryStore(args.db) as store:
                for source in args.sources:
                    result = store.ingest(
                        source, commit=args.commit,
                        n_bins=args.bins, total=args.total,
                    )
                    print(f"{source}: {result.describe()}")
                    if args.rebuild and sniff_source(source) == "journal":
                        utility = store.ingest_journal_utility(
                            source, commit=args.commit,
                            n_bins=args.bins, total=args.total,
                        )
                        print(f"{source}: {utility.describe()}")
        except HistoryError as exc:
            raise _UsageError(str(exc)) from None
        return 0

    _require_store(args.db)

    if args.subcommand == "drift":
        import json as json_mod

        from repro.obs.drift import (
            detect_drift,
            has_confirmed_drift,
            render_verdicts,
        )
        from repro.robust.atomicio import atomic_write_text

        with HistoryStore(args.db) as store:
            verdicts = detect_drift(
                store, window=args.window, z_thresh=args.z,
                band_z=args.band_z, cusum_h=args.cusum_h,
            )
        if args.json:
            doc = render_verdicts(verdicts)
            atomic_write_text(
                Path(args.json),
                json_mod.dumps(doc, indent=2, sort_keys=True) + "\n",
            )
            print(f"wrote {args.json}")
        by_status: Dict[str, int] = {}
        for verdict in verdicts:
            by_status[verdict.status] = by_status.get(verdict.status, 0) + 1
        summary = ", ".join(f"{by_status[s]} {s}"
                            for s in sorted(by_status)) or "no cells"
        print(f"drift: {summary}")
        for verdict in verdicts:
            if verdict.status in ("drift", "watch"):
                detail = "; ".join(verdict.details)
                print(f"  [{verdict.status}] {verdict.cell}: {detail}")
        return 1 if has_confirmed_drift(verdicts) else 0

    if args.subcommand == "dash":
        from repro.obs.dashboard import render_dashboard, write_dashboard

        if args.out:
            path = write_dashboard(args.db, args.out, fmt=args.format)
            print(f"wrote {path}")
        else:
            print(render_dashboard(args.db, fmt=args.format or "md"),
                  end="")
        return 0

    raise AssertionError(f"unhandled subcommand {args.subcommand!r}")


# ---------------------------------------------------------------------------
# The supervised sweeps: 'run' and 'scenarios'
# ---------------------------------------------------------------------------

def _ingest_sweep_history(args, specs, results, monitor, obs_metrics) -> None:
    """Append a finished sweep to the run-history store (``--history``).

    The sweep itself already succeeded; history bookkeeping must never
    flip its exit code, so every failure here degrades to a warning on
    stderr (mirroring the observer firewall in ``repro.obs.monitor``).
    """
    from repro.obs.history import (
        HistoryStore,
        default_commit,
        trial_row_from_record,
        utility_rows_from_record,
    )
    from repro.robust.journal import spec_fingerprint

    source = str(args.journal or "run")
    try:
        store = HistoryStore(args.history)
        try:
            commit = default_commit()
            rows = []
            utility_rows = []
            by_name = {spec.name: spec for spec in specs}
            for spec_name in sorted(results):
                spec = by_name.get(spec_name)
                histogram = spec.histogram if spec is not None else None
                workloads = (
                    {w.name: w for w in spec.workloads}
                    if spec is not None else None
                )
                fingerprint = (
                    spec_fingerprint(spec) if spec is not None else ""
                )
                for record in results[spec_name]:
                    rows.append(trial_row_from_record(
                        record, fingerprint, commit, histogram=histogram,
                    ))
                    utility_rows.extend(utility_rows_from_record(
                        record, fingerprint, commit,
                        histogram=histogram, workloads=workloads,
                    ))
            outcomes = [store.add_trials(rows, source=source)]
            if utility_rows:
                outcomes.append(store.add_utility(utility_rows,
                                                  source=source))
            outcomes.append(store.ingest_registry(
                obs_metrics.get_registry(), source=source, commit=commit,
            ))
            if monitor is not None and monitor.alerts:
                outcomes.append(store.add_alerts(
                    monitor.alerts, source=source, commit=commit,
                ))
            summary = "; ".join(o.describe() for o in outcomes)
            print(f"history: {args.history}: {summary}")
        finally:
            store.close()
    except Exception as exc:  # pragma: no cover - defensive firewall
        print(f"warning: history ingest failed: {exc}", file=sys.stderr)


def _sweep(args: argparse.Namespace, specs, title: Optional[str] = None) -> int:
    """The sweep body 'run' and 'scenarios' share.

    Runs ``specs`` under the supervised executor with the observer
    stack, prints the sweep table and summary line, auto-ingests into
    ``--history``, and lists quarantined trials (exit 1 when any).
    """
    from repro.experiments.tables import render_table
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace
    from repro.obs.monitor import (
        MetricsObserver,
        MultiObserver,
        ProgressMonitor,
        RunStats,
    )
    from repro.obs.resources import ENV_VAR as RESOURCE_ENV
    from repro.robust import faults
    from repro.robust.sweep import run_sweep, sweep_table

    # Observability wiring: tracing/probes activate via environment
    # variables so pool workers inherit them; supervisor-side events
    # flow through the observer stack.  RunStats is always on (it feeds
    # the end-of-run summary line); progress and metrics are opt-in.
    if args.trace:
        os.environ[obs_trace.ENV_VAR] = "1"
    if args.trace_resources:
        os.environ[RESOURCE_ENV] = "1"
    stats = RunStats()
    observers = [stats]
    monitor = None
    if args.progress != "none":
        total_trials = sum(len(spec.seeds) for spec in specs)
        try:
            monitor = ProgressMonitor(
                mode=args.progress,
                total_trials=total_trials,
                straggler_factor=args.straggler_factor,
            )
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
        observers.append(monitor)
    if args.metrics_out or args.history:
        observers.append(MetricsObserver(obs_metrics.get_registry()))

    try:
        results = run_sweep(
            specs,
            n_jobs=args.n_jobs,
            timeout=args.timeout,
            retries=args.retries,
            backoff=args.backoff,
            journal=args.journal,
            resume=args.resume,
            retry_failed=args.retry_failed,
            strict=args.strict,
            observer=MultiObserver(observers),
        )
    finally:
        if monitor is not None:
            monitor.close()
        if args.metrics_out:
            _write_metrics(obs_metrics.get_registry(), args.metrics_out)

    table, failures = sweep_table(results)
    if title is not None:
        table.title = title
    print(render_table(table))
    fault_hits = faults.total_hits() if os.environ.get(faults.ENV_VAR) \
        else None
    print(stats.summary_line(fault_hits=fault_hits))
    if args.history:
        _ingest_sweep_history(args, specs, results, monitor, obs_metrics)
    if failures:
        print()
        print(f"{len(failures)} quarantined trial(s):")
        for failed in failures:
            print(f"  {failed.describe()}")
        return 1
    return 0


def _build_run_parser(prog: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Fault-tolerant, journaled publisher sweep under the "
                    "supervised executor; --resume continues it "
                    "bit-identically (docs/robustness.md).",
    )
    parser.add_argument("--n-jobs", type=int, default=1, metavar="N",
                        help=_N_JOBS_HELP)
    parser.add_argument(
        "--dataset",
        default="age",
        help="sweep dataset: age, nettrace, searchlogs, socialnetwork",
    )
    parser.add_argument(
        "--bins-sweep",
        dest="bins_sweep",
        type=int,
        default=64,
        metavar="N",
        help="domain size of the sweep dataset",
    )
    parser.add_argument(
        "--total",
        type=int,
        default=50_000,
        help="total count of the sweep dataset",
    )
    parser.add_argument(
        "--publishers",
        default=None,
        metavar="A,B,...",
        help="comma-separated publisher roster (default: the paper's "
             "comparison roster)",
    )
    parser.add_argument(
        "--epsilons",
        default="0.1,0.5",
        metavar="E1,E2,...",
        help="comma-separated epsilon grid",
    )
    parser.add_argument(
        "--sweep-seeds",
        dest="sweep_seeds",
        type=int,
        default=3,
        metavar="N",
        help="seeds per cell (0..N-1)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-trial wall-clock budget in seconds; hung workers are "
             "killed and the seed retried (needs --n-jobs > 1)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="K",
        help="failed-attempt budget per seed before quarantine "
             "(exponential backoff between attempts)",
    )
    parser.add_argument(
        "--backoff",
        type=float,
        default=0.5,
        metavar="S",
        help="base of the exponential retry delay",
    )
    parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="JSONL checkpoint journal; every completed trial is "
             "appended atomically the moment it finishes",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="load fingerprint-matching entries from --journal and run "
             "only the missing seeds (bit-identical continuation)",
    )
    parser.add_argument(
        "--retry-failed",
        dest="retry_failed",
        action="store_true",
        help="with --resume: give journaled quarantined seeds fresh "
             "attempts instead of keeping their FailedRecords (use "
             "after fixing a transient failure, e.g. a worker OOM)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="fail fast on the first exhausted cell instead of "
             "quarantining it into a FailedRecord",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record per-stage span trees inside every trial "
             "(exported to workers via REPRO_TRACE; rides the journal "
             "in timing-exempt meta, so results stay bit-identical)",
    )
    parser.add_argument(
        "--trace-resources",
        dest="trace_resources",
        action="store_true",
        help="also record tracemalloc peak + getrusage per trial "
             "(REPRO_TRACE_RESOURCE; costs real time — attribution "
             "runs only)",
    )
    parser.add_argument(
        "--metrics-out",
        dest="metrics_out",
        default=None,
        metavar="PATH",
        help="write the metrics registry after the sweep: Prometheus "
             "textfile-collector format, or JSON when PATH ends in "
             ".json",
    )
    parser.add_argument(
        "--progress",
        choices=("none", "tty", "jsonl"),
        default="none",
        help="live progress on stderr: 'tty' = one rewritten status "
             "line with ETA and stragglers, 'jsonl' = one JSON object "
             "per executor event (default: none)",
    )
    parser.add_argument(
        "--straggler-factor",
        dest="straggler_factor",
        type=float,
        default=None,
        metavar="F",
        help="adaptive straggler threshold for --progress: flag a "
             "seed after F x the mean completed-trial duration "
             "(default: fixed 10s; env REPRO_STRAGGLER_FACTOR)",
    )
    parser.add_argument("--history", default=None, metavar="DB",
                        help=_HISTORY_HELP)
    return parser


def _run_sweep(args: argparse.Namespace) -> int:
    """Fault-tolerant, journaled publisher sweep (the 'run' command)."""
    from repro.robust.sweep import build_sweep_specs

    if args.retry_failed and not args.resume:
        raise _UsageError("--retry-failed requires --resume")
    epsilons = _epsilons(args.epsilons)
    try:
        specs = build_sweep_specs(
            dataset=args.dataset,
            n_bins=args.bins_sweep,
            total=args.total,
            publishers=_csv(args.publishers),
            epsilons=epsilons,
            n_seeds=args.sweep_seeds,
            n_jobs=args.n_jobs,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    return _sweep(args, specs)


def _build_scenarios_parser(prog: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Run DPBench-grade scenario families — dataset "
                    "shape x domain size x workload battery — through "
                    "the supervised executor, journal the trials, and "
                    "feed per-workload utility trajectories to the "
                    "regression radar (docs/evaluation.md).",
    )
    parser.add_argument("--list", action="store_true",
                        dest="list_scenarios",
                        help="list registered scenarios and exit")
    parser.add_argument("--scenarios", default=None, metavar="A,B,...",
                        help="comma-separated scenario names "
                             "(<family>/<label>; default: all)")
    parser.add_argument("--families", default=None, metavar="F1,F2,...",
                        help="comma-separated families — shorthand for "
                             "every scenario in them")
    parser.add_argument("--publishers", default=None, metavar="A,B,...",
                        help="comma-separated publisher roster "
                             "(default: the figure roster)")
    parser.add_argument("--epsilons", default=None,
                        metavar="E1,E2,...",
                        help="comma-separated epsilon grid "
                             "(default 0.1,1.0)")
    parser.add_argument("--seeds", type=int, default=None, metavar="N",
                        help="seeds per cell (default 3)")
    parser.add_argument("--quick", action="store_true",
                        help="shrink to 2 seeds, eps=1.0, and the "
                             "64-bin scenarios (unless overridden)")
    parser.add_argument("--n-jobs", dest="n_jobs", type=int, default=1,
                        metavar="N",
                        help="worker processes (1 = serial, -1 = all "
                             "CPUs); bit-identical to serial")
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help="JSONL checkpoint journal shared by the "
                             "whole run")
    parser.add_argument("--resume", action="store_true",
                        help="resume a journaled run (only missing "
                             "seeds execute)")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="S",
                        help="per-trial wall-clock budget (needs "
                             "--n-jobs > 1)")
    parser.add_argument("--retries", type=int, default=2, metavar="K",
                        help="failed-attempt budget per seed (default 2)")
    parser.add_argument("--history", default=None, metavar="DB",
                        help="run-history store: auto-ingest trial rows "
                             "AND per-workload utility rows (the "
                             "utility radar's data feed)")
    # The 'run'-only sweep knobs, fixed at the executor's defaults.
    parser.set_defaults(backoff=0.5, retry_failed=False, strict=False,
                        trace=False, trace_resources=False,
                        metrics_out=None, progress="none",
                        straggler_factor=None)
    return parser


def _run_scenarios(args: argparse.Namespace) -> int:
    """Sweep the scenario families (the 'scenarios' command)."""
    from repro.scenarios import build_scenario_specs, list_scenarios

    if args.list_scenarios:
        for scenario in list_scenarios():
            battery = len(scenario.workload_specs)
            print(f"{scenario.name:28s} n={scenario.n_bins:<5d} "
                  f"workloads={battery:<3d} {scenario.description}")
        return 0
    # The one place the effective defaults live; explicit values win.
    if args.epsilons is None:
        args.epsilons = "1.0" if args.quick else "0.1,1.0"
    if args.seeds is None:
        args.seeds = 2 if args.quick else 3
    epsilons = _epsilons(args.epsilons)
    names = _csv(args.scenarios) or []
    try:
        for family in _csv(args.families) or []:
            names.extend(s.name for s in list_scenarios(family))
        names = list(dict.fromkeys(names))  # dedup, keep order
        if args.quick and not names:
            names = [s.name for s in list_scenarios() if s.n_bins <= 64]
        specs = build_scenario_specs(
            scenarios=names or None,
            publishers=_csv(args.publishers),
            epsilons=epsilons,
            n_seeds=args.seeds,
            n_jobs=args.n_jobs,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    return _sweep(args, specs, title="scenario sweep")


def _build_paper_parser(prog: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Render the repro-paper publication bundle — "
                    "markdown + LaTeX tables and SVG crossover figures "
                    "— deterministically from the run-history store "
                    "(docs/evaluation.md).  Each artifact generates "
                    "inside its own error firewall; failures are "
                    "listed, not fatal to the rest.",
    )
    parser.add_argument("--db", required=True, metavar="DB",
                        help="run-history store to render from")
    parser.add_argument("--out", required=True, metavar="DIR",
                        help="output directory (paper.md, tables/, "
                             "figures/)")
    return parser


def _run_paper(args: argparse.Namespace) -> int:
    """Render the publication bundle from the history store."""
    from repro.exceptions import HistoryError
    from repro.experiments.paper import generate_paper

    _require_store(args.db)
    try:
        result = generate_paper(args.db, args.out)
    except HistoryError as exc:
        raise _UsageError(str(exc)) from None
    for path in result.written:
        print(f"wrote {path}")
    for name in sorted(result.skipped):
        print(f"skipped {name} (no data)")
    for artifact, error in result.failures:
        print(f"warning: {artifact} failed: {error}", file=sys.stderr)
    return 0 if result.ok else 1


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

_Command = Tuple[Callable[[str], argparse.ArgumentParser],
                 Callable[[argparse.Namespace], int]]

#: First token -> (parser builder, body).  Any other first token is an
#: experiment id (or ``all``), checked against the registry when it runs.
_COMMANDS: Dict[str, _Command] = {
    "verify": (_build_verify_parser, _run_verify),
    "bench": (_build_bench_parser, _run_bench),
    "run": (_build_run_parser, _run_sweep),
    "report": (_build_report_parser, _run_report),
    "history": (_build_history_parser, _run_history),
    "serve": (_build_serve_parser, _run_serve),
    "replay": (_build_replay_parser, _run_replay),
    "scenarios": (_build_scenarios_parser, _run_scenarios),
    "paper": (_build_paper_parser, _run_paper),
}
_EXPERIMENT: _Command = (_build_experiment_parser, _run_experiments)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    raw = list(argv) if argv is not None else sys.argv[1:]
    if not raw or raw[0].startswith("-"):
        parser = _build_top_parser()
        if not parser.parse_args(raw).list_experiments:
            parser.print_help()
            return 2
        from repro.experiments.registry import list_experiments

        for name in list_experiments():
            print(name)
        return 0

    command, rest = raw[0], raw[1:]
    build_parser, run = _COMMANDS.get(command, _EXPERIMENT)
    parser = build_parser(f"dphist {command}")
    parser.set_defaults(command=command)
    args = parser.parse_args(rest)
    try:
        _check_shared_flags(args)
        return run(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
