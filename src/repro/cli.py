"""Command-line interface: ``beegfs-repro`` / ``python -m repro``.

Subcommands
-----------

``list``
    Show every registered experiment with its paper reference.
``run EXP_ID [--reps N] [--seed S] [--out DIR] [--on-error {fail,skip}]
[--checkpoint PATH] [--resume] [--verify {off,basic,paranoid}]
[--workers N] [--no-cache] [--cache-dir DIR] [--cache-remote HOST:PORT]``
    Run one experiment (or ``all``), print its figure, optionally
    archive the raw records as CSV — the way the paper publishes its
    results repository.  ``--on-error skip`` quarantines raising runs
    instead of aborting the campaign (summarised on stderr, exit code
    1); ``--checkpoint``/``--resume`` make long campaigns crash-safe
    and restartable.  ``--verify`` turns on runtime invariant checking
    inside the engines; a violating run is quarantined like a crash
    under ``--on-error skip``.  ``--workers N`` executes runs in N
    worker processes with byte-identical results.  Previously-simulated
    (configuration, rep) pairs replay from the tiered content-addressed
    result cache — an in-process hot tier over the on-disk store
    (``$REPRO_CACHE_DIR`` or ``~/.cache/beegfs-repro``; override with
    ``--cache-dir``, disable with ``--no-cache``), plus an optional
    shared remote tier behind a ``repro serve`` instance
    (``--cache-remote HOST:PORT``; outages degrade to the local tiers).
    A cache summary is printed on stderr after the campaign.
``verify [--suite {invariants,conformance,replay,all}] [--level
{basic,paranoid}] [--reps N] [--seed S] [--golden PATH]
[--update-golden] [--inject {over-capacity,byte-loss,rng-perturb}]``
    Run the simulation guardrails: paranoid invariant sweeps over
    shipped experiment specs, fluid-vs-DES conformance against pinned
    goldens, and deterministic-replay proofs.  ``--inject`` seeds a
    deliberate violation and *expects* detection: exit 1 when the
    verifier catches it, exit 2 when it does not (the verifier itself
    is broken).
``calibration``
    Print the calibrated model parameters and their paper anchors.
``placements [--stripe-count K] [--samples N]``
    Show the (min, max) allocation distribution of each chooser.
``recommend [--scenario S | --system FILE] [--nodes N] [--ppn P]``
    Run the stripe-configuration advisor.
``system export PATH [--scenario S]``
    Write a JSON system description to edit for your own cluster.
``bench [--out DIR] [--workers N] [--quick] [--baseline FILE]
[--max-regression FRAC]``
    Run the tracked performance benchmarks (solver, fluid run, serial
    and parallel campaigns), write ``BENCH_<rev>.json``, and — with
    ``--baseline`` — fail (exit 1) on any norm-adjusted regression
    beyond the threshold.
``chaos [--workers N] [--seed S] [--only KIND] [--quiet]``
    Self-test the campaign orchestrator by injecting *real* faults —
    SIGKILL a worker mid-run, hang a run past its timeout, SIGKILL the
    whole campaign process, truncate a checkpoint, corrupt cache
    entries, deny the cache directory — and assert every campaign still
    completes with a byte-identical record store.  Exit 0 means all
    injections were survived.
``cache gc --max-bytes N [--cache-dir DIR] [--tier {disk,memory}]
[--dry-run]``
    Evict result-cache entries, least recently used first, until the
    tier fits in N bytes (accepts unit suffixes, e.g. ``500MiB``).
    Cache hits touch entry mtimes, so disk eviction order is true LRU.
    ``--dry-run`` reports what would be evicted without deleting
    anything.
``cache stats [--cache-dir DIR] [--remote HOST:PORT]``
    Per-tier occupancy (entries, bytes, quarantined corrupt files) and
    this process's probe tallies with hit ratios; with ``--remote``,
    also the serving host's remote-tier tally.
``serve --state-dir DIR [--host H] [--port P] [--workers N]
[--max-pending N] [--io-timeout-s S] [--session-lease-s S]
[--telemetry PATH] [--trace] [--metrics-port P] [--slo-* ...]``
    Run the networked allocation orchestrator: a long-lived server that
    admits (fingerprint, rep) jobs from remote clients, executes them
    through the simulation service, and journals every admission so a
    killed server restarts with its campaign intact.  ``SIGTERM``
    drains gracefully (stop admitting, finish leased jobs, exit 0).
    ``--trace`` stamps events with deterministic distributed-trace ids;
    ``--metrics-port`` serves Prometheus text exposition on
    ``GET /metrics``; the ``--slo-*`` knobs tune the sliding-window SLO
    tracking surfaced as ``server.slo`` events.
``submit EXP_ID --remote HOST:PORT [--reps N] [--seed S] [--out DIR]
[--priority {interactive,batch}] [--deadline-s S] [--no-fallback]
[--telemetry PATH] [--trace]``
    Run one experiment's campaign against a remote ``serve`` instance
    under the paper's exact protocol; records are byte-identical to a
    local ``run``.  Transient faults retry with backoff; with fallback
    enabled (default) an unreachable server degrades to local
    execution instead of failing the campaign.
``trace PATH [PATH ...] [--export FILE] [--check] [--job FP] [--limit N]``
    Reconstruct per-job distributed span trees from one or more traced
    event streams (client + server + workers; directories expand to
    their ``*.jsonl``), print a causal timeline with queue-wait / run /
    cache breakdowns, optionally export Chrome-trace/Perfetto JSON
    (``--export``), and — with ``--check`` — exit 1 unless every
    admitted job shows its complete submit → admit → lease → complete
    chain.
``top --remote HOST:PORT [--interval S] [--iterations N]``
    Live ops view of a running ``serve`` instance: admission window,
    queue depths, per-worker state, cache hit ratio and SLO burn rate,
    refreshed every ``--interval`` seconds (``--iterations 0`` runs
    until interrupted).
``stats PATH``
    Render the campaign dashboard from a ``--telemetry`` JSONL stream:
    progress, failure rates, bandwidth distributions (with bimodality
    verdicts), fault windows, server timelines and the final metrics.
``tail PATH [--follow] [--validate] [--quiet]``
    Pretty-print a telemetry event stream; ``--follow`` keeps reading
    as a campaign appends, ``--validate`` checks every line against the
    versioned JSONL schema (exit 1 on any problem — the CI gate).

Every subcommand turns a :class:`~repro.errors.ReproError` into a
one-line structured ``error[Type]: message`` on stderr and exit code 1
instead of a traceback.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import ExitStack
from pathlib import Path

from . import __version__
from .analysis.allocation import placement_distribution, random_placement_probabilities
from .calibration.fitting import anchor_report
from .calibration.plafrim import SCENARIOS, scenario_by_name
from .errors import ReproError
from .experiments.registry import get_experiment, list_experiments

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beegfs-repro",
        description="Reproduction of 'The role of storage target allocation in "
        "applications' I/O performance with BeeGFS' (CLUSTER 2022)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the reproducible experiments")

    run_p = sub.add_parser("run", help="run one experiment (or 'all')")
    run_p.add_argument("exp_id", help="experiment id (see 'list'), or 'all'")
    run_p.add_argument("--reps", type=int, default=None, help="repetitions (default: paper's)")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--out", type=Path, default=None, help="directory for CSV records")
    run_p.add_argument("--quiet", action="store_true", help="suppress progress lines")
    run_p.add_argument(
        "--on-error",
        choices=["fail", "skip"],
        default="fail",
        help="'skip' quarantines raising runs and continues (default: fail fast)",
    )
    run_p.add_argument(
        "--checkpoint",
        type=Path,
        default=None,
        help="JSON checkpoint file, written after every 10 executed runs (cache "
        "hits do not count; a resume re-serves them from the cache) and at the "
        "end (per-experiment suffix when running 'all')",
    )
    run_p.add_argument(
        "--resume",
        action="store_true",
        help="skip runs already in the checkpoint (requires --checkpoint)",
    )
    run_p.add_argument(
        "--verify",
        choices=["off", "basic", "paranoid"],
        default="off",
        help="runtime invariant checking inside the engines; violating runs "
        "are quarantined (default: off)",
    )
    run_p.add_argument(
        "--telemetry",
        type=Path,
        default=None,
        metavar="PATH",
        help="append a structured JSONL event stream (see 'tail'/'stats')",
    )
    run_p.add_argument(
        "--telemetry-level",
        choices=["info", "debug"],
        default="info",
        help="'debug' adds per-flow and per-segment events (large streams)",
    )
    run_p.add_argument(
        "--trace",
        action="store_true",
        help="stamp telemetry events with deterministic distributed-trace ids "
        "(see 'trace'); results stay byte-identical",
    )
    run_p.add_argument(
        "--profile",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="span-profile the simulation hot paths; report on stderr",
    )
    run_p.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="execute runs in N worker processes; results are byte-identical "
        "to a serial campaign (default: 1)",
    )
    run_p.add_argument(
        "--no-cache",
        action="store_true",
        help="always execute; do not read or write the result cache",
    )
    run_p.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="result cache directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/beegfs-repro)",
    )
    run_p.add_argument(
        "--cache-remote",
        default=None,
        metavar="HOST:PORT",
        help="also use a 'repro serve' instance as a shared remote cache "
        "tier (read-through/write-behind; outages degrade to local tiers)",
    )

    verify_p = sub.add_parser("verify", help="run the simulation guardrails")
    verify_p.add_argument(
        "--suite",
        choices=["invariants", "conformance", "replay", "all"],
        default="all",
    )
    verify_p.add_argument(
        "--level",
        choices=["basic", "paranoid"],
        default="paranoid",
        help="invariant-checking depth (default: paranoid)",
    )
    verify_p.add_argument("--reps", type=int, default=2, help="repetitions per invariant spec")
    verify_p.add_argument("--seed", type=int, default=0)
    verify_p.add_argument(
        "--golden",
        type=Path,
        default=None,
        help="golden store path (default: tests/golden/conformance.json)",
    )
    verify_p.add_argument(
        "--update-golden",
        action="store_true",
        help="re-pin the conformance goldens from this run",
    )
    verify_p.add_argument(
        "--inject",
        choices=["over-capacity", "byte-loss", "rng-perturb"],
        default=None,
        help="seed a deliberate violation; exit 1 = detected (good), "
        "exit 2 = missed (verifier broken)",
    )
    verify_p.add_argument("--quiet", action="store_true", help="suppress progress lines")

    sub.add_parser("calibration", help="print calibrated parameters and anchors")

    place_p = sub.add_parser("placements", help="chooser placement distributions")
    place_p.add_argument("--stripe-count", type=int, default=4)
    place_p.add_argument("--samples", type=int, default=300)

    rec_p = sub.add_parser("recommend", help="stripe configuration advisor")
    rec_p.add_argument("--scenario", choices=list(SCENARIOS), default="scenario1")
    rec_p.add_argument("--system", type=Path, default=None,
                       help="JSON system file (see 'system export') instead of a scenario")
    rec_p.add_argument("--nodes", type=int, default=8)
    rec_p.add_argument("--ppn", type=int, default=8)

    exp_p = sub.add_parser("explain", help="bottleneck attribution of one run")
    exp_p.add_argument("--scenario", choices=list(SCENARIOS), default="scenario1")
    exp_p.add_argument("--nodes", type=int, default=8)
    exp_p.add_argument("--ppn", type=int, default=8)
    exp_p.add_argument("--stripe-count", type=int, default=4)
    exp_p.add_argument("--chooser", default=None)
    exp_p.add_argument("--rep", type=int, default=0)

    sys_p = sub.add_parser("system", help="export a system description as JSON")
    sys_p.add_argument("action", choices=["export"])
    sys_p.add_argument("path", type=Path)
    sys_p.add_argument("--scenario", choices=list(SCENARIOS), default="scenario1")

    bench_p = sub.add_parser("bench", help="run the tracked performance benchmarks")
    bench_p.add_argument(
        "--out",
        type=Path,
        default=Path("benchmarks"),
        help="directory for the BENCH_<rev>.json report (default: benchmarks/)",
    )
    bench_p.add_argument(
        "--workers",
        type=int,
        default=4,
        metavar="N",
        help="worker count for the parallel-campaign bench (default: 4)",
    )
    bench_p.add_argument(
        "--quick",
        action="store_true",
        help="reduced batches/repetitions (CI smoke mode)",
    )
    bench_p.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline BENCH_*.json to compare against (exit 1 on regression)",
    )
    bench_p.add_argument(
        "--max-regression",
        type=float,
        default=0.30,
        metavar="FRAC",
        help="norm-adjusted regression threshold vs the baseline (default: 0.30)",
    )

    chaos_p = sub.add_parser(
        "chaos", help="self-test the orchestrator by injecting real faults"
    )
    chaos_p.add_argument(
        "--workers",
        type=int,
        default=4,
        metavar="N",
        help="worker count for the parallel injections (default: 4)",
    )
    chaos_p.add_argument("--seed", type=int, default=0)
    chaos_p.add_argument(
        "--only",
        action="append",
        default=None,
        metavar="KIND",
        help="run only this injection (repeatable; see 'chaos --help' output "
        "for the kinds)",
    )
    chaos_p.add_argument("--quiet", action="store_true", help="suppress progress lines")

    cache_p = sub.add_parser("cache", help="manage the tiered result cache")
    cache_sub = cache_p.add_subparsers(dest="action", required=True)
    cache_gc_p = cache_sub.add_parser(
        "gc", help="evict entries, least recently used first, to a size bound"
    )
    cache_gc_p.add_argument(
        "--max-bytes",
        required=True,
        metavar="N",
        help="target cache size; unit suffixes accepted (e.g. 500MiB, 2GiB)",
    )
    cache_gc_p.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="result cache directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/beegfs-repro)",
    )
    cache_gc_p.add_argument(
        "--tier",
        choices=["disk", "memory"],
        default="disk",
        help="which tier to collect (default: disk; the remote tier is "
        "collected on its serving host)",
    )
    cache_gc_p.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be evicted without deleting anything",
    )
    cache_stats_p = cache_sub.add_parser(
        "stats", help="per-tier occupancy and probe tallies"
    )
    cache_stats_p.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="result cache directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/beegfs-repro)",
    )
    cache_stats_p.add_argument(
        "--remote",
        default=None,
        metavar="HOST:PORT",
        help="include a remote tier served by this 'repro serve' instance",
    )

    serve_p = sub.add_parser(
        "serve", help="run the networked allocation orchestrator server"
    )
    serve_p.add_argument(
        "--state-dir",
        type=Path,
        required=True,
        metavar="DIR",
        help="durable server state: job WAL, session WAL, specs, result cache",
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (0 binds an ephemeral port; the bound port is printed)",
    )
    serve_p.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="job worker threads (execution itself is serialized; workers "
        "pipeline journal writes, cache replays and client waits)",
    )
    serve_p.add_argument(
        "--max-pending",
        type=int,
        default=64,
        metavar="N",
        help="admission window: jobs admitted but not finished (default: 64)",
    )
    serve_p.add_argument(
        "--io-timeout-s",
        type=float,
        default=10.0,
        metavar="S",
        help="per-recv socket deadline; slower clients are evicted",
    )
    serve_p.add_argument(
        "--session-lease-s",
        type=float,
        default=30.0,
        metavar="S",
        help="client session lease; silent clients are evicted after this",
    )
    serve_p.add_argument(
        "--telemetry",
        type=Path,
        default=None,
        metavar="PATH",
        help="append the server's structured JSONL event stream",
    )
    serve_p.add_argument(
        "--trace",
        action="store_true",
        help="stamp server events with deterministic distributed-trace ids",
    )
    serve_p.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="P",
        help="serve Prometheus text exposition on GET /metrics (0 binds an "
        "ephemeral port; the bound port is printed)",
    )
    serve_p.add_argument(
        "--slo-queue-wait-p99-s",
        type=float,
        default=2.0,
        metavar="S",
        help="SLO target: admitted jobs wait at most this at p99 (default: 2.0)",
    )
    serve_p.add_argument(
        "--slo-max-shed-rate",
        type=float,
        default=0.05,
        metavar="FRAC",
        help="SLO budget: fraction of submissions that may shed (default: 0.05)",
    )
    serve_p.add_argument(
        "--slo-min-hit-ratio",
        type=float,
        default=0.0,
        metavar="FRAC",
        help="SLO floor on the cache hit ratio; 0 disables it (default: 0)",
    )
    serve_p.add_argument(
        "--slo-window",
        type=int,
        default=128,
        metavar="N",
        help="sliding-window size per SLO signal (default: 128)",
    )
    serve_p.add_argument(
        "--slo-every",
        type=int,
        default=8,
        metavar="N",
        help="emit a server.slo event every N completions (default: 8)",
    )

    submit_p = sub.add_parser(
        "submit", help="run one experiment's campaign against a remote server"
    )
    submit_p.add_argument("exp_id", help="experiment id (see 'list')")
    submit_p.add_argument(
        "--remote",
        required=True,
        metavar="HOST:PORT",
        help="address of a running 'serve' instance",
    )
    submit_p.add_argument(
        "--reps", type=int, default=None, help="repetitions (default: paper's)"
    )
    submit_p.add_argument("--seed", type=int, default=0)
    submit_p.add_argument(
        "--out", type=Path, default=None, help="directory for CSV records"
    )
    submit_p.add_argument(
        "--priority",
        choices=["interactive", "batch"],
        default="batch",
        help="admission priority class (default: batch)",
    )
    submit_p.add_argument(
        "--deadline-s",
        type=float,
        default=None,
        metavar="S",
        help="overall per-run deadline (submit + wait + retries)",
    )
    submit_p.add_argument(
        "--no-fallback",
        action="store_true",
        help="fail instead of degrading to local execution when the server "
        "stays unreachable",
    )
    submit_p.add_argument(
        "--quiet", action="store_true", help="suppress progress lines"
    )
    submit_p.add_argument(
        "--telemetry",
        type=Path,
        default=None,
        metavar="PATH",
        help="append the client's structured JSONL event stream",
    )
    submit_p.add_argument(
        "--trace",
        action="store_true",
        help="stamp client events with deterministic distributed-trace ids "
        "(pair with the server's --trace for end-to-end traces)",
    )

    trace_p = sub.add_parser(
        "trace", help="reconstruct distributed span trees from event streams"
    )
    trace_p.add_argument(
        "paths",
        type=Path,
        nargs="+",
        help="traced JSONL streams (client, server, workers); a directory "
        "expands to its *.jsonl files",
    )
    trace_p.add_argument(
        "--export",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the merged Chrome-trace/Perfetto JSON here",
    )
    trace_p.add_argument(
        "--check",
        action="store_true",
        help="exit 1 unless every admitted job has a complete span tree",
    )
    trace_p.add_argument(
        "--job",
        default=None,
        metavar="FP",
        help="only jobs whose fingerprint or trace id starts with this",
    )
    trace_p.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="render at most N jobs in the timeline",
    )

    top_p = sub.add_parser("top", help="live ops view of a running server")
    top_p.add_argument(
        "--remote",
        required=True,
        metavar="HOST:PORT",
        help="address of a running 'serve' instance",
    )
    top_p.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="S",
        help="refresh period in seconds (default: 2.0)",
    )
    top_p.add_argument(
        "--iterations",
        type=int,
        default=0,
        metavar="N",
        help="stop after N refreshes (0 = run until interrupted)",
    )

    stats_p = sub.add_parser("stats", help="campaign dashboard from a telemetry stream")
    stats_p.add_argument("path", type=Path, help="JSONL stream written by 'run --telemetry'")
    stats_p.add_argument(
        "--no-timelines", action="store_true", help="omit the per-server timeline panel"
    )

    tail_p = sub.add_parser("tail", help="pretty-print a telemetry event stream")
    tail_p.add_argument("path", type=Path, help="JSONL stream written by 'run --telemetry'")
    tail_p.add_argument(
        "--follow", action="store_true", help="keep reading as the campaign appends"
    )
    tail_p.add_argument(
        "--validate",
        action="store_true",
        help="check every line against the JSONL schema; exit 1 on any problem",
    )
    tail_p.add_argument("--quiet", action="store_true", help="suppress the event lines")
    return parser


def _cmd_list() -> int:
    print(f"{'id':10s} {'runs':>6s} {'paper ref':42s} title")
    for info in list_experiments():
        size = info.sweep_size()
        runs = "-" if size is None else str(size)
        print(f"{info.exp_id:10s} {runs:>6s} {info.paper_ref:42s} {info.title}")
    return 0


def _checkpoint_path_for(base: Path | None, exp_id: str, multiple: bool) -> Path | None:
    """Per-experiment checkpoint file when one invocation runs several."""
    if base is None or not multiple:
        return base
    suffix = base.suffix or ".json"
    return base.with_name(f"{base.stem}.{exp_id}{suffix}")


def _cmd_run(args: argparse.Namespace) -> int:
    from . import service
    from .errors import CampaignInterrupted
    from .experiments.common import protocol_options
    from .orchestrator.interrupts import EXIT_INTERRUPTED, handle_signals
    from .telemetry.bus import session as telemetry_session
    from .telemetry.profiling import profiling

    if args.resume and args.checkpoint is None:
        print("error: --resume requires --checkpoint", file=sys.stderr)
        return 2
    ids = [i.exp_id for i in list_experiments()] if args.exp_id == "all" else [args.exp_id]
    progress = None if args.quiet else lambda msg: print(f"  .. {msg}", file=sys.stderr)
    quarantined = 0
    interrupted: CampaignInterrupted | None = None
    interrupted_exp = ids[0]
    stats_before = service.cache_stats()
    with ExitStack() as stack:
        # SIGINT/SIGTERM drain in-flight runs, checkpoint, and surface as
        # CampaignInterrupted instead of a traceback (second hit: raw exit).
        stack.enter_context(handle_signals())
        if args.telemetry is not None:
            stack.enter_context(
                telemetry_session(
                    jsonl=args.telemetry,
                    level=args.telemetry_level,
                    trace=args.trace,
                )
            )
        elif args.trace:
            print(
                "note: --trace has no effect without --telemetry (there is no "
                "stream to stamp)",
                file=sys.stderr,
            )
        profiler = stack.enter_context(profiling(args.profile)) if args.profile else None
        stack.enter_context(
            service.cache_config(
                cache=False if args.no_cache else None,
                cache_dir=args.cache_dir,
                cache_remote=args.cache_remote,
            )
        )
        try:
            for exp_id in ids:
                interrupted_exp = exp_id
                info = get_experiment(exp_id)
                reps = args.reps if args.reps is not None else info.default_repetitions
                kwargs = {"repetitions": reps, "seed": args.seed}
                print(f"== {info.exp_id}: {info.title} ({info.paper_ref}, {reps} reps) ==")
                with protocol_options(
                    on_error=args.on_error,
                    checkpoint=_checkpoint_path_for(args.checkpoint, exp_id, len(ids) > 1),
                    resume=args.resume,
                    validation=args.verify if args.verify != "off" else None,
                    workers=args.workers if args.workers > 1 else None,
                ):
                    output = info.run(progress=progress, **kwargs)
                print(output.figure)
                if output.notes:
                    print(f"\nnotes: {output.notes}")
                if args.out is not None and len(output.records) > 0:
                    path = args.out / f"{exp_id}.csv"
                    output.records.write_csv(path)
                    print(f"records written to {path}")
                for failure in output.records.failures:
                    quarantined += 1
                    print(
                        f"quarantined: {failure.spec_key} rep {failure.rep}: "
                        f"{failure.error_type}: {failure.message}",
                        file=sys.stderr,
                    )
                print()
        except CampaignInterrupted as exc:
            interrupted = exc
        if profiler is not None:
            print(profiler.render(), file=sys.stderr)
        if args.telemetry is not None:
            print(f"telemetry stream appended to {args.telemetry}", file=sys.stderr)
    delta = {
        key: value - stats_before.get(key, 0)
        for key, value in service.cache_stats().items()
    }
    line = (
        "cache: {hit} hit(s), {miss} miss(es), {bypassed} bypassed, "
        "{uncached} uncached".format(**delta)
    )
    if delta.get("degraded") or delta.get("error"):
        line += ", {degraded} degraded, {error} cache error(s)".format(**delta)
    print(line, file=sys.stderr)
    if interrupted is not None:
        if interrupted.checkpoint is not None:
            print(
                f"interrupted by {interrupted.signal}; progress checkpointed. "
                f"resume with: beegfs-repro run {interrupted_exp} "
                f"--checkpoint {interrupted.checkpoint} --resume",
                file=sys.stderr,
            )
        else:
            print(
                f"interrupted by {interrupted.signal}; no --checkpoint was "
                "configured, so progress was not saved",
                file=sys.stderr,
            )
        return EXIT_INTERRUPTED
    if quarantined:
        print(
            f"{quarantined} run(s) quarantined; re-run with --resume to retry them",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    # Imported lazily: the chaos harness pulls in the runners.
    from .orchestrator.chaos import run_chaos

    progress = None if args.quiet else lambda msg: print(f"  .. {msg}", file=sys.stderr)
    report = run_chaos(
        workers=args.workers, seed=args.seed, only=args.only, progress=progress
    )
    print(report.render())
    return 0 if report.ok else 1


def _cmd_cache(args: argparse.Namespace) -> int:
    if args.action == "stats":
        return _cmd_cache_stats(args)
    return _cmd_cache_gc(args)


def _cmd_cache_gc(args: argparse.Namespace) -> int:
    from .service import ResultCache, get_service
    from .units import parse_size

    cache = ResultCache(args.cache_dir)
    where = cache.root if args.tier == "disk" else "the hot tier"
    if args.tier == "disk":
        summary = cache.gc(int(parse_size(args.max_bytes)), dry_run=args.dry_run)
    else:
        # A fresh CLI process has an empty hot tier; this path exists
        # for embedders and symmetry, and reports honestly.
        tiers = get_service()._tiered(args.cache_dir)
        summary = tiers.gc(
            int(parse_size(args.max_bytes)), tier="memory", dry_run=args.dry_run
        )
    if args.dry_run:
        print(
            f"cache gc ({args.tier}) in {where} (dry run): "
            f"{summary['scanned']} entr(y/ies) scanned, "
            f"{summary['evicted']} would be evicted "
            f"({summary['freed_bytes']} bytes would be freed), "
            f"{summary['remaining_bytes']} bytes would remain"
        )
    else:
        print(
            f"cache gc ({args.tier}) in {where}: "
            f"{summary['scanned']} entr(y/ies) scanned, "
            f"{summary['evicted']} evicted ({summary['freed_bytes']} bytes freed), "
            f"{summary['remaining_bytes']} bytes remain"
        )
    return 0


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    from .service import get_service

    tiers = get_service()._tiered(args.cache_dir, args.remote)
    for tier, info in tiers.stats().items():
        hits = int(info.get("hit", 0))
        probes = hits + int(info.get("miss", 0))
        ratio = f"{hits / probes:.2f}" if probes else "n/a"
        keys = (
            "entries",
            "bytes",
            "corrupt",
            "root",
            "address",
            "pending_puts",
            "puts",
            "put_errors",
            "hit",
            "miss",
            "error",
            "degraded",
        )
        detail = ", ".join(f"{k}={info[k]}" for k in keys if k in info)
        print(f"{tier}: {detail}, hit_ratio={ratio}")
    if args.remote:
        # Best effort: ask the serving host for its side of the tally.
        from .cache.remote import RemoteTier
        from .server.protocol import message

        tier = RemoteTier.from_address(args.remote, timeout_s=3.0)
        try:
            reply = tier._roundtrip(message("stats"))
            server_side = reply.get("remote_cache") or {}
            detail = ", ".join(f"{k}={v}" for k, v in sorted(server_side.items()))
            print(f"remote (server side): {detail or 'no tally'}")
        except OSError as exc:
            print(f"remote (server side): unreachable ({exc})", file=sys.stderr)
        finally:
            tier.close()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from .server import OrchestratorServer, ServerConfig
    from .telemetry.bus import session as telemetry_session

    config = ServerConfig(
        state_dir=args.state_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_pending=args.max_pending,
        io_timeout_s=args.io_timeout_s,
        session_lease_s=args.session_lease_s,
        metrics_port=args.metrics_port,
        slo_queue_wait_p99_s=args.slo_queue_wait_p99_s,
        slo_max_shed_rate=args.slo_max_shed_rate,
        slo_min_hit_ratio=args.slo_min_hit_ratio,
        slo_window=args.slo_window,
        slo_every=args.slo_every,
    )
    with ExitStack() as stack:
        if args.telemetry is not None:
            stack.enter_context(
                telemetry_session(jsonl=args.telemetry, trace=args.trace)
            )
        server = OrchestratorServer(config).start()

        def _drain(signum: int, _frame: object) -> None:
            server.request_drain(signal.Signals(signum).name)

        signal.signal(signal.SIGTERM, _drain)
        signal.signal(signal.SIGINT, _drain)
        acceptor = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.1}, daemon=True
        )
        acceptor.start()
        recovered = len(server.queue.entries)
        metrics_note = (
            f", metrics on :{server.metrics_port}"
            if server.metrics_port is not None
            else ""
        )
        print(
            f"serving on {config.host}:{server.port} "
            f"(state: {config.state_dir}, {recovered} journaled job(s), "
            f"{server.sessions.resumed} resumed session(s){metrics_note})",
            flush=True,
        )
        try:
            # Signal handlers run on this thread between polls; the
            # drained event fires once the in-flight tail finishes.
            while not server.wait_drained(timeout=0.5):
                pass
        finally:
            server.close()
            acceptor.join(timeout=5.0)
        print("drained; all leased jobs finished, state checkpointed", file=sys.stderr)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .client import remote_run_specs
    from .errors import RemoteError
    from .telemetry.bus import session as telemetry_session

    host, _, port_text = args.remote.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        print(f"error: --remote must be HOST:PORT, got {args.remote!r}", file=sys.stderr)
        return 2
    info = get_experiment(args.exp_id)
    if info.specs is None:
        raise RemoteError(
            f"experiment {args.exp_id!r} has no declarative sweep and cannot "
            "run remotely (its runs need a custom apps builder)"
        )
    specs = info.specs()
    reps = args.reps if args.reps is not None else info.default_repetitions
    progress = None if args.quiet else lambda msg: print(f"  .. {msg}", file=sys.stderr)
    print(
        f"== {info.exp_id}: {info.title} ({len(specs)} spec(s) x {reps} reps "
        f"via {host or '127.0.0.1'}:{port}) =="
    )
    with ExitStack() as stack:
        if args.telemetry is not None:
            stack.enter_context(
                telemetry_session(jsonl=args.telemetry, trace=args.trace)
            )
        elif args.trace:
            print(
                "note: --trace has no effect without --telemetry (there is no "
                "stream to stamp)",
                file=sys.stderr,
            )
        store = remote_run_specs(
            specs,
            host or "127.0.0.1",
            port,
            repetitions=reps,
            seed=args.seed,
            progress=progress,
            deadline_s=args.deadline_s,
            fallback=not args.no_fallback,
            priority=args.priority,
        )
    if args.out is not None and len(store) > 0:
        path = args.out / f"{args.exp_id}.csv"
        store.write_csv(path)
        print(f"records written to {path}")
    print(f"{len(store)} run(s) recorded", file=sys.stderr)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify.suite import run_suite

    progress = None if args.quiet else lambda msg: print(f"  .. {msg}", file=sys.stderr)
    report = run_suite(
        suite=args.suite,
        level=args.level,
        reps=args.reps,
        seed=args.seed,
        golden_path=args.golden,
        update_golden=args.update_golden,
        inject=args.inject,
        progress=progress,
    )
    print("\n".join(report.lines()))
    code = report.exit_code()
    if args.inject is not None:
        meaning = "injection detected" if code == 1 else "INJECTION MISSED"
        print(f"self-test: {meaning} (exit {code})", file=sys.stderr)
    return code


def _cmd_calibration() -> int:
    for name in SCENARIOS:
        calib = scenario_by_name(name)
        print(f"== {calib.name}: {calib.description} ==")
        print(f"  client/node (8 ppn): {calib.client.node_capacity(8):8.1f} MiB/s")
        print(f"  server ingest (sat): {calib.per_server_network_mib_s:8.1f} MiB/s")
        print(f"  pool S(1)..S(4):     "
              + ", ".join(f"{calib.pool.aggregate_mib_s(m):.0f}" for m in range(1, 5)))
        print(f"  SAN ceiling:         {calib.san_mib_s:8.1f} MiB/s")
        print(f"  request RTT:         {calib.request_rtt_s * 1e6:8.0f} us")
        print(f"  metadata overhead:   {calib.metadata_overhead_s:8.2f} s")
        print("  anchors (paper vs model):")
        for check in anchor_report(calib):
            print(
                f"    {check.name}: paper {check.paper_value:.0f}, "
                f"model {check.model_value:.0f} ({check.relative_error:+.1%})"
            )
        print()
    return 0


def _cmd_placements(args: argparse.Namespace) -> int:
    calib = scenario_by_name("scenario1")
    deployment = calib.deployment(stripe_count=args.stripe_count, keep_data=False)
    print(f"(min, max) distributions for stripe count {args.stripe_count}:")
    for chooser in ("roundrobin", "random", "balanced", "capacity"):
        dist = placement_distribution(
            deployment, args.stripe_count, chooser=chooser, samples=args.samples
        )
        probs = ", ".join(f"({lo},{hi}): {p * 100:.0f}%" for (lo, hi), p in dist.probabilities.items())
        print(f"  {chooser:10s} {probs}")
    exact = random_placement_probabilities(args.stripe_count)
    probs = ", ".join(f"({lo},{hi}): {p * 100:.1f}%" for (lo, hi), p in exact.items())
    print(f"  random (exact hypergeometric): {probs}")
    return 0


def _cmd_recommend(args: argparse.Namespace) -> int:
    from .analysis.advisor import advise

    if args.system is not None:
        from .config import load_system

        calib, _ = load_system(args.system)
    else:
        calib = scenario_by_name(args.scenario)
    print(f"advising for {calib.name} ({calib.description}), "
          f"{args.nodes} nodes x {args.ppn} ppn:\n")
    print(advise(calib, num_nodes=args.nodes, ppn=args.ppn).to_table())
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from .methodology.plan import ExperimentSpec
    from .scenario.compile import compile_scenario
    from .service import get_service

    calib = scenario_by_name(args.scenario)
    factors = {
        "stripe_count": args.stripe_count,
        "num_nodes": args.nodes,
        "ppn": args.ppn,
    }
    if args.chooser:
        factors["chooser"] = args.chooser
    spec = compile_scenario(
        ExperimentSpec("explain", args.scenario, factors),
        max_nodes=max(args.nodes, 2),
    )
    ctx = get_service().context(spec)
    result, report = ctx.engine.explain(ctx.make_apps(), rep=args.rep)
    run = result.single
    print(
        f"{calib.name}: {args.nodes} nodes x {args.ppn} ppn, stripe "
        f"{args.stripe_count}, placement {run.placement_min_max}: "
        f"{run.bandwidth_mib_s:.0f} MiB/s\n"
    )
    print(report.to_text())
    by_kind = ", ".join(f"{k}: {v * 100:.0f}%" for k, v in report.by_kind().items() if v > 0.01)
    print(f"\nby class: {by_kind}")
    return 0


def _cmd_system(args: argparse.Namespace) -> int:
    from .config import save_system

    calib = scenario_by_name(args.scenario)
    save_system(args.path, calib, calib.deployment())
    print(f"system description for {calib.name} written to {args.path}")
    print("edit the JSON to describe your own cluster, then e.g.:")
    print(f"  beegfs-repro recommend --system {args.path}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import collect, compare, load_report, render, write_report

    report = collect(quick=args.quick, workers=args.workers)
    print(render(report))
    path = write_report(report, args.out)
    print(f"\nreport written to {path}", file=sys.stderr)
    if args.baseline is None:
        return 0
    regressions, lines = compare(report, load_report(args.baseline), args.max_regression)
    print()
    print("\n".join(lines))
    if regressions:
        for problem in regressions:
            print(f"regression: {problem}", file=sys.stderr)
        return 1
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .telemetry.report import CampaignReport

    report = CampaignReport.from_jsonl(args.path)
    print(report.render(timelines=not args.no_timelines))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from .telemetry.traceview import (
        check_traces,
        chrome_trace,
        collect_traces,
        load_streams,
        render_timeline,
    )

    events = load_streams(args.paths)
    traces = collect_traces(events)
    if args.job:
        needle = args.job
        traces = [
            t for t in traces if t.job.startswith(needle) or t.trace_id.startswith(needle)
        ]
    if args.limit is not None and args.limit >= 0:
        traces = traces[: args.limit]
    # Export before printing: a truncated stdout (| head) must not
    # cost the caller the artifact they asked for.
    if args.export is not None:
        args.export.parent.mkdir(parents=True, exist_ok=True)
        args.export.write_text(json.dumps(chrome_trace(traces), indent=1) + "\n")
        print(f"chrome trace written to {args.export}", file=sys.stderr)
    print(render_timeline(traces))
    if args.check:
        problems = check_traces(traces)
        if problems:
            for problem in problems:
                print(f"incomplete: {problem}", file=sys.stderr)
            return 1
        print(
            f"all {sum(1 for t in traces if t.admitted)} admitted job(s) have "
            "complete span trees",
            file=sys.stderr,
        )
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    from .client import RemoteClient
    from .server.ops import render_top

    host, _, port_text = args.remote.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        print(f"error: --remote must be HOST:PORT, got {args.remote!r}", file=sys.stderr)
        return 2
    host = host or "127.0.0.1"
    iteration = 0
    try:
        with RemoteClient(host, port, fallback=False) as client:
            while True:
                iteration += 1
                frame = client.ping()
                stats = {k: v for k, v in frame.items() if k not in ("v", "type")}
                print(render_top(stats, title=f"{host}:{port}"), flush=True)
                if args.iterations and iteration >= args.iterations:
                    break
                time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    return 0


def _cmd_tail(args: argparse.Namespace) -> int:
    import json
    import time

    from .errors import TelemetryError
    from .telemetry.bus import format_event
    from .telemetry.events import validate_event

    if not args.path.exists() and not args.follow:
        raise TelemetryError(f"no such telemetry stream: {args.path}")
    problems = 0
    lineno = 0

    def handle(line: str) -> None:
        nonlocal problems, lineno
        lineno += 1
        text = line.strip()
        if not text:
            return
        try:
            event = json.loads(text)
        except json.JSONDecodeError as exc:
            problems += 1
            print(f"line {lineno}: not valid JSON ({exc})", file=sys.stderr)
            return
        if args.validate:
            for problem in validate_event(event):
                problems += 1
                print(f"line {lineno}: {problem}", file=sys.stderr)
        if not args.quiet:
            print(format_event(event))

    try:
        while args.follow and not args.path.exists():  # pragma: no cover - interactive
            time.sleep(0.2)
        with open(args.path, "r") as stream:
            while True:
                pos = stream.tell()
                line = stream.readline()
                if line.endswith("\n"):
                    handle(line)
                elif args.follow:
                    # Partial or absent final line: the writer is mid-append —
                    # rewind so the next poll re-reads the whole line.
                    stream.seek(pos)
                    time.sleep(0.2)
                else:
                    if line:
                        handle(line)
                    break
    except FileNotFoundError as exc:
        raise TelemetryError(f"no such telemetry stream: {args.path}") from exc
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    if args.validate:
        if problems:
            print(f"{problems} schema problem(s) in {args.path}", file=sys.stderr)
            return 1
        print(f"{lineno} line(s) schema-valid in {args.path}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        # One structured line instead of a traceback: the error family is
        # expected operational failure, not a bug in the tool.
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream closed early (`repro trace ... | head`): not an
        # error.  Point stdout at devnull so the interpreter's shutdown
        # flush does not raise a second time.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "calibration":
        return _cmd_calibration()
    if args.command == "placements":
        return _cmd_placements(args)
    if args.command == "recommend":
        return _cmd_recommend(args)
    if args.command == "explain":
        return _cmd_explain(args)
    if args.command == "system":
        return _cmd_system(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "top":
        return _cmd_top(args)
    if args.command == "tail":
        return _cmd_tail(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
