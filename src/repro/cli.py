"""Command-line interface: regenerate any of the paper's artifacts.

Examples
--------
::

    repro-noc setup                      # Table I (experimental setup)
    repro-noc table2 --cycles 20000      # Table II (synthetic, 4 VCs)
    repro-noc table3                     # Table III (synthetic, 2 VCs)
    repro-noc table4 --iterations 10     # Table IV (benchmark mixes)
    repro-noc area                       # Sec. III-D overhead report
    repro-noc vth --rate 0.1             # Sec. V Vth-saving projection
    repro-noc cooperation --rate 0.1     # Sec. V cooperation gain
    repro-noc simulate --policy sensor-wise --nodes 16 --vcs 4
    repro-noc campaign --jobs 4 --cache-dir .repro-cache
    repro-noc fault-campaign --jobs 4 --timeout 300 --retries 1
    repro-noc trace --cycles 2000 --out-dir traces   # Chrome/Perfetto trace
    repro-noc metrics --cycles 2000 --json m.json    # metrics-only telemetry
    repro-noc campaign --checkpoint-dir out/         # crash-safe campaign
    repro-noc campaign --resume out/                 # pick up where it died
    repro-noc serve --checkpoint-dir out/            # coordinator on :8765
    repro-noc worker --connect HOST:8765             # join from another host
    repro-noc fault-campaign --budget --retries 1    # adaptive resource budgets
    repro-noc campaign --budget-cpu 120 --budget-rss 8192  # explicit caps
    repro-noc cache verify --cache-dir .repro-cache  # scan cache for rot
    repro-noc cache verify --checkpoint-dir out/     # scan journal for rot
    repro-noc dse search --generations 8 --jobs 4    # NSGA-II Pareto search
    repro-noc dse search --checkpoint-dir dse/ --resume dse/
    repro-noc dse report dse_report.json             # re-render a saved front

Pass ``-v``/``-q`` (before the subcommand, repeatable) to raise or
lower stderr diagnostic verbosity; artifact output on stdout is
unaffected.

The defaults use scaled-down cycle counts (see DESIGN.md §3); pass
``--cycles``/``--warmup`` for longer runs.  Table/campaign/sweep
commands accept ``--jobs N`` (process-parallel scenarios, identical
results), ``--cache-dir`` (skip already-computed scenarios) and
``--checkpoint-dir`` (write-ahead scenario journal: an interrupted or
killed run resumes from where it stopped, with byte-identical output).

Exit codes: 0 success, 75 (``EX_TEMPFAIL``) campaign drained after
SIGINT/SIGTERM (resumable from its ``--checkpoint-dir`` journal, if
it has one), 130 hard cancel
on a second signal, 2 unusable checkpoint directory, 3 resource budget
exceeded (every other scenario completed and was journaled; re-run
with a larger ``--budget-*`` to retry the offenders).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import List, Optional

from repro.telemetry.log import emit, get_logger, setup_cli_logging

log = get_logger("cli")


def _add_sim_args(parser: argparse.ArgumentParser, cycles: int = 20_000) -> None:
    from repro.nbti.regime import ALL_REGIMES

    parser.add_argument("--cycles", type=int, default=cycles, help="measured cycles")
    parser.add_argument("--warmup", type=int, default=2_000, help="warm-up cycles to discard")
    parser.add_argument("--seed", type=int, default=1, help="master seed")
    parser.add_argument(
        "--regime", choices=ALL_REGIMES, default="fresh",
        help="stress regime the devices age under (burn-in pre-stress, "
        "joint NBTI+PBTI, technology override); 'fresh' reproduces the "
        "paper's NBTI-only behaviour",
    )


def _jobs_count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"--jobs must be >= 0 (0 = auto-detect), got {value}"
        )
    return value


def _add_exec_args(
    parser: argparse.ArgumentParser, serve_port: Optional[int] = None
) -> None:
    parser.add_argument(
        "--jobs", type=_jobs_count, default=1, metavar="N",
        help="parallel worker processes (0 = auto-detect, 1 = serial)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="on-disk scenario result cache (reruns skip computed scenarios)",
    )
    parser.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="write-ahead scenario journal + campaign.state.json: a killed "
        "run re-pointed at the same directory resumes from the journal",
    )
    parser.add_argument(
        "--port", type=int, default=serve_port, metavar="PORT",
        help="listen for external 'repro-noc worker --connect' processes "
        "on this port (0 = ephemeral; implies distributed execution)"
        + (" [default: %(default)s]" if serve_port is not None else ""),
    )
    parser.add_argument(
        "--bind", default="127.0.0.1", metavar="HOST",
        help="coordinator bind address (default loopback; bind 0.0.0.0 "
        "to accept workers from other hosts)",
    )
    parser.add_argument(
        "--port-file", default=None, metavar="PATH",
        help="write the coordinator's bound host:port here (for scripts "
        "using --port 0)",
    )
    parser.add_argument(
        "--lease-timeout", type=float, default=60.0, metavar="SECONDS",
        help="seconds without a heartbeat before a worker's scenario "
        "lease expires and is reassigned",
    )
    parser.add_argument(
        "--poison-threshold", type=int, default=3, metavar="N",
        help="distinct workers that must fail a scenario before it is "
        "quarantined as poisoned instead of retried (a fleet smaller "
        "than N settles it once every live worker has failed it)",
    )
    parser.add_argument(
        "--budget", action="store_true",
        help="govern every scenario with adaptive resource budgets "
        "derived from its predicted cost (cycles x routers x VCs); "
        "budget breaches become typed failures and repeat offenders "
        "are quarantined",
    )
    parser.add_argument(
        "--budget-wall", type=float, default=None, metavar="SECONDS",
        help="explicit per-scenario wall-clock budget (implies --budget)",
    )
    parser.add_argument(
        "--budget-cpu", type=float, default=None, metavar="SECONDS",
        help="explicit per-scenario CPU budget, enforced in the worker "
        "via RLIMIT_CPU (implies --budget)",
    )
    parser.add_argument(
        "--budget-rss", type=float, default=None, metavar="MB",
        help="explicit per-scenario memory budget in MB, enforced via "
        "RLIMIT_AS/RLIMIT_DATA (implies --budget)",
    )
    parser.add_argument(
        "--budget-scale", type=float, default=None, metavar="FACTOR",
        help="stretch (or tighten) the adaptive budget defaults by this "
        "factor (implies --budget)",
    )


def _make_distributed(args: argparse.Namespace):
    """DistributedSpec from --port (None = run locally)."""
    if getattr(args, "port", None) is None:
        return None
    from repro.experiments.distributed import DistributedSpec

    return DistributedSpec(
        bind=args.bind,
        port=args.port,
        lease_timeout=args.lease_timeout,
        poison_threshold=getattr(args, "poison_threshold", 3),
        port_file=args.port_file,
    )


def _make_governor(args: argparse.Namespace):
    """GovernorSpec from --budget/--budget-* (None = ungoverned)."""
    wall = getattr(args, "budget_wall", None)
    cpu = getattr(args, "budget_cpu", None)
    rss_mb = getattr(args, "budget_rss", None)
    scale = getattr(args, "budget_scale", None)
    if not getattr(args, "budget", False) and all(
        value is None for value in (wall, cpu, rss_mb, scale)
    ):
        return None
    from repro.experiments.governor import GovernorSpec

    return GovernorSpec(
        wall_seconds=wall,
        cpu_seconds=cpu,
        rss_bytes=int(rss_mb * 1024 * 1024) if rss_mb is not None else None,
        scale=scale if scale is not None else 1.0,
    )


def _add_resume_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--resume", default=None, metavar="DIR",
        help="resume from this checkpoint directory; the original campaign "
        "configuration is restored from the journal header (other "
        "configuration flags are ignored)",
    )


# ``serve`` is ``campaign`` with a coordinator port: their checkpoints
# are interchangeable, so journals record the canonical command name.
_META_COMMAND = {"serve": "campaign"}


def _meta_command(args: argparse.Namespace) -> str:
    return _META_COMMAND.get(args.command, args.command)


@contextlib.contextmanager
def _executing(args: argparse.Namespace, config_blob):
    """Open the checkpoint and build the executor of one campaign command.

    ``--resume DIR`` reopens the checkpoint in ``DIR``; the command reads
    the campaign description stored in its journal header back from
    ``executor.checkpoint.meta``.  ``--checkpoint-dir`` starts (or
    implicitly resumes) a journal described by ``config_blob``; with
    neither the executor keeps no journal.  ``--jobs 1`` runs one
    scenario at a time in this process.

    The body runs inside ``with executor`` with drain-on-signal handlers
    installed: however it ends, the executor writes the checkpoint's
    ``campaign.state.json`` and closes itself and the checkpoint; its
    summary is logged when the body ends normally.  Flags the executor
    cannot honour together (``--port`` with ``--timeout``, ``--retries``
    or ``--budget*``) are a usage error.
    """
    from repro.experiments.checkpoint import (
        CheckpointError,
        CheckpointManager,
        graceful_shutdown,
    )
    from repro.experiments.parallel import Executor

    command = _meta_command(args)
    resume = getattr(args, "resume", None)
    checkpoint = None
    if resume is not None:
        meta = CheckpointManager.load_meta(resume)
        if _META_COMMAND.get(meta.get("command"), meta.get("command")) != command:
            raise CheckpointError(
                f"{resume} holds a {meta.get('command')!r} checkpoint, "
                f"not {command!r}"
            )
        checkpoint = CheckpointManager(resume, meta=meta)
    elif args.checkpoint_dir is not None:
        meta = {"command": command, "config": config_blob}
        checkpoint = CheckpointManager(args.checkpoint_dir, meta=meta)
    try:
        executor = Executor(
            max_workers=args.jobs,
            cache=args.cache_dir,
            progress=log.info,
            timeout=getattr(args, "timeout", None),
            retries=getattr(args, "retries", 0),
            checkpoint=checkpoint,
            distributed=_make_distributed(args),
            governor=_make_governor(args),
        )
    except ValueError as exc:  # flags that contradict each other
        if checkpoint is not None:
            checkpoint.close()
        build_parser().error(f"{args.command}: {exc}")
    with executor, graceful_shutdown(executor, notify=log.warning):
        yield executor
    log.info(executor.summary())


def _dse_blob(args: argparse.Namespace) -> dict:
    """The resume-able description of a DSE run (journal meta payload)."""
    return {
        "nodes": args.nodes,
        "vcs": args.vcs,
        "rate": args.rate,
        "traffic": args.traffic,
        "cycles": args.cycles,
        "warmup": args.warmup,
        "seed": args.seed,
        "regime": args.regime,
        "params": list(args.param or ()),
        "objectives": [
            name.strip() for name in args.objectives.split(",") if name.strip()
        ],
        "ga": {
            "population": args.population,
            "generations": args.generations,
            "seed": args.seed,
            "crossover_rate": args.crossover_rate,
            "mutation_rate": args.mutation_rate,
        },
    }


def _dse_setup(blob: dict):
    """(space, objectives, GA config) from a DSE description blob.

    Rebuilding from the blob — not from live argparse values — is what
    makes ``--resume`` restore the original space even when the retyped
    flags disagree.  The blob's ``seed`` is the GA's: every search
    simulates a genome under the same traffic, so searches at different
    seeds can share one ``--cache-dir``.
    """
    from repro.dse import GAConfig, default_space, parse_param_spec, resolve_objectives
    from repro.dse.space import DesignSpace
    from repro.experiments.config import ScenarioConfig

    base = ScenarioConfig(
        num_nodes=blob["nodes"], num_vcs=blob["vcs"],
        injection_rate=blob["rate"], traffic=blob["traffic"],
        cycles=blob["cycles"], warmup=blob["warmup"],
        regime=blob.get("regime", "fresh"),  # pre-regime journals resume
    )
    if blob["params"]:
        space = DesignSpace(
            [parse_param_spec(spec) for spec in blob["params"]], base=base
        )
    else:
        space = default_space(base)
    return space, resolve_objectives(blob["objectives"]), GAConfig(**blob["ga"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-noc",
        description=(
            "Reproduction of 'Sensor-wise methodology to face NBTI stress "
            "of NoC buffers' (DATE 2013)"
        ),
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="more diagnostics on stderr (repeatable)",
    )
    parser.add_argument(
        "-q", "--quiet", action="count", default=0,
        help="less diagnostics on stderr (repeatable)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("setup", help="print the Table I experimental setup")

    p2 = sub.add_parser("table2", help="Table II: synthetic traffic, 4 VCs")
    _add_sim_args(p2)
    _add_exec_args(p2)

    p3 = sub.add_parser("table3", help="Table III: synthetic traffic, 2 VCs")
    _add_sim_args(p3)
    _add_exec_args(p3)

    p4 = sub.add_parser("table4", help="Table IV: benchmark-mix traffic, 2 VCs")
    _add_sim_args(p4, cycles=15_000)
    _add_exec_args(p4)
    p4.add_argument("--iterations", type=int, default=10, help="benchmark mixes per scenario")

    parea = sub.add_parser("area", help="Sec. III-D area-overhead report")
    parea.add_argument("--vcs", type=int, default=4, help="VCs per input port")
    parea.add_argument("--ports", type=int, default=4, help="router ports")
    parea.add_argument("--flit-bits", type=int, default=64, help="flit width in bits")

    pvth = sub.add_parser("vth", help="Sec. V net Vth-saving projection")
    _add_sim_args(pvth)
    pvth.add_argument("--nodes", type=int, default=4)
    pvth.add_argument("--vcs", type=int, default=4)
    pvth.add_argument("--rate", type=float, default=0.1, help="flits/cycle/node")
    pvth.add_argument("--years", type=float, default=3.0, help="projection horizon")

    pcoop = sub.add_parser("cooperation", help="Sec. V cooperation gain")
    _add_sim_args(pcoop)
    pcoop.add_argument("--nodes", type=int, default=4)
    pcoop.add_argument("--vcs", type=int, default=2)
    pcoop.add_argument("--rate", type=float, default=0.1)

    pcamp = sub.add_parser(
        "campaign", help="regenerate every paper artifact into one report"
    )
    _add_sim_args(pcamp, cycles=12_000)
    _add_exec_args(pcamp)
    pcamp.add_argument("--iterations", type=int, default=10)
    pcamp.add_argument("--out", default="campaign_report.md", help="markdown report path")
    pcamp.add_argument("--json-dir", default=None, help="also persist tables as JSON here")
    pcamp.add_argument(
        "--skip-real", action="store_true",
        help="skip the Table IV benchmark-mix runs (the slowest part)",
    )
    _add_resume_arg(pcamp)

    pserve = sub.add_parser(
        "serve",
        help="distributed campaign coordinator: 'campaign' that listens "
        "for repro-noc worker processes (port default 8765)",
    )
    _add_sim_args(pserve, cycles=12_000)
    _add_exec_args(pserve, serve_port=8765)  # DEFAULT_PORT
    pserve.add_argument("--iterations", type=int, default=10)
    pserve.add_argument("--out", default="campaign_report.md", help="markdown report path")
    pserve.add_argument("--json-dir", default=None, help="also persist tables as JSON here")
    pserve.add_argument(
        "--skip-real", action="store_true",
        help="skip the Table IV benchmark-mix runs (the slowest part)",
    )
    _add_resume_arg(pserve)

    pworker = sub.add_parser(
        "worker",
        help="lease scenarios from a coordinator ('serve' or a --port run) "
        "until it shuts down",
    )
    pworker.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="coordinator address, e.g. 127.0.0.1:8765",
    )
    pworker.add_argument(
        "--worker-id", default=None, metavar="ID",
        help="stable identity for lease accounting (default: hostname-pid)",
    )
    pworker.add_argument(
        "--poll", type=float, default=1.0, metavar="SECONDS",
        help="idle poll interval while the coordinator has no work",
    )
    pworker.add_argument(
        "--max-errors", type=int, default=30, metavar="N",
        help="exit 1 after this many consecutive connection failures",
    )

    psweep = sub.add_parser("sweep", help="injection-rate sweep with CSV export")
    _add_sim_args(psweep, cycles=10_000)
    _add_exec_args(psweep)
    psweep.add_argument("--nodes", type=int, default=4)
    psweep.add_argument("--vcs", type=int, default=2)
    psweep.add_argument(
        "--rates", default="0.1,0.2,0.3,0.4,0.5",
        help="comma-separated flits/cycle/node values",
    )
    psweep.add_argument(
        "--policies", default="rr-no-sensor,sensor-wise",
        help="comma-separated policy names",
    )
    psweep.add_argument("--csv", default=None, help="also write the sweep to this CSV")

    ppow = sub.add_parser("power", help="router power/leakage report for one scenario")
    _add_sim_args(ppow, cycles=10_000)
    ppow.add_argument("--nodes", type=int, default=4)
    ppow.add_argument("--vcs", type=int, default=2)
    ppow.add_argument("--rate", type=float, default=0.2)
    ppow.add_argument("--policy", default="sensor-wise")

    pfault = sub.add_parser(
        "fault-campaign",
        help="fault-injection resilience sweep (kinds x rates x policies)",
    )
    _add_sim_args(pfault, cycles=2_000)
    _add_exec_args(pfault)
    pfault.add_argument("--nodes", type=int, default=4)
    pfault.add_argument("--vcs", type=int, default=2)
    pfault.add_argument("--rate", type=float, default=0.1, help="flits/cycle/node")
    pfault.add_argument(
        "--sample-period", type=int, default=128,
        help="sensor sample period (campaign default is short so the "
        "staleness watchdog can trip within the run)",
    )
    pfault.add_argument(
        "--kinds", default=None,
        help="comma-separated fault kinds (default: campaign standard set)",
    )
    pfault.add_argument(
        "--fault-rates", default="0.0,0.5,1.0",
        help="comma-separated fault rates in [0,1]; 0.0 is the baseline row",
    )
    pfault.add_argument(
        "--policies", default="rr-no-sensor,sensor-wise",
        help="comma-separated policy names",
    )
    pfault.add_argument(
        "--validate-every", type=int, default=16,
        help="validate_network sweep period in cycles (0 disables)",
    )
    pfault.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-scenario wall-clock timeout (hung cells become FAILED rows)",
    )
    pfault.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retry crashed/hung cells up to N times with backoff",
    )
    pfault.add_argument("--out", default=None, help="write the markdown report here")
    pfault.add_argument("--json", default=None, help="write the deterministic JSON report here")
    _add_resume_arg(pfault)

    pcache = sub.add_parser(
        "cache", help="inspect the on-disk scenario result cache"
    )
    cache_sub = pcache.add_subparsers(dest="cache_command", required=True)
    pverify = cache_sub.add_parser(
        "verify",
        help="scan every result-store and journal record and report rot",
    )
    pverify.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="verify every result store in this cache directory "
        "(header, per-record CRC and decoding, torn tail)",
    )
    pverify.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="also verify this checkpoint directory's scenario journal "
        "(header digest, per-record CRC, torn tail)",
    )

    pdse = sub.add_parser(
        "dse",
        help="design-space exploration: NSGA-II search, Pareto reports",
    )
    dse_sub = pdse.add_subparsers(dest="dse_command", required=True)

    def _add_dse_base_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--nodes", type=int, default=4)
        p.add_argument("--vcs", type=int, default=2)
        p.add_argument("--rate", type=float, default=0.1, help="flits/cycle/node")
        p.add_argument(
            "--traffic", default="uniform",
            help="synthetic pattern name or 'benchmark-mix'",
        )
        p.add_argument(
            "--objectives", default="md_duty,p95_latency",
            help="comma-separated objective names (see docs/DSE.md)",
        )
        p.add_argument(
            "--param", action="append", default=None, metavar="NAME=V1,V2,...",
            help="search this ScenarioConfig field over the listed levels "
            "(repeatable; default: the stock sensor-wise space)",
        )

    psearch = dse_sub.add_parser(
        "search",
        help="seeded NSGA-II search with archive dedup and "
        "per-generation checkpoints",
    )
    _add_sim_args(psearch, cycles=4_000)
    _add_exec_args(psearch)
    _add_dse_base_args(psearch)
    psearch.add_argument("--population", type=int, default=12)
    psearch.add_argument("--generations", type=int, default=8)
    psearch.add_argument("--crossover-rate", type=float, default=0.9)
    psearch.add_argument(
        "--mutation-rate", type=float, default=None,
        help="per-gene mutation probability (default 1/num_parameters)",
    )
    psearch.add_argument(
        "--out", default="dse_report.json",
        help="canonical Pareto-front JSON (byte-identical per seed)",
    )
    psearch.add_argument("--csv", default=None, help="also export the front as CSV")
    _add_resume_arg(psearch)

    preport = dse_sub.add_parser(
        "report", help="re-render a saved dse search report"
    )
    preport.add_argument("json", help="report written by 'dse search --out'")
    preport.add_argument("--csv", default=None, help="also export the front as CSV")

    psim = sub.add_parser("simulate", help="run one scenario and print a summary")
    _add_sim_args(psim)
    psim.add_argument("--nodes", type=int, default=4)
    psim.add_argument("--vcs", type=int, default=2)
    psim.add_argument("--rate", type=float, default=0.1)
    psim.add_argument("--policy", default="sensor-wise")
    psim.add_argument(
        "--traffic", default="uniform",
        help="synthetic pattern name or 'benchmark-mix'",
    )

    ptrace = sub.add_parser(
        "trace", help="run one scenario with cycle-level tracing enabled"
    )
    _add_sim_args(ptrace, cycles=2_000)
    ptrace.add_argument("--nodes", type=int, default=4)
    ptrace.add_argument("--vcs", type=int, default=2)
    ptrace.add_argument("--rate", type=float, default=0.1)
    ptrace.add_argument("--policy", default="sensor-wise")
    ptrace.add_argument(
        "--traffic", default="uniform",
        help="synthetic pattern name or 'benchmark-mix'",
    )
    ptrace.add_argument(
        "--out-dir", default="traces", metavar="DIR",
        help="directory the trace files are written into",
    )
    ptrace.add_argument(
        "--formats", default="chrome,jsonl",
        help="comma-separated trace sinks: chrome, jsonl, csv",
    )

    pmet = sub.add_parser(
        "metrics", help="run one scenario collecting metrics only (no trace files)"
    )
    _add_sim_args(pmet, cycles=2_000)
    pmet.add_argument("--nodes", type=int, default=4)
    pmet.add_argument("--vcs", type=int, default=2)
    pmet.add_argument("--rate", type=float, default=0.1)
    pmet.add_argument("--policy", default="sensor-wise")
    pmet.add_argument(
        "--traffic", default="uniform",
        help="synthetic pattern name or 'benchmark-mix'",
    )
    pmet.add_argument("--json", default=None, help="also write the metrics as JSON here")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    from repro.experiments.checkpoint import (
        EXIT_HARD_CANCEL,
        EXIT_INTERRUPTED,
        CampaignInterrupted,
        CheckpointError,
    )
    from repro.experiments.governor import BudgetExceeded

    args = build_parser().parse_args(argv)
    setup_cli_logging(args.verbose - args.quiet)
    try:
        return _dispatch(args)
    except CheckpointError as exc:
        log.error("%s", exc)
        return 2
    except BudgetExceeded as exc:
        log.error("%s", exc)
        return 3
    except CampaignInterrupted as exc:
        log.warning(
            "interrupted: %d scenario(s) not run; %s", exc.pending,
            _resume_hint(args),
        )
        return EXIT_INTERRUPTED
    except KeyboardInterrupt:
        log.error("hard cancel: partial state kept, journal still resumable")
        return EXIT_HARD_CANCEL


def _resume_hint(args: argparse.Namespace) -> str:
    """How a drained run keeps its finished scenarios, and how to rerun."""
    directory = getattr(args, "resume", None) or getattr(
        args, "checkpoint_dir", None
    )
    if directory is not None:
        if hasattr(args, "resume"):
            hint = f"repro-noc {args.command} --resume {directory}"
        else:
            hint = f"rerun with --checkpoint-dir {directory}"
        return f"journal flushed — resume with '{hint}'"
    if getattr(args, "cache_dir", None) is not None:
        return (
            f"finished scenarios are in the result store {args.cache_dir} — "
            "rerun with the same --cache-dir to skip them"
        )
    return (
        "no journal or result store keeps the finished scenarios — a rerun "
        "starts over (pass --checkpoint-dir to make runs resumable)"
    )


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "worker":
        from repro.experiments.distributed import run_worker

        return run_worker(
            args.connect,
            worker_id=args.worker_id,
            poll=args.poll,
            max_errors=args.max_errors,
        )

    if args.command == "setup":
        from repro.experiments.config import format_experimental_setup

        emit(format_experimental_setup())
        return 0

    if args.command in ("table2", "table3"):
        from repro.experiments.tables import run_synthetic_table

        num_vcs = 4 if args.command == "table2" else 2
        with _executing(
            args,
            {"num_vcs": num_vcs, "cycles": args.cycles,
             "warmup": args.warmup, "seed": args.seed,
             "regime": args.regime},
        ) as executor:
            table = run_synthetic_table(
                num_vcs=num_vcs, cycles=args.cycles, warmup=args.warmup,
                seed=args.seed, executor=executor,
                scenario_kwargs={"regime": args.regime},
            )
            emit(table.format())
        return 0

    if args.command == "table4":
        from repro.experiments.tables import run_real_table

        with _executing(
            args,
            {"iterations": args.iterations, "cycles": args.cycles,
             "warmup": args.warmup, "seed": args.seed,
             "regime": args.regime},
        ) as executor:
            table = run_real_table(
                iterations=args.iterations,
                cycles=args.cycles,
                warmup=args.warmup,
                seed=args.seed,
                executor=executor,
                scenario_kwargs={"regime": args.regime},
            )
            emit(table.format())
        return 0

    if args.command == "area":
        from repro.area import RouterGeometry, compute_overhead_report

        geometry = RouterGeometry(
            num_ports=args.ports, num_vcs=args.vcs, flit_width_bits=args.flit_bits
        )
        emit(compute_overhead_report(geometry).as_text())
        return 0

    if args.command == "vth":
        from repro.experiments.config import ScenarioConfig
        from repro.experiments.tables import run_vth_saving

        scenario = ScenarioConfig(
            num_nodes=args.nodes, num_vcs=args.vcs, injection_rate=args.rate,
            cycles=args.cycles, warmup=args.warmup, seed=args.seed,
            regime=args.regime,
        )
        emit(run_vth_saving(scenario, years=args.years).format())
        return 0

    if args.command == "cooperation":
        from repro.experiments.config import ScenarioConfig
        from repro.experiments.tables import run_cooperation_gain

        scenario = ScenarioConfig(
            num_nodes=args.nodes, num_vcs=args.vcs, injection_rate=args.rate,
            cycles=args.cycles, warmup=args.warmup, seed=args.seed,
            regime=args.regime,
        )
        emit(run_cooperation_gain(scenario).format())
        return 0

    if args.command in ("campaign", "serve"):
        import dataclasses

        from repro.experiments.campaign import CampaignConfig, run_campaign

        config = CampaignConfig(
            cycles=args.cycles,
            warmup=args.warmup,
            iterations=args.iterations,
            seed=args.seed,
            include_real_traffic=not args.skip_real,
            regime=args.regime,
        )
        with _executing(args, dataclasses.asdict(config)) as executor:
            if args.resume is not None:
                # The journal header is the source of truth on resume.
                config = CampaignConfig(**executor.checkpoint.meta["config"])
            result = run_campaign(
                config, report_path=args.out, json_dir=args.json_dir,
                executor=executor,
            )
            emit(result.to_markdown())
            emit(f"report written to {args.out} ({result.wall_seconds:.0f}s)")
        return 0

    if args.command == "sweep":
        from repro.experiments.config import ScenarioConfig
        from repro.experiments.sweeps import run_injection_sweep

        rates = [float(r) for r in args.rates.split(",") if r]
        policies = [p for p in args.policies.split(",") if p]
        base = ScenarioConfig(
            num_nodes=args.nodes, num_vcs=args.vcs,
            cycles=args.cycles, warmup=args.warmup, seed=args.seed,
            regime=args.regime,
        )
        with _executing(
            args,
            {"nodes": args.nodes, "vcs": args.vcs, "rates": rates,
             "policies": policies, "cycles": args.cycles,
             "warmup": args.warmup, "seed": args.seed,
             "regime": args.regime},
        ) as executor:
            sweep = run_injection_sweep(
                rates, policies=policies, base=base, executor=executor
            )
            emit(sweep.format())
            if args.csv:
                sweep.to_csv(args.csv)
                emit(f"\nwrote {args.csv}")
        return 0

    if args.command == "power":
        from repro.area.power import compute_power_report
        from repro.experiments.config import ScenarioConfig
        from repro.experiments.runner import build_network

        scenario = ScenarioConfig(
            num_nodes=args.nodes, num_vcs=args.vcs, injection_rate=args.rate,
            policy=args.policy, cycles=args.cycles, warmup=args.warmup,
            seed=args.seed, regime=args.regime,
        )
        network = build_network(scenario)
        network.run(scenario.warmup)
        network.reset_nbti()
        network.reset_stats()
        network.run(scenario.cycles)
        report = compute_power_report(network)
        emit(f"scenario: {scenario.label} policy={scenario.policy}")
        emit(report.as_text())
        emit(f"average power: {report.power_mw(scenario.noc_config().technology.clock_period_s):.3f} mW")
        return 0

    if args.command == "fault-campaign":
        import dataclasses

        from repro.experiments.checkpoint import atomic_write_text
        from repro.faults.campaign import FaultCampaignConfig, run_fault_campaign

        if args.regime != "fresh":
            # FaultCampaignConfig is pinned by the fault-campaign golden
            # (its asdict is embedded verbatim), so it cannot grow a
            # regime field; fault campaigns always run fresh devices.
            log.warning(
                "fault-campaign ignores --regime %s: fault campaigns "
                "always run the fresh (NBTI-only) regime", args.regime,
            )
        kwargs = {}
        if args.kinds:
            kwargs["kinds"] = tuple(k.strip() for k in args.kinds.split(",") if k.strip())
        config = FaultCampaignConfig(
            num_nodes=args.nodes,
            num_vcs=args.vcs,
            injection_rate=args.rate,
            cycles=args.cycles,
            warmup=args.warmup,
            seed=args.seed,
            sensor_sample_period=args.sample_period,
            fault_rates=tuple(float(r) for r in args.fault_rates.split(",") if r),
            policies=tuple(p.strip() for p in args.policies.split(",") if p.strip()),
            validate_every=args.validate_every,
            **kwargs,
        )
        with _executing(args, dataclasses.asdict(config)) as executor:
            if args.resume is not None:
                config = FaultCampaignConfig(**executor.checkpoint.meta["config"])
            report = run_fault_campaign(config, executor=executor)
            emit(report.to_markdown())
            if args.out:
                atomic_write_text(args.out, report.to_markdown())
                log.info("report written to %s", args.out)
            if args.json:
                atomic_write_text(args.json, report.to_json())
                log.info("JSON written to %s", args.json)
        failed = sum(1 for row in report.rows if row.failure is not None)
        return 1 if failed == len(report.rows) else 0

    if args.command == "cache":
        if args.cache_command == "verify":
            if args.cache_dir is None and args.checkpoint_dir is None:
                log.error("cache verify needs --cache-dir and/or --checkpoint-dir")
                return 2
            from pathlib import Path

            from repro.experiments.checkpoint import ScenarioJournal, verify_journal

            journals = []
            if args.cache_dir is not None:
                pattern = ScenarioJournal.STORE_FILENAME.format(digest="*")
                stores = sorted(Path(args.cache_dir).glob(pattern))
                if not stores:
                    emit(f"{args.cache_dir}: no result store")
                journals.extend(stores)
            if args.checkpoint_dir is not None:
                journals.append(Path(args.checkpoint_dir))
            clean = True
            for journal in journals:
                report = verify_journal(journal)
                emit(report.summary())
                for line in report.torn:
                    log.warning("journal damage: %s", line)
                clean = clean and report.clean
            if args.checkpoint_dir is not None:
                ga_state = Path(args.checkpoint_dir) / "ga.state.json"
                if ga_state.exists():
                    from repro.dse.ga import verify_ga_state

                    ok, summary = verify_ga_state(ga_state)
                    emit(summary)
                    if not ok:
                        log.warning("GA state damage: %s", summary)
                    clean = clean and ok
            return 0 if clean else 1
        raise AssertionError(f"unhandled cache command {args.cache_command!r}")

    if args.command == "dse":
        return _dispatch_dse(args)

    if args.command == "simulate":
        from repro.experiments.config import ScenarioConfig
        from repro.experiments.runner import run_scenario

        scenario = ScenarioConfig(
            num_nodes=args.nodes, num_vcs=args.vcs, injection_rate=args.rate,
            policy=args.policy, traffic=args.traffic,
            cycles=args.cycles, warmup=args.warmup, seed=args.seed,
            regime=args.regime,
        )
        result = run_scenario(scenario)
        emit(f"scenario      : {scenario.label} policy={scenario.policy}")
        emit(f"measured port : router {scenario.measure_router} {scenario.measure_port}")
        emit(f"duty cycles   : {[round(d, 2) for d in result.duty_cycles]}")
        emit(f"MD VC         : {result.md_vc} ({result.md_duty:.2f}%)")
        emit(f"network       : {result.net_stats}")
        emit(
            f"wall time     : {result.wall_seconds:.2f}s "
            f"(build {result.build_seconds:.2f}s + sim {result.sim_seconds:.2f}s)"
        )
        return 0

    if args.command == "trace":
        from repro.experiments.config import ScenarioConfig
        from repro.experiments.runner import run_scenario

        formats = tuple(f.strip() for f in args.formats.split(",") if f.strip())
        scenario = ScenarioConfig(
            num_nodes=args.nodes, num_vcs=args.vcs, injection_rate=args.rate,
            policy=args.policy, traffic=args.traffic,
            cycles=args.cycles, warmup=args.warmup, seed=args.seed,
            regime=args.regime,
        ).traced(trace_dir=args.out_dir, formats=formats)
        result = run_scenario(scenario)
        summary = result.telemetry
        emit(f"scenario      : {scenario.label} policy={scenario.policy}")
        emit(f"traced window : cycles {summary.window_start}..{summary.end_cycle}")
        emit(f"events        : {summary.total_events}")
        for name in sorted(summary.event_counts):
            emit(f"  {name:<24s} {summary.event_counts[name]}")
        emit("trace files   :")
        for path in summary.trace_files:
            emit(f"  {path}")
        emit(
            "open the .trace.json file at https://ui.perfetto.dev or "
            "chrome://tracing to inspect it"
        )
        return 0

    if args.command == "metrics":
        from repro.experiments.config import ScenarioConfig
        from repro.experiments.runner import run_scenario
        from repro.telemetry.metrics import format_metrics_dict

        scenario = ScenarioConfig(
            num_nodes=args.nodes, num_vcs=args.vcs, injection_rate=args.rate,
            policy=args.policy, traffic=args.traffic,
            cycles=args.cycles, warmup=args.warmup, seed=args.seed,
            regime=args.regime,
        ).traced(trace_dir=None, formats=())
        result = run_scenario(scenario)
        metrics = result.telemetry.metrics
        emit(f"scenario      : {scenario.label} policy={scenario.policy}")
        emit(format_metrics_dict(metrics))
        if args.json:
            from repro.experiments.checkpoint import atomic_write_json

            atomic_write_json(args.json, metrics)
            log.info("metrics JSON written to %s", args.json)
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


def _dispatch_dse(args: argparse.Namespace) -> int:
    """The ``repro-noc dse`` command group (search / report)."""
    from repro.dse import DesignSpaceError
    from repro.experiments.checkpoint import CheckpointError

    # The meta command names the subcommand, so a journal of another
    # command is refused on resume (and the resume hint prints the real
    # invocation).
    args.command = f"dse {args.dse_command}"

    if args.dse_command == "report":
        from repro.dse import DSEResult

        try:
            result = DSEResult.load(args.json)
        except (OSError, ValueError) as exc:
            log.error("cannot load %s: %s", args.json, exc)
            return 2
        emit(result.format())
        if args.csv:
            result.write_csv(args.csv)
            emit(f"wrote {args.csv}")
        return 0

    from repro.dse import DSEEngine, DSEResult

    blob = _dse_blob(args)
    if args.resume is None:
        try:
            space, objectives, config = _dse_setup(blob)
        except (DesignSpaceError, ValueError) as exc:
            log.error("%s", exc)
            return 2
    with _executing(args, blob) as executor:
        if args.resume is not None:
            try:
                space, objectives, config = _dse_setup(
                    executor.checkpoint.meta["config"]
                )
            except (DesignSpaceError, TypeError, ValueError) as exc:
                # TypeError: the journal names a retired GAConfig field.
                raise CheckpointError(f"cannot resume {args.resume}: {exc}") from exc
        engine = DSEEngine(space, objectives, config, executor=executor)
        engine.run()
        result = DSEResult.from_archive(
            space, objectives, engine.archive,
            counters=engine.counters,
        )
        emit(result.format())
        result.write_json(args.out)
        emit(f"report written to {args.out}")
        if args.csv:
            result.write_csv(args.csv)
            emit(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
