"""Parallel scenario execution: executor, result store, progress.

Every paper artifact is a pile of independent ``run_scenario`` calls —
the comparison protocol (identical traffic/PV per policy) is enforced
purely by seed derivation (:func:`repro.nbti.process_variation.scenario_seed`),
never by shared state, which makes the sweep embarrassingly parallel.
This module exploits that:

* :class:`Executor` maps ``(ScenarioConfig, iteration)`` work units to
  :class:`~repro.experiments.runner.ScenarioResult` objects through one
  dispatch loop that runs each attempt in a killable child process
  (at most ``max_workers`` live), in-process, or as a lease served to
  remote workers, with results bit-identical every way (determinism
  is a property of the work units, not of scheduling; verified by
  ``tests/test_parallel.py`` and ``tests/test_distributed.py``).
* ``Executor(cache=dir)`` keeps results in a
  :class:`~repro.experiments.checkpoint.ScenarioJournal` store keyed by
  :func:`cache_key`, a stable hash of the scenario parameters, the
  iteration and a schema/code version, so repeated campaigns and
  benchmarks skip already-computed scenarios.
* :class:`ExecutorStats` accumulates per-scenario timing (scenarios
  completed, wall seconds, serial-time estimate and the implied
  speedup) so long campaign runs are observable.

The loop enforces per-attempt timeouts, bounded retries with seeded
exponential backoff and structured :class:`ScenarioFailure` records:
:meth:`Executor.map_robust` returns a failure in a broken unit's slot,
:meth:`Executor.map` is the same call followed by a raise once every
unit has settled and been journaled.  When child processes cannot be
started (sandboxed spawn, unpicklable units) the loop falls back to
running attempts in-process instead of aborting the campaign.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import pickle
import random
import signal
import threading
import time
import traceback as traceback_module
from multiprocessing.connection import wait as connection_wait
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.version import __version__
from repro.telemetry.log import current_log_level, setup_worker_logging
from repro.telemetry.metrics import MetricsRegistry
from repro.experiments.checkpoint import (
    CampaignInterrupted,
    CheckpointManager,
    ScenarioJournal,
)
from repro.experiments.config import ScenarioConfig
from repro.experiments.governor import (
    BUDGET_KINDS,
    BudgetExceeded,
    GovernorSpec,
    ResourceBudget,
    ScenarioGovernor,
    classify_failure_kind,
)
from repro.experiments.runner import ScenarioResult, run_scenario

#: One unit of simulation work: a fully-specified scenario + traffic
#: iteration.  Everything the result depends on is in these two values.
WorkUnit = Tuple[ScenarioConfig, int]

#: Bump when a change to the simulator alters results for an unchanged
#: ScenarioConfig (invalidates every cached result).
#: v2: ScenarioConfig gained fault-injection fields (faults,
#: validate_every) and the Down_Up heartbeat changed engine state.
#: v3: ScenarioConfig gained the telemetry field, ScenarioResult gained
#: a telemetry summary, and SimStats percentiles moved to QuantileSketch.
#: v4: most-degraded tie-break unified to the lowest VC index and the
#: runner routed through Network.run (interval NBTI accounting +
#: quiescence fast-forward); results for tied-Vth scenarios changed.
CACHE_SCHEMA_VERSION = 4

#: Failures to start a child process (sandboxed spawn, unpicklable unit
#: or worker) that switch the dispatch loop to in-process attempts.  An
#: exception raised by the scenario itself is *not* in this set: it
#: becomes a :class:`ScenarioFailure` like any other crash.
_SPAWN_FAILURES = (
    OSError, ImportError, pickle.PicklingError, AttributeError, TypeError
)


def _execute_unit(unit: WorkUnit) -> ScenarioResult:
    """Top-level worker entry point (must be picklable by name)."""
    scenario, iteration = unit
    return run_scenario(scenario, iteration)


class RetryBackoff:
    """Exponential backoff with deterministic seeded jitter.

    ``delay(k)`` for retry ``k`` (1-based) is
    ``base * 2**(k-1) * (1 + jitter * u)`` with ``u`` drawn from a
    private ``random.Random(seed)`` stream — so retries desynchronize
    (no thundering herd against a recovering worker pool) while the
    whole delay sequence stays reproducible under a fixed seed.
    ``jitter=0`` recovers the pure exponential schedule.
    """

    def __init__(
        self, base: float, jitter: float = 0.5, seed: Optional[int] = None
    ) -> None:
        if base < 0:
            raise ValueError(f"backoff base must be >= 0, got {base}")
        if jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {jitter}")
        self.base = base
        self.jitter = jitter
        self._rng = random.Random(seed)

    def delay(self, attempt: int) -> float:
        """Delay before retry ``attempt`` (1-based), in seconds."""
        value = self.base * (2 ** (max(attempt, 1) - 1))
        if self.jitter > 0 and value > 0:
            value *= 1.0 + self.jitter * self._rng.random()
        return value


def _attempt_child(
    worker: Callable,
    unit: WorkUnit,
    conn,
    log_level: Optional[int] = None,
    budget: Optional[ResourceBudget] = None,
) -> None:
    """Entry point of one killable per-attempt worker process.

    A failure ships the pickled exception too (``None`` when it does
    not pickle), so :meth:`Executor.map` can re-raise the original.
    """
    # SIGINT is the parent's: a Ctrl-C hits the whole process group, and
    # graceful drain needs in-flight units to finish, not die mid-scenario.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):
        pass
    setup_worker_logging(log_level)
    try:
        if budget is not None:
            # Kernel-enforced CPU/address-space fences: a runaway
            # scenario dies by SIGXCPU/MemoryError instead of starving
            # its siblings.  The parent's deadline covers wall time.
            budget.install()
        result = worker(unit)
        conn.send(("ok", result))
    except BaseException as exc:  # noqa: BLE001 - reported, not swallowed
        try:
            blob: Optional[bytes] = pickle.dumps(exc)
        except Exception:  # noqa: BLE001 - the name and message still travel
            blob = None
        try:
            conn.send((
                "error", type(exc).__name__, str(exc),
                traceback_module.format_exc(), blob,
            ))
        except BaseException:
            pass
    finally:
        conn.close()


@dataclasses.dataclass
class ScenarioFailure:
    """One work unit that exhausted its attempts (crash or timeout).

    Takes the failed unit's slot in :meth:`Executor.map_robust` output,
    so downstream consumers see exactly which scenario broke and why
    without the campaign aborting.
    """

    scenario: ScenarioConfig
    iteration: int
    error_type: str
    message: str
    attempts: int
    timed_out: bool
    wall_seconds: float
    #: Full formatted traceback from the worker (``None`` for timeouts
    #: and worker deaths, where no Python frame survives).
    traceback: Optional[str] = None
    #: Typed failure kind: ``timeout``/``cpu``/``oom``/``crash``
    #: (see :func:`repro.experiments.governor.classify_failure_kind`).
    #: Derived from ``error_type``/``timed_out`` when not given.
    kind: str = "crash"
    #: Whether the governor quarantined this unit (budget busted on
    #: enough distinct attempts that retrying stopped).
    quarantined: bool = False
    #: Governor cost report (predicted vs budget vs actual) for budget
    #: breaches; ``None`` for ungoverned or plain-crash failures.
    budget: Optional[Dict[str, object]] = None

    def __post_init__(self) -> None:
        if self.kind == "crash":
            self.kind = classify_failure_kind(self.error_type, timed_out=self.timed_out)

    def __str__(self) -> str:
        kind = self.error_type if self.kind == "crash" else self.kind
        # Tolerates a malformed unit (e.g. a ``None`` scenario), whose
        # crash is exactly what this record has to report.
        label = getattr(self.scenario, "label", self.scenario)
        line = (
            f"{label} policy={getattr(self.scenario, 'policy', None)} "
            f"iter={self.iteration}: {kind} after {self.attempts} attempt(s): "
            f"{self.message}"
        )
        if self.quarantined:
            line += " [quarantined]"
        return line


#: One settled slot of a map: a result, or the failure in its place.
Outcome = Union[ScenarioResult, ScenarioFailure]


def cache_key(scenario: ScenarioConfig, iteration: int) -> str:
    """Stable content hash of everything a scenario result depends on.

    Covers every ``ScenarioConfig`` field, the traffic iteration, the
    cache schema version and the package version — so a cache survives
    process restarts but never serves results across code changes that
    declare themselves (schema bump / release).
    """
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "version": __version__,
        "iteration": iteration,
        "scenario": dataclasses.asdict(scenario),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclasses.dataclass
class ExecutorStats:
    """Accumulated execution accounting across ``Executor.map`` calls."""

    units_total: int = 0
    units_completed: int = 0
    cache_hits: int = 0
    fallbacks: int = 0
    wall_seconds: float = 0.0
    #: Sum of per-unit build+sim time — what a serial run would cost.
    serial_seconds: float = 0.0
    #: Failure accounting: units that exhausted their attempts,
    #: individual retry launches, per-attempt timeouts fired.
    failures: int = 0
    retries: int = 0
    timeouts: int = 0
    #: Torn records in the ``cache`` store, served as misses (mirrors
    #: the store's own ``torn`` count so one summary line covers it).
    cache_corrupt: int = 0
    #: Units served from the write-ahead scenario journal (resume hits).
    journal_hits: int = 0

    @property
    def speedup_estimate(self) -> float:
        """Serial-time estimate divided by actual wall time."""
        if self.wall_seconds <= 0.0:
            return 1.0
        return self.serial_seconds / self.wall_seconds

    def summary(self) -> str:
        line = (
            f"{self.units_completed}/{self.units_total} scenarios "
            f"({self.cache_hits} cached) in {self.wall_seconds:.1f}s wall; "
            f"serial estimate {self.serial_seconds:.1f}s "
            f"(~{self.speedup_estimate:.1f}x)"
        )
        if self.journal_hits:
            line += f"; {self.journal_hits} resumed from journal"
        if self.failures or self.timeouts or self.retries:
            line += (
                f"; {self.failures} failed"
                f" ({self.timeouts} timeouts, {self.retries} retries)"
            )
        if self.cache_corrupt:
            line += f"; {self.cache_corrupt} corrupt cache entries"
        return line


class Executor:
    """Maps work units to scenario results through one dispatch loop.

    Parameters
    ----------
    max_workers:
        Attempts allowed to run at once, each in its own child process.
        ``None``/``0`` auto-detects (``os.cpu_count``).
    cache:
        Optional result store: a directory (opened with
        :meth:`~repro.experiments.checkpoint.ScenarioJournal.store`) or an
        open journal.  Hits skip simulation; fresh results are appended.
    progress:
        Optional callable receiving one human-readable line per
        completed scenario (``[3/12] 4core-inj0.10 policy=... 0.42s``).
    timeout:
        Per-attempt wall-clock limit in seconds.  A hung attempt is
        terminated (its process killed) and counted; ``None`` disables
        the limit.
    retries:
        Extra attempts after a crash or timeout (total attempts =
        ``retries + 1``).
    retry_backoff:
        Base delay before retry ``k`` is ``retry_backoff * 2**(k-1)``
        seconds (exponential backoff), stretched by up to
        ``retry_jitter`` (see :class:`RetryBackoff`).
    retry_jitter:
        Jitter fraction applied to every retry delay (``0`` disables;
        default ``0.5`` — delays spread over [d, 1.5d]) so simultaneous
        retries don't thundering-herd a recovering worker pool.
    retry_seed:
        Seed of the jitter stream.  ``None`` (default) randomizes per
        executor; a fixed seed makes the delay sequence reproducible.
    worker:
        The unit-executing callable (picklable by name); tests
        substitute hanging/crashing workers.
    log_level:
        Logging level to install in worker processes (defaults to the
        effective level of the ``repro`` logger at construction, so
        ``-v``/``-q`` verbosity propagates to workers).
    checkpoint:
        Optional :class:`~repro.experiments.checkpoint.CheckpointManager`.
        Every completed unit is journaled (write-ahead, fsync'd) the
        moment it finishes, and units already in the journal are served
        from it without re-running — the resume path.  A unit served
        from either ``checkpoint`` or ``cache`` is appended to the
        other, so each store ends up holding every unit of the run.
    distributed:
        Optional
        :class:`~repro.experiments.distributed.protocol.DistributedSpec`.
        When set, every attempt is a lease served to ``repro-noc
        worker`` processes by an embedded coordinator instead of
        running locally (see :mod:`repro.experiments.distributed`);
        results are committed idempotently through ``checkpoint`` the
        moment they arrive, so worker crashes, partitions and
        coordinator kills compose with ``--resume``.  A failed remote
        attempt is retried on the ``retry_backoff`` schedule until the
        spec's poison rule settles it, so ``timeout``, ``retries`` and
        ``governor`` (which remote workers cannot enforce) are
        rejected beside it.  Call :meth:`close` when done (stops the
        coordinator).
    governor:
        Optional :class:`~repro.experiments.governor.ScenarioGovernor`
        (or a :class:`~repro.experiments.governor.GovernorSpec`, which
        constructs one).  Every attempt then runs under a per-scenario
        :class:`~repro.experiments.governor.ResourceBudget` (wall
        deadline in the parent, ``RLIMIT_CPU``/``RLIMIT_AS`` in the
        child); budget breaches become typed failures and repeat
        offenders are quarantined instead of retried.

    Without ``distributed``, an attempt runs in a killable child
    process when isolation is asked for (:meth:`map_robust`,
    ``timeout`` or ``governor``) or there is parallelism to exploit
    (``max_workers > 1`` and several pending units), otherwise
    in-process.  A child that cannot be started switches the rest of
    the run to in-process (``stats.fallbacks``).

    Results are returned in work-unit order regardless of completion
    order, and are bit-identical whichever way an attempt ran: a unit's
    outcome is a pure function of ``(ScenarioConfig, iteration)``.

    Graceful shutdown: :meth:`request_drain` (typically wired to
    SIGINT/SIGTERM by
    :func:`~repro.experiments.checkpoint.graceful_shutdown`) stops the
    dispatch of *new* units; in-flight ones finish and are journaled,
    then the map call raises
    :class:`~repro.experiments.checkpoint.CampaignInterrupted` carrying
    the pending count.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        cache: Optional[Union[ScenarioJournal, str, Path]] = None,
        progress: Optional[Callable[[str], None]] = None,
        timeout: Optional[float] = None,
        retries: int = 0,
        retry_backoff: float = 0.25,
        worker: Callable[[WorkUnit], ScenarioResult] = _execute_unit,
        log_level: Optional[int] = None,
        checkpoint: Optional[CheckpointManager] = None,
        retry_jitter: float = 0.5,
        retry_seed: Optional[int] = None,
        distributed=None,
        governor: Optional[Union[ScenarioGovernor, GovernorSpec]] = None,
    ) -> None:
        if max_workers is None or max_workers == 0:
            max_workers = os.cpu_count() or 1
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1 (or 0/None for auto), got {max_workers}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive or None, got {timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if retry_backoff < 0:
            raise ValueError(f"retry_backoff must be >= 0, got {retry_backoff}")
        if distributed is not None and (
            timeout is not None or retries or governor is not None
        ):
            # Remote workers install no budgets and the poison rule is
            # their retry limit: accepting these would enforce nothing.
            raise ValueError(
                "distributed execution (--port) cannot be combined with "
                "--timeout, --retries or --budget*"
            )
        self.max_workers = max_workers
        if cache is not None and not isinstance(cache, ScenarioJournal):
            cache = ScenarioJournal.store(cache)
        self.cache = cache
        self.progress = progress
        self.timeout = timeout
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.worker = worker
        self.stats = ExecutorStats()
        #: Campaign-level counters and per-scenario timing distributions
        #: (build / sim / wall seconds); the summary line reports
        #: sim-time percentiles from them.
        self.metrics = MetricsRegistry()
        self.log_level = log_level if log_level is not None else current_log_level()
        self.checkpoint = checkpoint
        if governor is not None and not isinstance(governor, ScenarioGovernor):
            governor = ScenarioGovernor(governor)
        self.governor = governor
        self._backoff = RetryBackoff(retry_backoff, retry_jitter, retry_seed)
        self.distributed = distributed
        self._server = None
        self._distributed_summary: Optional[str] = None
        self._commit_lock = threading.Lock()
        #: Every ScenarioFailure this executor produced, campaign-wide
        #: (what campaign.state.json surfaces as the failed-unit list).
        self.failure_records: List[ScenarioFailure] = []
        self._drain = threading.Event()
        if checkpoint is not None:
            self.metrics.inc("checkpoint.journal_replayed", checkpoint.journal.replayed)
            self.metrics.inc("checkpoint.journal_torn", checkpoint.journal.torn)

    @property
    def _stores(self) -> List[ScenarioJournal]:
        """Every store a unit is looked up in (in this order) and
        appended to; follows a checkpoint attached after construction."""
        journal = None if self.checkpoint is None else self.checkpoint.journal
        return [store for store in (journal, self.cache) if store is not None]

    def request_drain(self) -> None:
        """Stop dispatching new units; in-flight ones finish and are
        journaled, then the running map raises ``CampaignInterrupted``."""
        self._drain.set()

    # -- public API ----------------------------------------------------
    def map(self, units: Sequence[WorkUnit]) -> List[ScenarioResult]:
        """Execute every unit and return results in input order.

        :meth:`map_robust` followed by a raise once every unit has
        settled and been journaled.  A governed run whose failures are
        all budget breaches raises
        :class:`~repro.experiments.governor.BudgetExceeded` (``--resume``
        then re-runs only the offenders).  Otherwise the first failed
        unit's original exception is re-raised, or a ``RuntimeError``
        naming the failure when no exception object survived (worker
        death, timeout, coordinator poison).
        """
        results, errors = self._run(units, isolate=False)
        failures = [r for r in results if isinstance(r, ScenarioFailure)]
        if not failures:
            return results  # type: ignore[return-value]  # no failures
        if self.governor is not None and all(
            f.kind in BUDGET_KINDS for f in failures
        ):
            raise BudgetExceeded(failures)
        index = next(i for i, r in enumerate(results) if r is failures[0])
        exc = errors.get(index)
        if exc is None:
            raise RuntimeError(str(failures[0]))
        if exc.__traceback__ is None and failures[0].traceback:
            # Unpickled from a child: chain the worker-side traceback.
            exc.__cause__ = RuntimeError(f"in the worker:\n{failures[0].traceback}")
        raise exc

    def map_robust(self, units: Sequence[WorkUnit]) -> List[Outcome]:
        """Execute every unit, surviving crashes and hangs.

        Each attempt runs in its own killable process under the
        executor's ``timeout``/``retries``/``governor`` budget; a unit
        that exhausts its attempts yields a :class:`ScenarioFailure` in
        its slot instead of aborting the campaign.  Successful results
        are bit-identical to :meth:`map` (same pure worker).
        """
        return self._run(units, isolate=True)[0]

    def summary(self) -> str:
        """One-line accounting over everything this executor ran."""
        line = self.stats.summary()
        distributed = (
            self._server.summary() if self._server is not None
            else self._distributed_summary
        )
        if distributed is not None:
            line += f"; {distributed}"
        if self.governor is not None:
            governor = self.governor.summary()
            if governor is not None:
                line += f"; {governor}"
        sim = self.metrics.histograms.get("scenario.sim_seconds")
        if sim is not None and sim.count:
            line += (
                f"; sim p50/p95/p99 = "
                f"{sim.p50:.2f}/{sim.p95:.2f}/{sim.p99:.2f}s"
            )
        return line

    # -- dispatch ------------------------------------------------------
    def _run(
        self, units: Sequence[WorkUnit], isolate: bool
    ) -> Tuple[List[Outcome], Dict[int, BaseException]]:
        """Serve what the journal/cache know, dispatch the rest.

        Returns the results in unit order plus, for failed slots whose
        exception object survived, that exception.
        """
        units = list(units)
        started = time.perf_counter()
        self.stats.units_total += len(units)
        results: List[Optional[Outcome]] = [None] * len(units)
        errors: Dict[int, BaseException] = {}

        pending: List[int] = []
        for index, unit in enumerate(units):
            known = self._lookup(unit)
            if known is not None:
                results[index] = known
                self._report(index, unit, known, cached=True)
            else:
                pending.append(index)
        if self.cache is not None and self.cache.torn > self.stats.cache_corrupt:
            if not self.stats.cache_corrupt:
                self._report_line(
                    f"warning: {self.cache.torn} corrupt result-store records "
                    f"in {self.cache.path} were treated as misses"
                )
            self.stats.cache_corrupt = self.cache.torn

        if pending:
            in_process = not (
                isolate
                or self.timeout is not None
                or self.governor is not None
                or (self.max_workers > 1 and len(pending) > 1)
            )
            self._dispatch(units, pending, results, errors, in_process)

        self.stats.units_completed += len(units)
        self.stats.wall_seconds += time.perf_counter() - started
        return results, errors  # type: ignore[return-value]  # every slot is filled

    def _lookup(self, unit: WorkUnit) -> Optional[ScenarioResult]:
        """Serve a unit from the first store that holds it (a record
        holding another scenario's result is a torn record: a miss)."""
        stores = self._stores
        if not stores:
            return None
        key = cache_key(*unit)
        for store in stores:
            hit = store.get(key)
            if hit is not None:
                if store is self.cache:
                    self.stats.cache_hits += 1
                else:
                    self.stats.journal_hits += 1
                self._store(key, hit)
                return hit
        return None

    def _dispatch(
        self,
        units: Sequence[WorkUnit],
        pending: Sequence[int],
        results: List[Optional[Outcome]],
        errors: Dict[int, BaseException],
        in_process: bool,
    ) -> None:
        """The dispatch loop: one attempt runner, one retry schedule.

        An attempt runs in a killable child process (at most
        ``max_workers`` live), inline when ``in_process`` (no deadline
        is enforceable there; the first child that cannot be started
        switches the rest of the loop to inline attempts), or — with a
        distributed backend — as a lease on the embedded coordinator,
        with no local limit on how many are out.  The scheduler
        multiplexes result pipes and the coordinator's event pipe
        becoming readable, per-attempt deadlines and lease expiry, and
        backoff delays elapsing for queued retries.  Units that share a
        cache key go out as one lease: the first one's outcome settles
        the rest.
        """
        ctx = multiprocessing.get_context()
        server = None if self.distributed is None else self._ensure_server()
        keys: Dict[int, str] = {}  # unit index -> cache key of its lease
        followers: Dict[int, List[int]] = {}
        if server is not None:
            leaders: Dict[str, int] = {}
            for index in pending:
                leader = leaders.setdefault(cache_key(*units[index]), index)
                if leader != index:
                    followers.setdefault(leader, []).append(index)
            keys = {index: key for key, index in leaders.items()}
            pending = list(keys)
        # (unit index, attempt number, earliest monotonic start time)
        queue: List[Tuple[int, int, float]] = [(i, 1, 0.0) for i in pending]
        running: dict = {}  # receiving pipe end -> task record
        leased: Dict[str, Tuple[int, int]] = {}  # key -> (index, attempt)
        unit_started = {i: time.perf_counter() for i in pending}
        # Per-unit resource budget and effective wall limit (the tighter
        # of the budget's wall cap and the executor timeout).  Without a
        # governor these degrade to (None, self.timeout).
        budgets: Dict[int, Optional[ResourceBudget]] = {
            i: None if self.governor is None else self.governor.budget_for(units[i][0])
            for i in pending
        }
        wall_limits: Dict[int, Optional[float]] = {
            i: self.timeout if budget is None else budget.deadline(self.timeout)
            for i, budget in budgets.items()
        }

        def has_slot() -> bool:
            return server is not None or len(running) < self.max_workers

        def finish(index: int, result: ScenarioResult) -> None:
            for i in [index, *followers.get(index, ())]:
                self._finish(i, units[i], result, results)

        def spawn(index: int, attempt: int) -> None:
            # The result carries the unit back up the pipe, so an
            # unpicklable unit can only ever run in-process.
            pickle.dumps(units[index])
            recv_end, send_end = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_attempt_child, daemon=True, args=(
                self.worker, units[index], send_end, self.log_level, budgets[index],
            ))
            try:
                proc.start()
            finally:
                send_end.close()
            limit = wall_limits[index]
            running[recv_end] = {
                "index": index, "attempt": attempt, "proc": proc,
                "deadline": None if limit is None else time.monotonic() + limit,
            }

        def run_inline(index: int, attempt: int) -> None:
            try:
                result = self.worker(units[index])
            except Exception as exc:  # noqa: BLE001 - becomes a record
                retry_or_fail(
                    index, attempt, type(exc).__name__, str(exc),
                    timed_out=False, traceback=traceback_module.format_exc(),
                    exc=exc,
                )
            else:
                finish(index, result)

        def retry_or_fail(index: int, attempt: int, error_type: str,
                          message: str, timed_out: bool,
                          traceback: Optional[str] = None,
                          kind: Optional[str] = None,
                          exc: Optional[BaseException] = None,
                          identity: Optional[str] = None) -> None:
            if kind is None:
                kind = classify_failure_kind(error_type, timed_out=timed_out)
            if identity is None:
                quarantined, budget_info = self._note_breach(
                    units[index], kind, time.perf_counter() - unit_started[index]
                )
                # A quarantined unit stops retrying immediately: the
                # budget verdict is final, remaining attempts would just
                # burn the same budget again.
                retry = not quarantined and attempt <= self.retries
            else:
                # A remote attempt retries until the poison rule
                # settles its key.
                quarantined = server.ledger.record(keys[index], identity)
                budget_info = None
                retry = not quarantined
            if retry:
                self.stats.retries += 1
                backoff = self._backoff.delay(attempt)
                queue.append((index, attempt + 1, time.monotonic() + backoff))
                return
            if exc is not None:
                errors[index] = exc
            failure = ScenarioFailure(
                scenario=units[index][0],
                iteration=units[index][1],
                error_type=error_type,
                message=message,
                attempts=attempt,
                timed_out=timed_out,
                wall_seconds=time.perf_counter() - unit_started[index],
                traceback=traceback,
                kind=kind,
                quarantined=quarantined,
                budget=budget_info,
            )
            self._fail(index, failure, results)
            for i in followers.get(index, ()):
                self._fail(i, dataclasses.replace(
                    failure, scenario=units[i][0], iteration=units[i][1]
                ), results)

        def reap(conn, task, timed_out: bool) -> None:
            proc = task["proc"]
            message = None
            if timed_out:
                proc.terminate()
            else:
                try:
                    if conn.poll():
                        message = conn.recv()
                except (EOFError, OSError):
                    message = None
            proc.join()
            conn.close()
            index, attempt = task["index"], task["attempt"]
            if timed_out:
                self.stats.timeouts += 1
                retry_or_fail(
                    index, attempt, "Timeout",
                    f"attempt exceeded {wall_limits[index]}s", timed_out=True,
                )
            elif message is not None and message[0] == "ok":
                finish(index, message[1])
            elif message is not None and message[0] == "error":
                try:
                    exc = pickle.loads(message[4]) if message[4] else None
                except Exception:  # noqa: BLE001 - e.g. a custom __init__
                    exc = None
                retry_or_fail(
                    index, attempt, message[1], message[2], timed_out=False,
                    traceback=message[3], exc=exc,
                )
            else:
                # No result made it up the pipe: the kernel killed the
                # worker.  The exit signal tells us why — SIGXCPU is
                # the CPU budget, SIGKILL is the OOM killer's (and the
                # RLIMIT_CPU hard cap's) signature.
                retry_or_fail(
                    index, attempt, "WorkerDied",
                    f"worker exited with code {proc.exitcode}", timed_out=False,
                    kind=classify_failure_kind("WorkerDied", exitcode=proc.exitcode),
                )

        def settle_lease(kind: str, key: str, payload) -> None:
            if key not in leased:
                return  # not this map's (a straggler of an earlier one)
            index, attempt = leased.pop(key)
            if kind == "result":
                finish(index, payload)
            elif kind == "failed":
                error = payload.error
                retry_or_fail(
                    index, attempt, str(error.get("error_type")),
                    str(error.get("message", "")), timed_out=False,
                    traceback=error.get("traceback"), kind=error.get("kind"),
                    identity=payload.identity,
                )
            else:  # "error": the durable commit failed
                raise payload

        try:
            # Draining stops new launches; the loop then only reaps what
            # is already in flight (still bounded by per-attempt
            # deadlines and lease expiry) and leaves the queue for the
            # resume run.
            while running or leased or (queue and not self._drain.is_set()):
                now = time.monotonic()
                # Launch every due queued attempt while slots are free.
                while has_slot() and not self._drain.is_set():
                    due = next(
                        (k for k, item in enumerate(queue) if item[2] <= now), None
                    )
                    if due is None:
                        break
                    index, attempt, _ = queue.pop(due)
                    if server is not None:
                        leased[keys[index]] = (index, attempt)
                        server.submit([(keys[index], units[index])])
                        continue
                    if not in_process:
                        try:
                            spawn(index, attempt)
                            continue
                        except _SPAWN_FAILURES as exc:
                            in_process = True
                            self.stats.fallbacks += 1
                            self._report_line(
                                f"cannot start worker processes ({exc}); running "
                                "the rest in-process (timeouts not enforceable)"
                            )
                    run_inline(index, attempt)

                # Sleep until the next event could possibly happen.  A
                # queued attempt is such an event only while a slot is
                # free to launch it; otherwise its (possibly past) start
                # time would turn the wait into a busy poll.  Leases are
                # scanned for expiry every poll interval.
                horizons = [
                    t["deadline"] for t in running.values() if t["deadline"] is not None
                ]
                if has_slot() and not self._drain.is_set():
                    horizons.extend(item[2] for item in queue)
                if leased:
                    horizons.append(time.monotonic() + self.distributed.poll_interval)
                wait_for = (
                    None if not horizons
                    else max(0.0, min(horizons) - time.monotonic())
                )
                waitables = list(running)
                if server is not None:
                    waitables.append(server.events)
                if waitables:
                    ready = connection_wait(waitables, timeout=wait_for)
                    now = time.monotonic()
                    for conn in ready:
                        if conn in running:
                            reap(conn, running.pop(conn), timed_out=False)
                            continue
                        while conn.poll():
                            settle_lease(*conn.recv())
                    for conn in [
                        c for c, t in running.items()
                        if t["deadline"] is not None and now >= t["deadline"]
                    ]:
                        reap(conn, running.pop(conn), timed_out=True)
                    if leased:
                        for failure in server.expire_leases():
                            settle_lease("failed", failure.key, failure)
                elif wait_for:
                    time.sleep(wait_for)
                if server is not None and self._drain.is_set():
                    # Scenarios no worker has picked up go back to the
                    # queue; leased ones finish or expire.
                    for key in server.drain():
                        if key in leased:
                            queue.append((*leased.pop(key), 0.0))
            if self._drain.is_set() and queue:
                raise CampaignInterrupted(
                    sum(1 + len(followers.get(i, ())) for i, _, _ in queue)
                )
        finally:
            for conn, task in running.items():
                task["proc"].terminate()
                task["proc"].join()
                conn.close()

    # -- distributed backend -------------------------------------------
    def _ensure_server(self):
        """Start (once) the embedded coordinator for this executor."""
        if self._server is None:
            # Imported lazily: distributed/ depends on this module.
            from repro.experiments.distributed.coordinator import CoordinatorServer

            # Commits run on the coordinator's handler threads: a
            # worker's completion is acked only once it is journaled
            # here, so the write-ahead property extends across hosts.
            self._server = CoordinatorServer(self.distributed, commit=self._store)
            self._server.start()
            host, port = self._server.address
            self._report_line(f"distributed coordinator serving on {host}:{port}")
        return self._server

    def distributed_address(self) -> Tuple[str, int]:
        """``(host, port)`` of the embedded coordinator (starting it)."""
        if self.distributed is None:
            raise RuntimeError("executor has no distributed backend configured")
        return self._ensure_server().address

    def close(self) -> None:
        """Stop the embedded coordinator and close the ``cache`` store
        (safe to call repeatedly)."""
        if self._server is not None:
            self._distributed_summary = self._server.summary()
            self._server.close()
            self._server = None
        if self.cache is not None:
            self.cache.close()

    def _note_breach(
        self, unit: WorkUnit, kind: str, elapsed: float
    ) -> Tuple[bool, Optional[Dict[str, object]]]:
        """Record one budget breach with the governor (if any).

        Returns ``(quarantined, budget_info)``; ``(False, None)`` when
        ungoverned or when ``kind`` is not a budget kind — so callers
        can consult it unconditionally on every failed attempt.
        """
        if self.governor is None or kind not in BUDGET_KINDS:
            return False, None
        scenario, iteration = unit
        quarantined = self.governor.record_breach(
            cache_key(scenario, iteration), scenario, iteration, kind, elapsed
        )
        self.metrics.inc(f"governor.breach_{kind}")
        if quarantined:
            self.metrics.inc("governor.quarantined")
        return quarantined, self.governor.budget_info(scenario, elapsed)

    def _fail(
        self,
        index: int,
        failure: ScenarioFailure,
        results: List[Optional[Outcome]],
    ) -> None:
        results[index] = failure
        self.stats.failures += 1
        self.failure_records.append(failure)
        self._report_line(f"[{index + 1}/{self.stats.units_total}] FAILED {failure}")

    # -- bookkeeping ---------------------------------------------------
    def _finish(
        self,
        index: int,
        unit: WorkUnit,
        result: ScenarioResult,
        results: List[Optional[ScenarioResult]],
    ) -> None:
        results[index] = result
        self.stats.serial_seconds += result.wall_seconds
        self.metrics.observe("scenario.build_seconds", result.build_seconds)
        self.metrics.observe("scenario.sim_seconds", result.sim_seconds)
        self.metrics.observe("scenario.wall_seconds", result.wall_seconds)
        # Write-ahead: the result is durable (fsync'd journal record)
        # before the campaign consumes it.
        if self._stores:
            self._store(cache_key(*unit), result)
        self._report(index, unit, result, cached=False)

    def _store(self, key: str, result: ScenarioResult) -> None:
        """Append a result to every store that lacks it.

        The lock keeps each store single-writer within this process:
        coordinator handler threads commit remote results through here.
        """
        with self._commit_lock:
            for store in self._stores:
                wrote = store.append(key, result)
                if wrote and store is not self.cache:
                    self.metrics.inc("checkpoint.journal_appends")

    def _report(self, index: int, unit: WorkUnit, result: ScenarioResult, cached: bool) -> None:
        if self.progress is None:
            return
        scenario, iteration = unit
        timing = "cache" if cached else f"{result.sim_seconds:.2f}s"
        self._report_line(
            f"[{index + 1}/{self.stats.units_total}] {scenario.label} "
            f"policy={scenario.policy} iter={iteration} {timing}"
        )

    def _report_line(self, line: str) -> None:
        if self.progress is not None:
            self.progress(line)


def make_executor(
    jobs: Optional[int] = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    progress: Optional[Callable[[str], None]] = None,
    timeout: Optional[float] = None,
    retries: int = 0,
    checkpoint: Optional[CheckpointManager] = None,
    distributed=None,
    governor: Optional[Union[ScenarioGovernor, GovernorSpec]] = None,
) -> Optional[Executor]:
    """CLI helper: build an :class:`Executor` only when one is wanted.

    ``jobs=1`` with no cache and no robustness/checkpoint/distributed/
    governor knobs keeps the historical in-function serial
    path (returns ``None``); ``jobs=0`` auto-detects worker count.
    """
    if (
        (jobs == 1 or jobs is None)
        and cache_dir is None
        and timeout is None
        and retries == 0
        and checkpoint is None
        and distributed is None
        and governor is None
    ):
        return None
    return Executor(
        max_workers=jobs, cache=cache_dir, progress=progress,
        timeout=timeout, retries=retries,
        checkpoint=checkpoint, distributed=distributed, governor=governor,
    )


def with_checkpoint(
    executor: Optional[Executor], checkpoint: Optional[CheckpointManager]
) -> Optional[Executor]:
    """The executor a campaign driver runs on when handed ``checkpoint``.

    ``executor`` journaling through ``checkpoint`` (unless it already
    journals through one), or a serial executor built around it when
    ``executor`` is ``None``; without a checkpoint, ``executor`` as is.
    """
    if checkpoint is None:
        return executor
    if executor is None:
        return Executor(max_workers=1, checkpoint=checkpoint)
    if executor.checkpoint is None:
        executor.checkpoint = checkpoint
    return executor


def execute_units(
    units: Sequence[WorkUnit], executor: Optional[Executor] = None
) -> List[ScenarioResult]:
    """Run units through ``executor``, or serially in-process when ``None``."""
    if executor is None:
        return [run_scenario(scenario, iteration) for scenario, iteration in units]
    return executor.map(units)
