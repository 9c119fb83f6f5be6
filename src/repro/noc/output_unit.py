"""Upstream port (output unit): out_vc_state tracking, pre-VA policy stage,
VC allocation and credit management.

In a VC router the *upstream* router performs the VA stage for the
*downstream* input port, so it is the upstream output unit that owns:

* ``out_vc_state`` — one :class:`OutVCEntry` per downstream VC (IDLE /
  ACTIVE, credit count, tail bookkeeping),
* the NBTI additions of the paper (Fig. 1B): the ``most_degraded`` marker
  received over ``Down_Up`` and the pre-VA recovery policy whose
  ``enable``/VC-id outputs drive the ``Up_Down`` link, and
* the power view of each downstream VC (``gated`` flag + ``available_at``
  wake-completion cycle), kept consistent with the downstream buffers by
  construction since all gate/wake commands originate here.

Virtual networks
----------------
The paper's platform partitions the VCs of every port into *virtual
networks* (Table I: 2/6 vnets with 2/4 VCs each) so that protocol
message classes cannot deadlock each other.  The partition is strict:

* a packet of vnet ``v`` may only be allocated VCs of vnet ``v``, and
* the recovery policy runs **once per vnet** on that vnet's VC slice —
  new traffic of one vnet must never be served by (or keep awake) a VC
  of another.

Each (port, vnet) pair therefore owns a private policy instance with
its own traffic bit, most-degraded id and memoization state, held in a
:class:`VnetEngine`.  With ``num_vnets == 1`` (the default, and what the
paper's measurements use one at a time) everything collapses to the
plain per-port behaviour.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.noc.arbiter import RoundRobinArbiter
from repro.noc.flit import Flit
from repro.noc.link import Channel
from repro.noc.policy_api import (
    OutVCState,
    PolicyContext,
    PolicyDecision,
    RecoveryPolicy,
)
from repro.telemetry import probes

#: Power-gating command carried by the Up_Down control channel.
GateCommand = Tuple[str, int]  # ("gate" | "wake", vc)

#: Small-int codes of the policy-facing VC states in decision-cache
#: keys, and the states they stand for (indexed by code).
_ACTIVE, _IDLE, _RECOVERY = 0, 1, 2
_STATE_OF_CODE = (OutVCState.ACTIVE, OutVCState.IDLE, OutVCState.RECOVERY)
_ACTIVE_STATE = OutVCState.ACTIVE


class OutVCEntry:
    """Book-keeping for one downstream VC as seen from upstream."""

    __slots__ = ("state", "credits", "max_credits", "gated", "available_at", "tail_sent", "packet_id")

    def __init__(self, max_credits: int) -> None:
        self.state = OutVCState.IDLE
        self.credits = max_credits
        self.max_credits = max_credits
        self.gated = False
        self.available_at = 0
        self.tail_sent = False
        self.packet_id: Optional[int] = None

    def __repr__(self) -> str:
        return (
            f"OutVCEntry(state={self.state.value}, credits={self.credits}/"
            f"{self.max_credits}, gated={self.gated})"
        )


class VnetEngine:
    """Per-(port, vnet) recovery-policy state: the pre-VA stage of one
    VC slice."""

    __slots__ = (
        "vnet",
        "start",
        "count",
        "policy",
        "new_traffic",
        "most_degraded_vc",
        "last_decision",
        "md_updated_cycle",
        "md_changed_cycle",
        "implausible_until",
        "faulted",
        "degrade_events",
        "degraded_cycles",
        "degraded_from",
        "_ctx_version",
        "_policy_key",
        "_decision_cache",
        "_alloc_arbiter",
        "on_invalidate",
    )

    def __init__(self, vnet: int, start: int, count: int, policy: RecoveryPolicy) -> None:
        self.vnet = vnet
        self.start = start
        self.count = count
        self.policy = policy
        self.new_traffic = False
        self.most_degraded_vc: Optional[int] = None  # local (slice) index
        self.last_decision: Optional[PolicyDecision] = None
        # Down_Up health watchdog (see UpstreamPort.run_policy).  The
        # watchdog only arms once a report has actually been received
        # (md_updated_cycle stays None on sensor-less/ejection ports).
        self.md_updated_cycle: Optional[int] = None
        self.md_changed_cycle: Optional[int] = None
        self.implausible_until = -1
        self.faulted = False
        self.degrade_events = 0
        self.degraded_cycles = 0
        #: First degraded cycle not yet booked into ``degraded_cycles``
        #: (interval accounting: see ``UpstreamPort.book_degraded``).
        self.degraded_from = 0
        self._ctx_version = 0
        self._policy_key: Optional[Tuple[int, int]] = None
        #: Value-level decision memo, used while the policy is *stable*:
        #: (VC-state codes, traffic bit, most-degraded id, faulted,
        #: decision phase) -> (the frozen, shareable decision they
        #: produced, whether applying it to those VC states is a no-op,
        #: the events a traced ``decide`` emitted or ``None``).  A stable
        #: policy's decision is a deterministic function of the
        #: observable context plus the phase of its epoch (see
        #: ``RecoveryPolicy.decision_phase``), so re-seeing the same
        #: values lets the port skip context construction and `decide`
        #: entirely — only the (diff-based) application re-runs, and not
        #: even that when it would command nothing.  The key space is
        #: tiny (a few dozen VC-state combinations times a few phases),
        #: so the dict stays small for the lifetime of the port.
        self._decision_cache: dict = {}
        self._alloc_arbiter = RoundRobinArbiter(count)
        #: Optional observer fired on every memo bust.  The SoA engine
        #: installs one so it re-runs a port's policy exactly when the
        #: dense engine's memoization would miss; ``None`` otherwise.
        self.on_invalidate = None

    def invalidate(self) -> None:
        """Mark a policy-visible input as changed (busts the memo)."""
        self._ctx_version += 1
        if self.on_invalidate is not None:
            self.on_invalidate()


class UpstreamPort:
    """One output unit driving one downstream input port.

    Shared by routers (their N/S/E/W/local output ports) and by network
    interfaces (which act as the upstream of their router's local input
    port), so the recovery methodology covers every input port in the
    NoC uniformly.

    Parameters
    ----------
    num_vcs:
        VCs per virtual network (2 or 4 in the paper).
    buffer_depth:
        Downstream buffer depth in flits (credits start here).
    policy:
        The pre-VA :class:`RecoveryPolicy` for vnet 0, or a factory via
        ``policy_factory`` for multi-vnet ports.
    data_channel:
        Delay line carrying ``(vc, flit)`` to the downstream input unit.
    control_channel:
        Delay line carrying :data:`GateCommand` items (the ``Up_Down``
        link; same latency as the data link).
    wake_latency:
        Extra cycles a gated buffer needs after the wake command arrives.
    num_vnets:
        Virtual networks sharing the port; total VCs =
        ``num_vcs * num_vnets``.
    policy_factory:
        Builds one policy instance per vnet; required when
        ``num_vnets > 1`` (per-vnet policies must not share state).
    md_stale_after:
        Staleness watchdog threshold: when more than this many cycles
        pass without a ``Down_Up`` delivery (heartbeat or change), the
        vnet is marked ``faulted`` and sensor-wise policies degrade to
        their sensor-less fallback.  ``None`` disables the watchdog.
    md_min_change_interval:
        Plausibility threshold: most-degraded *changes* arriving closer
        together than this (sensors only re-measure every
        ``sample_period``) are implausible and trip the watchdog for a
        hold-off window.  ``0`` disables the plausibility check.
    """

    __slots__ = (
        "num_vcs",
        "num_vnets",
        "total_vcs",
        "buffer_depth",
        "data_channel",
        "control_channel",
        "wake_latency",
        "md_stale_after",
        "md_min_change_interval",
        "entries",
        "engines",
        "gate_commands",
        "wake_commands",
        "trace",
        "trace_id",
    )

    def __init__(
        self,
        num_vcs: int,
        buffer_depth: int,
        policy: Optional[RecoveryPolicy],
        data_channel: Channel,
        control_channel: Channel,
        wake_latency: int = 1,
        num_vnets: int = 1,
        policy_factory=None,
        md_stale_after: Optional[int] = None,
        md_min_change_interval: int = 0,
    ) -> None:
        if num_vcs < 1:
            raise ValueError(f"num_vcs must be >= 1, got {num_vcs}")
        if buffer_depth < 1:
            raise ValueError(f"buffer_depth must be >= 1, got {buffer_depth}")
        if wake_latency < 0:
            raise ValueError(f"wake_latency must be >= 0, got {wake_latency}")
        if num_vnets < 1:
            raise ValueError(f"num_vnets must be >= 1, got {num_vnets}")
        if num_vnets > 1 and policy_factory is None:
            raise ValueError("multi-vnet ports need a policy_factory")
        self.num_vcs = num_vcs
        self.num_vnets = num_vnets
        self.total_vcs = num_vcs * num_vnets
        self.buffer_depth = buffer_depth
        self.data_channel = data_channel
        self.control_channel = control_channel
        self.wake_latency = wake_latency
        if md_stale_after is not None and md_stale_after <= 0:
            raise ValueError(f"md_stale_after must be positive, got {md_stale_after}")
        if md_min_change_interval < 0:
            raise ValueError(
                f"md_min_change_interval must be >= 0, got {md_min_change_interval}"
            )
        self.md_stale_after = md_stale_after
        self.md_min_change_interval = md_min_change_interval
        self.entries: List[OutVCEntry] = [
            OutVCEntry(buffer_depth) for _ in range(self.total_vcs)
        ]
        self.engines: List[VnetEngine] = []
        for vnet in range(num_vnets):
            vnet_policy = policy_factory() if policy_factory is not None else policy
            if vnet_policy is None:
                raise ValueError("either policy or policy_factory must be given")
            self.engines.append(
                VnetEngine(vnet, vnet * num_vcs, num_vcs, vnet_policy)
            )
        # Telemetry: how many gate / wake commands this port has issued.
        self.gate_commands = 0
        self.wake_commands = 0
        #: Telemetry handle + track id (see repro.telemetry.runtime);
        #: ``None``/0 outside traced runs.
        self.trace = None
        self.trace_id = 0

    # ------------------------------------------------------------------
    # Introspection shims (single-vnet convenience)
    # ------------------------------------------------------------------
    @property
    def policy(self) -> RecoveryPolicy:
        """The vnet-0 policy (the only one on single-vnet ports)."""
        return self.engines[0].policy

    @property
    def last_decision(self) -> Optional[PolicyDecision]:
        """The vnet-0 decision (single-vnet convenience)."""
        return self.engines[0].last_decision

    @property
    def new_traffic(self) -> bool:
        """The vnet-0 traffic bit (single-vnet convenience)."""
        return self.engines[0].new_traffic

    @property
    def most_degraded_vc(self) -> Optional[int]:
        """Global id of vnet 0's most-degraded VC (single-vnet shim)."""
        local = self.engines[0].most_degraded_vc
        return None if local is None else self.engines[0].start + local

    def vnet_of(self, vc: int) -> int:
        """Virtual network that owns a global VC index."""
        if not 0 <= vc < self.total_vcs:
            raise ValueError(f"vc {vc} out of range [0, {self.total_vcs})")
        return vc // self.num_vcs

    # ------------------------------------------------------------------
    # Pre-VA policy stage
    # ------------------------------------------------------------------
    def vc_policy_state(self, vc: int) -> OutVCState:
        """Policy-facing state: ACTIVE, IDLE (awake) or RECOVERY (gated)."""
        entry = self.entries[vc]
        if entry.state is OutVCState.ACTIVE:
            return OutVCState.ACTIVE
        return OutVCState.RECOVERY if entry.gated else OutVCState.IDLE

    def build_context(self, cycle: int, vnet: int = 0) -> PolicyContext:
        """Snapshot one vnet's VC slice for its policy."""
        engine = self.engines[vnet]
        states = tuple(
            self.vc_policy_state(engine.start + i) for i in range(engine.count)
        )
        return PolicyContext(
            cycle=cycle,
            vc_states=states,
            new_traffic=engine.new_traffic,
            most_degraded_vc=engine.most_degraded_vc,
            sensor_faulted=engine.faulted,
        )

    def _tick_watchdog(self, engine: VnetEngine, cycle: int) -> None:
        """Re-assess one vnet's Down_Up health (staleness + plausibility).

        Only sensor-consuming policies on ports that have actually
        received a report participate; transitions bust the memo so the
        policy re-decides immediately on degrade and on heal.  Degraded
        cycles are booked as intervals: a tick books every cycle since
        the last booked one, so ticking every cycle (stepping) and
        ticking only where ``faulted`` may flip (SoA, see
        :meth:`next_watchdog_event`) count the same.
        """
        if (
            self.md_stale_after is None
            or engine.md_updated_cycle is None
            or not engine.policy.uses_sensor
        ):
            return
        stale = cycle - engine.md_updated_cycle > self.md_stale_after
        implausible = cycle < engine.implausible_until
        faulted = stale or implausible
        if faulted != engine.faulted:
            engine.faulted = faulted
            if faulted:
                engine.degrade_events += 1
            else:
                engine.degraded_cycles += cycle - engine.degraded_from
            engine.degraded_from = cycle
            if self.trace is not None:
                self.trace.instant(
                    probes.WATCHDOG_DEGRADE if faulted else probes.WATCHDOG_HEAL,
                    "watchdog", tid=self.trace_id,
                    args={"vnet": engine.vnet, "stale": stale, "implausible": implausible},
                    ts=cycle,
                )
            engine.invalidate()
        if faulted:
            engine.degraded_cycles += cycle + 1 - engine.degraded_from
            engine.degraded_from = cycle + 1

    def book_degraded(self, cycle: int) -> None:
        """Book the degraded cycles of still-faulted vnets up to
        ``cycle`` (exclusive); call before reading ``degraded_cycles``
        after a run that did not tick the watchdog every cycle."""
        for engine in self.engines:
            if engine.faulted:
                engine.degraded_cycles += cycle - engine.degraded_from
                engine.degraded_from = cycle

    def next_watchdog_event(self, cycle: int) -> Tuple[bool, Optional[int]]:
        """When :meth:`run_policy` acts with no input change announced.

        Returns ``(now, later)``: whether it acts at ``cycle``, and the
        first cycle after it does (``None``: never), both assuming no
        Down_Up delivery in between.  It acts when a watchdog flips
        ``faulted`` (the staleness deadline passes, an implausibility
        hold-off ends) and, while a vnet is degraded, when its policy
        enters a new epoch: a ``cycle_free_decide`` policy ignores the
        epoch only while healthy, so its degraded fallback re-decides at
        every epoch change.  (Other policies' epoch boundaries are
        declared by ``epoch_period``.)  Call after the cycle's
        deliveries; the SoA engine visits the port at these cycles.
        """
        now = False
        later = None
        stale_after = self.md_stale_after
        for engine in self.engines:
            policy = engine.policy
            if (
                stale_after is None
                or engine.md_updated_cycle is None
                or not policy.uses_sensor
            ):
                continue
            stale_at = engine.md_updated_cycle + stale_after + 1
            until = engine.implausible_until
            faulted = cycle >= stale_at or cycle < until
            if faulted:
                # Stale only heals on a delivery; a hold-off ends.
                event = until if cycle < stale_at and until < stale_at else None
                if policy.cycle_free_decide:
                    if policy.epoch(cycle) != policy.epoch(cycle - 1):
                        now = True
                    period = getattr(policy, "epoch_period", None)
                    if period is not None:
                        boundary = (cycle // period + 1) * period
                    elif policy.epoch(0) != policy.epoch(1 << 30):
                        boundary = cycle + 1
                    else:
                        boundary = None
                    if boundary is not None and (event is None or boundary < event):
                        event = boundary
            else:
                event = stale_at
            if faulted != engine.faulted:
                now = True
            if event is not None and (later is None or event < later):
                later = event
        return now, later

    def memo_stale(self, cycle: int) -> bool:
        """Whether :meth:`run_policy` at ``cycle`` would re-evaluate some
        vnet with the inputs as they stand: its policy is not stable,
        has never run, or its memo key (input version, epoch) moved.
        Traffic-bit updates and watchdog flips are not foreseen here;
        the SoA engine learns of those through ``on_invalidate`` and
        :meth:`next_watchdog_event`."""
        for engine in self.engines:
            policy = engine.policy
            if not policy.stable or engine.last_decision is None:
                return True
            if engine._policy_key != (engine._ctx_version, policy.epoch(cycle)):
                return True
        return False

    def run_policy(self, cycle: int) -> List[PolicyDecision]:
        """Evaluate every vnet's policy and apply the decisions.

        Stable policies (see :class:`RecoveryPolicy.stable`) are memoized
        per vnet on (input version, policy epoch): when nothing they can
        observe changed, the previous — already applied — decision
        stands.  On a memo miss, a second value-level cache keyed by the
        *observable context values* and the policy's
        :meth:`~RecoveryPolicy.decision_phase` skips :meth:`decide` when
        the same situation was seen before (sound because a stable
        policy's decision is a pure function of those values and that
        phase).  Each entry also records whether applying its decision
        would command any gate or wake — a pure function of the key,
        whose VC states are the port's current ones — and the
        application is skipped when it would not.  A traced policy's
        events are captured with its cached decision and replayed at
        this cycle on the miss and on every hit, so the trace is the
        same as if it re-decided (its events depend only on the cache
        key, save their ``ts``).
        """
        decisions: List[PolicyDecision] = []
        entries = self.entries
        for engine in self.engines:
            self._tick_watchdog(engine, cycle)
            policy = engine.policy
            if not policy.stable:
                decision = policy.decide(self.build_context(cycle, engine.vnet))
                decision.validate(engine.count)
                self.apply_decision(decision, cycle, engine.vnet)
                decisions.append(decision)
                continue
            epoch = policy.epoch(cycle)
            key = (engine._ctx_version, epoch)
            if key == engine._policy_key and engine.last_decision is not None:
                decisions.append(engine.last_decision)
                continue
            engine._policy_key = key
            # Inlined vc_policy_state, as small-int codes: this runs on
            # every memo miss, and an int tuple hashes without calling
            # Enum.__hash__.
            start = engine.start
            if engine.count == 2:
                # Unrolled for the dominant 2-VC-per-vnet shape: a
                # genexpr frame per memo miss is measurable.
                e = entries[start]
                c0 = _ACTIVE if e.state is _ACTIVE_STATE else _RECOVERY if e.gated else _IDLE
                e = entries[start + 1]
                codes = (
                    c0,
                    _ACTIVE if e.state is _ACTIVE_STATE else _RECOVERY if e.gated else _IDLE,
                )
            else:
                codes = tuple(
                    _ACTIVE if (e := entries[i]).state is _ACTIVE_STATE
                    else _RECOVERY if e.gated else _IDLE
                    for i in range(start, start + engine.count)
                )
            faulted = engine.faulted
            ckey = (
                codes,
                engine.new_traffic,
                engine.most_degraded_vc,
                faulted,
                policy.decision_phase(epoch, engine.count, faulted),
            )
            cached = engine._decision_cache.get(ckey)
            if cached is None:
                ctx = PolicyContext(
                    cycle=cycle,
                    vc_states=tuple(_STATE_OF_CODE[c] for c in codes),
                    new_traffic=engine.new_traffic,
                    most_degraded_vc=engine.most_degraded_vc,
                    sensor_faulted=faulted,
                )
                if policy.trace is None:
                    decision = policy.decide(ctx)
                    events = None
                else:
                    # A traced entry also holds the events decide
                    # emitted, replayed on every hit.
                    with policy.trace.capture() as captured:
                        decision = policy.decide(ctx)
                    events = tuple(captured)
                decision.validate(engine.count)
                awake = decision.awake
                noop = all(
                    code == _ACTIVE or (local in awake) == (code == _IDLE)
                    for local, code in enumerate(codes)
                )
                cached = engine._decision_cache[ckey] = (decision, noop, events)
            decision, noop, events = cached
            if events is not None:
                policy.trace.replay(events, cycle)
            if noop:
                engine.last_decision = decision
            else:
                self.apply_decision(decision, cycle, engine.vnet)
            decisions.append(decision)
        return decisions

    def apply_decision(self, decision: PolicyDecision, cycle: int, vnet: int = 0) -> None:
        """Turn a decision into gate/wake commands on the Up_Down link.

        Only state *changes* are commanded: a VC already awake that must
        stay awake (or already gated that must stay gated) produces no
        command, so sleep transistors are not toggled needlessly.
        Decision VC indices are local to the vnet's slice.
        """
        engine = self.engines[vnet]
        entries = self.entries
        awake = decision.awake
        start = engine.start
        active = OutVCState.ACTIVE
        control = self.control_channel
        trace = self.trace
        for local in range(engine.count):
            vc = start + local
            entry = entries[vc]
            if entry.state is active:
                continue
            want_awake = local in awake
            if want_awake and entry.gated:
                entry.gated = False
                entry.available_at = cycle + control.latency + self.wake_latency
                control.send(("wake", vc), cycle)
                self.wake_commands += 1
                if trace is not None:
                    trace.instant(
                        probes.PORT_WAKE_CMD, "port", tid=self.trace_id,
                        args={"vc": vc}, ts=cycle,
                    )
            elif not want_awake and not entry.gated:
                entry.gated = True
                control.send(("gate", vc), cycle)
                self.gate_commands += 1
                if trace is not None:
                    trace.instant(
                        probes.PORT_GATE_CMD, "port", tid=self.trace_id,
                        args={"vc": vc}, ts=cycle,
                    )
        engine.last_decision = decision

    def set_new_traffic(self, value: bool, vnet: int = 0) -> None:
        """Update a vnet's traffic bit, invalidating its memo on change."""
        engine = self.engines[vnet]
        if value != engine.new_traffic:
            engine.new_traffic = value
            engine.invalidate()

    # ------------------------------------------------------------------
    # VC allocation (VA stage, performed upstream)
    # ------------------------------------------------------------------
    def allocatable(self, vc: int, cycle: int) -> bool:
        """Whether ``vc`` can be granted to a new packet this cycle."""
        entry = self.entries[vc]
        return (
            entry.state is OutVCState.IDLE
            and not entry.gated
            and cycle >= entry.available_at
        )

    def has_allocatable(self, cycle: int, vnet: int = 0) -> bool:
        """Whether the vnet has any VC a new packet could take now."""
        engine = self.engines[vnet]
        entries = self.entries
        idle = OutVCState.IDLE
        for vc in range(engine.start, engine.start + engine.count):
            entry = entries[vc]
            if entry.state is idle and not entry.gated and cycle >= entry.available_at:
                return True
        return False

    def allocate_vc(
        self, cycle: int, packet_id: Optional[int] = None, vnet: int = 0
    ) -> Optional[int]:
        """Grant a free VC of ``vnet``, or ``None`` when nothing is free.

        Prefers the VC the vnet's recovery policy kept idle (its
        ``idle_vc`` output) — that is precisely the VC the methodology
        reserves for the next new packet — falling back to a round-robin
        scan for the baseline/no-policy case.  Returns a *global* VC id.
        """
        engine = self.engines[vnet]
        decision = engine.last_decision
        if decision is not None and decision.enable:
            preferred = engine.start + decision.idle_vc
            if self.allocatable(preferred, cycle):
                self._mark_allocated(preferred, packet_id, engine)
                return preferred
        granted_local = engine._alloc_arbiter.grant(
            [i for i in range(engine.count) if self.allocatable(engine.start + i, cycle)]
        )
        if granted_local is None:
            return None
        vc = engine.start + granted_local
        self._mark_allocated(vc, packet_id, engine)
        return vc

    def _mark_allocated(self, vc: int, packet_id: Optional[int], engine: VnetEngine) -> None:
        entry = self.entries[vc]
        entry.state = OutVCState.ACTIVE
        entry.tail_sent = False
        entry.packet_id = packet_id
        engine.invalidate()

    # ------------------------------------------------------------------
    # Data and credits
    # ------------------------------------------------------------------
    def can_send(self, vc: int) -> bool:
        """Whether a flit may be sent on ``vc`` this cycle (credit check)."""
        entry = self.entries[vc]
        return entry.state is OutVCState.ACTIVE and entry.credits > 0

    def send_flit(self, vc: int, flit: Flit, cycle: int) -> None:
        """Consume a credit and put the flit on the data link."""
        entry = self.entries[vc]
        if entry.state is not OutVCState.ACTIVE:
            raise RuntimeError(f"send on non-ACTIVE vc {vc}: {flit!r}")
        if entry.credits <= 0:
            raise RuntimeError(f"send without credits on vc {vc}: {flit!r}")
        entry.credits -= 1
        if flit.is_tail:
            entry.tail_sent = True
        self.data_channel.send((vc, flit), cycle)

    def on_credit(self, vc: int) -> None:
        """Handle a returning credit from the downstream input port."""
        entry = self.entries[vc]
        credits = entry.credits + 1
        entry.credits = credits
        if credits > entry.max_credits:
            raise RuntimeError(f"credit overflow on vc {vc}")
        if entry.tail_sent and credits == entry.max_credits:
            self._release(vc, entry)

    def _release(self, vc: int, entry: OutVCEntry) -> None:
        """Return a fully-drained entry to IDLE.

        Called when the tail has been sent *and* every credit is back —
        at that point the downstream buffer is provably empty, so the VC
        is safe to gate or to hand to a new packet.  Only a returning
        credit can complete the drain (a send always leaves one credit
        outstanding), so :meth:`on_credit` and its inlined copies are
        the only callers; they inline the drain check, which fails on
        all but the final credit.
        """
        entry.state = OutVCState.IDLE
        entry.tail_sent = False
        entry.packet_id = None
        self.engines[self.vnet_of(vc)].invalidate()

    # ------------------------------------------------------------------
    # Down_Up link sink
    # ------------------------------------------------------------------
    def set_most_degraded(self, vc: int, cycle: Optional[int] = None) -> None:
        """Latch a most-degraded VC id delivered by the Down_Up link.

        ``vc`` is a global index; it updates the owning vnet's marker.
        When ``cycle`` is given the delivery also feeds the health
        watchdog: every delivery refreshes the staleness timestamp, and
        a *change* arriving sooner than ``md_min_change_interval`` after
        the previous change is flagged implausible (sensors re-measure
        at most once per sample period, so faster flapping can only be
        wire noise) for a ``md_stale_after`` hold-off window.
        """
        if not 0 <= vc < self.total_vcs:
            raise ValueError(f"most-degraded vc {vc} out of range [0, {self.total_vcs})")
        engine = self.engines[self.vnet_of(vc)]
        local = vc - engine.start
        if local != engine.most_degraded_vc:
            # The first latch (None -> value) is not a "change" — only
            # value-to-value transitions feed the plausibility check.
            if cycle is not None and engine.most_degraded_vc is not None:
                if (
                    self.md_min_change_interval > 0
                    and engine.md_changed_cycle is not None
                    and cycle - engine.md_changed_cycle < self.md_min_change_interval
                    and self.md_stale_after is not None
                ):
                    engine.implausible_until = cycle + self.md_stale_after
                engine.md_changed_cycle = cycle
            engine.most_degraded_vc = local
            engine.invalidate()
        if cycle is not None:
            engine.md_updated_cycle = cycle

    def idle_vc_count(self) -> int:
        """Number of VCs currently IDLE and awake (diagnostics)."""
        return sum(
            1 for vc in range(self.total_vcs)
            if self.vc_policy_state(vc) is OutVCState.IDLE
        )

    def __repr__(self) -> str:
        states = ",".join(
            self.vc_policy_state(v).value[0] for v in range(self.total_vcs)
        )
        return f"UpstreamPort(vcs=[{states}], policy={self.policy.name})"
