"""Interface between the NoC substrate and NBTI recovery policies.

The recovery policies (the paper's contribution, in :mod:`repro.core`)
run as a **pre-VA stage** in each *upstream* port — a router output unit
or a network interface injecting into its local port.  Every cycle the
policy sees:

* the ``out_vc_state`` of the downstream input port (ACTIVE / IDLE /
  RECOVERY per VC),
* whether *new* packets (no downstream VC allocated yet) are waiting to
  cross this port (``new_traffic``), and
* for sensor-wise policies, the most-degraded VC id received over the
  ``Down_Up`` link.

It produces a :class:`PolicyDecision`: the set of non-ACTIVE VCs that
must stay powered (``awake``), plus the paper's ``enable``/``idle_vc``
signals that travel on the ``Up_Down`` link.  The upstream port engine
turns the decision into gate/wake commands, applying only the *diffs*
against the current power state (re-asserting an already-awake VC does
not toggle its sleep transistor).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import FrozenSet, Optional, Sequence, Tuple


class OutVCState(enum.Enum):
    """Per-VC allocation/power state as seen by the upstream pre-VA stage."""

    #: A packet currently owns the downstream VC (stressed, not gateable).
    ACTIVE = "active"
    #: No packet owns it and it is powered — allocatable, but stressed.
    IDLE = "idle"
    #: No packet owns it and it is power-gated — recovering.
    RECOVERY = "recovery"


@dataclasses.dataclass(frozen=True)
class PolicyContext:
    """Everything a recovery policy may observe for one output port.

    Attributes
    ----------
    cycle:
        Current simulation cycle.
    vc_states:
        ``out_vc_state`` per downstream VC.
    new_traffic:
        ``is_new_traffic_outport_x()`` of the paper: at least one new
        packet (without an allocated downstream VC) wants this port.
    most_degraded_vc:
        Most-degraded VC id from the ``Down_Up`` link; ``None`` when the
        port has no sensors (sensor-less configurations).
    sensor_faulted:
        True while the port's staleness/plausibility watchdog considers
        the ``Down_Up`` information untrustworthy; sensor-wise policies
        should degrade gracefully to a sensor-less strategy.
    """

    cycle: int
    vc_states: Tuple[OutVCState, ...]
    new_traffic: bool
    most_degraded_vc: Optional[int] = None
    sensor_faulted: bool = False

    @property
    def num_vcs(self) -> int:
        return len(self.vc_states)

    def is_active(self, vc: int) -> bool:
        return self.vc_states[vc] is OutVCState.ACTIVE

    def is_idle(self, vc: int) -> bool:
        """Powered and unallocated (the algorithms' ``is_idle``)."""
        return self.vc_states[vc] is OutVCState.IDLE

    def is_recovery(self, vc: int) -> bool:
        """Power-gated (the algorithms' ``is_recovery``)."""
        return self.vc_states[vc] is OutVCState.RECOVERY

    def gateable_vcs(self) -> Tuple[int, ...]:
        """VCs that are not ACTIVE (candidates for gating or waking)."""
        return tuple(
            vc for vc, s in enumerate(self.vc_states) if s is not OutVCState.ACTIVE
        )


@dataclasses.dataclass(frozen=True)
class PolicyDecision:
    """Outcome of one pre-VA evaluation.

    Attributes
    ----------
    awake:
        Non-ACTIVE VCs that must be powered after this cycle; every other
        non-ACTIVE VC is put (or kept) in recovery.  ACTIVE VCs are never
        touched.
    enable:
        The ``enable`` wire of the ``Up_Down`` link: asserts that
        ``idle_vc`` names a VC deliberately kept idle for new packets.
    idle_vc:
        The VC-id wires of the ``Up_Down`` link.  A valid id is always
        driven (the link has no idle state); ``enable`` qualifies it.
    """

    awake: FrozenSet[int]
    enable: bool
    idle_vc: int

    @classmethod
    def gate_all(cls, idle_vc: int = 0) -> "PolicyDecision":
        """No new traffic: every idle VC may recover."""
        return cls(awake=frozenset(), enable=False, idle_vc=idle_vc)

    @classmethod
    def keep_one(cls, vc: int) -> "PolicyDecision":
        """Keep exactly ``vc`` awake for an incoming new packet."""
        return cls(awake=frozenset((vc,)), enable=True, idle_vc=vc)

    @classmethod
    def all_awake(cls, num_vcs: int) -> "PolicyDecision":
        """Baseline behaviour: nothing is ever gated."""
        return cls(awake=frozenset(range(num_vcs)), enable=False, idle_vc=0)

    def validate(self, num_vcs: int) -> None:
        """Sanity-check VC indices against the port width."""
        if not 0 <= self.idle_vc < num_vcs:
            raise ValueError(f"idle_vc {self.idle_vc} out of range [0, {num_vcs})")
        for vc in self.awake:
            if not 0 <= vc < num_vcs:
                raise ValueError(f"awake vc {vc} out of range [0, {num_vcs})")


class RecoveryPolicy:
    """Base class for pre-VA recovery policies.

    Subclasses implement :meth:`decide`.  A policy instance is attached
    to exactly one upstream port (it may keep per-port state such as the
    round-robin candidate pointer).
    """

    #: Short machine name used by configs and tables.
    name: str = "abstract"
    #: Whether the policy consumes the Down_Up most-degraded information.
    uses_sensor: bool = False
    #: Whether the policy consumes upstream traffic information.
    uses_traffic: bool = False
    #: A *stable* policy's decision is a fixed point of its own
    #: application: re-evaluating on the post-decision VC states (with
    #: the same epoch, traffic and sensor inputs) yields the same
    #: decision.  Stable policies are memoized by the upstream port —
    #: they are only re-run when an input actually changes.  Leave False
    #: for custom policies unless the property is known to hold.
    stable: bool = False
    #: Period of :meth:`epoch` in cycles, when the epoch is
    #: time-varying: ``epoch(c) == epoch(c')`` whenever
    #: ``c // epoch_period == c' // epoch_period``.  The SoA engine
    #: re-runs the policy and stops its idle jumps at these boundaries
    #: so a rotating policy re-evaluates exactly where stepping would.
    #: ``None`` (the default) declares a time-invariant epoch; a policy
    #: whose epoch varies without declaring its period makes the network
    #: step densely (conservative).
    epoch_period: Optional[int] = None
    #: A stronger property than a declared period: the healthy-path
    #: :meth:`decide` never reads ``ctx.cycle`` at all — the decision is
    #: a pure function of VC states, traffic bit and sensor input.  The
    #: SoA engine then skips the policy's epoch boundaries
    #: entirely: re-evaluating after a jump with an unchanged context
    #: reproduces the already-applied decision, so no commands are
    #: issued and nothing observable differs from stepping.  Policies
    #: whose candidate rotates with the cycle (round-robin) must leave
    #: this False.  Only consulted while the engine is healthy; a policy
    #: with a cycle-dependent *degraded* fallback may still declare it,
    #: because a degraded vnet's epochs are pinned by its port instead:
    #: :meth:`UpstreamPort.next_watchdog_event` reports every epoch
    #: change while the watchdog holds the vnet ``faulted``, and the SoA
    #: engine re-runs the port there (faulted networks run on SoA too).
    cycle_free_decide: bool = False
    #: Telemetry handle + track id (see repro.telemetry.runtime);
    #: class-level ``None``/0 keeps untraced runs zero-cost.
    trace = None
    trace_tid: int = 0

    def decide(self, ctx: PolicyContext) -> PolicyDecision:
        """Evaluate the pre-VA stage for one cycle."""
        raise NotImplementedError

    def epoch(self, cycle: int) -> int:
        """Time-dependence bucket for memoization.

        A stable policy is re-evaluated whenever its epoch changes even
        if no port input changed (e.g. the round-robin candidate
        rotation).  Time-independent policies return a constant.
        """
        return 0

    def decision_phase(self, epoch: int, num_vcs: int, faulted: bool) -> int:
        """The part of ``epoch`` that :meth:`decide` actually reads.

        A stable policy's decision (and every event it emits, save its
        ``ts``) must be the same for any two cycles of equal phase and
        equal context; the upstream port's value-level decision cache
        keys on the phase, so a rotating policy shares one entry across
        all epochs that rotate to the same candidate.  The default is
        the epoch itself, or 0 for a healthy ``cycle_free_decide``
        policy; policies whose rotation wraps override it (e.g.
        ``epoch % num_vcs`` for a round-robin candidate).
        """
        return 0 if self.cycle_free_decide and not faulted else epoch

    def reset(self) -> None:
        """Clear per-port state (default: nothing to clear)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def states_of(states: Sequence[str]) -> Tuple[OutVCState, ...]:
    """Build a ``vc_states`` tuple from short strings (test helper).

    >>> states_of(["idle", "active", "recovery"])
    (<OutVCState.IDLE: 'idle'>, <OutVCState.ACTIVE: 'active'>, <OutVCState.RECOVERY: 'recovery'>)
    """
    return tuple(OutVCState(s) for s in states)
