"""The paper's NBTI recovery policies (pre-VA stage of each upstream port).

Four policies are provided:

* :class:`BaselinePolicy` — the non-NBTI-aware NoC: buffers are never
  gated, so every VC sits at a 100 % NBTI-duty-cycle.
* :class:`RoundRobinSensorlessPolicy` — the paper's Algorithm 1
  (*rr-no-sensor*): the best policy possible without sensors.  A
  rotating *active candidate* picks which single VC is kept awake when
  new traffic is waiting; with no new traffic every idle VC recovers.
* :class:`SensorWisePolicy` — the paper's Algorithm 2 (*sensor-wise*):
  the downstream sensors' most-degraded VC is gated first, one idle VC
  is kept awake only when new traffic is waiting.
* ``SensorWisePolicy(use_traffic=False)`` — the *sensor-wise-no-traffic*
  ablation: identical, but it always assumes traffic, so one idle VC is
  kept awake unconditionally (this is also the **non-cooperative**
  variant: it needs no upstream traffic information, hence no
  cooperation between the router pair).
* :class:`RoundRobinNoTrafficPolicy` — an extra ablation completing the
  2x2 {sensor, traffic} matrix (not in the paper's tables): round-robin
  candidate, no traffic information.
* :class:`RejuvenationPolicy` / :class:`RejuvenationSensorPolicy`
  (*rejuvenation*, *rejuvenation-sensor*) — scheduled deep-recovery
  windows instead of per-cycle gating: buffers run ungated most of the
  time and periodically enter a long recovery window (BTI rejuvenation,
  after Gürsoy et al.).  The sensor variant gates the most-degraded VC
  first inside each window.

All policies are deterministic and stateless across cycles (the
round-robin candidate derives from the cycle counter, mimicking the
paper's "changed cyclically on a time basis").
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Dict, Optional

from repro.noc.policy_api import (
    PolicyContext,
    PolicyDecision,
    RecoveryPolicy,
)
from repro.telemetry import probes


class BaselinePolicy(RecoveryPolicy):
    """Non-NBTI-aware baseline: never gate anything."""

    name = "baseline"
    uses_sensor = False
    uses_traffic = False
    stable = True
    cycle_free_decide = True

    def decide(self, ctx: PolicyContext) -> PolicyDecision:
        return PolicyDecision.all_awake(ctx.num_vcs)


class RoundRobinSensorlessPolicy(RecoveryPolicy):
    """Algorithm 1: the *rr-no-sensor* reference policy.

    Every ``rotation_period`` cycles the *active candidate* advances, so
    the kept-awake duty is spread evenly over the VCs — the best one can
    do without knowing which VC is actually the most degraded.

    Parameters
    ----------
    rotation_period:
        Cycles between candidate advances.  The paper only states the
        candidate changes "cyclically on a time basis"; 64 cycles keeps
        sleep-transistor toggling physically reasonable while mixing the
        VCs well below the sensor sampling period.

        The period must exceed the control-link latency plus the buffer
        wake-up latency (2 cycles with the defaults): a faster rotation
        re-gates the freshly woken candidate before it ever becomes
        allocatable, so VC allocation starves and traffic through the
        port live-locks (see
        ``tests/test_paper_claims.py`` /
        ``benchmarks/bench_ablation_rotation_period.py``).
    """

    name = "rr-no-sensor"
    uses_sensor = False
    uses_traffic = True
    stable = True

    def __init__(self, rotation_period: int = 64) -> None:
        if rotation_period < 1:
            raise ValueError(f"rotation_period must be >= 1, got {rotation_period}")
        self.rotation_period = rotation_period
        self.epoch_period = rotation_period

    def epoch(self, cycle: int) -> int:
        """Memoization epoch: re-evaluate whenever the candidate rotates."""
        return cycle // self.rotation_period

    def decision_phase(self, epoch: int, num_vcs: int, faulted: bool) -> int:
        """The candidate: epochs ``num_vcs`` apart decide alike."""
        return epoch % num_vcs

    def candidate(self, ctx: PolicyContext) -> int:
        """The ``active_candidate`` VC for this cycle (line 2 of Alg. 1)."""
        return (ctx.cycle // self.rotation_period) % ctx.num_vcs

    def decide(self, ctx: PolicyContext) -> PolicyDecision:
        candidate = self.candidate(ctx)
        if not ctx.new_traffic:
            # Lines 4-7: no new packets -> every idle VC may recover.
            return PolicyDecision.gate_all(idle_vc=candidate)
        # Lines 8-17: keep awake the first idle-or-recovering VC at or
        # after the candidate; all other idle VCs recover.
        offset = candidate
        for _ in range(ctx.num_vcs):
            if ctx.is_idle(offset) or ctx.is_recovery(offset):
                if self.trace is not None:
                    self.trace.instant(
                        probes.POLICY_KEEP_AWAKE, "policy", tid=self.trace_tid,
                        args={"candidate": candidate, "kept": offset},
                        ts=ctx.cycle,
                    )
                return PolicyDecision.keep_one(offset)
            offset = (offset + 1) % ctx.num_vcs
        # Every VC is ACTIVE: nothing to keep idle, nothing to gate.
        return PolicyDecision.gate_all(idle_vc=candidate)


class RoundRobinNoTrafficPolicy(RoundRobinSensorlessPolicy):
    """Ablation: round-robin candidate, but no traffic information.

    One idle VC (the rotating candidate) is kept awake unconditionally.
    Completes the {sensor} x {traffic} ablation matrix together with
    *sensor-wise-no-traffic*.
    """

    name = "rr-no-sensor-no-traffic"
    uses_sensor = False
    uses_traffic = False

    def decide(self, ctx: PolicyContext) -> PolicyDecision:
        forced = PolicyContext(
            cycle=ctx.cycle,
            vc_states=ctx.vc_states,
            new_traffic=True,
            most_degraded_vc=ctx.most_degraded_vc,
        )
        return super().decide(forced)


class StaticReservePolicy(RecoveryPolicy):
    """Naive comparison point: permanently reserve one fixed VC.

    The designated VC (default VC 0) is always kept awake; every other
    idle VC recovers.  No sensors, no traffic information, no rotation —
    the cheapest conceivable gating controller, and the worst of the
    zoo: the reserved VC ages at ~100 % duty and, without process
    variation luck, it may well *be* the most degraded one.
    """

    name = "static-reserve"
    uses_sensor = False
    uses_traffic = False
    stable = True
    cycle_free_decide = True

    def __init__(self, reserved_vc: int = 0) -> None:
        if reserved_vc < 0:
            raise ValueError(f"reserved_vc must be >= 0, got {reserved_vc}")
        self.reserved_vc = reserved_vc

    def decide(self, ctx: PolicyContext) -> PolicyDecision:
        vc = self.reserved_vc % ctx.num_vcs
        if ctx.is_active(vc):
            return PolicyDecision.gate_all(idle_vc=vc)
        return PolicyDecision.keep_one(vc)


class SensorWisePolicy(RecoveryPolicy):
    """Algorithm 2: the *sensor-wise* policy (the paper's contribution).

    Each cycle, for one upstream output port:

    1. Conceptually restore every recovering VC to idle (lines 5-8) so
       the most-degraded VC is re-evaluated from a clean slate.
    2. Gate the most-degraded VC first, provided at least ``boolTraffic``
       other idle VCs remain for incoming packets (lines 9-11).
    3. Gate the remaining idle VCs in ascending order while more than
       ``boolTraffic`` idle VCs remain (lines 12-16); the survivor is the
       ``idle_vc`` driven on the Up_Down link.
    4. Assert ``enable`` iff new traffic is waiting (lines 17-18).

    The engine applies only the *diffs* of the resulting awake set, so
    step 1 never physically toggles a sleep transistor.

    Parameters
    ----------
    use_traffic:
        ``True`` gives the full cooperative *sensor-wise* policy;
        ``False`` gives the *sensor-wise-no-traffic* ablation, which
        always keeps one idle VC awake (``boolTraffic`` forced to 1).
    fallback_rotation_period:
        Rotation period of the embedded :class:`RoundRobinSensorlessPolicy`
        that takes over while the port's Down_Up watchdog reports the
        sensor information stale or implausible (``ctx.sensor_faulted``).

    Graceful degradation
    --------------------
    When the upstream port's watchdog flags the Down_Up report as
    untrustworthy, :meth:`decide` delegates to an embedded Algorithm 1
    instance — the best policy possible without sensors — and re-engages
    Algorithm 2 as soon as the report heals.  The policy epoch tracks
    the fallback's rotation so the candidate keeps advancing while
    degraded (re-evaluating Algorithm 2 on an unchanged context is a
    fixed point, so healthy-run results are unaffected).
    """

    name = "sensor-wise"
    uses_sensor = True
    uses_traffic = True
    stable = True
    # Algorithm 2 is a pure function of the VC states, the traffic bit
    # and the Down_Up value; only the *degraded* fallback rotates, and
    # the SoA engine re-runs a degraded port at the fallback's epoch
    # boundaries (UpstreamPort.next_watchdog_event).
    cycle_free_decide = True

    def __init__(self, use_traffic: bool = True, fallback_rotation_period: int = 64) -> None:
        self.use_traffic = use_traffic
        if not use_traffic:
            self.name = "sensor-wise-no-traffic"
            self.uses_traffic = False
        self.fallback = RoundRobinSensorlessPolicy(
            rotation_period=fallback_rotation_period
        )
        self.epoch_period = fallback_rotation_period

    def epoch(self, cycle: int) -> int:
        """Re-evaluate whenever the fallback's candidate rotates."""
        return cycle // self.fallback.rotation_period

    def decision_phase(self, epoch: int, num_vcs: int, faulted: bool) -> int:
        """Algorithm 2 reads no cycle; the fallback reads its candidate."""
        return epoch % num_vcs if faulted else 0

    def decide(self, ctx: PolicyContext) -> PolicyDecision:
        if ctx.sensor_faulted:
            return self._decide_fallback(ctx)
        bool_traffic = ctx.new_traffic if self.use_traffic else True
        threshold = 1 if bool_traffic else 0
        # A sensor-wise port always has a Down_Up value; ports without
        # sensors (e.g. driving untracked ejection buffers) fall back to
        # VC 0, which only affects gating order, not correctness.
        md = ctx.most_degraded_vc if ctx.most_degraded_vc is not None else 0

        # Lines 5-8: every non-ACTIVE VC is (conceptually) idle again.
        idle = set(ctx.gateable_vcs())
        count_idle = len(idle)
        gated = set()

        # Lines 9-11: recover the most-degraded VC first.
        if md in idle and count_idle > threshold:
            gated.add(md)
            count_idle -= 1

        # Lines 12-16: recover the remaining idle VCs in scan order.
        survivor: Optional[int] = None
        for vc in sorted(idle):
            if vc in gated:
                continue
            if count_idle > threshold:
                gated.add(vc)
                count_idle -= 1
            else:
                survivor = vc

        awake = idle - gated
        if survivor is None:
            survivor = md
        if self.trace is not None:
            self.trace.instant(
                probes.POLICY_KEEP_AWAKE, "policy", tid=self.trace_tid,
                args={"survivor": survivor, "md": md, "enable": bool_traffic and bool(awake)},
                ts=ctx.cycle,
            )
        # Lines 17-18: enable qualifies the idle_vc lines.
        return PolicyDecision(
            awake=frozenset(awake),
            enable=bool_traffic and bool(awake),
            idle_vc=survivor,
        )

    def _decide_fallback(self, ctx: PolicyContext) -> PolicyDecision:
        """Degraded mode: run Algorithm 1 on the same context.

        The no-traffic ablation has no upstream traffic bit either, so
        its degraded mode mirrors that by assuming traffic is always
        waiting (one idle VC stays awake unconditionally).
        """
        if not self.use_traffic:
            ctx = dataclasses.replace(ctx, new_traffic=True)
        if self.trace is not None:
            self.trace.instant(
                probes.POLICY_FALLBACK, "policy", tid=self.trace_tid,
                ts=ctx.cycle,
            )
        return self.fallback.decide(ctx)


class RejuvenationPolicy(RecoveryPolicy):
    """Scheduled deep-recovery windows (BTI *rejuvenation*).

    Instead of gating idle VCs every cycle, the port runs fully awake
    for most of each ``period`` and enters one long recovery window of
    ``duration`` cycles at the start of it: within the window the
    round-robin-style survivor scan keeps exactly one non-ACTIVE VC
    awake for new traffic (or gates everything when no traffic waits),
    outside the window nothing is ever gated.  Long uninterrupted
    recovery windows let the reaction-diffusion recovery front run much
    deeper than per-cycle toggling (Gürsoy et al., *On BTI Aging
    Rejuvenation in Memory Address Decoders*), at the cost of a higher
    average duty cycle.

    The surviving VC rotates with the window index, spreading the
    kept-awake stress across the VCs over successive windows.

    Engine eligibility
    ------------------
    The decision reads ``ctx.cycle`` only through the window index and
    the in-window bit, both constant between multiples of
    ``gcd(period, duration)`` — so the policy declares
    ``epoch_period = gcd(period, duration)`` and an :meth:`epoch` that
    distinguishes in-window from out-of-window buckets.  That keeps the
    SoA engine eligible (it re-runs policies at declared epoch
    boundaries), verified by the stepped-vs-SoA equivalence tests in
    ``tests/test_regime.py``.
    """

    name = "rejuvenation"
    uses_sensor = False
    uses_traffic = True
    stable = True

    def __init__(self, period: int = 1024, duration: int = 256) -> None:
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        if not 1 <= duration <= period:
            raise ValueError(
                f"duration must be in [1, period={period}], got {duration}"
            )
        self.period = period
        self.duration = duration
        self.epoch_period = math.gcd(period, duration)

    def epoch(self, cycle: int) -> int:
        """Two buckets per period: in-window (even), out-of-window (odd).

        Window boundaries (``k*period`` and ``k*period + duration``) are
        multiples of ``gcd(period, duration)``, so the epoch is constant
        within every ``epoch_period`` bucket — the declared-period
        contract the SoA engine relies on.
        """
        k, offset = divmod(cycle, self.period)
        return 2 * k + (0 if offset < self.duration else 1)

    def decision_phase(self, epoch: int, num_vcs: int, faulted: bool) -> int:
        """The in-window survivor candidate, or -1 outside the window
        (where every VC stays awake whatever the window index)."""
        if epoch & 1:
            return -1
        return (epoch >> 1) % num_vcs

    def in_window(self, cycle: int) -> bool:
        """Whether ``cycle`` falls inside a deep-recovery window."""
        return cycle % self.period < self.duration

    def decide(self, ctx: PolicyContext) -> PolicyDecision:
        if not self.in_window(ctx.cycle):
            return PolicyDecision.all_awake(ctx.num_vcs)
        candidate = (ctx.cycle // self.period) % ctx.num_vcs
        if not ctx.new_traffic:
            # Deep recovery: every idle VC may recover for the whole window.
            return PolicyDecision.gate_all(idle_vc=candidate)
        # Keep awake the first non-ACTIVE VC at or after the rotating
        # survivor candidate (same scan as Algorithm 1).
        offset = self._survivor(ctx, candidate)
        if offset is None:
            # Every VC is ACTIVE: nothing to keep idle, nothing to gate.
            return PolicyDecision.gate_all(idle_vc=candidate)
        if self.trace is not None:
            self.trace.instant(
                probes.POLICY_KEEP_AWAKE, "policy", tid=self.trace_tid,
                args={"candidate": candidate, "kept": offset},
                ts=ctx.cycle,
            )
        return PolicyDecision.keep_one(offset)

    def _survivor(self, ctx: PolicyContext, candidate: int) -> Optional[int]:
        """First idle-or-recovering VC at/after ``candidate``, else None."""
        offset = candidate
        for _ in range(ctx.num_vcs):
            if not ctx.is_active(offset):
                return offset
            offset = (offset + 1) % ctx.num_vcs
        return None


class RejuvenationSensorPolicy(RejuvenationPolicy):
    """Sensor-triggered rejuvenation: recover the most-degraded VC first.

    Identical window schedule, but inside each window the survivor scan
    *skips* the Down_Up most-degraded VC so it is always among the gated
    (deep-recovering) VCs — the window's recovery budget is spent where
    the sensors say it matters.  When the port's watchdog flags the
    sensor information untrustworthy (``ctx.sensor_faulted``), or the
    port has no sensors, the scan degrades to the static variant.
    """

    name = "rejuvenation-sensor"
    uses_sensor = True

    def _survivor(self, ctx: PolicyContext, candidate: int) -> Optional[int]:
        md = ctx.most_degraded_vc
        if ctx.sensor_faulted or md is None:
            return super()._survivor(ctx, candidate)
        offset = candidate
        fallback: Optional[int] = None
        for _ in range(ctx.num_vcs):
            if not ctx.is_active(offset):
                if offset != md:
                    return offset
                fallback = offset
            offset = (offset + 1) % ctx.num_vcs
        # The MD VC is the only non-ACTIVE one (or none is): keeping it
        # awake beats blocking new traffic on a fully gated port.
        return fallback


#: Registry of policy names to zero-argument factories-of-factories: the
#: outer call fixes parameters, the inner callable builds one instance
#: per upstream port.
_POLICY_BUILDERS: Dict[str, Callable[..., Callable[[], RecoveryPolicy]]] = {}


def _register(name: str, builder: Callable[..., Callable[[], RecoveryPolicy]]) -> None:
    _POLICY_BUILDERS[name] = builder


_register("baseline", lambda **kw: BaselinePolicy)
_register(
    "rr-no-sensor",
    lambda rotation_period=64, **kw: (
        lambda: RoundRobinSensorlessPolicy(rotation_period=rotation_period)
    ),
)
_register(
    "rr-no-sensor-no-traffic",
    lambda rotation_period=64, **kw: (
        lambda: RoundRobinNoTrafficPolicy(rotation_period=rotation_period)
    ),
)
_register("sensor-wise", lambda **kw: (lambda: SensorWisePolicy(use_traffic=True)))
_register(
    "sensor-wise-no-traffic",
    lambda **kw: (lambda: SensorWisePolicy(use_traffic=False)),
)
_register(
    "static-reserve",
    lambda reserved_vc=0, **kw: (lambda: StaticReservePolicy(reserved_vc=reserved_vc)),
)


def _rejuvenation_schedule(
    rotation_period: int,
    rejuvenation_period: Optional[int],
    rejuvenation_duration: Optional[int],
) -> tuple:
    """Window schedule from policy knobs.

    Explicit ``rejuvenation_period``/``rejuvenation_duration`` win; the
    defaults derive from the scenario's ``rotation_period`` (16x period,
    4x duration — a 25 % recovery window at a much coarser grain than
    per-cycle rotation), so every existing config knob keeps working.
    """
    period = (
        rejuvenation_period if rejuvenation_period is not None else 16 * rotation_period
    )
    duration = (
        rejuvenation_duration if rejuvenation_duration is not None else 4 * rotation_period
    )
    return period, duration


_register(
    "rejuvenation",
    lambda rotation_period=64, rejuvenation_period=None, rejuvenation_duration=None, **kw: (
        lambda: RejuvenationPolicy(
            *_rejuvenation_schedule(
                rotation_period, rejuvenation_period, rejuvenation_duration
            )
        )
    ),
)
_register(
    "rejuvenation-sensor",
    lambda rotation_period=64, rejuvenation_period=None, rejuvenation_duration=None, **kw: (
        lambda: RejuvenationSensorPolicy(
            *_rejuvenation_schedule(
                rotation_period, rejuvenation_period, rejuvenation_duration
            )
        )
    ),
)

#: The three policies evaluated by the paper's tables, in table order.
PAPER_POLICIES = ("rr-no-sensor", "sensor-wise-no-traffic", "sensor-wise")

#: All registered policy names.
ALL_POLICIES = tuple(sorted(_POLICY_BUILDERS))


def make_policy_factory(name: str, **params) -> Callable[[], RecoveryPolicy]:
    """Build a per-port policy factory by policy name.

    Parameters
    ----------
    name:
        One of :data:`ALL_POLICIES`.
    params:
        Policy-specific knobs (currently ``rotation_period`` for the
        round-robin policies; unknown knobs are ignored by the others).

    Example
    -------
    >>> factory = make_policy_factory("sensor-wise")
    >>> factory().name
    'sensor-wise'
    """
    try:
        builder = _POLICY_BUILDERS[name]
    except KeyError:
        known = ", ".join(ALL_POLICIES)
        raise ValueError(f"unknown policy {name!r}; known policies: {known}") from None
    return builder(**params)
