"""Event-directed cycle engine (the dense-stepping core).

The default :meth:`Network.step` loop touches every router, port, unit
and delay line every cycle, which costs O(network) even when nothing is
happening — and "nothing is happening" describes the overwhelming
majority of cycle x component pairs at the paper's injection rates.
This module replaces that loop for eligible runs with an engine that
books NBTI stress and recovery into the devices' own
:class:`~repro.nbti.duty_cycle.DutyCycleCounter` objects, exactly as
stepping does, and skips the work no component has.  The "SoA"
(struct-of-arrays) name is historical; it stays because
``force_engine="soa"``, :class:`SoAEngine` and the perfbench layer
names use it.

Instead of asking every component whether it has work, components tell
the engine when they will:

* every delay line notifies the engine of its next delivery cycle
  (:attr:`DelayLine.on_send`), which files the channel in a delivery
  calendar (due cycle -> channel records), so the delivery phase visits
  only channels that actually hold due items, in exactly the order-
  insensitive groups the dense phases process them in;
* every policy engine notifies on memo busts
  (:attr:`VnetEngine.on_invalidate`), so ``run_policy`` runs exactly
  when the dense engine's memoization would miss — plus at declared
  epoch boundaries that move the epoch.  A port's own traffic-bit
  update and watchdog tick bust its memo before the key is taken, so
  they schedule nothing;
* VA / SA / NI phases run only for routers and interfaces whose
  occupancy counters show resident work, which is precisely the
  condition under which the dense phases do anything but iterate;
* sensor sampling runs only at the banks' synchronized sample cycles
  (in between, the dense ``phase_nbti`` provably early-continues), and
  the traffic generator is consulted only at scouted injection cycles,
  with its RNG moved over the gaps so the stream position stays
  byte-identical to per-cycle ``inject()`` calls;
* each Down_Up record also carries its port's watchdog
  (:meth:`UpstreamPort.next_watchdog_event`): it is due at the next
  staleness deadline, the end of an implausibility hold-off and, while
  a vnet is degraded, its fallback's next epoch, so ``faulted`` flips
  and the fallback re-decides on the same cycles as when stepping;
* fault hooks declare their events the same way: a faulty channel's
  wire noise is pre-drawn and reported by ``next_due``, and a faulted
  sensor bank is visited at its window edges and at the measurements
  its fault lets through (``SensorBankFault.next_event``).

Counters that stepping increments on every cycle — degraded cycles, a
dropout's dropped samples, a stuck bank's reports — are booked as
intervals, like the NBTI tallies: each hook books the cycles since its
last visit at its next one, and the engine books the rest when it
detaches.

Whenever every activity structure is empty the engine jumps the clock
to the next pinned event: the end of the span, the next scheduled
delivery or watchdog event (the calendar's smallest due cycle), the
traffic generator's next scouted injection, the next sensor sample or
bank fault event, or a declared policy epoch boundary.

Correctness contract
--------------------
Eligibility is checked by :meth:`Network._soa_eligible` (stable
policies with declared or constant epochs); ineligible runs fall back
to the dense loop.  Faulted networks are eligible.  One engine serves
a whole :meth:`Network.run` call: it attaches once
(:meth:`SoAEngine.attached`), validated runs (``validate_every``)
advance it chunk by chunk with :meth:`SoAEngine.run_span` and sweep the
read-only invariants in between, and it detaches on return.  For
eligible runs every skipped component is a proven no-op of the
corresponding dense phase, so results — duty cycles, statistics,
arbiter states, fault counters, RNG positions — are byte-identical to
stepping.  Traced runs are eligible too: probes fire
from the same component methods on both engines with timestamps from
the network clock, and a traced cycle-free policy is pinned at its
epoch boundaries so its re-decisions (which emit events) happen on
the same cycles as on the dense engine.  Each track's event sequence
is therefore identical; only the interleaving of same-cycle events
across tracks may differ.  Dense stepping (``force_engine="stepped"``)
is the single oracle, and the differential fuzz harness in
``tests/test_soa_equivalence.py`` enforces the equivalence across
randomized scenarios, policies and traffic patterns.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.noc.buffer import PowerState, VCBuffer

#: Hot-loop constant for the inlined buffer write of router data.
_ON = PowerState.ON

# Channel-record kinds (index 0 of each record tuple).
_CTRL = 0   # Up_Down gate/wake commands into an input unit
_DATA_R = 1  # flits into a router input unit
_DATA_E = 2  # flits into an NI ejection unit
_CRED = 3   # credits back to an upstream port
_DUP = 4    # Down_Up most-degraded reports to an upstream port


class NbtiArrays:
    """Tracked VC buffers; perfbench's ``soa.flush_all`` wraps this class."""

    def __init__(self, buffers: List[VCBuffer]) -> None:
        # Ejection buffers carry no device and are not tracked.
        self.buffers = [
            b for b in buffers if b.device is not None and b.track_nbti
        ]

    def flush_all(self, cycle: int) -> None:
        """Book every buffer's unaccounted ``[anchor, cycle)`` interval
        in its current power state.

        Flushing is semantics-preserving at any point (each interval is
        booked in the state it was actually in; transitions flush
        themselves), so flushing *all* buffers at a sample boundary is
        equivalent to the dense engine's per-due-unit flushes.
        """
        for buf in self.buffers:
            buf.nbti_flush(cycle)


class SoAEngine:
    """Event-directed fused stepping over one :class:`Network`.

    Create one per :meth:`Network.run` call; the constructor builds the
    static routing tables (ports, channels, epoch schedules).  Inside
    :meth:`attached`, which installs the live hooks once, drive it with
    one or more consecutive :meth:`run_span` calls.
    """

    def __init__(self, network) -> None:
        self.net = network
        net = network

        # --- port records: (is_ni, owner, port_id, upstream) ----------
        # Canonical order: routers (node order, sorted output ports),
        # then NIs — the dense policy-phase order.
        self._ports: List[Tuple[bool, object, int, object]] = []
        self._rport_idx: Dict[Tuple[int, int], int] = {}
        self._ni_port_idx: Dict[int, int] = {}
        for router in net.routers:
            for pid in router.output_ports:
                self._rport_idx[(router.router_id, pid)] = len(self._ports)
                self._ports.append(
                    (False, router, pid, router.outputs[pid].upstream)
                )
        for ni in net.interfaces:
            self._ni_port_idx[ni.node_id] = len(self._ports)
            self._ports.append((True, ni, -1, ni.injection_port))

        # --- epoch schedule: period -> port indexes -------------------
        # Stable policies with a declared period need boundary re-runs.
        # An untraced cycle-free policy re-deciding on an unchanged
        # context is a no-op and is skipped; a traced one is pinned,
        # since its decide emits events (policy.keep_awake) the dense
        # engine's epoch re-runs record.
        by_period: Dict[int, List[int]] = {}
        for idx, (_, _, _, upstream) in enumerate(self._ports):
            for engine in upstream.engines:
                policy = engine.policy
                if policy.cycle_free_decide and policy.trace is None:
                    continue
                period = getattr(policy, "epoch_period", None)
                if period is not None:
                    by_period.setdefault(period, []).append(idx)
        self._period_ports = sorted(by_period.items())
        self._periods = [p for p, _ in self._period_ports]

        # --- channel records ------------------------------------------
        # Built grouped by ASCENDING kind constant: the delivery calendar
        # maps each due cycle to the record indexes due then, and a
        # sorted bucket is idx-ascending — with this grouping that is
        # already the dense phase order (cross-unit order within one
        # kind is immaterial; handlers only touch their own unit/port).
        self._chan_records: List[Tuple] = []

        def add(kind, chan, *ctx) -> None:
            self._chan_records.append((kind, len(self._chan_records), chan) + ctx)

        for router in net.routers:
            for pid in router.input_ports:
                add(_CTRL, router.inputs[pid].control_channel,
                    router.inputs[pid].unit)
        for ni in net.interfaces:
            add(_CTRL, ni._eject_control_channel, ni.ejection_unit)
        for router in net.routers:
            for pid in router.input_ports:
                wiring = router.inputs[pid]
                add(_DATA_R, wiring.data_channel, wiring.unit, router)
        for ni in net.interfaces:
            add(_DATA_E, ni._eject_data_channel, ni.ejection_unit, ni)
        for router in net.routers:
            for pid in router.output_ports:
                add(_CRED, router.outputs[pid].credit_channel,
                    router.outputs[pid].upstream)
        for ni in net.interfaces:
            add(_CRED, ni._inj_credit_channel, ni.injection_port)
        # A Down_Up record also owns its port's watchdog: it is due at
        # the next report and at the next watchdog event, whichever
        # comes first.
        for router in net.routers:
            for pid in router.output_ports:
                add(_DUP, router.outputs[pid].down_up_channel,
                    router.outputs[pid].upstream,
                    self._rport_idx[(router.router_id, pid)])
        for ni in net.interfaces:
            add(_DUP, ni._inj_down_up_channel, ni.injection_port,
                self._ni_port_idx[ni.node_id])

        # --- per-router helper tables ---------------------------------
        self._router_units = {
            router: [router.inputs[p].unit for p in router.input_ports]
            for router in net.routers
        }

        # --- live scheduling state ------------------------------------
        #: Delivery calendar: due cycle -> record indexes.  ``_sched``
        #: holds each record's live due cycle; a bucket entry that no
        #: longer matches it was superseded by an earlier due.
        self._calendar: Dict[int, List[int]] = defaultdict(list)
        self._sched: List[Optional[int]] = [None] * len(self._chan_records)
        self._waking: Dict[object, None] = {}
        self._dirty: Dict[int, None] = {}
        self._va_routers: Dict[object, None] = {}
        self._sa_routers: Dict[object, None] = {}
        self._ni_va: Dict[object, None] = {}
        self._ni_send: Dict[object, None] = {}

        # --- tracked buffers, flushed at every sample boundary ---------
        self._nbti = NbtiArrays(
            [ivc.buffer for unit in net._nbti_units for ivc in unit.vcs]
        )
        self._faulted_banks = [b for b in net._sensor_banks if b.fault is not None]

        self._next_sample: float = 0
        self._scout = False
        self._next_inject: Optional[int] = None
        self._rng_cycle = 0

    # ------------------------------------------------------------------
    # Hook plumbing
    # ------------------------------------------------------------------
    def _make_notify(self, idx: int):
        calendar = self._calendar
        sched = self._sched

        def notify(due: int) -> None:
            cur = sched[idx]
            if cur is None or due < cur:
                sched[idx] = due
                calendar[due].append(idx)

        return notify

    def _make_invalidate(self, port_idx: int):
        dirty = self._dirty

        def on_invalidate() -> None:
            dirty[port_idx] = None

        return on_invalidate

    @contextlib.contextmanager
    def attached(self):
        """Attach the live hooks for one :meth:`Network.run` call and
        yield :meth:`run_span`; the hooks come off, and the skipped
        cycles' counters are booked, on exit."""
        self._attach(self.net.cycle)
        try:
            yield self.run_span
        finally:
            self._detach()

    def _attach(self, cycle: int) -> None:
        net = self.net
        for rec in self._chan_records:
            kind, idx, chan = rec[0], rec[1], rec[2]
            chan.on_send = notify = self._make_notify(idx)
            due = chan.next_due(cycle)
            if kind == _DUP:
                # The cycle's own watchdog flips are covered below, by
                # the first fused cycle's policy runs.
                _, later = rec[3].next_watchdog_event(cycle)
                if later is not None and (due is None or later < due):
                    due = later
            if due is not None:
                notify(due)
        for idx, (is_ni, owner, pid, upstream) in enumerate(self._ports):
            hook = self._make_invalidate(idx)
            for engine in upstream.engines:
                engine.on_invalidate = hook
            # The dense engine runs every policy every cycle; the first
            # fused cycle runs those whose run would not hit the memo:
            # the traffic bit is about to change, the memo key moved
            # since the last run (or there was none), or the watchdog
            # acts now.
            if is_ni:
                traffic = [bool(queue) for queue in owner.source_queues]
            else:
                pending = owner.va_pending[pid]
                traffic = [pending[vnet] > 0 for vnet in range(owner.num_vnets)]
            if (
                any(bit != engine.new_traffic
                    for bit, engine in zip(traffic, upstream.engines))
                or upstream.memo_stale(cycle)
                or upstream.next_watchdog_event(cycle)[0]
            ):
                self._dirty[idx] = None
        for unit in net._power_units:
            if unit._any_waking:
                self._waking[unit] = None
        for router in net.routers:
            if any(v for pend in router.va_pending.values() for v in pend):
                self._va_routers[router] = None
            if any(u.busy_count for u in self._router_units[router]):
                self._sa_routers[router] = None
        for ni in net.interfaces:
            if any(ni.source_queues):
                self._ni_va[ni] = None
            if any(ni._send_queues):
                self._ni_send[ni] = None
        self._next_sample = self._compute_next_sample(cycle)
        traffic = net.traffic
        self._rng_cycle = cycle
        if traffic is not None:
            probe = getattr(traffic, "next_injection_cycle", None)
            nxt = probe(cycle) if probe is not None else None
            if nxt is None:
                self._scout = False
                self._next_inject = None
            else:
                self._scout = True
                self._next_inject = nxt

    def _detach(self) -> None:
        net = self.net
        end = net.cycle
        # The traffic RNG must end at the stream position per-cycle
        # injection would have reached, and counters the hooks book per
        # visited cycle must cover the skipped ones.
        traffic = net.traffic
        if self._scout and traffic is not None:
            # Also at zero cycles: a scout may have drawn ahead.
            traffic.advance(end - self._rng_cycle)
            self._rng_cycle = end
        for bank in self._faulted_banks:
            bank.fault.book(bank, end)
        for rec in self._chan_records:
            rec[2].on_send = None
        for _, _, _, upstream in self._ports:
            upstream.book_degraded(end)
            for engine in upstream.engines:
                engine.on_invalidate = None

    def _compute_next_sample(self, now: int) -> float:
        nxt = float("inf")
        for bank in self.net._sensor_banks:
            last = bank.last_sample_cycle
            due = now if last < 0 else max(last + bank.sample_period, now)
            if bank.fault is not None:
                due = bank.fault.next_event(bank, now, due)
            if due < nxt:
                nxt = due
        return nxt

    # ------------------------------------------------------------------
    # Per-cycle work
    # ------------------------------------------------------------------
    def _do_inject(self, cycle: int) -> None:
        net = self.net
        for injection in net.traffic.inject(cycle):
            src, dst, length = injection[0], injection[1], injection[2]
            vnet = injection[3] if len(injection) > 3 else 0
            pkt_len = length if length is not None else net.config.packet_length
            packet = net.packet_factory.create(src, dst, pkt_len, cycle, vnet=vnet)
            ni = net.interfaces[src]
            # Dirty the injection port only when the vnet's source queue
            # goes empty -> non-empty (the policy-visible traffic bit
            # flips); enqueueing behind waiting packets is invisible to
            # the policy, so the dense engine's memo would hit anyway.
            if not ni.source_queues[vnet]:
                self._dirty[self._ni_port_idx[src]] = None
            ni.enqueue(packet)
            self._ni_va[ni] = None

    def _tick_waking(self) -> None:
        waking = self._waking
        done = None
        for unit in waking:
            unit.tick_power()
            if not unit._any_waking:
                if done is None:
                    done = [unit]
                else:
                    done.append(unit)
        if done is not None:
            for unit in done:
                del waking[unit]

    # ------------------------------------------------------------------
    # The fused run loop
    # ------------------------------------------------------------------
    def run_span(self, end: int) -> None:
        """Advance the network to ``end``, byte-identically to stepping
        (call inside :meth:`attached`)."""
        cycle = self.net.cycle
        if end > cycle:
            self._loop(cycle, end)

    def _loop(self, cycle: int, end: int) -> None:
        net = self.net
        calendar = self._calendar
        waking = self._waking
        dirty = self._dirty
        va_routers = self._va_routers
        sa_routers = self._sa_routers
        ni_va = self._ni_va
        ni_send = self._ni_send
        period_ports = self._period_ports
        periods = self._periods
        ports = self._ports
        routers = net.routers
        traffic = net.traffic
        sched = self._sched
        records = self._chan_records
        rport_idx = self._rport_idx
        tick_waking = self._tick_waking
        dense_traffic = traffic is not None and not self._scout
        # Loop-local mirrors of the rare-transition scalars; every
        # mutation writes both so pause/resume stays consistent.
        next_inject = self._next_inject
        next_sample = self._next_sample

        while cycle < end:
            # --- phase 1-2: deliveries + ejection ---------------------
            # Process every due channel in dense-phase-equivalent order:
            # control commands, wake ticks, data, credits, Down_Up
            # reports, then ejection drains.  Cross-unit ordering within
            # one kind is immaterial (handlers only touch their own
            # unit/port); the per-unit control -> tick -> data order is
            # preserved.  Inlined into the loop (one call per active
            # cycle) so the dispatch shares the hoisted locals.
            # Every due handed to the calendar is at or after the cycle
            # running when it is handed over (link latency >= 1; watchdog
            # and next_due events lie ahead), so each bucket is drained
            # on exactly its own cycle.
            bucket = calendar.pop(cycle, None)
            if bucket is not None:
                bucket.sort()
                ticked = False
                eject = None
                for idx in bucket:
                    if sched[idx] != cycle:
                        continue  # superseded, or a duplicate just handled
                    sched[idx] = None
                    rec = records[idx]
                    kind = rec[0]
                    if not ticked and kind > _CTRL:
                        # Wake countdowns advance after all control
                        # commands of the cycle have landed, before any
                        # data is written.
                        ticked = True
                        if waking:
                            tick_waking()
                    # Dispatch tests ordered by frequency: router data
                    # and credits dominate (one of each per flit hop).
                    # Their per-flit pops stay inlined; control and
                    # Down_Up lines may be fault-injected heaps, and pop
                    # through the channel.
                    if kind == _DATA_R:
                        chan_q = rec[2]._queue
                        unit, router = rec[3], rec[4]
                        vcs = unit.vcs
                        while chan_q and chan_q[0][0] <= cycle:
                            vc, flit = chan_q.popleft()[1]
                            ivc = vcs[vc]
                            buf = ivc.buffer
                            flits = buf._flits
                            head = flit.is_head
                            if buf._state is _ON and len(flits) < buf.capacity and (
                                not ivc.busy if head
                                else ivc.busy and ivc.packet_id == flit.packet_id
                            ):
                                # Inlined InputUnit.receive_flit and
                                # VCBuffer.push for a legal write.
                                flit.arrived_cycle = cycle
                                if head:
                                    ivc.busy = True
                                    ivc.packet_id = flit.packet_id
                                    ivc.outport = unit.route_fn(flit.dst)
                                    ivc.vnet = flit.vnet
                                    unit.busy_count += 1
                                flits.append(flit)
                                unit.flits_received += 1
                            else:
                                # Packet mixing or overflow raises there;
                                # a non-ON buffer raises or takes its
                                # fault hook's emergency wake.
                                unit.receive_flit(vc, flit, cycle)
                            if head:
                                outport = ivc.outport
                                pending = router.va_pending[outport]
                                vnet = flit.vnet
                                if pending[vnet] == 0:
                                    # The port's traffic bit flips
                                    # 0 -> 1: the dense engine's
                                    # per-cycle run_policy would see an
                                    # invalidated memo.  Further heads
                                    # on an already-pending vnet change
                                    # nothing a policy observes
                                    # (set_new_traffic(True) on True
                                    # does not invalidate), so they
                                    # skip the policy re-run entirely.
                                    dirty[
                                        rport_idx[
                                            (router.router_id, outport)
                                        ]
                                    ] = None
                                pending[vnet] += 1
                                va_routers[router] = None
                                sa_routers[router] = None
                        nxt = chan_q[0][0] if chan_q else None
                    elif kind == _CRED:
                        chan_q = rec[2]._queue
                        upstream = rec[3]
                        entries = upstream.entries
                        while chan_q and chan_q[0][0] <= cycle:
                            # Inlined UpstreamPort.on_credit.
                            vc = chan_q.popleft()[1]
                            entry = entries[vc]
                            credits = entry.credits + 1
                            entry.credits = credits
                            if credits > entry.max_credits:
                                raise RuntimeError(f"credit overflow on vc {vc}")
                            if entry.tail_sent and credits == entry.max_credits:
                                upstream._release(vc, entry)
                        nxt = chan_q[0][0] if chan_q else None
                    elif kind == _CTRL:
                        chan, unit = rec[2], rec[3]
                        for command, vc in chan.pop_ready(cycle):
                            unit.apply_command(command, vc, cycle)
                        if unit._any_waking:
                            waking[unit] = None
                        nxt = chan.next_due(cycle + 1)
                    elif kind == _DATA_E:
                        chan_q = rec[2]._queue
                        unit = rec[3]
                        while chan_q and chan_q[0][0] <= cycle:
                            vc, flit = chan_q.popleft()[1]
                            unit.receive_flit(vc, flit, cycle)
                        if eject is None:
                            eject = []
                        eject.append(rec[4])
                        nxt = chan_q[0][0] if chan_q else None
                    else:  # _DUP: reports, then the port's watchdog
                        chan, upstream = rec[2], rec[3]
                        for vc in chan.pop_ready(cycle):
                            upstream.set_most_degraded(vc, cycle)
                        act, nxt = upstream.next_watchdog_event(cycle)
                        if act:
                            dirty[rec[4]] = None
                        due = chan.next_due(cycle + 1)
                        if due is not None and (nxt is None or due < nxt):
                            nxt = due
                    if nxt is not None:
                        cur = sched[idx]
                        if cur is None or nxt < cur:
                            sched[idx] = nxt
                            calendar[nxt].append(idx)
                if not ticked and waking:
                    tick_waking()
                if eject is not None:
                    for ni in eject:
                        ni.phase_eject(cycle)
            elif waking:
                tick_waking()
            # --- phase 3: traffic injection ---------------------------
            if dense_traffic:
                self._do_inject(cycle)
                self._rng_cycle = cycle + 1
            elif cycle == next_inject:  # only ever true in scout mode
                # Injecting at the scouted cycle also consumes the
                # injection-free cycles since the scout.
                self._do_inject(cycle)
                self._rng_cycle = cycle + 1
                nxt = traffic.next_injection_cycle(cycle + 1)
                if nxt is None:
                    # Support withdrawn mid-run: consult per-cycle.
                    self._scout = False
                    dense_traffic = True
                    next_inject = self._next_inject = None
                else:
                    next_inject = self._next_inject = nxt
            # --- phase 4: recovery policies ---------------------------
            if period_ports:
                for period, pidxs in period_ports:
                    if cycle % period == 0:
                        # Not every declared boundary moves every epoch
                        # (rejuvenation's window edges are a subset).
                        for idx in pidxs:
                            if idx not in dirty and ports[idx][3].memo_stale(cycle):
                                dirty[idx] = None
            if dirty:
                for idx in sorted(dirty) if len(dirty) > 1 else list(dirty):
                    is_ni, owner, pid, upstream = ports[idx]
                    if is_ni:
                        owner.phase_policy(cycle)
                    else:
                        pending = owner.va_pending[pid]
                        for vnet in range(owner.num_vnets):
                            upstream.set_new_traffic(pending[vnet] > 0, vnet)
                        upstream.run_policy(cycle)
                # A port's own traffic-bit update and watchdog tick land
                # before its memo key is taken, so the invalidations they
                # fired above ask for nothing: stepping would hit the
                # memo next cycle.  No other port's state moves here.
                dirty.clear()
            # --- phase 5: VC allocation -------------------------------
            # The phase calls never mutate their own work set (only
            # _deliver/_do_inject add members), so iterate the dicts
            # directly and batch the removals instead of copying.
            if va_routers:
                done = None
                for router in va_routers:
                    if not router.phase_va(cycle):
                        done = [router] if done is None else done + [router]
                if done is not None:
                    for router in done:
                        del va_routers[router]
            if ni_va:
                done = None
                for ni in ni_va:
                    ni.phase_va(cycle)
                    if any(ni._send_queues):
                        ni_send[ni] = None
                    if not any(ni.source_queues):
                        done = [ni] if done is None else done + [ni]
                if done is not None:
                    for ni in done:
                        del ni_va[ni]
            # --- phase 6: SA + ST / NI sends --------------------------
            if sa_routers:
                units_of = self._router_units
                done = None
                for router in sa_routers:
                    # When a flit moved, the router plainly stays busy;
                    # the drain check only runs on no-op cycles (worst
                    # case one extra cheap call after the final tail).
                    if not router.phase_sa_st(cycle) and not any(
                        u.busy_count for u in units_of[router]
                    ):
                        done = [router] if done is None else done + [router]
                if done is not None:
                    for router in done:
                        del sa_routers[router]
            if ni_send:
                done = None
                for ni in ni_send:
                    ni.phase_send(cycle)
                    if not any(ni._send_queues):
                        done = [ni] if done is None else done + [ni]
                if done is not None:
                    for ni in done:
                        del ni_send[ni]
            # --- phase 7: NBTI aging + sensor sampling ----------------
            if cycle == next_sample:
                self._nbti.flush_all(cycle + 1)
                for router in routers:
                    router.phase_nbti(cycle)
                next_sample = self._next_sample = self._compute_next_sample(
                    cycle + 1
                )
            cycle += 1
            net.cycle = cycle
            # --- quiescence jump --------------------------------------
            if dense_traffic or dirty or va_routers or sa_routers \
                    or ni_va or ni_send or waking or cycle >= end:
                continue
            # Scheduled deliveries and watchdog events bound the jump.
            if calendar:
                target = min(calendar)
                assert target >= cycle, f"calendar holds past cycle {target}"
                if target == cycle:
                    continue
            else:
                target = end
            if target > end:
                target = end
            if next_inject is not None and next_inject < target:
                target = next_inject
            if next_sample < target:
                target = int(next_sample)
            for period in periods:
                boundary = -(-cycle // period) * period
                if boundary < target:
                    target = boundary
            if target > cycle:
                cycle = target
                net.cycle = cycle
