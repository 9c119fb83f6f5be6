"""Differential tests: the struct-of-arrays engine vs the per-object oracle.

The SoA engine (``repro.noc.soa``) promises *bit-identical* simulation:
any observable difference from the seed's per-object stepped engine is a
bug by definition.  These tests enforce that contract five ways:

* **Directed cases** — one case per recovery policy, plus regression
  pins for the configurations that diverged during engine bring-up
  (same-cycle channel-event ordering with 4 VCs, the cycle-0
  injection-scout sentinel at zero rate, non-unit wake/link latency,
  multi-vnet scheduling, short sensor sample periods).
* **Invariants on the SoA arm** — every SoA run must also pass a full
  ``validate_network`` sweep and book every elapsed cycle on every
  device, and validated runs (``validate_every``) must match the
  stepped oracle chunk for chunk.
* **Scenario-level identity** — ``run_scenario`` must serialize to
  byte-identical JSON under the SoA and stepped engines for every
  policy, and a traced run must emit the same events on every track.
* **Faulted networks** — every fault kind at three loads, with
  full-run and mid-run windows, validated in segments; the fingerprint
  then also holds every fault hook's counters and RNG position.
* **Randomized fuzz** (``-m slow``) — a seeded cross-engine sweep over
  policies x traffic patterns x topologies x micro-architecture knobs,
  with zero or one random fault per trial.

The fingerprint intentionally reaches into private state: it must
capture *everything* that can influence future behavior (arbiter
pointers, credit counts, NBTI anchors, sensor readings, RNG position),
not just the public statistics, so a divergence is caught near the
cycle it happens instead of thousands of cycles later.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import pathlib
import random

import pytest

from repro.core import ALL_POLICIES
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_scenario
from repro.faults import FAULT_KINDS, FaultInjector, FaultSpec, FaultyChannel
from repro.noc.network import Network
from repro.noc.topology import LOCAL, port_id
from repro.noc.validation import validate_network
from repro.traffic.synthetic import HotspotTraffic, SyntheticTraffic

from tests.conftest import build_small_network
from tests.test_fuzz_faults import SAFE_KINDS, WAKE_LOSING_KINDS


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
@contextlib.contextmanager
def forced_engine(mode):
    """Pin ``Network.force_engine`` for the duration of a run."""
    Network.force_engine = mode
    try:
        yield
    finally:
        Network.force_engine = None


def _engine_state(e) -> tuple:
    return (
        e.new_traffic, e.most_degraded_vc, e.md_updated_cycle,
        e.faulted, e._ctx_version, e._alloc_arbiter.pointer,
        e.degrade_events, e.degraded_cycles, e.degraded_from,
        e.implausible_until, e.md_changed_cycle,
    )


def _fault_state(hook) -> tuple:
    """Counters and RNG position of a fault hook on a buffer or bank."""
    if hook is None:
        return None
    rng = getattr(hook, "_rng", None)
    return (
        type(hook).__name__,
        tuple(getattr(hook, name) for name in (
            "samples_dropped", "stuck_reports", "_cycle",
            "blocked", "delayed", "count",
        ) if hasattr(hook, name)),
        rng.getstate() if rng is not None else None,
    )


def fingerprint(net: Network, injector=None) -> dict:
    """Every piece of state that can influence future behavior.

    Fault hooks are found through the network itself (banks, buffers
    and ``_all_channels``), so a fault swap that left a stale channel in
    the whole-network list shows up here; ``injector`` adds its
    aggregate counters.
    """
    fp = {"cycle": net.cycle}
    for r in net.routers:
        rid = r.router_id
        fp[f"r{rid}.va_pending"] = {p: list(v) for p, v in r.va_pending.items()}
        fp[f"r{rid}.flits_routed"] = r.flits_routed
        for (p, vn), arb in r._va_arbiters.items():
            fp[f"r{rid}.va_arb.{p}.{vn}"] = arb.pointer
        for p, arb in r._sa_input_arbiters.items():
            fp[f"r{rid}.sa_in.{p}"] = arb.pointer
        for p, arb in r._sa_output_arbiters.items():
            fp[f"r{rid}.sa_out.{p}"] = arb.pointer
        for p in r.input_ports:
            u = r.inputs[p].unit
            fp[f"r{rid}.in{p}.busy"] = u.busy_count
            fp[f"r{rid}.in{p}.rx"] = u.flits_received
            for i, ivc in enumerate(u.vcs):
                b = ivc.buffer
                fp[f"r{rid}.in{p}.vc{i}"] = (
                    ivc.busy, ivc.outport, ivc.out_vc, ivc.sa_ready_at,
                    len(b), b.state.name, b._nbti_anchor,
                    b.device.counter.snapshot() if b.device else None,
                    _fault_state(b.wake_fault),
                    _fault_state(b.on_push_unpowered),
                )
            bank = u.sensor_bank
            if bank is not None:
                fp[f"r{rid}.in{p}.bank"] = (
                    bank.last_sample_cycle, tuple(bank.readings),
                    bank._last_md, _fault_state(bank.fault),
                )
        for p in r.output_ports:
            up = r.outputs[p].upstream
            for vc, e in enumerate(up.entries):
                fp[f"r{rid}.out{p}.vc{vc}"] = (
                    e.state.name, e.credits, e.gated, e.available_at,
                    e.packet_id,
                )
            for e in up.engines:
                fp[f"r{rid}.out{p}.eng{e.vnet}"] = _engine_state(e)
    for ni in net.interfaces:
        fp[f"ni{ni.node_id}.src"] = [len(q) for q in ni.source_queues]
        fp[f"ni{ni.node_id}.send"] = [len(q) for q in ni._send_queues]
        fp[f"ni{ni.node_id}.stats"] = (
            ni.packets_injected, ni.packets_ejected,
            ni.flits_injected, ni.flits_ejected,
        )
        up = ni.injection_port
        for vc, e in enumerate(up.entries):
            fp[f"ni{ni.node_id}.vc{vc}"] = (
                e.state.name, e.credits, e.gated, e.available_at, e.packet_id
            )
        for e in up.engines:
            fp[f"ni{ni.node_id}.eng{e.vnet}"] = _engine_state(e)
    # Flit has identity equality only, so in-flight items compare by
    # repr.  A FaultyChannel queue is a heap of (due, seq, item).
    for i, ch in enumerate(net._all_channels):
        fp[f"chan{i}"] = [
            (entry[:-1], repr(entry[-1])) for entry in ch._queue
        ]
        if isinstance(ch, FaultyChannel):
            fp[f"chan{i}.fault"] = (
                ch.dropped, ch.delayed, ch.corrupted, ch._seq,
                ch._noise_next, repr(ch._noise_item), ch._rng.getstate(),
            )
    if injector is not None:
        fp["injector"] = injector.counters()
    if net.traffic is not None and hasattr(net.traffic, "_rng"):
        fp["rng"] = str(net.traffic._rng.bit_generator.state)
    return fp


def diff(a: dict, b: dict) -> list:
    """Keys on which two fingerprints disagree, with both values."""
    out = []
    for k in sorted(set(a) | set(b)):
        if a.get(k) != b.get(k):
            out.append((k, a.get(k), b.get(k)))
    return out


def run_with_engine(mode, policy, rate, cycles, seed, segments=4,
                    traffic=None, validate_every=0, faults=(),
                    **config_kwargs) -> Network:
    """Build and run one network with the engine pinned.

    The run is split into segments so the engines are also exercised
    mid-stream: resuming from an arbitrary cycle must not change the
    outcome (the SoA engine re-attaches its work sets from live object
    state on every ``run`` call).  With ``validate_every`` each segment
    sweeps the invariants every N cycles and raises on any violation.
    ``faults`` are applied before the first cycle.
    """
    with forced_engine(mode):
        net = build_small_network(
            policy=policy, flit_rate=rate, seed=seed, traffic=traffic,
            **config_kwargs,
        )
        if faults:
            FaultInjector(faults, master_seed=seed).apply(net)
        seg = cycles // segments
        for _ in range(segments):
            net.run(seg, validate_every=validate_every)
        net.run(cycles - seg * segments, validate_every=validate_every)
        net.flush_nbti()
    return net


def assert_invariants(net: Network, since: int = 0, validate=True) -> None:
    """Flit conservation and friends (``validate_network``, unless
    ``validate`` is false), and stress + recovery == elapsed cycles since
    the last ``reset_nbti`` at ``since`` on every device (call after a
    flush)."""
    if validate:
        assert validate_network(net) == []
    elapsed = net.cycle - since
    booked = {d.counter.total_cycles for d in net.devices.values()}
    assert booked == {elapsed}, f"devices booked {booked}, expected {elapsed}"


def assert_engines_agree(policy, rate, cycles, seed,
                         engines=("stepped", "soa"), **kw):
    prints = {}
    for mode in engines:
        net = run_with_engine(mode, policy, rate, cycles, seed, **kw)
        if mode == "soa":
            assert_invariants(net)
        prints[mode] = fingerprint(net)
    reference = engines[0]
    for mode in engines[1:]:
        divergences = diff(prints[reference], prints[mode])
        assert not divergences, (
            f"{reference} and {mode} engines diverged on "
            f"{len(divergences)} state keys; first few: "
            + "; ".join(
                f"{k}: {reference}={va!r} {mode}={vb!r}"
                for k, va, vb in divergences[:5]
            )
        )


# ----------------------------------------------------------------------
# Directed cases (default tier)
# ----------------------------------------------------------------------
#: (id, policy, rate, cycles, seed, config kwargs).  The first block is
#: one case per recovery policy; the second block pins configurations
#: that produced cross-engine divergences during bring-up.
DIRECTED_CASES = [
    ("sensor_wise_quiet", "sensor-wise", 0.02, 3000, 7, {}),
    ("sensor_wise_loaded", "sensor-wise", 0.2, 1500, 7, {}),
    ("baseline", "baseline", 0.05, 2000, 3, {}),
    ("rr_no_sensor", "rr-no-sensor", 0.05, 2000, 3, {}),
    ("rr_no_sensor_no_traffic", "rr-no-sensor-no-traffic", 0.05, 2000, 3, {}),
    ("sensor_wise_no_traffic", "sensor-wise-no-traffic", 0.05, 2000, 3, {}),
    ("static_reserve", "static-reserve", 0.05, 2000, 3, {}),
    # Zero injection rate: pins the injection-scout sentinel (an
    # uninitialized next-injection cycle of 0 falsely fired at cycle 0).
    ("zero_rate_idle", "sensor-wise", 0.0, 2000, 1, {}),
    # 3x3 mesh: pins multi-hop XY routes where same-cycle data and
    # credit events interleave across routers.
    ("nine_node_mesh", "sensor-wise", 0.02, 2500, 5, {"num_nodes": 9}),
    # 4 VCs: pins the ordering of same-cycle channel events drained
    # from one SoA delivery-calendar bucket (must replay in the stepped
    # engine's phase order).
    ("four_vcs", "rr-no-sensor", 0.1, 1500, 5, {"num_vcs": 4}),
    # Non-unit wake and link latency: pins power-gating wake ticks that
    # span quiescence-jump boundaries.
    ("slow_wake_slow_links", "sensor-wise", 0.1, 1500, 9,
     {"wake_latency": 3, "link_latency": 2}),
    # Two vnets with single-flit packets: pins per-vnet policy engines
    # and head==tail flits (allocate and release on the same cycle).
    ("two_vnets_single_flit", "sensor-wise", 0.1, 1500, 11,
     {"num_vnets": 2, "num_vcs": 4, "packet_length": 1}),
    # Short sample period: pins the synchronized NBTI sample schedule
    # (flush anchors must land exactly on sample cycles).
    ("short_sample_period", "sensor-wise", 0.05, 1500, 13,
     {"sensor_sample_period": 64}),
    # 8x8 mesh at the benchmark's shape (no other case runs 64 nodes):
    # three-way same-cycle VA contention for one output.  At 0.2 four
    # requesters contend for one output's VA in the same cycle; at 0.1
    # that takes longer than a few hundred cycles.
    ("mesh64_loaded", "sensor-wise", 0.1, 400, 1, {"num_nodes": 64}),
    ("mesh64_contended", "sensor-wise", 0.2, 400, 1, {"num_nodes": 64}),
]


@pytest.mark.parametrize(
    "policy, rate, cycles, seed, kw",
    [case[1:] for case in DIRECTED_CASES],
    ids=[case[0] for case in DIRECTED_CASES],
)
def test_soa_matches_stepped(policy, rate, cycles, seed, kw):
    assert_engines_agree(policy, rate, cycles, seed, **kw)


def test_hotspot_traffic_matches():
    """Hotspot destinations draw extra RNG values per injection, so the
    SoA traffic scout must replay the exact stream order."""
    def mk_traffic():
        return HotspotTraffic(9, flit_rate=0.1, hotspots=[4],
                              packet_length=4, seed=23)

    prints = {}
    for mode in ("stepped", "soa"):
        net = run_with_engine(mode, "sensor-wise", 0.1, 1800, 23,
                              num_nodes=9, traffic=mk_traffic())
        prints[mode] = fingerprint(net)
    assert not diff(prints["stepped"], prints["soa"])


def test_composite_traffic_matches():
    """Two scouting generators under one composite: at the composite's
    scouted cycle only one child has its scouted injection, and the
    other must consume its skipped cycles in the same inject call."""
    from repro.traffic.base import CompositeTraffic

    def mk_traffic():
        return CompositeTraffic([
            SyntheticTraffic("uniform", 4, flit_rate=0.02, seed=seed)
            for seed in (31, 32)
        ])

    prints = {}
    for mode in ("stepped", "soa"):
        net = run_with_engine(mode, "sensor-wise", 0.0, 1800, 31,
                              traffic=mk_traffic())
        prints[mode] = fingerprint(net)
        prints[mode]["rngs"] = [
            str(gen._rng.bit_generator.state) for gen in net.traffic.generators
        ]
    assert not diff(prints["stepped"], prints["soa"])


def test_stepped_and_soa_agree():
    """The stepped oracle and SoA produce the same fingerprint."""
    assert_engines_agree("sensor-wise", 0.02, 2400, 7)


@pytest.mark.parametrize("validate_every", [1, 16, 100])
@pytest.mark.parametrize("policy, rate", [
    ("sensor-wise", 0.1), ("rr-no-sensor", 0.02), ("static-reserve", 0.3),
])
def test_validated_soa_matches_stepped(policy, rate, validate_every):
    """Validated runs advance the SoA engine chunk by chunk (segments end
    mid-chunk) and must match the validated stepped oracle."""
    assert_engines_agree(policy, rate, 1077, 5, validate_every=validate_every)


def test_force_soa_rejects_ineligible_network():
    """force_engine='soa' must fail loudly when the network cannot use
    the SoA engine rather than silently falling back."""
    with forced_engine("soa"):
        net = build_small_network()
        net.upstream_ports()[0].engines[0].policy.stable = False
        with pytest.raises(RuntimeError, match="not SoA-eligible"):
            net.run(10)


# ----------------------------------------------------------------------
# Faulted networks (default tier)
# ----------------------------------------------------------------------
#: (id, kind, extra FaultSpec fields): every kind, plus stuck-sensor
#: with a pinned device reading instead of a pinned report.
FAULT_CASES = [
    ("stuck-sensor", "stuck-sensor", {"stuck_vc": 1}),
    ("stuck-reading", "stuck-sensor", {"stuck_reading": 0.6, "vc": 1}),
    ("sensor-dropout", "sensor-dropout", {}),
    ("down-up-drop", "down-up-drop", {"rate": 0.5}),
    ("down-up-delay", "down-up-delay", {"delay": 5}),
    ("down-up-corrupt", "down-up-corrupt", {"rate": 0.3}),
    ("up-down-drop", "up-down-drop", {"rate": 0.5}),
    ("stuck-gated", "stuck-gated", {"rate": 0.5}),
]
assert {case[1] for case in FAULT_CASES} == set(FAULT_KINDS)

FAULT_WINDOWS = {"full": (0, None), "mid": (310, 500)}


def run_faulted(mode, spec, rate, cycles=1300, seed=5, segments=4,
                **config_kwargs):
    """A validated faulted run in segments: (net, injector, violations)."""
    with forced_engine(mode):
        net = build_small_network(
            policy="sensor-wise", flit_rate=rate, seed=seed,
            sensor_sample_period=32, **config_kwargs,
        )
        injector = FaultInjector([spec], master_seed=seed).apply(net)
        seg = cycles // segments
        violations = 0
        for length in [seg] * segments + [cycles - seg * segments]:
            violations += net.run(length, validate_every=16,
                                  raise_on_violation=False)
    return net, injector, violations


@pytest.mark.parametrize("rate", [0.02, 0.1, 0.3])
@pytest.mark.parametrize("window", sorted(FAULT_WINDOWS))
@pytest.mark.parametrize(
    "kind, fields", [case[1:] for case in FAULT_CASES],
    ids=[case[0] for case in FAULT_CASES],
)
def test_faulted_soa_matches_stepped(kind, fields, window, rate):
    """Faulted networks run on SoA: fault windows, watchdog deadlines,
    degraded epochs and wire noise are events, and the per-cycle fault
    counters are booked in bulk.  The whole state, the hooks' counters
    and RNG positions, and the violations must match stepping."""
    onset, duration = FAULT_WINDOWS[window]
    spec = FaultSpec(kind, router=0, port="east", onset=onset,
                     duration=duration, seed=3, **fields)
    runs = {mode: run_faulted(mode, spec, rate) for mode in ("stepped", "soa")}
    (net, injector, violations), (ref, ref_injector, ref_violations) = (
        runs["soa"], runs["stepped"]
    )
    divergences = diff(fingerprint(ref, ref_injector),
                       fingerprint(net, injector))
    assert not divergences, divergences[:5]
    assert violations == ref_violations
    found = validate_network(net)
    assert found == validate_network(ref)
    assert_invariants(net, validate=kind in SAFE_KINDS)
    if kind in SAFE_KINDS:
        assert violations == 0


@pytest.mark.parametrize("kind", ["sensor-dropout", "down-up-corrupt"])
def test_degraded_fallback_epochs_match_stepped(kind):
    """A degraded sensor-wise port runs the rotating round-robin
    fallback, whose candidate changes at every epoch boundary.  With
    slow wakes a boundary can fall inside a wake and change the
    decision, so SoA must visit the port at each boundary while it is
    degraded."""
    spec = FaultSpec(kind, router=0, port="east", seed=3)
    runs = {
        mode: run_faulted(mode, spec, 0.1, cycles=1600, num_vcs=4,
                          wake_latency=3)
        for mode in ("stepped", "soa")
    }
    (net, injector, _), (ref, ref_injector, _) = runs["soa"], runs["stepped"]
    assert net.stats().sensor_degraded_cycles > 1000
    assert not diff(fingerprint(ref, ref_injector), fingerprint(net, injector))


@pytest.mark.parametrize("kind", ["sensor-dropout", "down-up-corrupt"])
def test_one_cycle_runs_match_stepped(kind):
    """Every cycle a fresh ``run`` call: the SoA engine attaches at every
    cycle, so each port's first fused cycle must find on its own the
    policy runs stepping makes there — a traffic bit about to flip, a
    moved memo key, a watchdog deadline or degraded epoch falling on the
    attach cycle."""
    spec = FaultSpec(kind, router=0, port="east", seed=3)
    prints = {}
    for mode in ("stepped", "soa"):
        with forced_engine(mode):
            net = build_small_network(
                policy="sensor-wise", flit_rate=0.1, seed=5,
                sensor_sample_period=32,
            )
            injector = FaultInjector([spec], master_seed=5).apply(net)
            for _ in range(700):
                net.run(1)
        prints[mode] = fingerprint(net, injector)
    assert net.stats().sensor_degraded_cycles > 0
    assert not diff(prints["stepped"], prints["soa"])


def test_packet_enqueued_between_runs_matches_stepped():
    """A packet queued by hand between two runs flips its injection
    port's traffic bit without busting any memo: the next run's first
    cycle must still re-run that port's policy, as stepping does."""
    prints = {}
    for mode in ("stepped", "soa"):
        with forced_engine(mode):
            # rr-no-sensor last ran at the epoch boundary 256, so at 300
            # its memo key has not moved.
            net = build_small_network(policy="rr-no-sensor", flit_rate=0.0)
            net.run(300)
            packet = net.packet_factory.create(0, 3, 4, net.cycle)
            net.interfaces[0].enqueue(packet)
            net.run(300)
        prints[mode] = fingerprint(net)
    assert prints["soa"]["ni0.stats"][0] == 1
    assert not diff(prints["stepped"], prints["soa"])


def test_fault_swap_replaces_the_listed_channel():
    """A swapped-in FaultyChannel replaces the old channel in the
    whole-network list and takes its in-flight items over: the donor
    is left empty, so no item is seen twice or missed."""
    net = build_small_network(flit_rate=0.3, seed=2)
    net.run(1)  # cycle 0's heartbeats and gate commands are in flight
    east = port_id("east")
    donors = [net.routers[0].down_up_channels[east],
              net.routers[0].inputs[east].control_channel]
    assert all(ch.in_flight for ch in donors)
    in_flight = sum(ch.in_flight for ch in net._all_channels)
    specs = [
        FaultSpec("down-up-delay", router=0, port="east", delay=4),
        FaultSpec("up-down-drop", router=0, port="east", rate=0.5),
    ]
    injector = FaultInjector(specs, master_seed=1).apply(net)
    wired = []
    for router in net.routers:
        for port in router.input_ports:
            wiring = router.inputs[port]
            wired += [wiring.data_channel, wiring.control_channel,
                      router.down_up_channels[port],
                      wiring.unit.credit_channel]
    for ni in net.interfaces:
        wired += [ni._eject_data_channel, ni._eject_control_channel,
                  net.routers[ni.node_id].outputs[LOCAL].down_up_channel,
                  ni.ejection_unit.credit_channel]
    assert len(net._all_channels) == len(wired)
    assert {id(ch) for ch in net._all_channels} == {id(ch) for ch in wired}
    assert [ch.in_flight for ch in donors] == [0, 0]
    faulty = injector.down_up_channels + injector.up_down_channels
    assert all(ch.in_flight for ch in faulty)
    assert sum(ch.in_flight for ch in net._all_channels) == in_flight


def test_auto_selection_prefers_soa_when_eligible():
    """The default engine choice (force_engine=None) must agree with an
    explicit SoA run and with the stepped oracle."""
    nets = {}
    for mode in (None, "soa", "stepped"):
        with forced_engine(mode):
            net = build_small_network(flit_rate=0.05, seed=3)
            net.run(1500)
            net.flush_nbti()
        nets[mode] = fingerprint(net)
    assert not diff(nets[None], nets["soa"])
    assert not diff(nets[None], nets["stepped"])


# ----------------------------------------------------------------------
# Scenario-level identity (default tier)
# ----------------------------------------------------------------------
def scenario_payload(result) -> str:
    """A ScenarioResult as canonical JSON (host timings excluded)."""
    return json.dumps({
        "scenario": dataclasses.asdict(result.scenario),
        "iteration": result.iteration,
        "duty_cycles": result.duty_cycles,
        "md_vc": result.md_vc,
        "port_duty": {
            f"{r}.{p}": d for (r, p), d in sorted(result.port_duty.items())
        },
        "initial_vths": result.initial_vths,
        "port_initial_vths": {
            f"{r}.{p}": v
            for (r, p), v in sorted(result.port_initial_vths.items())
        },
        "net_stats": dataclasses.asdict(result.net_stats),
        "violations": result.violations,
    }, sort_keys=True)


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_scenario_result_identity(policy):
    scenario = ScenarioConfig(
        num_nodes=4, num_vcs=2, injection_rate=0.1, policy=policy,
        traffic="uniform", cycles=1200, warmup=200, seed=1,
    )
    payloads = {}
    for mode in ("soa", "stepped"):
        with forced_engine(mode):
            payloads[mode] = scenario_payload(run_scenario(scenario))
    assert payloads["soa"] == payloads["stepped"]


def traced_run(scenario, trace_dir):
    """Run ``scenario`` traced to JSONL; return (summary, tracks).

    ``tracks`` maps each simulated-time track label to its event
    sequence as ``(ts, name, args)`` tuples.  Host-time events (runner
    phase spans) carry wall-clock timestamps and are left out.
    """
    from repro.telemetry import PID_SIM

    result = run_scenario(scenario.traced(
        trace_dir=str(trace_dir), formats=("jsonl",)
    ))
    (path,) = result.telemetry.trace_files
    events = [json.loads(line) for line in pathlib.Path(path).read_text().splitlines()]
    labels = {
        e["tid"]: e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "thread_name" and e["pid"] == PID_SIM
    }
    tracks = {label: [] for label in labels.values()}
    for e in events:
        if e["ph"] != "M" and e["pid"] == PID_SIM:
            # Wake-fault events carry no track of their own (tid 0).
            label = labels.get(e["tid"], f"tid {e['tid']}")
            tracks.setdefault(label, []).append(
                (e["ts"], e["name"], e.get("args"))
            )
    return result.telemetry, tracks


def stable_metrics(metrics):
    """Metrics minus the host-time ``phase.*`` gauges."""
    return {
        kind: {k: v for k, v in entries.items() if not k.startswith("phase.")}
        for kind, entries in metrics.items()
    }


@pytest.mark.parametrize("rate", [0.02, 0.1, 0.3])
@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_traced_soa_matches_stepped(policy, rate, tmp_path):
    """Traced runs take the SoA engine too: every track's event sequence,
    the event counts, the deterministic metrics and the measured port's
    counters must match the stepped oracle.  Same-cycle events on
    different tracks may interleave differently, so tracks compare one
    by one."""
    scenario = ScenarioConfig(
        num_nodes=4, num_vcs=2, injection_rate=rate, policy=policy,
        traffic="uniform", cycles=800, warmup=200, seed=1,
        sensor_sample_period=64,
    )
    runs = {}
    for mode in ("soa", "stepped"):
        with forced_engine(mode):
            runs[mode] = traced_run(scenario, tmp_path / mode)
    (soa, soa_tracks), (stepped, stepped_tracks) = runs["soa"], runs["stepped"]
    assert soa.event_counts == stepped.event_counts
    assert stable_metrics(soa.metrics) == stable_metrics(stepped.metrics)
    assert list(soa_tracks) == list(stepped_tracks)
    for label, sequence in stepped_tracks.items():
        assert soa_tracks[label] == sequence, label
    assert soa.measured_stress_cycles == stepped.measured_stress_cycles
    assert soa.measured_recovery_cycles == stepped.measured_recovery_cycles


@pytest.mark.parametrize(
    "kind, fields", [case[1:] for case in FAULT_CASES],
    ids=[case[0] for case in FAULT_CASES],
)
def test_traced_faulted_soa_matches_stepped(kind, fields, tmp_path):
    """Fault events booked in bulk (dropped samples, stuck reports) are
    emitted cycle by cycle, so a traced faulted run matches stepping
    track by track too."""
    onset, duration = FAULT_WINDOWS["mid"]
    spec = FaultSpec(kind, router=0, port="east", onset=onset,
                     duration=duration, seed=3, **fields)
    scenario = ScenarioConfig(
        num_nodes=4, num_vcs=2, injection_rate=0.1, policy="sensor-wise",
        traffic="uniform", cycles=800, warmup=200, seed=1,
        sensor_sample_period=32, faults=(spec,), validate_every=16,
    )
    runs = {}
    for mode in ("soa", "stepped"):
        with forced_engine(mode):
            runs[mode] = traced_run(scenario, tmp_path / mode)
    (soa, soa_tracks), (stepped, stepped_tracks) = runs["soa"], runs["stepped"]
    assert soa.event_counts == stepped.event_counts
    assert stable_metrics(soa.metrics) == stable_metrics(stepped.metrics)
    assert soa_tracks == stepped_tracks


# ----------------------------------------------------------------------
# Golden bytes under the SoA engine (default tier)
# ----------------------------------------------------------------------
GOLDEN = pathlib.Path(__file__).parent / "data"


def test_table3_golden_bytes_under_soa(tmp_path):
    """The seed's Table 3 golden was produced by the stepped engine; the
    SoA engine must reproduce it byte for byte.  Because the bytes are
    unchanged, the experiment cache schema stays at version 4 — bump it
    only if an engine change ever alters results on purpose."""
    from repro.experiments.parallel import CACHE_SCHEMA_VERSION
    from repro.experiments.persistence import save_synthetic_table
    from repro.experiments.tables import run_synthetic_table

    assert CACHE_SCHEMA_VERSION == 4
    with forced_engine("soa"):
        table = run_synthetic_table(
            num_vcs=2, arches=(4,), rates=(0.1, 0.2),
            cycles=800, warmup=200, seed=1,
        )
    out = tmp_path / "table3.json"
    save_synthetic_table(table, out)
    golden = (GOLDEN / "table3_small_golden.json").read_bytes()
    assert out.read_bytes() == golden


def test_fault_campaign_golden_bytes_with_auto_selection():
    """Fault campaigns validate invariants mid-run: every cell, faulted
    or not, runs on SoA with the sweeps between chunks.  The automatic
    engine selection must leave the campaign report byte-identical to
    the seed golden."""
    from repro.faults.campaign import FaultCampaignConfig, run_fault_campaign

    config = FaultCampaignConfig(
        num_nodes=4, num_vcs=2, injection_rate=0.1,
        cycles=300, warmup=100, seed=1, sensor_sample_period=32,
        kinds=("sensor-dropout", "up-down-drop"),
        fault_rates=(0.0, 1.0),
        policies=("rr-no-sensor", "sensor-wise"),
        validate_every=16,
    )
    with forced_engine(None):
        report = run_fault_campaign(config)
    golden = (GOLDEN / "fault_campaign_small_golden.json").read_text()
    assert report.to_json() == golden


# ----------------------------------------------------------------------
# Randomized cross-engine fuzz (slow tier: pytest -m slow)
# ----------------------------------------------------------------------
def draw_fault(rng: random.Random, cycles: int):
    """Zero or one random FaultSpec on router 0: any kind, window and
    rate."""
    if rng.random() < 0.25:
        return ()
    kind = rng.choice(FAULT_KINDS)
    fields = {}
    if kind == "stuck-sensor":
        if rng.random() < 0.5:
            fields["stuck_vc"] = rng.randrange(4)
        else:
            fields.update(stuck_reading=0.6, vc=rng.randrange(4))
    elif kind == "down-up-delay":
        fields["delay"] = rng.randint(1, 20)
    elif kind == "stuck-gated":
        fields["extra_wake_cycles"] = rng.choice([None, 3])
    duration = rng.choice([None, rng.randint(1, cycles)])
    return (FaultSpec(
        kind, router=0, port=rng.choice(["local", "east"]),
        onset=rng.randrange(cycles // 2), duration=duration,
        rate=rng.choice([0.1, 0.5, 1.0]), seed=rng.randrange(100),
        **fields,
    ),)


@pytest.mark.slow
def test_fuzz_soa_vs_stepped():
    """Seeded sweep over policies, patterns, topologies and
    micro-architecture knobs, with zero or one fault per trial.  Any
    divergence prints the drawn configuration so it can be minimized
    into a directed pin above."""
    rng = random.Random(20130318)  # the paper's conference date
    patterns = ["uniform", "transpose", "neighbor", "bit_complement",
                "hotspot"]
    failures = []
    for trial in range(25):
        policy = rng.choice(ALL_POLICIES)
        pattern = rng.choice(patterns)
        nodes = rng.choice([4, 16]) if pattern == "bit_complement" \
            else rng.choice([4, 9, 16])
        rate = rng.choice([0.0, 0.005, 0.02, 0.1, 0.3])
        cycles = rng.choice([800, 1500, 2600])
        segments = rng.choice([1, 3, 5])
        seed = rng.randint(0, 10_000)
        cfg = dict(
            num_vcs=rng.choice([2, 4]),
            num_vnets=rng.choice([1, 1, 2]),
            buffer_depth=rng.choice([2, 4]),
            packet_length=rng.choice([1, 4]),
            link_latency=rng.choice([1, 2]),
            wake_latency=rng.choice([0, 1, 3]),
            sensor_sample_period=rng.choice([64, 256, 1024]),
        )
        # A separate stream, so adding faults kept the drawn scenarios.
        faults = draw_fault(random.Random(trial), cycles)

        def mk_traffic():
            if rate == 0.0:
                return None
            if pattern == "hotspot":
                return HotspotTraffic(
                    nodes, flit_rate=rate, hotspots=[nodes // 2],
                    packet_length=cfg["packet_length"], seed=seed,
                )
            return SyntheticTraffic(
                pattern, nodes, flit_rate=rate,
                packet_length=cfg["packet_length"], seed=seed,
            )

        tag = (f"[{trial}] {policy}/{pattern} n={nodes} r={rate} "
               f"c={cycles} seg={segments} seed={seed} {cfg} {faults}")
        prints = {}
        found = {}
        for mode in ("stepped", "soa"):
            net = run_with_engine(
                mode, policy, rate, cycles, seed, segments=segments,
                num_nodes=nodes, traffic=mk_traffic(), faults=faults, **cfg,
            )
            found[mode] = validate_network(net)
            if mode == "soa":
                # Lost wakes may legally break power agreement; both
                # engines must then report the same violations.
                assert_invariants(net, validate=not (
                    faults and faults[0].kind in WAKE_LOSING_KINDS
                ))
            prints[mode] = fingerprint(net)
        divergences = diff(prints["stepped"], prints["soa"])
        if found["stepped"] != found["soa"]:
            divergences.append(("violations", found["stepped"], found["soa"]))
        if divergences:
            failures.append(
                f"{tag}: {len(divergences)} keys, first "
                f"{divergences[0]!r}"
            )
    assert not failures, "cross-engine divergences:\n" + "\n".join(failures)
