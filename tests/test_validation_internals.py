"""Focused tests for each validator sweep and remaining edge branches."""

from __future__ import annotations

import pytest

from repro.noc.flit import Flit, FlitType
from repro.noc.policy_api import OutVCState
from repro.noc.topology import LOCAL
from repro.noc.validation import validate_network
from repro.traffic.base import CompositeTraffic
from repro.traffic.real import BenchmarkTraffic
from repro.traffic.synthetic import SyntheticTraffic
from tests.conftest import build_small_network, drain


def fresh_net(**kwargs):
    kwargs.setdefault("flit_rate", 0.1)
    net = build_small_network(policy="baseline", **kwargs)
    net.run(200)
    return net


class TestBufferSweep:
    def test_detects_route_less_resident_packet(self):
        net = fresh_net(flit_rate=0.0)
        ivc = net.routers[0].inputs[0].unit.vcs[0]
        ivc.busy = True
        ivc.outport = None
        violations = validate_network(net)
        assert any("without a route" in v for v in violations)

    def test_detects_busy_gated_buffer(self):
        net = fresh_net(flit_rate=0.0)
        ivc = net.routers[0].inputs[0].unit.vcs[0]
        ivc.buffer.gate()
        ivc.busy = True
        ivc.outport = 0
        violations = validate_network(net)
        assert any("owns a packet" in v for v in violations)


def _flit(pkt, seq, ftype=FlitType.BODY):
    flit = Flit(pkt, seq, ftype, 0, 1, 0)
    flit.arrived_cycle = 0
    return flit


class TestWormholeSweep:
    def test_detects_packet_mixing(self):
        net = fresh_net(flit_rate=0.0)
        ivc = net.routers[0].inputs[0].unit.vcs[0]
        ivc.busy = True
        ivc.outport = 0
        ivc.buffer._flits.extend([_flit(1, 0), _flit(2, 0)])
        violations = validate_network(net)
        assert any("packet mixing" in v for v in violations)

    def test_detects_out_of_order_flits(self):
        net = fresh_net(flit_rate=0.0)
        ivc = net.routers[0].inputs[0].unit.vcs[0]
        ivc.busy = True
        ivc.outport = 0
        ivc.buffer._flits.extend([_flit(1, 2), _flit(1, 1)])
        violations = validate_network(net)
        assert any("out of order" in v for v in violations)

    def test_detects_orphan_flits(self):
        net = fresh_net(flit_rate=0.0)
        ivc = net.routers[0].inputs[0].unit.vcs[0]
        ivc.buffer._flits.append(_flit(1, 0))
        violations = validate_network(net)
        assert any("not busy" in v for v in violations)


class TestCreditAndConservationSweeps:
    def test_detects_negative_credits(self):
        net = fresh_net(flit_rate=0.0)
        net.routers[0].outputs[0].upstream.entries[0].credits = -1
        violations = validate_network(net)
        assert any("credits -1" in v for v in violations)

    def test_detects_lost_flit(self):
        net = build_small_network(policy="baseline", flit_rate=0.2)
        net.run(300)
        # Vaporize a buffered flit somewhere.
        for router in net.routers:
            for port in router.input_ports:
                for ivc in router.inputs[port].unit.vcs:
                    if ivc.buffer._flits:
                        ivc.buffer._flits.popleft()
                        violations = validate_network(net)
                        assert violations and "conservation" in violations[-1]
                        return
        pytest.skip("no buffered flit found at this load")


class TestGoldenMessages:
    def test_one_violation_of_each_family(self):
        """Every family fires at once; the sweep returns exactly these
        strings, grouped by family (buffers, credits, power agreement,
        wormhole, conservation) and in wiring order within each."""
        net = fresh_net(flit_rate=0.0)
        assert validate_network(net) == []
        r0, r1, r2, r3 = net.routers
        # A gated buffer holding a flit (booked as injected below).
        held = r0.inputs[r0.input_ports[1]].unit.vcs[1]
        held.buffer.gate()
        held.buffer._flits.append(_flit(7, 0))
        # Credits out of range.
        r1.outputs[r1.output_ports[1]].upstream.entries[0].credits = -2
        # A power disagreement with the Up_Down line idle.
        assert r2.inputs[LOCAL].control_channel.in_flight == 0
        r2.inputs[LOCAL].unit.vcs[0].buffer.gate()
        # Packet mixing with out-of-order flits (two more planted flits).
        mixed = r3.inputs[r3.input_ports[2]].unit.vcs[1]
        mixed.busy = True
        mixed.outport = LOCAL
        mixed.buffer._flits.extend([_flit(9, 2), _flit(8, 1)])
        # An ACTIVE out-VC entry that is gated.
        entry = r0.outputs[r0.output_ports[2]].upstream.entries[1]
        entry.state = OutVCState.ACTIVE
        entry.gated = True
        # A lost flit: the three planted flits are booked as injected,
        # plus one more that is nowhere in the network.
        net.interfaces[0].flits_injected += 4
        assert validate_network(net) == [
            "router 0 south VC1: gated buffer holds flits",
            "router 1 out south VC0: credits -2 outside [0, 4]",
            "router 0 south VC1: upstream gated=False but buffer is gated",
            "router 1 west VC1: upstream gated=True but buffer is on",
            "router 2 local VC0: upstream gated=False but buffer is gated",
            "router 0 south VC1: flits buffered but VC not busy",
            "router 0 out east VC1: ACTIVE entry is gated",
            "router 3 west VC1: packet mixing [8, 9]",
            "router 3 west VC1: flits out of order [2, 1]",
            "conservation violated: injected=4 pending=0 ejected=0 "
            "in_flight=3 (baseline 0)",
        ]


class TestCompositeRealisticTraffic:
    def test_benchmark_plus_hotspot_composite(self):
        """Composite of a benchmark mix and a synthetic pattern drives a
        healthy network (a realistic 'app + background' scenario)."""
        mix = BenchmarkTraffic.random(4, mix_seed=5)
        background = SyntheticTraffic("uniform", 4, flit_rate=0.05,
                                      packet_length=4, seed=6)
        net = build_small_network(
            policy="sensor-wise", traffic=CompositeTraffic([mix, background])
        )
        net.run(1500)
        assert validate_network(net) == []
        drain(net, max_cycles=4000)
        injected = sum(ni.packets_injected for ni in net.interfaces)
        ejected = sum(ni.packets_ejected for ni in net.interfaces)
        assert ejected == injected > 20


class TestTorusUnderTraffic:
    def test_torus_below_saturation_delivers(self):
        """XY on a torus only uses the mesh sub-links, so it stays
        deadlock-free; wraparound links exist but idle."""
        net = build_small_network(
            policy="sensor-wise", num_nodes=9, topology="torus",
            routing="xy", flit_rate=0.08,
        )
        net.run(1200)
        assert validate_network(net) == []
        drain(net, max_cycles=5000)
        injected = sum(ni.packets_injected for ni in net.interfaces)
        ejected = sum(ni.packets_ejected for ni in net.interfaces)
        assert ejected == injected > 10
