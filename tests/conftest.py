"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.core.policies import make_policy_factory
from repro.nbti.process_variation import ProcessVariationModel
from repro.noc.config import NoCConfig
from repro.noc.network import Network
from repro.traffic.base import NullTraffic
from repro.traffic.synthetic import SyntheticTraffic


def build_small_network(
    policy: str = "sensor-wise",
    num_nodes: int = 4,
    num_vcs: int = 2,
    flit_rate: float = 0.2,
    seed: int = 7,
    pv_seed: int = 11,
    traffic=None,
    **config_kwargs,
) -> Network:
    """A 2x2 (default) mesh with uniform traffic — the test workhorse."""
    config = NoCConfig(num_nodes=num_nodes, num_vcs=num_vcs, seed=seed, **config_kwargs)
    if traffic is None:
        if flit_rate > 0.0:
            traffic = SyntheticTraffic(
                "uniform", num_nodes, flit_rate=flit_rate,
                packet_length=config.packet_length, seed=seed,
            )
        else:
            traffic = NullTraffic(num_nodes)
    pv = ProcessVariationModel(seed=pv_seed)
    return Network(config, make_policy_factory(policy), traffic, pv_model=pv)


def per_cycle_reference(net: Network) -> Network:
    """Turn ``net`` into the per-cycle NBTI reference and return it.

    The oracle the interval accounting must reproduce: the network is
    pinned to dense stepping, and every cycle each router's NBTI phase
    first ages every input unit's devices by one cycle in their current
    power state (``InputUnit.nbti_tick``), then rebases the buffers'
    interval anchors past that cycle so no later interval flush books
    it twice, and only then runs the original phase.
    """
    net.force_engine = "stepped"
    for router in net.routers:
        units = [router.inputs[port].unit for port in router.input_ports]
        buffers = [ivc.buffer for unit in units for ivc in unit.vcs]

        def phase_nbti(cycle, units=units, buffers=buffers,
                       original=router.phase_nbti):
            for unit in units:
                unit.nbti_tick()
            for buffer in buffers:
                buffer.nbti_rebase(cycle + 1)
            original(cycle)

        router.phase_nbti = phase_nbti
    return net


@pytest.fixture
def small_network():
    """Factory fixture: ``small_network(policy=..., ...) -> Network``."""
    return build_small_network


def drain(network: Network, max_cycles: int = 2000) -> int:
    """Run with no further injection until every flit is delivered.

    Returns the number of cycles it took.  Fails the test if the network
    does not drain within ``max_cycles`` (a liveness violation).
    """
    network.traffic = None
    for elapsed in range(max_cycles):
        if network.in_flight_flits() == 0:
            return elapsed
        network.step()
    raise AssertionError(
        f"network failed to drain within {max_cycles} cycles; "
        f"{network.in_flight_flits()} flits still in flight"
    )
