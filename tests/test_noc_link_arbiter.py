"""Tests for delay lines and round-robin arbitration."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.arbiter import RoundRobinArbiter
from repro.noc.link import Channel, DelayLine


class TestDelayLine:
    def test_latency_one(self):
        line = DelayLine(latency=1)
        line.send("a", cycle=5)
        assert line.pop_ready(5) == []
        assert line.pop_ready(6) == ["a"]
        assert line.pop_ready(7) == []

    def test_zero_latency_immediate(self):
        line = DelayLine(latency=0)
        line.send("a", cycle=5)
        assert line.pop_ready(5) == ["a"]

    def test_same_cycle_items_keep_send_order(self):
        line = DelayLine(latency=2)
        for item in ("a", "b", "c"):
            line.send(item, cycle=0)
        assert line.pop_ready(2) == ["a", "b", "c"]

    def test_late_pop_delivers_everything_due(self):
        line = DelayLine(latency=1)
        line.send("a", cycle=0)
        line.send("b", cycle=3)
        assert line.pop_ready(10) == ["a", "b"]

    def test_in_flight_count(self):
        line = DelayLine(latency=4)
        line.send("a", 0)
        line.send("b", 1)
        assert line.in_flight == 2
        line.pop_ready(4)
        assert line.in_flight == 1

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            DelayLine(latency=-1)

    def test_channel_carries_name(self):
        ch = Channel("r0.data", latency=1)
        assert "r0.data" in repr(ch)

    @settings(max_examples=40, deadline=None)
    @given(
        latency=st.integers(min_value=0, max_value=5),
        sends=st.lists(st.integers(min_value=0, max_value=30), max_size=30),
    )
    def test_every_item_delivered_exactly_once(self, latency, sends):
        line = DelayLine(latency=latency)
        for i, cycle in enumerate(sorted(sends)):
            line.send(i, cycle)
        delivered = []
        for cycle in range(40):
            delivered.extend(line.pop_ready(cycle))
        assert sorted(delivered) == list(range(len(sends)))
        assert line.in_flight == 0


def list_scan(size, pointer, requests):
    """Reference round-robin scan over one request bool per line: the
    first requesting line at or after ``pointer``, wrapping; returns
    (granted index or None, pointer after)."""
    for offset in range(size):
        idx = (pointer + offset) % size
        if requests[idx]:
            return idx, (idx + 1) % size
    return None, pointer


class TestRoundRobinArbiter:
    def test_rotates_through_requesters(self):
        arb = RoundRobinArbiter(3)
        grants = [arb.grant([0, 1, 2]) for _ in range(6)]
        assert grants == [0, 1, 2, 0, 1, 2]

    def test_skips_non_requesters(self):
        arb = RoundRobinArbiter(4)
        assert arb.grant([2]) == 2
        assert arb.grant([0, 2]) == 0  # pointer at 3 wraps

    def test_no_request_no_grant(self):
        arb = RoundRobinArbiter(2)
        assert arb.grant([]) is None

    def test_pointer_unchanged_on_no_grant(self):
        arb = RoundRobinArbiter(3)
        arb.grant([0])
        before = arb.pointer
        arb.grant([])
        assert arb.pointer == before

    def test_wrong_width_rejected(self):
        """A granted index outside the arbiter's lines is refused, so
        the pointer never leaves [0, size)."""
        arb = RoundRobinArbiter(3)
        with pytest.raises(ValueError):
            arb.grant([3])
        assert arb.pointer == 0

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(0)

    def test_reset(self):
        arb = RoundRobinArbiter(3)
        arb.grant([0, 1, 2])
        arb.reset()
        assert arb.pointer == 0

    def test_starvation_freedom(self):
        """A persistent requester is granted within `size` arbitrations,
        whatever the other requesters do."""
        arb = RoundRobinArbiter(4)
        waits = {i: 0 for i in range(4)}
        for _ in range(100):
            g = arb.grant([0, 1, 2, 3])
            for i in range(4):
                if i == g:
                    waits[i] = 0
                else:
                    waits[i] += 1
                    assert waits[i] < 4

    @settings(max_examples=40, deadline=None)
    @given(
        size=st.integers(min_value=1, max_value=6),
        data=st.data(),
    )
    def test_grant_is_always_a_requester(self, size, data):
        arb = RoundRobinArbiter(size)
        for _ in range(20):
            requesters = sorted(data.draw(
                st.sets(st.integers(min_value=0, max_value=size - 1))
            ))
            g = arb.grant(requesters)
            if requesters:
                assert g in requesters
            else:
                assert g is None

    @settings(max_examples=200, deadline=None)
    @given(
        size=st.integers(min_value=1, max_value=12),
        data=st.data(),
    )
    def test_index_grant_matches_list_scan(self, size, data):
        """``grant`` over ascending requester indexes picks the same
        line, and leaves the same pointer, as the reference scan over
        request bools."""
        arb = RoundRobinArbiter(size)
        arb._pointer = data.draw(st.integers(min_value=0, max_value=size - 1))
        for _ in range(8):
            requests = data.draw(st.lists(st.booleans(), min_size=size, max_size=size))
            expected = list_scan(size, arb.pointer, requests)
            granted = arb.grant([i for i, req in enumerate(requests) if req])
            assert (granted, arb.pointer) == expected

    def test_fairness_under_full_load(self):
        arb = RoundRobinArbiter(5)
        counts = {i: 0 for i in range(5)}
        for _ in range(100):
            counts[arb.grant(range(5))] += 1
        assert set(counts.values()) == {20}
