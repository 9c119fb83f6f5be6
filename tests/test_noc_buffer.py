"""Tests for the power-gateable VC buffer."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nbti.model import NBTIModel
from repro.nbti.transistor import PMOSDevice
from repro.noc.buffer import BufferError, PowerState, VCBuffer
from repro.noc.flit import Flit, FlitType


def make_flit(seq: int = 0) -> Flit:
    return Flit(0, seq, FlitType.BODY, 0, 1, 0)


class TestFIFOBehaviour:
    def test_fifo_order(self):
        buf = VCBuffer(4)
        flits = [make_flit(i) for i in range(4)]
        for f in flits:
            buf.push(f)
        assert [buf.pop().seq for _ in range(4)] == [0, 1, 2, 3]

    def test_front_peeks_without_removing(self):
        buf = VCBuffer(2)
        buf.push(make_flit(7))
        assert buf.front().seq == 7
        assert len(buf) == 1

    def test_front_of_empty_is_none(self):
        assert VCBuffer(2).front() is None

    def test_overflow_rejected(self):
        buf = VCBuffer(1)
        buf.push(make_flit())
        assert buf.is_full
        with pytest.raises(BufferError):
            buf.push(make_flit(1))

    def test_pop_empty_rejected(self):
        with pytest.raises(BufferError):
            VCBuffer(1).pop()

    def test_free_slots(self):
        buf = VCBuffer(3)
        assert buf.free_slots == 3
        buf.push(make_flit())
        assert buf.free_slots == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            VCBuffer(0)

    @settings(max_examples=50, deadline=None)
    @given(ops=st.lists(st.booleans(), max_size=60))
    def test_occupancy_invariant(self, ops):
        """Random push/pop stream keeps occupancy in [0, capacity] and
        preserves FIFO order."""
        buf = VCBuffer(4)
        pushed = []
        popped = []
        seq = 0
        for do_push in ops:
            if do_push and not buf.is_full:
                f = make_flit(seq)
                seq += 1
                buf.push(f)
                pushed.append(f.seq)
            elif not do_push and not buf.is_empty:
                popped.append(buf.pop().seq)
            assert 0 <= len(buf) <= 4
        while not buf.is_empty:
            popped.append(buf.pop().seq)
        assert popped == pushed


class TestPowerGating:
    def test_initially_on(self):
        buf = VCBuffer(2)
        assert buf.state is PowerState.ON
        assert buf.powered
        assert buf.can_accept

    def test_gate_empty_buffer(self):
        buf = VCBuffer(2)
        buf.gate()
        assert buf.state is PowerState.GATED
        assert not buf.powered
        assert not buf.can_accept

    def test_gate_nonempty_rejected(self):
        buf = VCBuffer(2)
        buf.push(make_flit())
        with pytest.raises(BufferError):
            buf.gate()

    def test_push_into_gated_rejected(self):
        buf = VCBuffer(2)
        buf.gate()
        with pytest.raises(BufferError):
            buf.push(make_flit())

    def test_gate_is_idempotent(self):
        buf = VCBuffer(2)
        buf.gate()
        buf.gate()
        assert buf.state is PowerState.GATED

    def test_wake_with_latency(self):
        buf = VCBuffer(2)
        buf.gate()
        buf.wake(latency=2)
        assert buf.state is PowerState.WAKING
        assert buf.powered  # rail energized counts as stress
        assert not buf.can_accept
        buf.tick_power()
        assert buf.state is PowerState.WAKING
        buf.tick_power()
        assert buf.state is PowerState.ON

    def test_wake_zero_latency_immediate(self):
        buf = VCBuffer(2)
        buf.gate()
        buf.wake(latency=0)
        assert buf.state is PowerState.ON

    def test_wake_on_buffer_is_noop(self):
        buf = VCBuffer(2)
        buf.wake(latency=3)
        assert buf.state is PowerState.ON

    def test_rewake_does_not_extend_countdown(self):
        buf = VCBuffer(2)
        buf.gate()
        buf.wake(latency=1)
        buf.wake(latency=5)  # ignored
        buf.tick_power()
        assert buf.state is PowerState.ON

    def test_negative_latency_rejected(self):
        buf = VCBuffer(2)
        buf.gate()
        with pytest.raises(ValueError):
            buf.wake(latency=-1)

    def test_push_while_waking_rejected(self):
        buf = VCBuffer(2)
        buf.gate()
        buf.wake(latency=2)
        with pytest.raises(BufferError):
            buf.push(make_flit())


class TestNBTIHooks:
    """Interval accounting over a single cycle: one flush books that
    cycle in the buffer's current power state."""

    def test_tick_records_stress_when_powered(self):
        dev = PMOSDevice(0.18, NBTIModel.calibrated())
        buf = VCBuffer(2, device=dev)
        buf.nbti_flush(1)
        assert dev.counter.snapshot() == (1, 0)

    def test_tick_records_recovery_when_gated(self):
        dev = PMOSDevice(0.18, NBTIModel.calibrated())
        buf = VCBuffer(2, device=dev)
        buf.gate(cycle=0)
        buf.nbti_flush(1)
        assert dev.counter.snapshot() == (0, 1)

    def test_waking_counts_as_stress(self):
        dev = PMOSDevice(0.18, NBTIModel.calibrated())
        buf = VCBuffer(2, device=dev)
        buf.gate(cycle=0)
        buf.wake(latency=3, cycle=0)
        buf.nbti_flush(1)
        assert dev.counter.snapshot() == (1, 0)

    def test_untracked_buffer_records_nothing(self):
        dev = PMOSDevice(0.18, NBTIModel.calibrated())
        buf = VCBuffer(2, device=dev, track_nbti=False)
        buf.nbti_flush(1)
        assert dev.counter.snapshot() == (0, 0)

    def test_deviceless_buffer_tick_is_safe(self):
        VCBuffer(2).nbti_flush(1)  # must not raise


class TestFlitsView:
    def test_flits_is_a_read_only_snapshot(self):
        buf = VCBuffer(4)
        flits = [make_flit(i) for i in range(3)]
        for f in flits:
            buf.push(f)
        view = buf.flits
        assert isinstance(view, tuple)
        assert [f.seq for f in view] == [0, 1, 2]
        # A snapshot: later pops don't mutate an already-taken view.
        buf.pop()
        assert [f.seq for f in view] == [0, 1, 2]
        assert [f.seq for f in buf.flits] == [1, 2]

    def test_empty_buffer_has_empty_view(self):
        assert VCBuffer(2).flits == ()
