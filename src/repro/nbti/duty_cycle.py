"""NBTI stress/recovery accounting (the *NBTI-duty-cycle* of the paper).

The paper defines::

    NBTI-duty-cycle = stress_cycles / (stress_cycles + recovery_cycles) * 100

where a VC buffer is in *stress* whenever it is powered (storing flits or
merely idle with a meaningless input vector) and in *recovery* only when it
is power-gated.  :class:`DutyCycleCounter` implements exactly that
bookkeeping; :class:`WindowedDutyCycle` adds a sliding-window view used by
adaptive extensions and by diagnostics.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, List, Tuple


class DutyCycleCounter:
    """Accumulates stress and recovery cycles for one device.

    The counter is deliberately tiny — one is instantiated per VC buffer
    per router port.  Its buffer books whole intervals into it at power
    transitions, sensor samples and harvest (``VCBuffer.nbti_flush``),
    not one cycle at a time.

    Example
    -------
    >>> c = DutyCycleCounter()
    >>> c.record(stressed=True, cycles=3)
    >>> c.record(stressed=False, cycles=1)
    >>> c.duty_cycle
    75.0
    """

    __slots__ = ("stress_cycles", "recovery_cycles")

    def __init__(self, stress_cycles: int = 0, recovery_cycles: int = 0) -> None:
        if stress_cycles < 0 or recovery_cycles < 0:
            raise ValueError("cycle counts must be non-negative")
        self.stress_cycles = stress_cycles
        self.recovery_cycles = recovery_cycles

    def record(self, stressed: bool, cycles: int = 1) -> None:
        """Add ``cycles`` to the stress or recovery tally."""
        if cycles < 0:
            raise ValueError(f"cycles must be non-negative, got {cycles}")
        if stressed:
            self.stress_cycles += cycles
        else:
            self.recovery_cycles += cycles

    @property
    def total_cycles(self) -> int:
        """Observed cycles so far (stress + recovery)."""
        return self.stress_cycles + self.recovery_cycles

    @property
    def duty_cycle(self) -> float:
        """NBTI-duty-cycle in percent; 100.0 when nothing was observed.

        An unobserved device is reported fully stressed because a powered
        buffer with no recorded recovery is, from the NBTI standpoint,
        always under stress (paper Sec. III-A).
        """
        total = self.total_cycles
        if total == 0:
            return 100.0
        return 100.0 * self.stress_cycles / total

    @property
    def alpha(self) -> float:
        """Duty cycle as a stress probability in ``[0, 1]`` (model input)."""
        return self.duty_cycle / 100.0

    @property
    def recovery_fraction(self) -> float:
        """Fraction of observed cycles spent power-gated, in ``[0, 1]``.

        The complement of :attr:`alpha` (0.0 when nothing was observed);
        the quantity the rejuvenation policies maximize during their
        deep-recovery windows.
        """
        return 1.0 - self.alpha

    def reset(self) -> None:
        """Zero both tallies (used when discarding warm-up cycles)."""
        self.stress_cycles = 0
        self.recovery_cycles = 0

    def snapshot(self) -> Tuple[int, int]:
        """Return ``(stress_cycles, recovery_cycles)``."""
        return (self.stress_cycles, self.recovery_cycles)

    def merge(self, other: "DutyCycleCounter") -> "DutyCycleCounter":
        """Return a new counter with the sums of both tallies."""
        return DutyCycleCounter(
            self.stress_cycles + other.stress_cycles,
            self.recovery_cycles + other.recovery_cycles,
        )

    def __repr__(self) -> str:
        return (
            f"DutyCycleCounter(stress={self.stress_cycles}, "
            f"recovery={self.recovery_cycles}, duty={self.duty_cycle:.2f}%)"
        )


class WindowedDutyCycle:
    """Sliding-window duty cycle over the last ``window`` cycles.

    Useful for adaptive policies and for plotting duty-cycle transients;
    the paper's tables use end-of-simulation cumulative values, which the
    plain :class:`DutyCycleCounter` provides.
    """

    __slots__ = ("window", "_bits", "_stress_in_window")

    def __init__(self, window: int) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        self._bits: Deque[bool] = deque(maxlen=window)
        self._stress_in_window = 0

    def record(self, stressed: bool) -> None:
        """Push one cycle's stress bit into the window."""
        if len(self._bits) == self.window:
            oldest = self._bits[0]
            if oldest:
                self._stress_in_window -= 1
        self._bits.append(stressed)
        if stressed:
            self._stress_in_window += 1

    @property
    def samples(self) -> int:
        """Number of cycles currently inside the window."""
        return len(self._bits)

    @property
    def duty_cycle(self) -> float:
        """Windowed NBTI-duty-cycle in percent (100.0 when empty)."""
        if not self._bits:
            return 100.0
        return 100.0 * self._stress_in_window / len(self._bits)


def duty_cycles_percent(counters: Iterable[DutyCycleCounter]) -> List[float]:
    """Duty cycles (percent) for an iterable of counters, in order."""
    return [c.duty_cycle for c in counters]
