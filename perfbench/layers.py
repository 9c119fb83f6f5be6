"""Per-layer tracing for the benchmark's traced run.

:class:`LayerTrace` wraps the public functions of each simulator layer
from outside the program (``src/`` stays untouched): while installed,
every wrapped call is counted and timed, and each layer's *self* time is
its own duration minus the time spent in wrapped calls it made.
Wrappers are installed on the classes and modules before any network is
built, so bound methods cached at construction time are wrapped too, and
they are always removed on exit.  Untimed code never sees them:
:func:`assert_untraced` guards every untraced timing section.

Processes forked while a trace is installed inherit the wrappers, but
their counts stay in the child; the fault-campaign workload therefore
re-runs its scenarios in-process for the engine-layer numbers.
"""

from __future__ import annotations

import importlib
import time
from typing import Dict, List, Tuple

#: (metric prefix, module, owner class or None for a module function,
#: attribute) -- one entry per wrapped entry point.
WRAPPED: Tuple[Tuple[str, str, str, str], ...] = (
    ("router.phase_deliver", "repro.noc.router", "Router", "phase_deliver"),
    ("router.phase_policy", "repro.noc.router", "Router", "phase_policy"),
    ("router.phase_va", "repro.noc.router", "Router", "phase_va"),
    ("router.phase_sa_st", "repro.noc.router", "Router", "phase_sa_st"),
    ("router.phase_nbti", "repro.noc.router", "Router", "phase_nbti"),
    ("output_unit.run_policy", "repro.noc.output_unit", "UpstreamPort", "run_policy"),
    ("interface.phase_eject", "repro.noc.interface", "NetworkInterface", "phase_eject"),
    ("interface.phase_va", "repro.noc.interface", "NetworkInterface", "phase_va"),
    ("interface.phase_send", "repro.noc.interface", "NetworkInterface", "phase_send"),
    ("link.send", "repro.noc.link", "DelayLine", "send"),
    ("link.pop_ready", "repro.noc.link", "DelayLine", "pop_ready"),
    ("soa.run_span", "repro.noc.soa", "SoAEngine", "run_span"),
    ("soa.flush_all", "repro.noc.soa", "NbtiArrays", "flush_all"),
    ("traffic.inject", "repro.traffic.synthetic", "SyntheticTraffic", "inject"),
    ("traffic.next_injection_cycle", "repro.traffic.synthetic", "SyntheticTraffic",
     "next_injection_cycle"),
    ("traffic.advance", "repro.traffic.synthetic", "SyntheticTraffic", "advance"),
    ("sensor.sample", "repro.nbti.sensor", "SensorBank", "sample"),
    ("network.step", "repro.noc.network", "Network", "step"),
    ("telemetry.instant", "repro.telemetry.trace", "Tracer", "instant"),
    ("telemetry.finalize", "repro.telemetry.runtime", "Telemetry", "finalize"),
    ("validation.validate_network", "repro.noc.validation", None, "validate_network"),
    ("faults.channel_send", "repro.faults.channels", "FaultyChannel", "send"),
    ("faults.injector_sample", "repro.faults.injector", "SensorBankFault", "sample"),
    ("journal.append", "repro.experiments.checkpoint", "ScenarioJournal", "append"),
    ("runner.build_network", "repro.experiments.runner", None, "build_network"),
)

_active: List["LayerTrace"] = []


def assert_untraced() -> None:
    """Raise if a layer trace is installed (called before untraced timing)."""
    if _active:
        raise RuntimeError("layer wrappers are installed during an untraced timing")


def _owner(module: str, cls: str):
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls is not None else mod


def originals() -> Dict[str, object]:
    """The currently installed object of every wrapped entry point."""
    return {
        name: _owner(module, cls).__dict__[attr]
        for name, module, cls, attr in WRAPPED
    }


class LayerTrace:
    """Context manager counting calls and self time per wrapped layer."""

    def __init__(self) -> None:
        #: name -> [calls, self seconds]
        self.stats: Dict[str, List[float]] = {
            name: [0, 0.0] for name, _, _, _ in WRAPPED
        }
        self._saved: List[Tuple[object, str, object]] = []
        # Child time accumulated by the frames currently on the stack.
        self._stack: List[float] = []

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                child = stack.pop()
                stat[0] += 1
                stat[1] += elapsed - child
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def __enter__(self) -> "LayerTrace":
        if _active:
            raise RuntimeError("layer traces do not nest")
        try:
            for name, module, cls, attr in WRAPPED:
                owner = _owner(module, cls)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
        except BaseException:
            self._restore()
            raise
        _active.append(self)
        return self

    def __exit__(self, *exc) -> None:
        self._restore()
        _active.remove(self)

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def calls(self, name: str) -> int:
        return int(self.stats[name][0])

    def metrics(self) -> Dict[str, float]:
        """``<name>.calls`` and ``<name>.self_s`` for every wrapped layer."""
        out: Dict[str, float] = {}
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = int(calls)
            out[f"{name}.self_s"] = self_s
        return out
