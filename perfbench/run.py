"""Benchmark driver: run one workload, check its outputs, print its metrics.

Usage::

    python3 perfbench/run.py --workload mesh64-loaded --seed 1 --seconds 18 --trace 0

With ``--trace 0`` the workload runs untraced in a closed loop (one
scenario at a time, one process) for ``--seconds`` seconds and at least
two iterations; ``wall_s`` and ``router_cycles_per_s`` are taken over
all of them and ``setup_s`` is the mean over several fresh interpreters.
These three host timings are rescaled to a reference host speed (see
:class:`HostSpeed`).  With ``--trace 1`` one iteration runs untraced and
one runs under the per-layer wrappers of ``layers.py``, and the
per-layer metrics are reported.  Either way the outputs are checked
(see ``NOTES.md``) and the last line of standard output is one JSON
object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--record`` rewrites ``digests.json`` from a run with the default seed.
Exits non-zero when the program sources are missing or a check fails.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
PROBE = HERE / "probe_setup.py"

#: Fresh interpreters launched per run for ``setup_s``.
SETUP_LAUNCHES = 5
#: Iterations timed at least, however long they take.
MIN_ITERATIONS = 2
#: Host seconds one calibration unit takes at the reference speed.
REFERENCE_UNIT_S = 0.010
#: Share of the previous timed section spent calibrating after it.
CALIBRATION_SHARE = 0.10

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "router_cycles_per_s": "1/s",
    "peak_rss_mb": "MB",
    "md_duty_pct": "%",
    "avg_latency_cycles": "cycles",
}

_DERIVED_LAYER_METRICS = {
    "engine.stepped_cycle_frac": "ratio",
    "telemetry.overhead_x": "x",
    "executor.dispatch_overhead_s": "s",
    "executor.attempts": "count",
    "executor.parent_cpu_s": "s",
    "runner.harvest.calls": "count",
    "runner.harvest.self_s": "s",
    "trace.overhead_x": "x",
}


def per_layer_units() -> Dict[str, str]:
    from layers import WRAPPED

    units = {}
    for name, _, _, _ in WRAPPED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(_DERIVED_LAYER_METRICS)
    return units


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _calibration_unit() -> int:
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return total


class HostSpeed:
    """Host speed, sampled by a fixed pure-Python loop between timings.

    On a shared host the same code runs up to ~1.5x slower for minutes
    at a time.  Timing a fixed calibration loop right after every timed
    section and rescaling by it turns host seconds into seconds at the
    reference speed (one unit in ``REFERENCE_UNIT_S``), which removes
    most of that drift while leaving the program's own cost in place.
    """

    def __init__(self) -> None:
        self.units = 0
        self.seconds = 0.0

    def sample(self, after_s: float) -> None:
        """Calibrate for a share of the ``after_s`` seconds just timed."""
        budget = max(0.05, CALIBRATION_SHARE * after_s)
        started = time.perf_counter()
        elapsed = 0.0
        while elapsed < budget:
            _calibration_unit()
            self.units += 1
            elapsed = time.perf_counter() - started
        self.seconds += elapsed

    def scale(self) -> float:
        """Factor turning host seconds into reference seconds."""
        return REFERENCE_UNIT_S * self.units / self.seconds


def measure_setup(name: str, seed: int, workdir: Path, size: str,
                  speed: HostSpeed, launches: int = SETUP_LAUNCHES) -> List[float]:
    """Host seconds from launching an interpreter to its first cycle."""
    values = []
    for index in range(launches):
        probe_dir = workdir / f"setup-{index}"
        before = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(PROBE), name, str(seed), str(probe_dir), size],
            capture_output=True, text=True, timeout=120, check=True,
        )
        values.append(float(done.stdout.split()[-1]) - before)
        speed.sample(values[-1])
        shutil.rmtree(probe_dir, ignore_errors=True)
    return values


class Run:
    """One benchmark run of one workload; collects checks and metrics."""

    def __init__(self, name: str, seed: int, workdir: Path, size: str = "full",
                 expected: Optional[Dict[str, object]] = None) -> None:
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.size = size
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    # -- checks ----------------------------------------------------------
    def _account(self, it) -> None:
        self.attempted += len(it.results) + it.failures
        self.failed += it.failures

    def _check(self, digests: List[Dict[str, object]], first_results) -> None:
        """Repeat determinism, recorded digests and the stepped oracle."""
        import workloads

        base = digests[0]
        for other in digests[1:]:
            self.failed += workloads.count_mismatches(other, base)
        if self.expected is not None:
            self.failed += workloads.count_mismatches(base, self.expected)
        oracle = workloads.oracle_mismatches(first_results, self.name)
        self.attempted += oracle["checked"]
        self.failed += oracle["mismatched"]
        if self.name in workloads.SOA_ONLY and oracle["stepped_cycles"]:
            self._engine_error(oracle["stepped_cycles"], oracle["simulated_cycles"])

    def _engine_error(self, stepped: int, simulated: int) -> None:
        self.errors.append(
            f"{self.name}: {stepped} of {simulated} cycles ran on the stepped "
            "engine; this workload must run on the SoA engine only"
        )

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors

    # -- modes -----------------------------------------------------------
    def untraced(self, seconds: float) -> Dict[str, float]:
        """End-to-end metrics over a closed loop of ``seconds`` seconds."""
        import workloads
        from layers import assert_untraced

        speed = HostSpeed()
        setups = measure_setup(self.name, self.seed, self.workdir, self.size, speed)
        walls: List[float] = []
        work = sim_s = 0.0
        digests: List[Dict[str, object]] = []
        first = None
        started = time.perf_counter()
        while len(walls) < MIN_ITERATIONS or time.perf_counter() - started < seconds:
            assert_untraced()
            it = workloads.run_iteration(self.name, self.seed, self.workdir, self.size)
            speed.sample(it.wall_s)
            self._account(it)
            walls.append(it.wall_s)
            work += workloads.router_cycles(it.results)
            sim_s += sum(r.sim_seconds for r in it.results)
            digests.append(workloads.iteration_digests(it))
            if first is None:
                first = it
        self._check(digests, first.results)
        self.first_digests = digests[0]
        scale = speed.scale()
        print(f"perfbench: {self.name} seed {self.seed}: {len(walls)} iterations, "
              f"host walls {' '.join(f'{w:.3f}' for w in walls)} s, "
              f"host set-ups {' '.join(f'{v:.3f}' for v in setups)} s, "
              f"speed scale {scale:.4f}",
              file=sys.stderr)
        return {
            "setup_s": statistics.mean(setups) * scale,
            "wall_s": statistics.mean(walls) * scale,
            "router_cycles_per_s": work / (sim_s * scale),
            "peak_rss_mb": peak_rss_mb(),
            "md_duty_pct": workloads.md_duty_pct(first.results),
            "avg_latency_cycles": workloads.avg_latency_cycles(first.results),
        }

    def traced(self) -> Dict[str, float]:
        """Per-layer metrics from one traced iteration."""
        import workloads
        from layers import LayerTrace, assert_untraced

        assert_untraced()
        base = workloads.run_iteration(self.name, self.seed, self.workdir, self.size)
        with LayerTrace() as trace:
            traced = workloads.run_iteration(self.name, self.seed, self.workdir, self.size)
            in_process = traced
            if self.name == "fault-campaign":
                # The campaign's children keep their counts; re-run its
                # scenarios here for the engine layers.
                in_process = workloads.run_in_process(
                    [r.scenario for r in traced.results]
                )
        for it in (base, traced):
            self._account(it)
        self._check(
            [workloads.iteration_digests(base), workloads.iteration_digests(traced)],
            base.results,
        )
        metrics = trace.metrics()
        simulated = sum(workloads.simulated_cycles(r) for r in in_process.results)
        stepped = trace.calls("network.step")
        if self.name in workloads.SOA_ONLY and stepped:
            self._engine_error(stepped, simulated)
        metrics["engine.stepped_cycle_frac"] = stepped / simulated
        metrics["runner.harvest.calls"] = len(in_process.results)
        metrics["runner.harvest.self_s"] = in_process.harvest_s
        metrics["executor.dispatch_overhead_s"] = traced.dispatch_overhead_s
        metrics["executor.attempts"] = traced.attempts
        metrics["executor.parent_cpu_s"] = traced.parent_cpu_s
        metrics["trace.overhead_x"] = traced.wall_s / base.wall_s
        metrics["telemetry.overhead_x"] = 0.0
        if self.name == "mesh16-telemetry":
            assert_untraced()
            plain = workloads.run_in_process([
                s.replace(telemetry=None)
                for s in workloads.scenarios(self.name, self.seed, self.size)
            ])
            self._account(plain)
            metrics["telemetry.overhead_x"] = base.wall_s / plain.wall_s
        return metrics


def run(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
        record: bool = False) -> Dict[str, object]:
    """Run one workload and return the result object that is printed."""
    import workloads

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {workloads.WORKLOADS}")
    expected = None
    if seed == workloads.DEFAULT_SEED and size == "full" and not record:
        expected = json.loads(DIGESTS.read_text())[name]
    workdir = ROOT / ".perfbench-work" / f"{name}-{seed}-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    try:
        bench = Run(name, seed, workdir, size, expected)
        if trace:
            values = bench.traced()
            units = per_layer_units()
        else:
            values = bench.untraced(seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it is already gone
    if record and not trace:
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        recorded[name] = bench.first_digests
        DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    for error in bench.errors:
        print(f"perfbench: {error}", file=sys.stderr)
    return {
        "correct": bench.correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite digests.json (default seed only)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: program sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.record and args.seed != 1:
        parser.error("--record needs the default seed")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 record=args.record)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
