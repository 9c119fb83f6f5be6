"""Set-up probe: one fresh interpreter doing a workload's set-up.

Usage: ``python3 perfbench/probe_setup.py <workload> <seed> <workdir> <size>``

Imports the program, runs :func:`workloads.setup` and prints the
``time.monotonic()`` reading at the point the first simulated cycle
would start.  The parent takes its own reading just before launching
this process, so the difference covers interpreter start, imports,
network construction and (for the fault campaign) journal and executor
construction.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main(argv) -> None:
    import workloads

    name, seed, workdir, size = argv
    workloads.setup(name, int(seed), Path(workdir), size)
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main(sys.argv[1:])
