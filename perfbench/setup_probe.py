"""Time one workload's set-up in a cold interpreter.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed> <size>``

The clock starts before the first ``import repro`` and stops when the
world (or grid, or sharded fleet) is ready to run, so the figure covers
imports, spec construction and ``materialize``. A ``SpeedProbe`` runs
meanwhile. Prints one JSON line: ``{"setup_s": ..., "reference_s":
...}``, the set-up time in measured and in reference seconds.
"""

import time

import calibrate

PROBE = calibrate.SpeedProbe().__enter__()
STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv) -> int:
    workload, seed, size = argv
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    sys.path.insert(0, str(here))
    import workloads

    workloads.make(workload, size).setup(int(seed))
    setup_s = time.perf_counter() - STARTED
    PROBE.__exit__()
    print(json.dumps({"setup_s": setup_s,
                      "reference_s": PROBE.reference_s(setup_s)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
