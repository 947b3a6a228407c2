"""Set-up time of one workload in a fresh interpreter.

``python3 perfbench/setup_probe.py <workload> <seed> <storage root>``
imports the program, builds the workload's ``ScenarioRunner`` (cluster,
keys, storage directories, shims) and prints the seconds that took and
the median of calibration samples taken right before and after it.
"""

import statistics
import sys
from pathlib import Path
from time import perf_counter

import calibrate

kernel = [calibrate.sample() for _ in range(5)]
start = perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.scenario import ScenarioRunner  # noqa: E402

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, root = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    ScenarioRunner(workloads.build(name, seed), storage_root=root)
    seconds = perf_counter() - start
    kernel += [calibrate.sample() for _ in range(5)]
    print(seconds, statistics.median(kernel))
