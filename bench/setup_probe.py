"""Time the benchmark's set-up in a fresh interpreter: import sitawim and
build one workload's inputs.  Prints the seconds on the last line.

    python3 bench/setup_probe.py table35
"""

import sys
import time

t0 = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import sitawim.feasibility  # noqa: E402,F401
import sitawim.solver  # noqa: E402,F401
import sitawim.spectra  # noqa: E402,F401
import sitawim.structcheck  # noqa: E402,F401
import sitawim.varietygen  # noqa: E402,F401

import pipeline  # noqa: E402

pipeline.build_workloads()[sys.argv[1]]
print(time.perf_counter() - t0)
