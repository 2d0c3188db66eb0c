"""Set-up probe: import odcbf, build one workload's scenarios, print the clock.

    python3 bench/setup_probe.py <workload>

run.py starts this in a fresh interpreter and reads the monotonic clock it
prints, so the measured set-up covers interpreter start, every import
(numpy, scipy, odcbf) and the scenario builds. It then prints the median
time of the calibration kernel, timed right after, by which run.py scales
the set-up to the reference speed.
"""

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import odcbf.cli  # noqa: E402,F401
from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    wl = WORKLOADS[sys.argv[1]](0, Path(__file__).resolve().parent.parent / ".bench_out" / "setup-probe")
    wl.build()
    ready = time.monotonic()
    from calibration import kernel

    kernel()  # warm, as the speed sampler does
    runs = []
    for _ in range(5):
        t0 = time.perf_counter_ns()
        kernel()
        runs.append(time.perf_counter_ns() - t0)
    wl.close()
    print(ready, statistics.median(runs) / 1e9)
