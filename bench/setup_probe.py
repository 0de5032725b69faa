"""Time one set-up of a workload in this fresh process.

    python3 bench/setup_probe.py <workload> <seed> <scratch dir>

``run.py`` starts it several times, one after another, for ``setup_s``.
The time covers the package import, the seeded inputs, the input files and
the warm-up.  It prints the set-up seconds and the median time of the
calibration loop, run three times before and three times after the set-up.
"""

import sys
import time
from pathlib import Path
from statistics import median

from run import WORKLOADS, import_package, timed_calibration, ROOT

name, seed, scratch = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
wl = WORKLOADS[name](seed, ROOT, scratch)
try:
    cals = [timed_calibration() for _ in range(3)]
    t = time.perf_counter()
    wl.setup(import_package())
    elapsed = time.perf_counter() - t
    cals += [timed_calibration() for _ in range(3)]
finally:
    wl.close()
print(elapsed, median(cals))
