"""Child process behind setup_s: import framelab, write the configs, stamp.

    python3 bench/setup_probe.py <workload> <seed> <config dir>

Prints CLOCK_MONOTONIC (ns) at the moment the first job could be issued,
then the calibration kernel's time in this process, so the parent can
rescale by the speed of the CPU the probe ran on.  Only what framelab and
the config generation need is imported before the stamp; the parent sets
the BLAS thread count and checks the framelab path.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))
import framelab.cli  # noqa: E402,F401
from workloads import make_jobs, write_configs  # noqa: E402

write_configs(make_jobs(sys.argv[1], int(sys.argv[2])), sys.argv[3])
ready = time.monotonic_ns()

from run import calibration_kernel, timed_calibration  # noqa: E402

calibration_kernel()  # warm: the first call runs slower
kernel = sum(timed_calibration() for _ in range(3)) / 3
print(ready, kernel, flush=True)
