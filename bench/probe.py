"""Set-up probe: import the package and build a workload's scheme list in
this fresh interpreter, and print the time each part took as JSON, both as
measured and at the reference speed of calibrate.py.  The kernel runs
before and after the timed part; the import of the benchmark's own
modules is not timed.

    python3 bench/probe.py lowbeta 1
"""

import json
import sys
import time

import calibrate

KERNEL_CALLS = 3  # timed kernel calls on each side of the set-up

calibrate.warm_up()
kernel_times = [calibrate.kernel_s() for _ in range(KERNEL_CALLS)]
start = time.perf_counter()
import nestprohibitor  # noqa: E402,F401  (the import is what is timed)

imported = time.perf_counter()
import workloads  # noqa: E402

loaded = time.perf_counter()
schemes = workloads.build(sys.argv[1], int(sys.argv[2]))
built = time.perf_counter()
kernel_times += [calibrate.kernel_s() for _ in range(KERNEL_CALLS)]
build_s = built - loaded
setup_s = imported - start + build_s
print(json.dumps({
    "setup_s": calibrate.reference_s(setup_s, kernel_times),
    "measured_setup_s": setup_s,
    "build_ms": build_s * 1e3,
}))
