"""Interpreter speed, measured beside the measured work.

The host gives the benchmark a share of shared cores, and its speed drifts
by a factor of 2-3 between quiet and busy hours.  `kernel` is a fixed
pure-Python loop of the kinds of work the engine does (tuple unpacking,
dict lookups of tuple keys, integer arithmetic, a sort); it calls nothing
of the package and imports nothing.  Timed beside the measured work, it
tells how fast the interpreter runs, and `reference_s` turns a measured
time into seconds at the reference speed: the speed at which one `kernel`
call takes REF_S (about its median on an idle 2-core x86-64 VM with
CPython 3.11).  A change to the program moves these times as it moves
wall time; a busy host moves the kernel's time with them and so mostly
cancels out.
"""

import time

REF_S = 3.5e-3
# How much more the program slows than the kernel when the host is busy:
# times scale with the kernel's time to this power.  The kernel's data fits
# in a core's own cache and the program's does not, so contention from
# other tenants slows the program more.  Runs in a busy hour, when the
# kernel took 2.0-2.4 times its idle time, took 2.2-3.0 times their idle
# time: a power of 1.0-1.2 on theorem1 and lowbeta and 1.2-1.3 on highbeta.
# With 1.2, runs in a busy hour read within 9% of their idle figures.
ELASTICITY = 1.2
WARMUP = 5  # calls before a fresh interpreter's kernel times settle


# The kernel's data is built once, so that a call allocates almost nothing:
# a kernel that builds its own tuples times the allocator as well, which the
# settle before it leaves in a state of its own (after the beta = 22 scheme
# of highbeta frees millions of nets, a call that allocates runs up to 20%
# slower).  The data is small (under 1 MB), as it counts in the workload
# process's peak memory.
_ROWS = [(a, b, c, (a * b + c) % 7) for a in range(24) for b in range(24) for c in range(6)]
_INDEX = {row: i for i, row in enumerate(_ROWS)}
_KEYS = [(a * 7919 + b * 104729 + c * 31) % 10007 for a, b, c, _ in _ROWS]
ROUNDS = 5


def kernel() -> int:
    total = 0
    for _ in range(ROUNDS):
        for a, b, c, d in _ROWS:
            if (b, a, c, d) in _INDEX:
                total += _INDEX[(a, b, c, d)] & 3
            elif d in (1, 3, 5):
                total -= 1
        total += sorted(_KEYS)[len(_KEYS) // 2]
    return total


def kernel_s() -> float:
    """The time of one kernel call, in seconds.  An untimed call comes
    first: right after an operation that churned through memory, a first
    call runs up to twice as slow while it warms the caches again, and that
    would tie the speed reading to the operation before it."""
    kernel()
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def warm_up() -> None:
    for _ in range(WARMUP):
        kernel()


def reference_s(took_s: float, kernel_times_s) -> float:
    """`took_s` at the reference speed, given the kernel times of its run.
    The median of the kernel times is taken without `statistics`, so that a
    probe imports nothing the package might import before it is timed."""
    times = sorted(kernel_times_s)
    mid = len(times) // 2
    median = times[mid] if len(times) % 2 else (times[mid - 1] + times[mid]) / 2
    return took_s * (REF_S / median) ** ELASTICITY
