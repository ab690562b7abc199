"""Time one workload's set-up in a fresh interpreter.

Usage: python3 bench/setup_probe.py <workload> <seed>

Prints the seconds from the first statement after the host clock starts,
through ``import starinv``, until the workload's pair source is built,
in reference seconds (``hostclock.py``).  A fresh process keeps
``example26_algebra``'s cache and earlier imports out of the figure.
"""
import time

import hostclock

CLOCK = hostclock.HostClock()
CLOCK.start()
_STARTED = time.perf_counter()

import sys  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    workloads.use_source_tree()
    workloads.build_pair_source(workloads.WORKLOADS[name], seed)
    finished = time.perf_counter()
    CLOCK.stop()
    print(repr(CLOCK.seconds(_STARTED, finished)))


if __name__ == "__main__":
    main()
