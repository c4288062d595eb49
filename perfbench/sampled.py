"""`python perfbench/sampled.py <args>` runs `ss3 <args>` and samples machine speed.

It behaves like `python -m ss3.cli <args>`: same stdout, same exit code.
In addition it times the speed kernel in this process, on the CPU the CLI
runs on: right before and right after the CLI's main, and every TICK_S in
between while this process is the only busy one (one thread, no child
processes). A CLI that hands its work to worker processes is thus never
sampled beside them, where the kernel would read slow and its time would
not be on the critical path. The last line on stderr is the JSON object
{"samples": [...], "kernel_s": <seconds spent in the kernel>}.

A child's speed cannot be measured from its idle parent: the parent runs
on the other CPU and wakes up cold.
"""

import json
import os
import signal
import sys
import threading
import time

import speed

FIRST_TICK_S = 0.05
TICK_S = 0.25  # about 1.5% of the child's time goes to the kernel
CHILDREN = f"/proc/self/task/{os.getpid()}/children"


def alone() -> bool:
    """Whether this process runs one thread and has no child processes."""
    if threading.active_count() > 1:
        return False
    try:
        with open(CHILDREN, encoding="ascii") as fh:
            return not fh.read().strip()
    except OSError:
        return False  # cannot tell, so do not sample


def main() -> int:
    samples = []
    kernel_s = 0.0

    def bracket() -> None:
        nonlocal kernel_s
        t0 = time.perf_counter()
        samples.append(speed.sample())
        kernel_s += time.perf_counter() - t0

    def tick(*_) -> None:
        nonlocal kernel_s
        if alone():
            samples.append(speed.timed_kernel())
            kernel_s += samples[-1]

    bracket()
    signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, FIRST_TICK_S, TICK_S)
    try:
        from ss3.cli import main as ss3_main

        return ss3_main(sys.argv[1:])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        bracket()
        sys.stdout.flush()
        print(json.dumps({"samples": samples, "kernel_s": kernel_s}), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
