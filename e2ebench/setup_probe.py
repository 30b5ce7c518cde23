"""Set-up probe: one fresh process that stops at a workload's first event.

``run.py`` starts this script once per set-up sample.  It imports the
program, builds the workload's first run exactly as a real run does, and
prints the ``time.monotonic()`` instant at which the workload first enters
the event loop (``Simulator.run_until_complete``); it then exits without
simulating.  The parent subtracts its own clock reading taken just before
the process started, so a sample covers interpreter start, imports and
building the grid or campaign.

Usage: ``python3 e2ebench/setup_probe.py <workload> <seed>``
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


class FirstEvent(BaseException):
    """Raised at the first event; a BaseException so that no handler of
    the program (chaos verdicts catch Exception) swallows it."""


def main(argv) -> int:
    workload, seed = argv[1], int(argv[2])
    sys.path.insert(0, SRC)
    import workloads
    from repro.sim.engine import Simulator

    def stop(sim, *args, **kwargs):
        raise FirstEvent(time.monotonic())

    Simulator.run_until_complete = stop
    try:
        workloads.WORKLOADS[workload](seed)
    except FirstEvent as reached:
        print(repr(reached.args[0]))
        return 0
    print(f"{workload} finished without entering the event loop",
          file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
