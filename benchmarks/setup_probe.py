"""One benchmark set-up: import centrex and build a workload's sweep configs.

Prints ``ready`` when done; ``run.py`` times this process from its start to
that line.  Usage: ``python3 benchmarks/setup_probe.py <workload> <seed>``.
"""

import sys

from workloads import WORKLOADS

WORKLOADS[sys.argv[1]].plan(int(sys.argv[2]))
print("ready", flush=True)
