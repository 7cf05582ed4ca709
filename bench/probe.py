"""Set-up probe, run in a fresh interpreter by run.py.

    python3 bench/probe.py WORKLOAD WORKDIR

Times the import of ``twinbeam.cli`` (and numpy's share of it), then one
warm-up call of each entry point the workload uses, on its smallest input.
Preparing those inputs is not timed. Prints one JSON line.
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
import numpy  # noqa: E402,F401  (timed on its own: the floor no twinbeam change removes)

t1 = time.perf_counter()
import twinbeam.cli  # noqa: E402,F401

t2 = time.perf_counter()
import workloads  # noqa: E402

workdir = Path(sys.argv[2])
workdir.mkdir(parents=True, exist_ok=True)
calls = workloads.WORKLOADS[sys.argv[1]].warm_up(workdir)
t3 = time.perf_counter()
calls()
t4 = time.perf_counter()
print(json.dumps({"numpy_import_s": t1 - t0, "import_s": t2 - t0, "warm_up_s": t4 - t3}))
