"""One fresh set-up, timed from inside a new interpreter.

Usage: ``python3 probe.py <workload>`` with the checkout's ``src`` on
``PYTHONPATH``.  Imports ``repro``, builds the workload's inputs the way
the benchmark's first pass does, prints one JSON line with ``import_ms``
and ``inputs_ms``, and exits.  The parent times the whole thing from
spawn to that line.
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
import repro  # noqa: E402,F401  (the import is what is timed)

t1 = time.perf_counter()
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
workload = sys.argv[1]
if workload == "whatif":
    import whatif

    whatif.build_inputs()
elif workload == "simulate":
    import simulate

    simulate.build_inputs()
elif workload != "import":
    sys.exit(f"unknown workload {workload!r}")
t2 = time.perf_counter()
print(json.dumps({"import_ms": (t1 - t0) * 1000.0, "inputs_ms": (t2 - t1) * 1000.0}), flush=True)
