"""Set-up probe: one fresh interpreter from start to workload inputs ready.

Run by ``run.py`` as ``python3 perfbench/probe.py WORKLOAD SEED WORKDIR`` with
the source tree on PYTHONPATH.  Prints one JSON line: the time.monotonic()
reading when the inputs were ready, which the parent compares with its own
reading taken before it started this interpreter, and the import time of
``rankdesign``.
"""

import json
import sys
import time

start = time.perf_counter()
import rankdesign  # noqa: E402,F401

import_s = time.perf_counter() - start

import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), sys.argv[3])
print(json.dumps({"ready": time.monotonic(), "import_s": import_s}))
