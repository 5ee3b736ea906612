"""Set-up cost of one workload, measured in a fresh interpreter.

Times the import of mlrfit (numpy and scipy included) plus generating the
workload's datasets and round-tripping them through the dataset files, and
prints the elapsed seconds. run.py starts it several times per run.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED SCRATCH_DIR
"""

import sys
import time
from pathlib import Path

started = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports mlrfit, numpy and scipy)

workloads.prepare(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]), sys.argv[3])
print(repr(time.perf_counter() - started))
