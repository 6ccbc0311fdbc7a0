"""Time one set-up in a fresh interpreter: import provfact from ``src/``,
then generate and parse a workload's inputs.  Prints the seconds taken.

    python3 perfbench/setup_probe.py <workload> <seed> <scale>
"""

import sys
import time
from pathlib import Path

import workloads

if __name__ == "__main__":
    workload, seed, scale = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.perf_counter()
    import provfact  # noqa: F401

    workloads.build(workload, seed, scale)
    print(time.perf_counter() - start)
