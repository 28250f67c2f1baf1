"""Benchmark entry point; see harness.py for workloads and metrics.

    python3 bench/run.py --workload mc_long_block --seed 1 --seconds 55 --trace 0

BLAS is pinned to one thread before numpy loads. The package is imported
from ``src`` next to this directory, so the benchmark runs from a plain
source checkout.
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

try:
    import harness  # noqa: E402
except ImportError as exc:
    print(f"cannot import the benchmark or the ncprecode package: {exc}", file=sys.stderr)
    sys.exit(2)

if __name__ == "__main__":
    sys.exit(harness.main(sys.argv[1:], START))
