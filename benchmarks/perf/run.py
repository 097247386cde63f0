"""Entry point of the driver contract in ``BENCHMARK.json``.

``python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the root of a checkout: puts the checkout and its ``src`` on the import
path and hands over to ``python -m benchmarks.perf run``. Without the program
under ``src`` there is nothing to measure, so it exits non-zero.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing")
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.perf.cli import main

    sys.exit(main(["run", *sys.argv[1:]]))
