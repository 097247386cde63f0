"""``python -m benchmarks.perf`` (needs ``src`` on ``PYTHONPATH``)."""

import sys

from .cli import main

sys.exit(main())
