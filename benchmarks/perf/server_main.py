"""The server subprocess of the service workloads.

Runs the public ``repro.service.server.serve`` over a JSON-journal store,
prints one JSON line with the bound port once ready, and on SIGTERM drains
and writes a report (peak RSS, CPU seconds, warnings by category and — with
``--trace`` — the server-side spans) for the harness to pick up.

Started by the harness as a script with ``src`` on ``PYTHONPATH`` and the
BLAS pins in the environment; it is never imported by the program.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.perf import env, trace  # noqa: E402


async def _serve(store: str) -> None:
    from repro.service.server import serve

    def ready(server) -> None:
        print(json.dumps({"port": server.port}), flush=True)

    task = asyncio.ensure_future(serve(store, port=0, backend="json", ready=ready))
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, task.cancel)
    with contextlib.suppress(asyncio.CancelledError):
        await task


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--store", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    recorder = trace.Recorder()
    with env.WarningCounter() as warned:
        with trace.tracing(recorder) if args.trace else contextlib.nullcontext():
            asyncio.run(_serve(args.store))
        report = {
            "peak_rss_mb": env.peak_rss_mb(),
            "cpu_s": time.process_time(),
            "warnings": warned.to_dict(),
            "trace": recorder.dump() if args.trace else None,
        }
    Path(args.report).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
