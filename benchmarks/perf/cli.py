"""Command line: ``run``, ``compare`` and ``manifest``.

``run`` serves two callers with one flag set. People type
``python -m benchmarks.perf run [--workload NAME] [--seed N] [--runs K]
[--trace] [--smoke] [--out FILE]``; the driver contract in ``BENCHMARK.json``
calls ``python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S
--trace 0|1``. Either way the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` for the last run.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from . import env

# Before anything below imports numpy: the pins are read when BLAS loads.
BLAS = env.pin_blas()

from . import catalog, compare, harness  # noqa: E402


def _format_value(value: float | None) -> str:
    return "null" if value is None else f"{value:.6g}"


def print_run(record: dict[str, Any]) -> None:
    """Every metric by name, with unit and sample count."""
    head = f"{record['workload']} seed={record['seed']} seconds={record['seconds']:g}"
    flags = [flag for flag in ("smoke", "traced") if record[flag]]
    print(f"== {head} {' '.join(flags)}".rstrip())
    for name, metric in record["metrics"].items():
        print(f"  {name:<24}{_format_value(metric['value']):>12} {metric['unit']:<6} n={metric['n']}")
    for name, value in record.get("layers", {}).items():
        if value:
            print(f"  {name:<48}{value:>14.6g}")
    info = record["info"]
    print(f"  trajectory_sha {info['trajectory_sha']}  wall {record['wall_s']:.1f}s  "
          f"warnings harness={record['warnings']['harness']['total']} "
          f"server={record['warnings']['server']['total']}")
    for name, entry in record["checks"].items():
        if not entry["ok"]:
            print(f"  CHECK FAILED {name}: {'; '.join(entry['failures'][:3])}")
    print(f"  correct={record['correct']} attempted={record['attempted']} failed={record['failed']}")


def driver_line(record: dict[str, Any]) -> str:
    """The one-line result the driver contract reads."""
    if record["traced"]:
        units = {name: unit for name, unit, _better in catalog.per_layer()}
        metrics = {
            name: {"value": float(value), "unit": units[name]}
            for name, value in record["layers"].items()
            if name in units
        }
    else:
        metrics = {
            name: {"value": record["metrics"][name]["value"], "unit": unit}
            for name, unit, _better in catalog.listed("end_to_end")
        }
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    )


def _cmd_run(args: argparse.Namespace) -> int:
    workloads = [args.workload] if args.workload else list(catalog.WORKLOADS)
    runs: list[dict[str, Any]] = []
    for k in range(args.runs):
        for workload in workloads:
            if runs:
                env.reset_peak_rss()  # VmHWM is per process: restart it for every further run
            record = harness.run_workload(
                workload,
                args.seed + k,
                args.seconds,
                smoke=args.smoke,
                traced=bool(args.trace),
                break_journal=args.break_journal,
            )
            print_run(record)
            runs.append(record)
    if args.out:
        result = {
            "schema": 1,
            "claim": None,
            "environment": env.environment_block(BLAS),
            "sizes": {
                name: vars(spec)
                for name, spec in (harness.SMOKE if args.smoke else harness.FULL).items()
            },
            "runs": runs,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
    print(driver_line(runs[-1]))
    return 0 if all(run["correct"] for run in runs) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run workloads and print every metric")
    run.add_argument("--workload", choices=list(catalog.WORKLOADS), help="default: all four")
    run.add_argument("--seed", type=int, default=1, help="run k of --runs uses seed + k")
    run.add_argument("--runs", type=int, default=1)
    run.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS,
                     help="measured phase of one run (frozen in BENCHMARK.json)")
    run.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                     help="traced run: per-layer metrics instead of end-to-end ones")
    run.add_argument("--smoke", action="store_true", help="tiny sizes for the self-test only")
    run.add_argument("--out", help="write every run and the environment block to this JSON file")
    run.add_argument("--break-journal", action="store_true", help=argparse.SUPPRESS)
    run.set_defaults(func=_cmd_run)

    cmp_parser = sub.add_parser("compare", help="compare two result files written by run --out")
    cmp_parser.add_argument("base")
    cmp_parser.add_argument("change")
    cmp_parser.set_defaults(func=lambda args: compare.main(args.base, args.change))

    manifest = sub.add_parser("manifest", help="print the content of BENCHMARK.json")
    manifest.set_defaults(func=lambda args: print(json.dumps(catalog.manifest(), indent=2)) or 0)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
