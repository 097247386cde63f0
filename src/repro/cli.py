"""Command-line interface: ``python -m repro <command>``.

Small, scriptable entry points over the library so a tuning run does not
need a Python file:

* ``tune``       — offline-tune a simulated system with a chosen optimizer
* ``compare``    — race several optimizers on the same target
* ``importance`` — rank knob importance from a quick random-search history
* ``game``       — play one autotuner round of the Spark tuning game
* ``trace``      — analyze a trace written by ``tune``/``compare --trace-out``
* ``serve``      — run the durable multi-session tuning service (HTTP)
* ``replay``     — re-execute a journaled session and verify it bit-exactly
  against its journal (provenance-driven deterministic replay)
* ``lint``       — static analysis: ``lint code`` (AST invariants over
  source trees) and ``lint space`` (configuration-space lint of
  registered target systems); see ``docs/static-analysis.md``
* ``bench``      — run the performance benchmark of a source checkout
  (``python -m benchmarks.perf``; see ``benchmarks/perf/README.md``)

``tune`` and ``compare`` accept ``--trace-out FILE`` (full session trace:
trial spans with nested operation spans, events, metrics — feed it to
``repro trace``) and ``--metrics-out FILE`` (metrics registry only;
``.prom``/``.txt`` → Prometheus text exposition, otherwise JSON).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .analysis import LassoImportance, compare_optimizers, format_table
from .core import Objective, TuningSession
from .core.manager import make_optimizer, optimizer_names
from .exceptions import ReproError
from .targets import SYSTEMS as _SYSTEMS
from .targets import make_system, objective_for, refuse_fidelity_optimizer
from .targets import make_workload as _make_workload
from .telemetry import SessionTrace, TelemetryCallback, export_chrome_trace
from .telemetry.analyzer import format_report, load_trace
from .sysim import CloudEnvironment, SparkCluster

__all__ = ["main", "build_parser"]

#: Options the CLI bakes into its optimizer specs (matching historic behavior).
_OPTIMIZER_OPTIONS = {
    "grid": {"points_per_dim": 4, "shuffle": True},
    "bo": {"n_candidates": 192},
    "smac": {"n_candidates": 192},
}


def _make_optimizer(name: str, space, seed: int, objective: Objective):
    optimizer = make_optimizer(name, space, objective, seed=seed, options=_OPTIMIZER_OPTIONS.get(name))
    refuse_fidelity_optimizer(optimizer)
    return optimizer


# -- commands -----------------------------------------------------------------

def _summary_line(trace: SessionTrace) -> str:
    """One-line session digest printed after ``tune``/``compare``."""
    s = trace.summary()
    best = s.get("best_value")
    best_txt = f"{best:.6g}" if isinstance(best, float) else "n/a"
    return (
        f"telemetry: {s['trials']} trials, best={best_txt}, "
        f"p95 trial={s['p95_trial_s'] * 1e3:.1f}ms, "
        f"p95 suggest={s['p95_suggest_s'] * 1e3:.1f}ms, "
        f"{s['events']} events"
    )


def _cmd_tune(args: argparse.Namespace) -> int:
    system = make_system(args.system, args.seed, args.noise)
    workload = _make_workload(args.system, args.workload)
    objective = objective_for(args.metric)
    default = system.run(workload, config=system.space.default_configuration()).metric(args.metric)
    optimizer = _make_optimizer(args.optimizer, system.space, args.seed, objective)
    telemetry = TelemetryCallback(
        export_path=args.trace_out,
        metrics_path=args.metrics_out,
        span_attributes={"optimizer": args.optimizer, "seed": args.seed},
    )
    result = TuningSession(
        optimizer, system.evaluator(workload, args.metric), max_trials=args.trials,
        callbacks=[telemetry],
    ).run()
    print(format_table(
        ["", args.metric],
        [("default", default), ("tuned", result.best_value)],
        title=f"tune {args.system}/{workload.name} with {args.optimizer} ({args.trials} trials)",
    ))
    print("\nbest configuration:")
    for name in system.space.names:
        print(f"  {name} = {result.best_config[name]}")
    print("\n" + _summary_line(telemetry.trace))
    if args.trace_out:
        print(f"trace written to {args.trace_out} (analyze with: repro trace {args.trace_out})")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    objective = objective_for(args.metric)

    def evaluator_factory(seed):
        system = make_system(args.system, seed, args.noise)
        workload = _make_workload(args.system, args.workload)
        return system.evaluator(workload, args.metric)

    factories = {}
    for name in args.optimizers.split(","):
        name = name.strip()

        def factory(seed, _name=name):
            space = make_system(args.system, seed, args.noise).space
            return _make_optimizer(_name, space, seed, objective)

        factories[name] = factory

    # One trace per (optimizer, seed) leg; exported together as a bundle
    # that ``repro trace`` understands.
    runs: list[tuple[str, int, SessionTrace]] = []

    def callbacks_factory(name, seed):
        trace = SessionTrace(name=f"{name}/seed{seed}")
        runs.append((name, seed, trace))
        return [TelemetryCallback(trace=trace, span_attributes={"optimizer": name, "seed": seed})]

    results = compare_optimizers(
        factories, evaluator_factory, max_trials=args.trials, n_seeds=args.seeds,
        callbacks_factory=callbacks_factory,
    )
    rows = [(name, comp.mean_best()) for name, comp in results.items()]
    print(format_table(
        ["optimizer", f"mean best {args.metric}"],
        rows,
        title=f"compare on {args.system}/{args.workload}, {args.trials} trials x {args.seeds} seeds",
    ))
    for name, seed, trace in runs:
        print(f"  {name}/seed{seed}: " + _summary_line(trace))
    if args.trace_out:
        bundle = {
            "kind": "compare",
            "runs": [
                {"optimizer": name, "seed": seed, "trace": trace.to_dict()}
                for name, seed, trace in runs
            ],
        }
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump(bundle, fh, indent=2, default=str)
        print(f"trace bundle written to {args.trace_out} (analyze with: repro trace {args.trace_out})")
    if args.metrics_out:
        merged = SessionTrace(name="compare").metrics
        for _, _, trace in runs:
            merged.merge(trace.metrics)
        merged.write(args.metrics_out)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    data = load_trace(args.file)
    print(format_report(data, top=args.top, show_events=args.events))
    if args.chrome:
        if "runs" in data and "spans" not in data:
            raise ReproError(
                "--chrome needs a single-session trace; compare bundles hold several"
            )
        export_chrome_trace(data, args.chrome)
        print(f"\nchrome trace written to {args.chrome} (open in ui.perfetto.dev)")
    return 0


def _cmd_importance(args: argparse.Namespace) -> int:
    system = make_system(args.system, args.seed, args.noise)
    workload = _make_workload(args.system, args.workload)
    objective = objective_for(args.metric)
    optimizer = make_optimizer("random", system.space, objective, seed=args.seed)
    telemetry = TelemetryCallback(
        export_path=args.trace_out, metrics_path=args.metrics_out,
        span_attributes={"optimizer": "random", "seed": args.seed},
    )
    TuningSession(
        optimizer, system.evaluator(workload, args.metric), max_trials=args.trials,
        callbacks=[telemetry],
    ).run()
    ranking = LassoImportance(system.space).rank(optimizer.history)
    rows = [(i + 1, k, s) for i, (k, s) in enumerate(zip(ranking.knobs, ranking.scores))]
    print(format_table(
        ["rank", "knob", "score"],
        rows[: args.top],
        title=f"knob importance on {args.system}/{workload.name} ({args.trials} trials)",
    ))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the durable multi-session tuning service until interrupted."""
    import asyncio
    import contextlib
    import signal

    from .service.server import serve

    def _ready(server) -> None:
        print(f"listening on {server.address}", flush=True)
        print(f"store: {args.store}", flush=True)

    async def _main() -> None:
        loop = asyncio.get_running_loop()
        task = asyncio.ensure_future(
            serve(
                args.store,
                host=args.host,
                port=args.port,
                backend=args.backend,
                ready=_ready,
            )
        )
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):  # pragma: no cover
                loop.add_signal_handler(sig, task.cancel)
        with contextlib.suppress(asyncio.CancelledError):
            await task

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # fallback when signal handlers are unavailable
        pass
    print("service shut down cleanly", flush=True)
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    """Re-execute a journaled session and verify it against the journal."""
    from .core.manager import SessionManager
    from .core.stores import open_store

    with SessionManager(open_store(args.store, backend=args.backend)) as manager:
        report = manager.replay_session(args.session_id)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.format())
    return 0 if report.ok else 1


def _print_lint(reports, strict_warnings: bool) -> int:
    """Print each report (its findings unless it is clean) and return the
    exit code: 1 on an active error, or a warning under ``--strict-warnings``."""
    failed = False
    for report in reports:
        if report.clean and not report.suppressed:
            print(f"lint {report.target}: {report.summary()}")
        else:
            print(report.format(show_suppressed=True))
        failed = failed or bool(report.errors) or (strict_warnings and bool(report.warnings))
    return 1 if failed else 0


def _cmd_lint_code(args: argparse.Namespace) -> int:
    """AST-lint source paths with the repro invariant checkers."""
    from .staticcheck import lint_paths

    return _print_lint([lint_paths(args.paths)], args.strict_warnings)


def _cmd_lint_space(args: argparse.Namespace) -> int:
    """Space-lint registered target systems (all of them by default)."""
    from .staticcheck import lint_space

    names = [args.system] if args.system else list(_SYSTEMS)
    reports = (lint_space(make_system(name, seed=0, noise=0.0).space, ignore=args.ignore) for name in names)
    return _print_lint(reports, args.strict_warnings)


def _cmd_bench(args: argparse.Namespace) -> int:
    """``python -m benchmarks.perf ARGS`` in the checkout at the current directory."""
    import os
    import subprocess

    if not os.path.isfile(os.path.join("benchmarks", "perf", "__main__.py")):
        print(f"error: no benchmarks/perf in {os.getcwd()}; run 'repro bench' from the root of a source checkout",
              file=sys.stderr)
        return 2
    path = os.pathsep.join(filter(None, [os.path.abspath("src"), os.environ.get("PYTHONPATH")]))
    return subprocess.call([sys.executable, "-m", "benchmarks.perf", *args.bench_args], env={**os.environ, "PYTHONPATH": path})


def _cmd_game(args: argparse.Namespace) -> int:
    spark = SparkCluster(n_nodes=10, env=CloudEnvironment(seed=args.seed, transient_noise=args.noise), seed=args.seed)
    evaluate = spark.q1_game_evaluator(scale_factor=args.scale_factor)
    default, _ = evaluate(spark.space.default_configuration())
    objective = Objective("runtime_s", minimize=True)
    optimizer = _make_optimizer(args.optimizer, spark.space, args.seed, objective)

    def wrapped(config):
        value, cost = evaluate(config)
        return {"runtime_s": value}, cost

    result = TuningSession(optimizer, wrapped, max_trials=args.tries).run()
    print(format_table(
        ["player", "Q1 runtime (s)"],
        [("defaults", default), (args.optimizer, result.best_value)],
        title=f"spark tuning game, SF{args.scale_factor:g}, {args.tries} tries",
    ))
    return 0


# -- parser ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--system", choices=_SYSTEMS, default="dbms")
        p.add_argument("--workload", default="default",
                       help="ycsb-a..f | tpcc[-N] | tpch[-SF] | default")
        p.add_argument("--metric", default="throughput",
                       help="throughput | latency_avg | latency_p95 | ...")
        p.add_argument("--trials", type=int, default=30)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--noise", type=float, default=0.03)
        p.add_argument("--trace-out", default=None, metavar="FILE",
                       help="write the full session trace (JSON) here")
        p.add_argument("--metrics-out", default=None, metavar="FILE",
                       help="write metrics here (.prom/.txt = Prometheus text, else JSON)")

    p = sub.add_parser("tune", help="offline-tune one system")
    common(p)
    p.add_argument("--optimizer", choices=optimizer_names(), default="bo")
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("compare", help="race several optimizers")
    common(p)
    p.add_argument("--optimizers", default="random,bo,smac",
                   help="comma-separated optimizer names")
    p.add_argument("--seeds", type=int, default=2)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("importance", help="rank knob importance")
    common(p)
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(func=_cmd_importance)

    p = sub.add_parser("trace", help="analyze a trace file written by --trace-out")
    p.add_argument("file", help="trace JSON (single session or compare bundle)")
    p.add_argument("--top", type=int, default=5, help="slowest trials to list")
    p.add_argument("--events", action="store_true", help="print the full event log")
    p.add_argument("--chrome", default=None, metavar="OUT",
                   help="also convert to Chrome trace-event JSON (Perfetto)")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("serve", help="run the durable tuning service (HTTP)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765, help="0 = pick a free port")
    p.add_argument("--store", default="tuning-store",
                   help="store path: directory (JSON journal) or *.sqlite file")
    p.add_argument("--backend", choices=("json", "sqlite"), default=None,
                   help="force a backend (default: inferred from --store path)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("replay", help="re-execute a journaled session and verify it bit-exactly")
    p.add_argument("session_id", help="session to replay (see 'GET /sessions' or the store)")
    p.add_argument("--store", required=True,
                   help="store path: directory (JSON journal) or *.sqlite file")
    p.add_argument("--backend", choices=("json", "sqlite"), default=None,
                   help="force a backend (default: inferred from --store path)")
    p.add_argument("--json", action="store_true", help="print the report as JSON")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("lint", help="static analysis: AST invariants and space lint")
    lint_sub = p.add_subparsers(dest="lint_command", required=True)

    pc = lint_sub.add_parser("code", help="AST-lint source trees (same checks as CI)")
    pc.add_argument("paths", nargs="*", default=["src"],
                    help="files or directories to lint (default: src)")
    pc.add_argument("--strict-warnings", action="store_true",
                    help="exit nonzero on warnings too, not only errors")
    pc.set_defaults(func=_cmd_lint_code)

    ps = lint_sub.add_parser("space", help="lint registered target-system spaces")
    ps.add_argument("--system", choices=_SYSTEMS, default=None,
                    help="lint one system's space (default: all)")
    ps.add_argument("--ignore", action="append", default=[], metavar="RULE",
                    help="suppress a rule id (repeatable), e.g. --ignore SP402")
    ps.add_argument("--strict-warnings", action="store_true",
                    help="exit nonzero on warnings too, not only errors")
    ps.set_defaults(func=_cmd_lint_space)

    p = sub.add_parser("bench", help="run the benchmark of a source checkout (python -m benchmarks.perf)")
    p.add_argument("bench_args", nargs=argparse.REMAINDER, metavar="ARGS",
                   help="passed on, e.g. run --workload bo_dbms --seed 1 --out FILE")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("game", help="play the Spark tuning game")
    p.add_argument("--optimizer", choices=optimizer_names(), default="bo")
    p.add_argument("--tries", type=int, default=100)
    p.add_argument("--scale-factor", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.03)
    p.set_defaults(func=_cmd_game)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
