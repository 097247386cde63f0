"""Frozen workload sizes, one run of one workload, and its metrics.

:func:`run_workload` is the single entry point behind both command lines.
An untraced run yields the end-to-end metrics. A traced run makes two passes
over the *same* inputs — first untraced, then, at half size, with
:mod:`.trace` installed here and in the server — so the per-layer numbers
come with a like-for-like tracing overhead.
"""

from __future__ import annotations

import json
import shutil
import statistics
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any

from . import campaign, catalog, env, service, stats, trace
from .campaign import CampaignSpec, Raw
from .service import ServiceSpec

# Sizes are frozen here; changing one changes what every number means.
# Full sizes target ~RUN_SECONDS of measured work on the 2-core reference box.
FULL: dict[str, CampaignSpec | ServiceSpec] = {
    "bo_dbms": CampaignSpec("bo", "json", n_trials=115, campaign_seconds=10.0, resumes=3),
    "smac_dbms": CampaignSpec("smac", "sqlite", n_trials=60, campaign_seconds=10.0, resumes=3),
    "svc_random": ServiceSpec(0, 0, light_sessions=16, light_trials=200, warmup_s=2.0),
    "svc_mixed": ServiceSpec(4, 60, light_sessions=12, light_trials=200, warmup_s=2.0),
}
# --smoke: the self-test's sizes. Smoke numbers are never compared.
SMOKE: dict[str, CampaignSpec | ServiceSpec] = {
    "bo_dbms": CampaignSpec("bo", "json", n_trials=30, campaign_seconds=3.0, resumes=1),
    "smac_dbms": CampaignSpec("smac", "sqlite", n_trials=30, campaign_seconds=3.0, resumes=1),
    "svc_random": ServiceSpec(0, 0, light_sessions=16, light_trials=40, warmup_s=0.3),
    "svc_mixed": ServiceSpec(4, 15, light_sessions=12, light_trials=40, warmup_s=0.3),
}
SMOKE_SECONDS = 3
#: Floor under ``best_gain_pct``: a tuner that finds nothing better than this is broken.
BEST_GAIN_FLOOR_PCT = 20.0


def _pass(
    workload: str,
    spec: CampaignSpec | ServiceSpec,
    seed: int,
    seconds: float,
    campaigns: range,
    workdir: Path,
    setup_repeats: int,
    traced: bool,
    break_journal: bool,
) -> Raw:
    """One pass over the workload's inputs, traced or not: ``seconds`` of
    service traffic, or the campaigns with these sub-seed indices."""
    recorder = trace.Recorder()
    with trace.tracing(recorder) if traced else nullcontext():
        if isinstance(spec, CampaignSpec):
            raw = campaign.run(spec, workload, seed, campaigns, workdir, setup_repeats)
        else:
            raw = service.run(spec, workload, seed, seconds, workdir, setup_repeats, traced, break_journal)
    server_trace = raw.server.pop("trace", None)
    if traced:
        raw.trace_dumps = [recorder.dump()] + ([server_trace] if server_trace else [])
    return raw


def _percentile_metric(samples: list[float], q: float) -> dict:
    """A latency percentile in ms with its sample count; ``value`` is ``None``
    when the tail is under-sampled or the metric is not defined on this workload."""
    return {**stats.summarize(samples, q, 1e3), "unit": "ms"}


def end_to_end(raw: Raw) -> dict[str, dict[str, Any]]:
    """The 15 end-to-end metrics of one untraced pass: raw wall-clock from the caller's side."""
    median = statistics.median
    return {
        "setup_s": {
            "value": raw.process_start_s + median(raw.setups), "unit": "s", "n": len(raw.setups)
        },
        "trials_per_s": {"value": raw.trials / raw.measured_wall_s, "unit": "1/s", "n": raw.trials},
        "tuner_s": {"value": raw.tuner_s, "unit": "s", "n": raw.trials},
        "ask_p50_ms": _percentile_metric(raw.asks, 50),
        "ask_p90_ms": _percentile_metric(raw.asks, 90),
        "ask_p99_ms": _percentile_metric(raw.asks, 99),
        "tell_p50_ms": _percentile_metric(raw.tells, 50),
        "tell_p90_ms": _percentile_metric(raw.tells, 90),
        "tell_p99_ms": _percentile_metric(raw.tells, 99),
        "light_p50_ms": _percentile_metric(raw.light, 50),
        "light_p99_ms": _percentile_metric(raw.light, 99),
        "resume_first_ask_ms": {
            "value": median(raw.resumes) * 1e3 if raw.resumes else None,
            "unit": "ms",
            "n": len(raw.resumes),
        },
        "best_gain_pct": {
            "value": median(raw.gains) if raw.gains else None, "unit": "%", "n": len(raw.gains)
        },
        "failed_share": {"value": raw.failed / raw.attempted, "unit": "ratio", "n": raw.attempted},
        "peak_rss_mb": {"value": raw.peak_rss_mb, "unit": "MB", "n": 1},
    }


def _layer_metrics(
    untraced: Raw, traced: Raw, campaign_run: bool, warned: env.WarningCounter, smoke: bool
) -> tuple[dict[str, float], dict[str, float]]:
    analysis = trace.analyze(traced.trace_dumps, traced.loop_windows)
    layers = analysis["metrics"]
    trials = traced.journaled_trials
    layers["core.stores.bytes_per_trial"] = traced.store_bytes / trials if trials else 0.0
    layers["service.server.requests"] = traced.server.get("requests", 0.0)
    layers["service.server.shed_total"] = traced.server.get("shed_total", 0.0)
    layers["service.server.cpu_s"] = traced.server.get("cpu_s", 0.0)
    server_warnings = traced.server.get("warnings", {}).get("total", 0)
    layers["process.warnings_total"] = float(warned.total + server_warnings)
    layers["process.cpu_s"] = traced.cpu_s
    if campaign_run:
        # The traced pass repeats the untraced pass's last campaign(s): same
        # seeds, same trajectory, so the two tuner_s differ by the tracing.
        same = untraced.campaigns[-len(traced.campaigns) :]
        plain = sum(c["tuner_s"] for c in same)
        overhead = 100.0 * (traced.tuner_s - plain) / plain
    else:
        plain = untraced.trials / untraced.measured_wall_s
        overhead = 100.0 * (plain - traced.trials / traced.measured_wall_s) / plain
    layers["process.trace_overhead_pct"] = overhead
    # The demoted end-to-end metrics ride along, read from the untraced half;
    # one the pass could not resolve (too few samples) stays out.
    plain_metrics = end_to_end(untraced)
    for name, _unit, _better in catalog.listed("per_layer"):
        if plain_metrics[name]["value"] is not None:
            layers[name] = plain_metrics[name]["value"]

    traced.check(
        "trace.self_times_sum_to_roots",
        abs(analysis["self_sum_s"] - analysis["roots_s"]) <= 1e-6 * max(1.0, analysis["roots_s"]),
        f"self {analysis['self_sum_s']:.6f}s vs roots {analysis['roots_s']:.6f}s",
    )
    if campaign_run:
        # Of the time the caller measured around ask and tell, the share the
        # trace pins on a layer below the session and the optimizer's glue.
        covered = analysis["loop_attributed_s"] / traced.tuner_s
        traced.check("trace.layers_cover_tuner_s", covered >= 0.95, f"{covered:.3f} of tuner_s")
        traced.check(
            "trace.same_trajectory",
            [c["trajectory_sha"] for c in traced.campaigns] == [c["trajectory_sha"] for c in same],
            "traced and untraced passes suggested different configurations",
        )
    else:
        requests = layers["service.client.request.calls"]
        joined = analysis["joined_requests"]
        handled = sum(layers[f"service.handlers.{op}.calls"] for op in ("ask", "tell", "create_session"))
        traced.check("trace.requests_joined", joined == handled, f"{joined} joined of {handled} handled, {requests:g} sent")
    missing = [name for name, _unit, _better in catalog.per_layer() if name not in layers]
    traced.check("trace.every_layer_metric", smoke or not missing, ", ".join(missing))
    # Raw seconds of the traced pass, the bases for a layer's share: self times
    # cover everything traced (loop, resume phase, set-up) and sum to roots_s.
    bases = {
        "roots_s": analysis["roots_s"],
        "loop_attributed_s": analysis["loop_attributed_s"],
        "tuner_s": traced.tuner_s,
        "trials": traced.trials,
        "n_spans": analysis["n_spans"],
    }
    names = [name for name, _unit, _better in catalog.per_layer()] + [catalog.APPEND_P99]
    return {name: layers[name] for name in names if name in layers}, bases


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    smoke: bool = False,
    traced: bool = False,
    break_journal: bool = False,
) -> dict[str, Any]:
    """Run one workload once and return its result record."""
    spec = (SMOKE if smoke else FULL)[workload]
    setup_repeats = 1 if smoke else 5
    if smoke:
        seconds = SMOKE_SECONDS
    workdir = env.OUT_DIR / f"run-{workload}-s{seed}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    started = time.perf_counter()
    campaign_run = isinstance(spec, CampaignSpec)
    campaigns = range(max(1, round(seconds / spec.campaign_seconds))) if campaign_run else range(0)
    try:
        with env.WarningCounter() as warned:
            if traced:
                # Service: two half-length windows. Campaigns: a p90 needs every
                # campaign's samples, so the untraced pass keeps its full size and
                # the traced pass repeats the later half — not the first campaign,
                # which also pays the process's cold start.
                half = range(len(campaigns) // 2, len(campaigns))
                untraced = _pass(workload, spec, seed, seconds / 2, campaigns, workdir / "plain", 1, False, False)
                raw = _pass(workload, spec, seed, seconds / 2, half, workdir / "traced", 1, True, break_journal)
            else:
                raw = _pass(workload, spec, seed, seconds, campaigns, workdir, setup_repeats, False, break_journal)
        # A traced record's end-to-end numbers come from its untraced half.
        metrics = end_to_end(untraced if traced else raw)
        gain = metrics["best_gain_pct"]["value"]
        raw.check(
            "best_gain_floor",
            gain is not None and gain >= BEST_GAIN_FLOOR_PCT,
            f"best_gain_pct {gain} below the floor {BEST_GAIN_FLOOR_PCT}",
        )
        raw.check("no_failed_operations", raw.failed == 0, f"{raw.failed} of {raw.attempted} failed")
        record: dict[str, Any] = {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "smoke": smoke,
            "traced": traced,
            "metrics": metrics,
        }
        if traced:
            raw.check("untraced_pass_correct", untraced.correct, json.dumps(untraced.checks))
            record["layers"], record["traced_pass"] = _layer_metrics(
                untraced, raw, campaign_run, warned, smoke
            )
            trace_file = env.OUT_DIR / f"trace_{workload}.json"
            trace_file.write_text(json.dumps({"workload": workload, "seed": seed, "processes": raw.trace_dumps}))
            record["trace_file"] = str(trace_file.relative_to(env.ROOT))
        server_warnings = raw.server.get("warnings", {"total": 0, "by_category": {}, "by_site": {}})
        record.update(
            {
                "correct": raw.correct,
                "attempted": raw.attempted,
                "failed": raw.failed,
                "checks": raw.checks,
                "info": {
                    **raw.info,
                    "trajectory_sha": raw.trajectory.hexdigest()[:16],
                },
                "warnings": {"harness": warned.to_dict(), "server": server_warnings},
                "wall_s": time.perf_counter() - started,
            }
        )
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
