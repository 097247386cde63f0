"""The in-process campaign workloads (``bo_dbms``, ``smac_dbms``).

One run is two independent campaigns (sub-seeds of the run's seed) driven
through the public ``SessionManager.create`` → ``TuningSession.ask/tell``
surface, each followed by a resume phase that reads the journal it wrote.
The simulated DBMS refuses some configurations; those trials are reported as
``failed`` whenever they happen to come up — nothing is injected. Two
campaigns, pooled, because one optimizer trajectory is chaotic in its seed;
not more and shorter ones, because a campaign's cost before its first
refused trial is several times lower than after it, and only in a long
campaign is that early part a small share of the whole.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.codec import TrialReport, config_from_values
from repro.core.evaluation import run_evaluation
from repro.core.manager import SessionManager
from repro.core.stores import open_store
from repro.targets import make_evaluator, objective_for

from . import env

TARGET = {"system": "dbms", "workload": "tpcc-100", "metric": "throughput"}
#: Re-measurements of the default and the best configuration for ``best_gain_pct``.
GAIN_REPEATS = 9


@dataclass(frozen=True)
class CampaignSpec:
    optimizer: str
    backend: str  # store backend: "json" (one fsynced journal per session) or "sqlite"
    n_trials: int  # fixed work per campaign
    campaign_seconds: float  # nominal cost of one campaign on the 2-core reference box
    resumes: int  # resume() + first ask() repetitions per campaign


@dataclass
class Raw:
    """Everything one run measured, before it is turned into metrics."""

    asks: list[float] = field(default_factory=list)  # seconds, model-facing asks
    tells: list[float] = field(default_factory=list)
    light: list[float] = field(default_factory=list)  # round trips of model-free requests
    tuner_s: float = 0.0  # every ask and tell latency in the measured window
    measured_wall_s: float = 0.0
    trials: int = 0  # acknowledged tells in the measured window
    setups: list[float] = field(default_factory=list)
    process_start_s: float = 0.0  # fresh-interpreter share of set-up (campaigns)
    resumes: list[float] = field(default_factory=list)
    gains: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    crashed_trials: int = 0  # configs the simulated system refused (reported as failed trials)
    # Per campaign: tuner_s, trajectory_sha, first_crash_at (campaign workloads).
    campaigns: list[dict[str, Any]] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    cpu_s: float = 0.0
    store_bytes: int = 0
    journaled_trials: int = 0
    checks: dict[str, dict[str, Any]] = field(default_factory=dict)
    trajectory: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    info: dict[str, Any] = field(default_factory=dict)
    trace_dumps: list[dict[str, Any]] = field(default_factory=list)
    server: dict[str, Any] = field(default_factory=dict)
    # [start, end] of each measured campaign loop on this process's perf_counter,
    # so the trace analysis can tell loop spans from resume-phase ones.
    loop_windows: list[tuple[float, float]] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """Record one output check; repeated names (one per session) fold together."""
        entry = self.checks.setdefault(name, {"ok": True, "n": 0, "failures": []})
        entry["n"] += 1
        if not ok:
            entry["ok"] = False
            entry["failures"].append(detail)

    @property
    def correct(self) -> bool:
        return all(entry["ok"] for entry in self.checks.values())


def sub_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


def remeasured_gain(system_name: str, workload: str, metric: str, seed: int, best_values: dict) -> float:
    """``100 * (best - default) / default`` on a fresh reference system.

    Both configurations are measured :data:`GAIN_REPEATS` times and the
    medians compared, so one lucky noisy trial does not set the figure.
    """
    evaluator, space, _objective = make_evaluator(system_name, workload, metric, seed=seed)
    objective = objective_for(metric)

    def median_score(config) -> float:
        values = []
        for _ in range(GAIN_REPEATS):
            result = run_evaluation(evaluator, config)
            if result.ok:
                values.append(objective.score(float(result.metrics)))
        return statistics.median(values)

    default = median_score(space.default_configuration())
    best = median_score(config_from_values(best_values, space))
    return 100.0 * (default - best) / abs(default)


def report_for(suggestion, result, metric: str, report_id: str):
    """The tell payload a client builds from one evaluation; a refused
    configuration is reported as failed, without metrics."""
    return TrialReport(
        config=suggestion.config,
        metrics={metric: float(result.metrics)} if result.ok else {},
        cost=result.cost,
        status=result.status.value,
        ask_id=suggestion.ask_id,
        report_id=report_id,
    )


def check_journal(raw: Raw, records: list[dict], acked: int, label: str) -> None:
    """Journal holds exactly the acknowledged tells: contiguous ids, unique report ids."""
    ids = [r.get("trial_id") for r in records]
    report_ids = [r.get("report_id") for r in records if r.get("report_id") is not None]
    raw.check("journal.count", len(records) == acked, f"{label}: {len(records)} records, {acked} acked")
    raw.check("journal.contiguous", ids == list(range(len(records))), label)
    raw.check("journal.unique_report_ids", len(set(report_ids)) == len(report_ids), label)


def process_start_s(repeats: int) -> float:
    """Median wall time of a fresh interpreter importing what a campaign needs."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro.core.manager, repro.core.stores, repro.targets"],
            env=env.child_env(),
            check=True,
        )
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def run_one(
    spec: CampaignSpec,
    workload: str,
    seed: int,
    k: int,
    workdir: Path,
    raw: Raw,
) -> None:
    """One campaign plus its resume phase; appends to ``raw``."""
    clock = time.perf_counter
    campaign_seed = sub_seed(seed, k)
    session_id = f"{workload}-s{seed}-c{k}"
    path = workdir / f"c{k}" / ("store.sqlite" if spec.backend == "sqlite" else "journal")
    path.parent.mkdir(parents=True, exist_ok=True)
    evaluator, space, objective = make_evaluator(
        TARGET["system"], TARGET["workload"], TARGET["metric"], seed=campaign_seed
    )

    t0 = clock()
    manager = SessionManager(open_store(path, backend=spec.backend))
    session = manager.create(
        space,
        optimizer=spec.optimizer,
        objectives=objective,
        max_trials=spec.n_trials + 1,  # head-room for the resume phase's ask
        seed=campaign_seed,
        session_id=session_id,
    )
    raw.setups.append(clock() - t0)

    acked = 0
    first_crash = None
    trajectory = hashlib.sha256()
    done = len(raw.asks)
    loop_start = clock()
    for i in range(spec.n_trials):
        raw.attempted += 2
        t_ask = clock()
        suggestion = session.ask()[0]
        t_asked = clock()
        raw.asks.append(t_asked - t_ask)
        config = config_from_values(suggestion.config, space)  # validates against the space
        trajectory.update(json.dumps(suggestion.config, sort_keys=True).encode())
        result = run_evaluation(evaluator, config)
        if not result.ok:
            raw.crashed_trials += 1
            first_crash = i if first_crash is None else first_crash
        report = report_for(suggestion, result, objective.name, f"{session_id}-{suggestion.ask_id}")
        t_tell = clock()
        _trial, duplicate = session.tell(report)
        raw.tells.append(clock() - t_tell)
        acked += not duplicate
    loop_end = clock()
    raw.loop_windows.append((loop_start, loop_end))
    raw.measured_wall_s += loop_end - loop_start
    raw.trials += acked
    raw.tuner_s = sum(raw.asks) + sum(raw.tells)
    raw.trajectory.update(trajectory.digest())
    raw.campaigns.append(
        {
            "tuner_s": sum(raw.asks[done:]) + sum(raw.tells[done:]),
            "trajectory_sha": trajectory.hexdigest()[:16],
            # Index of the first refused trial (null: none) and the tuner time
            # spent before it: the regime with no failed trial in the history,
            # where SMAC's warm partial_fit and the GP's incremental Cholesky apply.
            "first_crash_at": first_crash,
            "tuner_s_before_first_crash": sum(raw.asks[done:][:first_crash])
            + sum(raw.tells[done:][:first_crash]),
        }
    )

    live_digest = session.optimizer.state_digest_parts()["history"]
    degraded = session.optimizer.surrogate_stats()["degraded_total"]
    raw.check("degraded_total", degraded == 0, f"c{k}: {degraded:g} degraded suggestions")
    best = session.optimizer.history.best()
    raw.gains.append(
        remeasured_gain(
            TARGET["system"], TARGET["workload"], TARGET["metric"], campaign_seed, best.config.as_dict()
        )
    )
    manager.close()

    for _ in range(spec.resumes):
        reopened = SessionManager(open_store(path, backend=spec.backend))
        raw.attempted += 1
        t0 = clock()
        resumed = reopened.resume(session_id)
        resumed.ask()
        raw.resumes.append(clock() - t0)
        resumed_digest = resumed.optimizer.state_digest_parts()["history"]
        reopened.close()
    raw.check("resume.digest", resumed_digest == live_digest, f"c{k}: {resumed_digest} vs {live_digest}")

    store = open_store(path, backend=spec.backend)
    records = store.load_trials(session_id)
    store.close()
    check_journal(raw, records, acked, f"c{k}")
    raw.journaled_trials += len(records)
    raw.store_bytes += sum(f.stat().st_size for f in path.parent.rglob("*") if f.is_file())


def run(
    spec: CampaignSpec,
    workload: str,
    seed: int,
    campaigns: range,
    workdir: Path,
    setup_repeats: int,
) -> Raw:
    """Run the campaigns with sub-seed indices ``campaigns`` of ``seed``."""
    raw = Raw()
    raw.process_start_s = process_start_s(setup_repeats)
    cpu0 = time.process_time()
    for k in campaigns:
        run_one(spec, workload, seed, k, workdir, raw)
    raw.cpu_s = time.process_time() - cpu0
    raw.peak_rss_mb = env.peak_rss_mb()
    raw.info = {
        "optimizer": spec.optimizer,
        "store_backend": spec.backend,
        "target": TARGET,
        "n_trials": spec.n_trials,
        "campaigns": len(campaigns),
        "resumes_per_campaign": spec.resumes,
        "crashed_trials": raw.crashed_trials,
        "per_campaign": raw.campaigns,
    }
    return raw
