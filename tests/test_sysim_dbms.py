"""Unit tests for the simulated DBMS performance model."""

import numpy as np
import pytest

from repro.benchmarking.measurement import REFERENCE_S
from repro.exceptions import SystemCrashError
from repro.sysim import QUIET_CLOUD, KnobLevel, SimulatedDBMS
from repro.workloads import tpcc, tpch, ycsb


@pytest.fixture
def db():
    return SimulatedDBMS(env=QUIET_CLOUD(seed=0), seed=0)


def throughput(db, workload, **knobs):
    cfg = db.space.make({**knobs}, check_constraints=False)
    return db.run(workload, config=cfg).throughput


def p95(db, workload, **knobs):
    cfg = db.space.make({**knobs}, check_constraints=False)
    return db.run(workload, config=cfg).latency_p95


class TestKnobDirections:
    """Each important knob must move performance the right way."""

    def test_bigger_buffer_pool_helps_reads(self, db):
        w = ycsb("b")
        assert throughput(db, w, buffer_pool_mb=8192) > throughput(db, w, buffer_pool_mb=128)

    def test_more_threads_help_high_concurrency(self, db):
        w = tpcc(100)
        assert throughput(db, w, worker_threads=64) > throughput(db, w, worker_threads=4)

    def test_relaxed_flush_helps_writes(self, db):
        w = ycsb("a")
        assert throughput(db, w, flush_method="O_DIRECT_NO_FSYNC") > throughput(db, w, flush_method="fsync")

    def test_flush_method_irrelevant_for_readonly(self, db):
        w = ycsb("c")
        fast = throughput(db, w, flush_method="O_DIRECT_NO_FSYNC")
        slow = throughput(db, w, flush_method="fsync")
        assert fast / slow < 1.25  # read path only sees the direct-IO bonus

    def test_work_mem_helps_analytics(self, db):
        w = tpch(5)
        assert p95(db, w, work_mem_mb=512) < p95(db, w, work_mem_mb=1)

    def test_work_mem_irrelevant_for_point_reads(self, db):
        w = ycsb("c")
        assert p95(db, w, work_mem_mb=512) == pytest.approx(p95(db, w, work_mem_mb=2), rel=0.05)

    def test_jit_helps_scans_only_when_threshold_allows(self, db):
        w = tpch(5)
        off = p95(db, w, jit=False)
        on_low = p95(db, w, jit=True, jit_above_cost=10_000)
        on_high = p95(db, w, jit=True, jit_above_cost=10_000_000)
        assert on_low < off
        assert on_high >= off * 0.99

    def test_checkpoint_frequency_hurts_writes(self, db):
        w = ycsb("a")
        assert throughput(db, w, checkpoint_interval_s=1800) > throughput(db, w, checkpoint_interval_s=30)

    def test_long_checkpoints_widen_the_tail(self, db):
        w = ycsb("a")
        m_long = db.run(w, config=db.space.make({"checkpoint_interval_s": 3600}))
        m_short = db.run(w, config=db.space.make({"checkpoint_interval_s": 60}))
        assert m_long.latency_p95 / m_long.latency_avg > m_short.latency_p95 / m_short.latency_avg

    def test_junk_knobs_negligible(self, db):
        w = tpcc(50)
        base = throughput(db, w)
        for knob, value in [
            ("deadlock_timeout_ms", 10_000),
            ("tcp_keepalive_s", 600),
            ("cursor_tuple_fraction", 1.0),
            ("geqo_threshold", 2),
        ]:
            assert throughput(db, w, **{knob: value}) == pytest.approx(base, rel=0.01)

    def test_debug_logging_hurts(self, db):
        w = tpcc(50)
        assert throughput(db, w, log_level="debug") < throughput(db, w, log_level="normal") * 0.95


class TestHeadlineClaim:
    def test_tuned_vs_default_4_to_10x(self, db):
        """Slide 10: 'properly tuned systems achieve 4-10x higher throughput'."""
        w = tpcc(100)
        default = db.run(w, config=db.space.default_configuration()).throughput
        tuned = db.space.make(
            {
                "buffer_pool_mb": 8192,
                "worker_threads": 64,
                "flush_method": "O_DIRECT_NO_FSYNC",
                "work_mem_mb": 32,
                "checkpoint_interval_s": 1800,
                "io_concurrency": 16,
            }
        )
        ratio = db.run(w, config=tuned).throughput / default
        assert 3.0 < ratio < 12.0


class TestCrashes:
    def test_oom_crashes(self, db):
        w = tpcc(50)
        huge = db.space.make(
            {"buffer_pool_mb": 16 * 1024, "worker_threads": 256, "work_mem_mb": 2048},
            check_constraints=False,
        )
        with pytest.raises(SystemCrashError):
            db.run(w, config=huge)

    def test_infeasible_constraint_crashes(self, db):
        w = tpcc(50)
        bad = db.space.make(
            {"wal_buffer_mb": 512, "buffer_pool_mb": 128}, check_constraints=False
        )
        with pytest.raises(SystemCrashError):
            db.run(w, config=bad)

    def test_memory_demand_accounting(self, db):
        cfg = db.space.make({"buffer_pool_mb": 1024, "worker_threads": 16, "work_mem_mb": 64})
        demand = db.memory_demand_mb(cfg, tpcc(50))
        assert demand > 1024
        assert demand < 16 * 1024


class TestDeployment:
    def test_startup_knob_counts_restart(self, db):
        db.apply(db.space.default_configuration())
        before = db.restart_count
        db.apply(db.space.make({"buffer_pool_mb": 4096}))
        assert db.restart_count == before + 1

    def test_runtime_knob_no_restart(self, db):
        db.apply(db.space.default_configuration())
        before = db.restart_count
        db.apply(db.space.make({"work_mem_mb": 64}))
        assert db.restart_count == before

    def test_restart_penalty_extends_elapsed(self, db):
        w = tpcc(50)
        db.run(w, config=db.space.default_configuration())
        m = db.run(w, duration_s=60, config=db.space.make({"buffer_pool_mb": 4096}))
        assert m.elapsed_s == pytest.approx(60 + db.restart_penalty_s)
        m2 = db.run(w, duration_s=60)  # no change: no restart
        assert m2.elapsed_s == pytest.approx(60)

    def test_the_evaluator_runs_for_its_fidelity(self, db):
        """``evaluator(workload, metric)`` answers ``(value, elapsed)``; a
        fidelity is the run length, none is ``REFERENCE_S``, and with no
        metric the value is every metric."""
        evaluate, config = db.evaluator(tpcc(50), "throughput"), db.space.default_configuration()
        assert evaluate(config)[1] == REFERENCE_S and evaluate(config, fidelity=5.0)[1] == 5.0
        metrics, _ = db.evaluator(tpcc(50))(config)
        assert {"throughput", "latency_p95", "elapsed_s"} <= set(metrics)

    def test_knob_levels_declared(self, db):
        levels = db.knob_levels()
        assert levels["buffer_pool_mb"] is KnobLevel.STARTUP
        assert "work_mem_mb" not in levels  # runtime by default

    def test_partial_config_from_subspace(self, db):
        sub = db.space.subspace(["buffer_pool_mb"])
        db.apply(db.space.make({"worker_threads": 32}))
        db.apply(sub.make({"buffer_pool_mb": 2048}))
        assert db.current_config["worker_threads"] == 32  # preserved
        assert db.current_config["buffer_pool_mb"] == 2048


class TestMeasurementSanity:
    def test_latency_ordering(self, db):
        m = db.run(tpcc(50))
        assert m.latency_p50 <= m.latency_avg <= m.latency_p95 <= m.latency_p99

    def test_utilisations_bounded(self, db):
        m = db.run(tpch(5))
        for u in (m.cpu_util, m.mem_util, m.io_util):
            assert 0.0 <= u <= 1.0

    def test_deterministic_in_quiet_cloud(self):
        a = SimulatedDBMS(env=QUIET_CLOUD(seed=0), seed=0)
        b = SimulatedDBMS(env=QUIET_CLOUD(seed=0), seed=0)
        w = tpcc(50)
        assert a.run(w).throughput == b.run(w).throughput
