"""Unit tests for the simulated Nginx web server."""

import numpy as np
import pytest

from repro.core import Objective, TuningSession
from repro.exceptions import SystemCrashError
from repro.optimizers import BayesianOptimizer
from repro.sysim import KnobLevel, NginxServer, QUIET_CLOUD, web_workload


@pytest.fixture
def nginx():
    return NginxServer(env=QUIET_CLOUD(seed=0), seed=0)


def p95(nginx, workload, **knobs):
    return nginx.run(workload, config=nginx.space.make(knobs, check_constraints=False)).latency_p95


def tput(nginx, workload, **knobs):
    return nginx.run(workload, config=nginx.space.make(knobs, check_constraints=False)).throughput


class TestKnobDirections:
    def test_more_workers_use_the_cores(self, nginx):
        w = web_workload(concurrency=800)
        assert tput(nginx, w, worker_processes=4) > tput(nginx, w, worker_processes=1)

    def test_way_too_many_workers_thrash(self, nginx):
        w = web_workload(concurrency=800)
        assert p95(nginx, w, worker_processes=64) > p95(nginx, w, worker_processes=4)

    def test_connection_capacity_wall(self, nginx):
        w = web_workload(concurrency=2000)
        starved = p95(nginx, w, worker_processes=1, worker_connections=256)
        roomy = p95(nginx, w, worker_processes=4, worker_connections=4096)
        assert starved > roomy * 1.5

    def test_keepalive_amortises_handshakes(self, nginx):
        w = web_workload(think_time_ms=50.0)
        short = p95(nginx, w, keepalive_timeout_s=0)
        long = p95(nginx, w, keepalive_timeout_s=120, keepalive_requests=1000)
        assert short > long

    def test_gzip_helps_large_responses(self, nginx):
        heavy = web_workload(large_fraction=0.8)
        assert p95(nginx, heavy, gzip=True, gzip_level=4) < p95(nginx, heavy, gzip=False)

    def test_max_gzip_level_wastes_cpu(self, nginx):
        heavy = web_workload(large_fraction=0.8)
        assert p95(nginx, heavy, gzip=True, gzip_level=9) > p95(nginx, heavy, gzip=True, gzip_level=3)

    def test_access_log_cost_ordering(self, nginx):
        w = web_workload()
        off = p95(nginx, w, access_log="off")
        buffered = p95(nginx, w, access_log="buffered")
        unbuffered = p95(nginx, w, access_log="unbuffered")
        assert off <= buffered <= unbuffered

    def test_file_cache_helps(self, nginx):
        w = web_workload(n_files=100_000)
        assert p95(nginx, w, open_file_cache=100_000) < p95(nginx, w, open_file_cache=16)

    def test_gzip_level_conditional(self, nginx):
        cfg = nginx.space.make({"gzip": False, "gzip_level": 9})
        assert "gzip_level" not in cfg.active
        assert cfg["gzip_level"] == 6  # pinned to the default


class TestSystemBehaviour:
    def test_connection_buffer_oom(self, nginx):
        w = web_workload(concurrency=30_000)
        with pytest.raises(SystemCrashError):
            nginx.run(w, config=nginx.space.make({"client_body_buffer_kb": 1024}))

    def test_cheap_restarts(self, nginx):
        assert nginx.restart_penalty_s < 10
        assert nginx.knob_levels()["worker_processes"] is KnobLevel.STARTUP

    def test_tunable_end_to_end(self):
        """BO finds a config well ahead of the stock defaults."""
        nginx = NginxServer(env=QUIET_CLOUD(seed=1), seed=1)
        w = web_workload(concurrency=800)
        default = nginx.run(w, config=nginx.space.default_configuration()).throughput
        opt = BayesianOptimizer(
            nginx.space, n_init=8, objectives=Objective("throughput", minimize=False),
            seed=0, n_candidates=128,
        )
        res = TuningSession(opt, nginx.evaluator(w, "throughput"), max_trials=30).run()
        assert res.best_value > default * 1.5

    def test_measurement_sanity(self, nginx):
        m = nginx.run(web_workload())
        assert m.latency_p50 <= m.latency_p95 <= m.latency_p99
        assert 0 <= m.cpu_util <= 1
