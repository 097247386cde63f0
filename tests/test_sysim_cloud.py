"""Unit tests for the cloud environment noise model."""

import numpy as np
import pytest

from repro.exceptions import ReproError
from repro.sysim import QUIET_CLOUD, VM_SIZES, CloudEnvironment, RedisServer, VMSize, redis_benchmark_workload


class TestVMSizes:
    def test_catalogue_monotone(self):
        assert VM_SIZES["small"].vcpus < VM_SIZES["large"].vcpus
        assert VM_SIZES["small"].hourly_cost < VM_SIZES["xlarge"].hourly_cost

    def test_invalid_size(self):
        with pytest.raises(ReproError):
            VMSize("zero", vcpus=0, ram_mb=1024, hourly_cost=0.1)


class TestAllocation:
    def test_machines_get_unique_ids(self):
        env = CloudEnvironment(seed=0)
        pool = env.allocate_pool(5)
        assert len({m.machine_id for m in pool}) == 5

    def test_persistent_speed_factors_differ(self):
        env = CloudEnvironment(machine_spread=0.1, seed=0)
        speeds = [env.allocate().speed_factor for _ in range(20)]
        assert np.std(speeds) > 0.01

    def test_outlier_fraction(self):
        env = CloudEnvironment(outlier_fraction=0.5, outlier_slowdown=0.5, seed=0)
        pool = env.allocate_pool(200)
        frac = np.mean([m.is_outlier for m in pool])
        assert 0.35 < frac < 0.65
        outlier_speed = np.mean([m.speed_factor for m in pool if m.is_outlier])
        normal_speed = np.mean([m.speed_factor for m in pool if not m.is_outlier])
        assert outlier_speed < normal_speed

    def test_quiet_cloud_is_deterministic(self):
        env = QUIET_CLOUD(seed=0)
        m = env.allocate()
        assert m.speed_factor == 1.0
        assert env.slowdown(m) == pytest.approx(1.0 + 0.8 * m.load**2)


class TestNoise:
    def test_slowdown_positive(self):
        env = CloudEnvironment(seed=0)
        m = env.allocate()
        for _ in range(50):
            env.advance(m)
            assert env.slowdown(m) > 0

    def test_shared_draw_correlates_duet_runs(self):
        """Two measurements sharing a transient draw see identical noise —
        the property duet benchmarking relies on."""
        env = CloudEnvironment(transient_noise=0.2, seed=0)
        m = env.allocate()
        shared = env.transient_draw()
        assert env.slowdown(m, shared_draw=shared) == env.slowdown(m, shared_draw=shared)

    def test_load_random_walk_bounded(self):
        env = CloudEnvironment(load_volatility=0.5, seed=0)
        m = env.allocate()
        for _ in range(200):
            env.advance(m)
            assert 0.0 <= m.load <= 1.0

    def test_sideband_tracks_load(self):
        env = CloudEnvironment(seed=0)
        m = env.allocate()
        m._load = 0.9
        signals = [env.sideband_signal(m) for _ in range(50)]
        assert abs(np.mean(signals) - 0.9) < 0.05

    def test_higher_load_means_slower(self):
        env = QUIET_CLOUD(seed=0)
        m = env.allocate()
        m._load = 0.0
        fast = env.slowdown(m)
        m._load = 1.0
        slow = env.slowdown(m)
        assert slow > fast

    def test_a_reference_length_run_draws_as_before(self):
        """At ``REFERENCE_S`` the log-sd factor is exactly 1.0: the draw is
        bit for bit ``exp(N(0, transient_noise))``, so default-length runs do not move."""
        env, twin = CloudEnvironment(transient_noise=0.05, seed=4), np.random.default_rng(4)
        assert [env.transient_draw() for _ in range(50)] == [float(np.exp(twin.normal(0.0, 0.05))) for _ in range(50)]

    def test_validation(self):
        with pytest.raises(ReproError):
            CloudEnvironment(machine_spread=-0.1)
        with pytest.raises(ReproError):
            CloudEnvironment(outlier_fraction=1.5)
        with pytest.raises(ReproError):
            CloudEnvironment(outlier_slowdown=0.0)


def latency_cv(duration_s: float, **noise: float) -> float:
    """CV of ``latency_p95`` over 400 default-config ``redis`` runs of
    ``duration_s`` seconds, in a cloud with only the given noise sources."""
    quiet = {"machine_spread": 0.0, "outlier_fraction": 0.0, "transient_noise": 0.0, "load_volatility": 0.0}
    env = CloudEnvironment(**{**quiet, **noise}, seed=3)
    server = RedisServer(env=env, seed=3)
    values = np.array([server.run(redis_benchmark_workload(), duration_s=duration_s).latency_p95 for _ in range(400)])
    return float(values.std() / values.mean())


class TestRunLength:
    """The transient part of the noise averages out over a longer run (its
    log-sd scales as ``1/sqrt(duration_s)``); the co-tenant load walk does not."""

    def test_transient_noise_averages_with_run_length(self):
        assert latency_cv(6.0, transient_noise=0.05) / latency_cv(600.0, transient_noise=0.05) == pytest.approx(10.0, rel=0.1)

    def test_load_noise_does_not_average_with_run_length(self):
        cvs = [latency_cv(seconds, load_volatility=0.15) for seconds in (6.0, 60.0, 600.0)]
        assert cvs[0] > 0.05 and cvs[0] == cvs[1] == cvs[2]
