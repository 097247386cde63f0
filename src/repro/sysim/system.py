"""Base class for simulated target systems.

A :class:`SimulatedSystem` plays the role of the real Redis/MySQL/Spark
deployment in the tutorial's architecture: the tuner *applies* a
configuration, *runs* a workload, and gets a :class:`Measurement` back.

Knob deployment levels (the "Autotuning in Practice: How to Deploy?" slide)
are modelled explicitly: each knob is RUNTIME (an ``ALTER SYSTEM`` away),
STARTUP (requires a restart, losing warm caches), or BUILDTIME (requires
reprovisioning). ``apply`` tracks restarts and their costs so experiments
can account for them.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from typing import Mapping

import numpy as np

from ..benchmarking.measurement import REFERENCE_S, Measurement
from ..exceptions import ReproError, SystemCrashError
from ..space import Configuration, ConfigurationSpace
from ..workloads import Workload
from .cloud import CloudEnvironment, Machine, QUIET_CLOUD

__all__ = ["KnobLevel", "SimulatedSystem", "PerfProfile"]


class KnobLevel(enum.Enum):
    """When a knob change takes effect."""

    RUNTIME = "runtime"  # adjustable live (join buffer size)
    STARTUP = "startup"  # needs a restart (shared_buffers)
    BUILDTIME = "buildtime"  # needs reprovisioning (filesystem block size)


class PerfProfile:
    """Noise-free performance numbers a system model produces for one run."""

    __slots__ = ("latency_avg_ms", "latency_spread", "throughput_cap", "cpu_util", "mem_util", "io_util")

    def __init__(
        self,
        latency_avg_ms: float,
        latency_spread: float,
        throughput_cap: float,
        cpu_util: float,
        mem_util: float,
        io_util: float,
    ) -> None:
        if latency_avg_ms <= 0:
            raise ReproError(f"latency must be positive, got {latency_avg_ms}")
        if latency_spread < 1.0:
            raise ReproError(f"latency_spread is a tail multiplier >= 1, got {latency_spread}")
        self.latency_avg_ms = latency_avg_ms
        self.latency_spread = latency_spread
        self.throughput_cap = throughput_cap
        self.cpu_util = float(np.clip(cpu_util, 0.0, 1.0))
        self.mem_util = float(np.clip(mem_util, 0.0, 1.0))
        self.io_util = float(np.clip(io_util, 0.0, 1.0))


class SimulatedSystem(ABC):
    """A tunable system running in a (possibly noisy) cloud environment.

    Subclasses define the configuration space (:meth:`build_space`), knob
    levels, and the analytical performance model (:meth:`performance`).
    """

    #: Restart penalty in seconds added to a run after a STARTUP knob change
    #: (lost buffer pool, cold caches — "is it expensive to restart?").
    restart_penalty_s: float = 30.0

    def __init__(self, env: CloudEnvironment | None = None, seed: int | None = None) -> None:
        self.env = env if env is not None else QUIET_CLOUD(seed=seed)
        self.space = self.build_space()
        self.rng = np.random.default_rng(seed)
        self._current = self.space.default_configuration()
        self._home_machine = self.env.allocate()
        self.restart_count = 0
        self.reprovision_count = 0

    # -- to implement ------------------------------------------------------
    @abstractmethod
    def build_space(self) -> ConfigurationSpace:
        """Define the system's tunable knobs."""

    @abstractmethod
    def knob_levels(self) -> Mapping[str, KnobLevel]:
        """Deployment level of each knob (missing ⇒ RUNTIME)."""

    @abstractmethod
    def performance(self, config: Configuration, workload: Workload) -> PerfProfile:
        """Noise-free analytical model. May raise SystemCrashError."""

    # -- applying configurations -------------------------------------------
    @property
    def current_config(self) -> Configuration:
        return self._current

    def apply(self, config: Configuration) -> dict[str, int]:
        """Apply a configuration, tracking restarts/reprovisions it forces.

        Returns counts of the deployment actions taken, e.g.
        ``{"runtime": 3, "startup": 1, "buildtime": 0}``.
        """
        # Accept configurations from subspaces: knobs not mentioned keep
        # their current values (the DBA only changed what they changed).
        values = self._current.as_dict()
        for name, value in config.items():
            if name in self.space:
                values[name] = value
        config = self.space.make(values, check_constraints=False)
        levels = self.knob_levels()
        actions = {"runtime": 0, "startup": 0, "buildtime": 0}
        for name in self.space.names:
            if config[name] == self._current[name]:
                continue
            level = levels.get(name, KnobLevel.RUNTIME)
            actions[level.value] += 1
        if actions["buildtime"]:
            self.reprovision_count += 1
        elif actions["startup"]:
            self.restart_count += 1
        self._current = config
        self._pending_restart = bool(actions["startup"] or actions["buildtime"])
        return actions

    # -- running workloads ----------------------------------------------------
    def run(
        self,
        workload: Workload,
        duration_s: float = REFERENCE_S,
        machine: Machine | None = None,
        config: Configuration | None = None,
    ) -> Measurement:
        """Benchmark the current (or given) configuration under a workload for ``duration_s`` seconds.

        The analytical profile is perturbed by the environment's machine and
        transient noise, the latter the less the longer the run
        (:meth:`CloudEnvironment.transient_draw`); restart penalties extend elapsed time.
        """
        if duration_s <= 0:
            raise ReproError(f"duration_s must be positive, got {duration_s}")
        if config is not None:
            self.apply(config)
        machine = machine or self._home_machine
        self.env.advance(machine)
        if not self.space.is_feasible(self._current):
            # A config violating declared constraints is undeployable — the
            # real system would refuse to start.
            raise SystemCrashError(f"infeasible configuration: {self._current}")
        profile = self.performance(self._current, workload)
        return self._measure(profile, workload, duration_s, machine)

    def _measure(
        self,
        profile: PerfProfile,
        workload: Workload,
        duration_s: float,
        machine: Machine,
        shared_draw: float | None = None,
    ) -> Measurement:
        transient = shared_draw if shared_draw is not None else self.env.transient_draw(duration_s)
        slowdown = self.env.slowdown(machine, shared_draw=transient)
        lat_avg = profile.latency_avg_ms * slowdown
        spread = profile.latency_spread * (1.0 + 0.5 * machine.load)
        # Log-normalish latency distribution summarised by its percentiles.
        lat_p50 = lat_avg * 0.85
        lat_p95 = lat_avg * spread
        lat_p99 = lat_avg * spread * 1.6
        service_s = (lat_avg + workload.think_time_ms) / 1000.0
        offered = workload.concurrency / max(service_s, 1e-9)
        throughput = min(offered, profile.throughput_cap / slowdown)
        elapsed = duration_s + (self.restart_penalty_s if getattr(self, "_pending_restart", False) else 0.0)
        self._pending_restart = False
        return Measurement(
            throughput=max(0.0, throughput),
            latency_avg=lat_avg,
            latency_p50=lat_p50,
            latency_p95=lat_p95,
            latency_p99=lat_p99,
            cpu_util=profile.cpu_util,
            mem_util=profile.mem_util,
            io_util=profile.io_util,
            elapsed_s=elapsed,
            machine_id=machine.machine_id,
            extra={"machine_load": machine.load, "slowdown": slowdown},
        )

    def evaluator(self, workload: Workload, metric: str | None = None):
        """An evaluator for :class:`~repro.core.session.TuningSession`:
        ``evaluate(config, fidelity=None)`` runs ``config`` for ``fidelity``
        seconds (:data:`~repro.benchmarking.measurement.REFERENCE_S` when the
        trial has none) and returns ``(value, cost)``: ``metric``'s value, or
        every metric when ``metric`` is None, and the run's elapsed seconds.
        """

        def evaluate(config: Configuration, fidelity: float | None = None):
            m = self.run(workload, duration_s=REFERENCE_S if fidelity is None else fidelity, config=config)
            return (m.metrics() if metric is None else m.metric(metric)), m.elapsed_s

        return evaluate
