"""Cloud execution environment: VM shapes, machine variance, noise.

"Cloud is noisy — despite systems improvements; unstable performance, w/o
config tuning" (tutorial, "To Learn More … Get Stable!"). This module
simulates exactly the noise structure that makes duet benchmarking and TUNA
work:

* **per-machine speed factors** — two VMs of the same size differ
  persistently (hardware generation, placement);
* **outlier machines** — a small fraction are persistently slow;
* **transient noise** — co-tenant interference varies within a machine over
  time, *correlated for measurements taken at the same moment on the same
  machine* (which is what duet benchmarking leans into); unlike the two
  above and the load walk, it averages out over a longer run;
* **sideband telemetry** — a noisy observable load signal per machine (what
  TUNA feeds its stability model).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..benchmarking.measurement import REFERENCE_S
from ..exceptions import ReproError

__all__ = ["VMSize", "Machine", "CloudEnvironment", "QUIET_CLOUD", "VM_SIZES"]


@dataclass(frozen=True)
class VMSize:
    """A virtual machine shape."""

    name: str
    vcpus: int
    ram_mb: int
    hourly_cost: float  # relative $/hour, used by cost objectives

    def __post_init__(self) -> None:
        if self.vcpus < 1 or self.ram_mb < 1:
            raise ReproError(f"invalid VM size: {self}")


#: A small catalogue of VM shapes (relative prices).
VM_SIZES: dict[str, VMSize] = {
    "small": VMSize("small", vcpus=2, ram_mb=8 * 1024, hourly_cost=0.10),
    "medium": VMSize("medium", vcpus=4, ram_mb=16 * 1024, hourly_cost=0.20),
    "large": VMSize("large", vcpus=8, ram_mb=32 * 1024, hourly_cost=0.40),
    "xlarge": VMSize("xlarge", vcpus=16, ram_mb=64 * 1024, hourly_cost=0.80),
}


@dataclass
class Machine:
    """One allocated VM instance with its persistent performance identity."""

    machine_id: str
    vm: VMSize
    speed_factor: float  # persistent: <1 = slow machine
    is_outlier: bool = False
    # Slowly varying co-tenant load in [0, 1]; updated by the environment.
    _load: float = field(default=0.2, repr=False)

    @property
    def load(self) -> float:
        return self._load


class CloudEnvironment:
    """Allocates machines and injects structured performance noise.

    Parameters
    ----------
    vm:
        VM shape every allocation uses (name or :class:`VMSize`).
    machine_spread:
        Std-dev of persistent log-speed across machines.
    outlier_fraction:
        Probability a machine is a persistent outlier.
    outlier_slowdown:
        Speed factor multiplier applied to outliers (e.g. 0.7 = 30 % slower).
    transient_noise:
        Std-dev of the per-measurement log-normal noise of a run of
        :data:`~repro.benchmarking.measurement.REFERENCE_S` seconds.
    load_volatility:
        How fast a machine's co-tenant load random-walks per run.
    """

    def __init__(
        self,
        vm: str | VMSize = "medium",
        machine_spread: float = 0.06,
        outlier_fraction: float = 0.08,
        outlier_slowdown: float = 0.7,
        transient_noise: float = 0.05,
        load_volatility: float = 0.15,
        seed: int | None = None,
    ) -> None:
        self.vm = VM_SIZES[vm] if isinstance(vm, str) else vm
        for name, value in [
            ("machine_spread", machine_spread),
            ("transient_noise", transient_noise),
            ("load_volatility", load_volatility),
        ]:
            if value < 0:
                raise ReproError(f"{name} must be >= 0, got {value}")
        if not 0.0 <= outlier_fraction < 1.0:
            raise ReproError(f"outlier_fraction must be in [0, 1), got {outlier_fraction}")
        if not 0.0 < outlier_slowdown <= 1.0:
            raise ReproError(f"outlier_slowdown must be in (0, 1], got {outlier_slowdown}")
        self.machine_spread = machine_spread
        self.outlier_fraction = outlier_fraction
        self.outlier_slowdown = outlier_slowdown
        self.transient_noise = transient_noise
        self.load_volatility = load_volatility
        self.rng = np.random.default_rng(seed)
        self._machines: dict[str, Machine] = {}

    # -- allocation ---------------------------------------------------------
    def allocate(self) -> Machine:
        """Provision a fresh VM with a new persistent identity."""
        machine_id = f"vm-{len(self._machines):04d}"
        speed = float(np.exp(self.rng.normal(0.0, self.machine_spread)))
        is_outlier = bool(self.rng.random() < self.outlier_fraction)
        if is_outlier:
            speed *= self.outlier_slowdown
        machine = Machine(machine_id, self.vm, speed, is_outlier, _load=float(self.rng.uniform(0.1, 0.4)))
        self._machines[machine_id] = machine
        return machine

    def allocate_pool(self, n: int) -> list[Machine]:
        return [self.allocate() for _ in range(n)]

    # -- noise -------------------------------------------------------------
    def advance(self, machine: Machine) -> None:
        """Random-walk the machine's co-tenant load (call once per run)."""
        step = self.rng.normal(0.0, self.load_volatility)
        machine._load = float(np.clip(machine._load + step, 0.0, 1.0))

    def slowdown(self, machine: Machine, shared_draw: float | None = None) -> float:
        """Multiplicative latency slowdown for one run on ``machine``.

        ``shared_draw`` lets two side-by-side runs (duet benchmarking) share
        the same transient component: pass the value from
        :meth:`transient_draw` to both.
        """
        transient = shared_draw if shared_draw is not None else self.transient_draw()
        load_penalty = 1.0 + 0.8 * machine.load**2
        return load_penalty * transient / machine.speed_factor

    def transient_draw(self, duration_s: float = REFERENCE_S) -> float:
        """One log-normal transient noise multiplier (≥ 0) for a run of ``duration_s``
        seconds, of log-sd ``transient_noise × sqrt(REFERENCE_S / duration_s)``."""
        return float(np.exp(self.rng.normal(0.0, self.transient_noise * math.sqrt(REFERENCE_S / duration_s))))

    def sideband_signal(self, machine: Machine) -> float:
        """Noisy observation of the machine's current load (TUNA sideband)."""
        return float(np.clip(machine.load + self.rng.normal(0.0, 0.05), 0.0, 1.0))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CloudEnvironment(vm={self.vm.name!r}, machines={len(self._machines)}, "
            f"transient_noise={self.transient_noise})"
        )


def QUIET_CLOUD(vm: str = "medium", seed: int | None = None) -> CloudEnvironment:
    """A noise-free environment — the idealised lab the tutorial contrasts with."""
    return CloudEnvironment(
        vm=vm,
        machine_spread=0.0,
        outlier_fraction=0.0,
        transient_noise=0.0,
        load_volatility=0.0,
        seed=seed,
    )
