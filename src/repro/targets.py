"""Named tuning targets: build systems, workloads, and evaluators from specs.

The CLI and the HTTP service both need to turn string specs —
``system="dbms"``, ``workload="tpcc-100"``, ``metric="throughput"`` — into
a simulated system, a workload, and an evaluator callable. This module is
the single registry both consult, so a session created with
``repro tune --system dbms`` and one created over the wire with
``{"system": "dbms"}`` mean exactly the same thing.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from . import sysim, workloads
from .core import Objective
from .exceptions import ReproError
from .space import Configuration

__all__ = [
    "SYSTEMS",
    "make_system",
    "make_workload",
    "objective_for",
    "make_evaluator",
    "target_spec",
]

SYSTEMS = ("dbms", "redis", "nginx", "spark")


def make_system(name: str, seed: int = 0, noise: float = 0.03):
    """Instantiate a simulated target system by name.

    The simulator resolves through the ``repro.sysim`` table, so building
    one loads no other.
    """
    env = sysim.CloudEnvironment(seed=seed, transient_noise=noise)
    if name == "dbms":
        return sysim.SimulatedDBMS(env=env, seed=seed)
    if name == "redis":
        return sysim.RedisServer(env=env, seed=seed)
    if name == "nginx":
        return sysim.NginxServer(env=env, seed=seed)
    if name == "spark":
        return sysim.SparkCluster(n_nodes=10, env=env, seed=seed)
    raise ReproError(f"unknown system {name!r}; choose from {SYSTEMS}")


def make_workload(system: str, name: str):
    """Build a workload from its string spec (``ycsb-a``, ``tpcc-100``, …);
    ``default`` is the named system's own workload, and only that one is built."""
    if name.startswith("ycsb"):
        return workloads.ycsb(name.removeprefix("ycsb-") or "a")
    if name.startswith("tpcc"):
        part = name.removeprefix("tpcc").lstrip("-")
        return workloads.tpcc(int(part) if part else 100)
    if name.startswith("tpch"):
        part = name.removeprefix("tpch").lstrip("-")
        return workloads.tpch(float(part) if part else 10.0)
    if name == "default":
        if system == "dbms":
            return workloads.tpcc(100)
        if system == "redis":
            return sysim.redis_benchmark_workload()
        if system == "nginx":
            return sysim.web_workload()
        if system == "spark":
            return workloads.tpch(10.0, concurrency=4)
        raise ReproError(f"unknown system {system!r}; choose from {SYSTEMS}")
    raise ReproError(f"unknown workload {name!r}")


def objective_for(metric: str) -> Objective:
    """The conventional direction of a metric: throughput up, the rest down."""
    return Objective(metric, minimize=not metric.startswith("throughput"))


def make_evaluator(
    system: str,
    workload: str = "default",
    metric: str = "throughput",
    seed: int = 0,
    noise: float = 0.03,
) -> Callable[[Configuration], Any]:
    """An evaluator callable for the named target (plus its space).

    Returns ``(evaluator, space, objective)`` so callers can create a
    session and evaluate server-side with one registry lookup.
    """
    sys_obj = make_system(system, seed=seed, noise=noise)
    wl = make_workload(system, workload)
    return sys_obj.evaluator(wl, metric), sys_obj.space, objective_for(metric)


def target_spec(spec: Mapping[str, Any]):
    """Resolve a wire-level target spec dict.

    ``{"system": "dbms", "workload": "tpcc-100", "metric": "throughput",
    "seed": 0, "noise": 0.03}`` → ``(evaluator, space, objective)``.
    """
    try:
        system = str(spec["system"])
        seed, noise = int(spec.get("seed", 0)), float(spec.get("noise", 0.03))
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
    except KeyError:
        raise ReproError("target spec needs a 'system' key") from None
    except (TypeError, ValueError, OverflowError) as err:
        raise ReproError(f"malformed target spec: {err}") from err
    return make_evaluator(
        system,
        workload=str(spec.get("workload", "default")),
        metric=str(spec.get("metric", "throughput")),
        seed=seed,
        noise=noise,
    )

