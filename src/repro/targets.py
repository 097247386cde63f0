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

from .core import Objective
from .exceptions import ReproError
from .space import Configuration
from .sysim import (
    CloudEnvironment,
    NginxServer,
    RedisServer,
    SimulatedDBMS,
    SparkCluster,
    redis_benchmark_workload,
    web_workload,
)
from .workloads import tpcc, tpch, ycsb

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
    """Instantiate a simulated target system by name."""
    env = CloudEnvironment(seed=seed, transient_noise=noise)
    if name == "dbms":
        return SimulatedDBMS(env=env, seed=seed)
    if name == "redis":
        return RedisServer(env=env, seed=seed)
    if name == "nginx":
        return NginxServer(env=env, seed=seed)
    if name == "spark":
        return SparkCluster(n_nodes=10, env=env, seed=seed)
    raise ReproError(f"unknown system {name!r}; choose from {SYSTEMS}")


def make_workload(system: str, name: str):
    """Build a workload from its string spec (``ycsb-a``, ``tpcc-100``, …)."""
    if name.startswith("ycsb"):
        return ycsb(name.removeprefix("ycsb-") or "a")
    if name.startswith("tpcc"):
        part = name.removeprefix("tpcc").lstrip("-")
        return tpcc(int(part) if part else 100)
    if name.startswith("tpch"):
        part = name.removeprefix("tpch").lstrip("-")
        return tpch(float(part) if part else 10.0)
    if name == "default":
        return {
            "dbms": tpcc(100),
            "redis": redis_benchmark_workload(),
            "nginx": web_workload(),
            "spark": tpch(10.0, concurrency=4),
        }[system]
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
