"""The import budget: which modules each entry point may load.

A tuner runs beside the system it tunes, so its start-up time and resident
memory are overhead charged to the target. What decides both is the set of
modules a process imports, and a set — unlike a stopwatch — is exact for a
commit. Every case runs a fresh interpreter with ``PYTHONPATH=src`` and
asserts on ``sys.modules``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

BLOCK_SCIPY = "import sys; sys.modules['scipy'] = None  # any scipy import now raises ImportError\n"

# Creates a journalled session on the redis target and drives ask/tell round
# trips against the simulator, the way a campaign or a service client does.
DRIVER = """
import json, sys
from repro.core.codec import TrialReport, config_from_values
from repro.core.evaluation import run_evaluation
from repro.core.manager import SessionManager
from repro.core.stores import open_store
from repro.targets import make_evaluator

evaluator, space, objective = make_evaluator("redis", seed=3)

def create(optimizer, store_dir):
    manager = SessionManager(open_store(store_dir, backend="json"))
    return manager.create(space, optimizer=optimizer, objectives=objective, max_trials=64, seed=3)

def round_trips(session, n):
    for _ in range(n):
        suggestion = session.ask()[0]
        result = run_evaluation(evaluator, config_from_values(suggestion.config, space))
        session.tell(TrialReport(
            config=suggestion.config,
            metrics={objective.name: float(result.metrics)} if result.ok else {},
            status=result.status.value,
            ask_id=suggestion.ask_id,
        ))
    return len(session.optimizer.history)
"""


def fresh(code: str, *argv: str):
    """Run ``code`` in a fresh interpreter; return the JSON its last output line holds."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# -- (a) entry points ----------------------------------------------------------

ENTRY_POINTS = [
    "import repro",
    "import repro.cli",
    "import repro.core.manager",
    "import repro.core.stores",
    "import repro.targets",
    "import repro.service.server",
    "import repro.service.client",
    "import repro.execution",
    "import repro.staticcheck",
    "import repro.telemetry",
    "import repro.chaos",
    "import repro.online",
    "from repro.online import QLearningTuner",
]
# repro.cli legitimately loads the numpy-only optimizers.forest (analysis.importance).
SURROGATES = {f"repro.optimizers.{m}" for m in ("gp", "kernels", "bo", "multitask", "smac", "model_based")}


@pytest.mark.parametrize("statement", ENTRY_POINTS)
def test_entry_point_loads_no_scipy_and_no_surrogate(statement):
    loaded = set(fresh(f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"))
    assert not {m for m in loaded if m.split(".")[0] == "scipy"}
    assert not loaded & SURROGATES


def _loaded(code: str) -> list[str]:
    """Every ``repro`` module, and ``numpy``/``sqlite3`` if loaded, a fresh interpreter holds after ``code``."""
    return fresh(
        f"import json, sys\n{code}\nprint(json.dumps(sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'repro' or m in ('numpy', 'sqlite3'))))"
    )


# -- (a') the floor: a package import is a table ------------------------------

PACKAGES = [
    "repro", "repro.analysis", "repro.benchmarking", "repro.chaos", "repro.core", "repro.core.stores",
    "repro.execution", "repro.knowledge", "repro.online", "repro.optimizers", "repro.service", "repro.space",
    "repro.staticcheck", "repro.sysim", "repro.telemetry", "repro.workload_id", "repro.workloads",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_importing_a_package_loads_only_its_parents(package):
    """Every ``__init__`` is a name -> submodule table: importing one runs no submodule and loads no numpy."""
    parents = {package.rsplit(".", k)[0] for k in range(package.count(".") + 1)}
    assert set(_loaded(f"import {package}")) <= parents | {"repro._lazy", "repro.exceptions"}


# The campaign's cold-import line (``benchmarks/perf/campaign.py``'s ``process_start_s``)
# and the server's. A module joining either list is start-up cost on every process.
CAMPAIGN_LINE = [
    "numpy", "repro", "repro._lazy", "repro.core", "repro.core.callbacks", "repro.core.codec",
    "repro.core.evaluation", "repro.core.journal", "repro.core.manager", "repro.core.optimizer",
    "repro.core.result", "repro.core.session", "repro.core.stores", "repro.exceptions", "repro.optimizers",
    "repro.space", "repro.space.conditions", "repro.space.constraints", "repro.space.params",
    "repro.space.priors", "repro.space.serialize", "repro.space.space", "repro.staticcheck",
    "repro.staticcheck.findings", "repro.staticcheck.spacelint", "repro.sysim", "repro.targets",
    "repro.telemetry", "repro.telemetry.spans", "repro.workloads",
]
SERVER = [
    "numpy", "repro", "repro._lazy", "repro.core", "repro.core.callbacks", "repro.core.codec",
    "repro.core.evaluation", "repro.core.journal", "repro.core.manager", "repro.core.optimizer",
    "repro.core.result", "repro.core.session", "repro.exceptions", "repro.optimizers", "repro.service",
    "repro.service.handlers", "repro.service.server", "repro.service.wire", "repro.space",
    "repro.space.conditions", "repro.space.constraints", "repro.space.params", "repro.space.priors",
    "repro.space.serialize", "repro.space.space", "repro.staticcheck", "repro.staticcheck.findings",
    "repro.staticcheck.spacelint", "repro.telemetry", "repro.telemetry.metrics",
    "repro.telemetry.naming", "repro.telemetry.spans", "repro.telemetry.tracing",
]
# What neither runs: the other store backend, the benchmark runners, replay,
# the executors, the client-side resilience and the source-tree linter.
NEVER_AT_START = {
    "sqlite3", "repro.benchmarking.duet", "repro.benchmarking.runner", "repro.benchmarking.tuna",
    "repro.core.replay", "repro.execution", "repro.resilience", "repro.staticcheck.astlint",
}


@pytest.mark.parametrize(
    "statement, expected",
    [
        ("import repro.core.manager, repro.core.stores, repro.targets", CAMPAIGN_LINE),
        ("import repro.service.server", SERVER),
    ],
    ids=["campaign", "server"],
)
def test_cold_import_loads_exactly_these_modules(statement, expected):
    loaded = _loaded(statement)
    assert not set(loaded) & (NEVER_AT_START | {"repro.service.client"})
    assert loaded == expected


@pytest.mark.parametrize(
    "target, own",
    [
        (("dbms", "tpcc-100"), {"repro.sysim.dbms", "repro.workloads.tpcc"}),
        (("redis", "default"), {"repro.sysim.redis"}),
        (("spark", "default"), {"repro.sysim.spark", "repro.workloads.tpch"}),
    ],
    ids=["dbms", "redis", "spark"],
)
def test_a_target_loads_no_other_simulator_or_workload(target, own):
    """``make_evaluator`` resolves its simulator and workload through the package tables,
    and the ``default`` workload is the named system's only."""
    loaded = _loaded(f"from repro.targets import make_evaluator\nmake_evaluator(*{target!r})")
    simulators = {f"repro.sysim.{m}" for m in ("dbms", "redis", "nginx", "spark")}
    workloads = {f"repro.workloads.{m}" for m in ("tpcc", "tpch", "ycsb", "shifting")}
    assert set(loaded) & (simulators | workloads) == own


def test_listing_the_registry_imports_no_optimizer():
    """The CLI calls ``optimizer_names()`` to build its parser."""
    code = "import json, sys\nfrom repro.core.manager import optimizer_names\n"
    names, loaded = fresh(code + "print(json.dumps([optimizer_names(), sorted(sys.modules)]))")
    assert names == ["anneal", "bestconfig", "bo", "cmaes", "grid", "hyperband", "pso", "random", "smac"]
    assert not {m for m in loaded if m.startswith(("repro.optimizers.", "scipy"))}


# -- (b) nothing the package runs needs scipy ----------------------------------


@pytest.mark.parametrize("optimizer", ["random", "grid", "anneal", "cmaes", "pso", "bestconfig"])
def test_model_free_optimizer_runs_with_scipy_blocked(optimizer, tmp_path):
    code = BLOCK_SCIPY + DRIVER + "print(round_trips(create(*sys.argv[1:]), 12))"
    assert fresh(code, optimizer, str(tmp_path)) == 12


def test_forest_family_runs_with_scipy_blocked(tmp_path):
    """Past ``n_init``, so with real forest fits and EI picks."""
    code = BLOCK_SCIPY + DRIVER + textwrap.dedent("""
        session = create(*sys.argv[1:])
        print(json.dumps([round_trips(session, 30), session.optimizer.surrogate_stats()["n_fits"]]))
    """)
    n, n_fits = fresh(code, "smac", str(tmp_path))
    assert n == 30 and n_fits > 0


def test_gp_family_runs_with_scipy_blocked(tmp_path):
    """Past ``n_init``, so with real hyper-parameter fits, incremental updates and predictions."""
    code = BLOCK_SCIPY + DRIVER + textwrap.dedent("""
        session = create(*sys.argv[1:])
        print(json.dumps([round_trips(session, 30), session.optimizer.surrogate_stats()]))
    """)
    n, stats = fresh(code, "bo", str(tmp_path))
    assert n == 30 and stats["nll_evals"] > 0 and stats["cholesky_incremental"] > 0


def test_multitask_optimizer_runs_with_scipy_blocked():
    """The ICM kernel's hyper-fit under the one GP past ``n_init``."""
    code = BLOCK_SCIPY + textwrap.dedent("""
        import json
        from repro.core import Objective
        from repro.optimizers import MultiTaskOptimizer
        from repro.space import ConfigurationSpace, FloatParameter

        space = ConfigurationSpace("m", seed=0)
        space.add(FloatParameter("x", 0.0, 1.0))
        space.add(FloatParameter("y", 0.0, 1.0))
        opt = MultiTaskOptimizer(space, [Objective("a"), Objective("b")], n_init=4, n_candidates=32, seed=0)
        for _ in range(10):
            config = opt.suggest()[0]
            opt.observe(config, {"a": (config["x"] - 0.3) ** 2, "b": (config["y"] - 0.6) ** 2 + config["x"]})
        print(json.dumps([len(opt.history), opt.model.kernel.k1.task_covariance().shape[0]]))
    """)
    assert fresh(code) == [10, 2]


def test_contextual_bo_tuner_steps_with_scipy_blocked():
    code = BLOCK_SCIPY + textwrap.dedent("""
        import json, numpy as np
        from repro.online import ContextualBayesianOptimizer
        from repro.space import ConfigurationSpace, FloatParameter

        space = ConfigurationSpace("c", seed=0)
        space.add(FloatParameter("x", 0.0, 1.0, default=0.5))
        policy = ContextualBayesianOptimizer(space, n_init=4, n_candidates=16, seed=0)
        for step in range(12):
            policy.observation_fn = lambda: np.array([0.2 if step % 4 < 2 else 0.8])
            config = policy.suggest()[0]
            policy.observe(config, {"reward": -((config["x"] - 0.3) ** 2)})
        print(json.dumps(policy.model.stats.nll_evals > 0))
    """)
    assert fresh(code) is True


def test_benchmark_synthesis_runs_with_scipy_blocked():
    code = BLOCK_SCIPY + textwrap.dedent("""
        import json
        from repro.workload_id import synthesize_benchmark
        from repro.workloads import tpcc, tpch, ycsb

        _synthetic, weights = synthesize_benchmark(tpcc(150), [ycsb("a"), ycsb("c"), tpcc(100), tpch(10)])
        print(json.dumps(round(float(weights.sum()), 9)))
    """)
    assert fresh(code) == 1.0


def test_proactive_tuner_steps_with_scipy_blocked():
    """``repro.workload_id`` resolves lazily: the forecaster does not drag in ``synthesis``."""
    code = BLOCK_SCIPY + textwrap.dedent("""
        import json, numpy as np
        import repro.workload_id
        from repro.online import ProactiveForecastTuner
        from repro.space import ConfigurationSpace, FloatParameter
        from repro.workload_id import WindowShiftDetector

        space = ConfigurationSpace("p", seed=0)
        space.add(FloatParameter("x", 0.0, 1.0, default=0.5))
        policy = ProactiveForecastTuner(space, period=4, n_bands=2, seed=0)
        for step in range(12):
            policy.observation_fn = lambda: np.array([0.2 if step % 4 < 2 else 0.8])
            config = policy.suggest()[0]
            policy.observe(config, {"reward": -((config["x"] - 0.3) ** 2)})
        print(json.dumps([WindowShiftDetector.__name__, step + 1]))
    """)
    assert fresh(code) == ["WindowShiftDetector", 12]


def test_staticcheck_runs_with_scipy_blocked():
    main = "from repro.cli import main\n"
    assert fresh(BLOCK_SCIPY + main + 'print([main(["lint", "code", "src"]), main(["lint", "space"])])') == [0, 0]


# -- (c), (d) a model family loads its own modules, inside create -------------


@pytest.fixture(scope="module", params=["bo", "smac"])
def family(request, tmp_path_factory):
    """With scipy installed and importable: nothing may import it anyway."""
    code = DRIVER + textwrap.dedent("""
        session = create(*sys.argv[1:])
        after_create = sorted(sys.modules)
        n = round_trips(session, 30)
        print(json.dumps({
            "after_create": after_create,
            "after_round_trips": sorted(sys.modules),
            "n": n,
            "stats": session.optimizer.surrogate_stats(),
        }))
    """)
    return request.param, fresh(code, request.param, str(tmp_path_factory.mktemp(request.param)))


def test_family_loads_no_scipy(family):
    name, run = family
    assert f"repro.optimizers.{'gp' if name == 'bo' else 'forest'}" in run["after_create"]
    assert not {m for m in run["after_round_trips"] if m.split(".")[0] == "scipy"}


def test_ask_and_tell_import_nothing(family):
    """The whole import cost sits in ``create``; none can leak into a measured ask."""
    name, run = family
    assert run["n"] == 30
    # Past n_init: those round trips include hyper-parameter fits / full forest regrows.
    assert run["stats"]["nll_evals" if name == "bo" else "n_fits"] > 0
    new = set(run["after_round_trips"]) - set(run["after_create"])
    assert not {m for m in new if m.split(".")[0] in ("scipy", "repro")}
