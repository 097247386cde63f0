"""Offline DBMS tuning, the full pipeline.

The workflow a production tuning service runs (GPTuner/OtterTune style):

1. read the knob manuals to pick important knobs and bias their ranges
   (the simulated-LLM extractor);
2. Bayesian-optimize the informed subspace against a TPC-C benchmark;
3. analyse the history: which knobs actually mattered (Lasso ranking)?
4. report tuned vs default, with the winning configuration.

Run:  python examples/tune_dbms_offline.py
"""

from repro import BayesianOptimizer, Objective, TuningSession
from repro.analysis import LassoImportance, print_table
from repro.benchmarking import BenchmarkRunner
from repro.knowledge import ManualKnowledgeExtractor
from repro.sysim import CloudEnvironment, SimulatedDBMS
from repro.workloads import tpcc

THROUGHPUT = Objective("throughput", minimize=False)

# --- the system and workload -------------------------------------------------
env = CloudEnvironment(vm="medium", transient_noise=0.03, seed=7)
db = SimulatedDBMS(env=env, seed=7)
workload = tpcc(warehouses=100)
default_tput = db.run(workload, config=db.space.default_configuration()).throughput
print(f"system: {db.space.n_dims}-knob DBMS on a {env.vm.name} VM "
      f"({env.vm.vcpus} vCPU / {env.vm.ram_mb // 1024} GB)")
print(f"workload: {workload.name}, default throughput {default_tput:,.0f} ops/s\n")

# --- step 1: manual-driven knob discovery -------------------------------------
extractor = ManualKnowledgeExtractor()
discovered = extractor.discover(db.space.names)[:5]
print_table(
    ["knob", "relevance score", "range prior"],
    [(d.knob, d.score, type(d.prior).__name__ if d.prior else "-") for d in discovered],
    title="knobs discovered from the manuals",
)
informed_space = extractor.informed_space(db.space, k=5)

# --- step 2: Bayesian optimization --------------------------------------------
runner = BenchmarkRunner(db, workload, THROUGHPUT)
optimizer = BayesianOptimizer(informed_space, n_init=8, objectives=THROUGHPUT, seed=0)
result = TuningSession(optimizer, runner, max_trials=40).run()

print(f"\ntuned throughput: {result.best_value:,.0f} ops/s "
      f"({result.best_value / default_tput:.1f}x the default) "
      f"after {result.n_trials} trials / {result.total_cost:,.0f} benchmark seconds")
print_table(
    ["knob", "tuned value"],
    [(name, result.best_config[name]) for name in informed_space.names],
    title="winning configuration",
)

# --- step 3: what actually mattered --------------------------------------------
ranking = LassoImportance(informed_space).rank(optimizer.history)
print_table(
    ["rank", "knob", "lasso score"],
    [(i + 1, k, s) for i, (k, s) in enumerate(zip(ranking.knobs, ranking.scores))],
    title="knob importance from this run's history",
)
