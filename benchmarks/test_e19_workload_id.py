"""E19 — workload identification (slides 88–92).

Three applications of workload embeddings:

1. **Clustering** — telemetry+query-log embeddings of noisy workload
   observations cluster by benchmark family (k-means accuracy).
2. **Similarity-gated config reuse** — a mystery tenant is matched to its
   nearest archived workload; reusing that workload's tuned config
   recovers most of the benefit of tuning from scratch, at zero trials.
3. **Shift detection** — a detector watching the embedding stream flags
   the phase change within a few steps and stays quiet otherwise.
"""

import numpy as np

from repro.core import TuningSession
from repro.optimizers import BayesianOptimizer
from repro.sysim import CloudEnvironment, QUIET_CLOUD, SimulatedDBMS, generate_telemetry
from repro.workload_id import (
    WindowShiftDetector,
    WorkloadEmbedder,
    clustering_accuracy,
    kmeans,
    knn_indices,
    silhouette_score,
    telemetry_features,
)
from repro.workloads import PhasedTrace, tpcc, tpch, ycsb

from benchmarks.conftest import THROUGHPUT

FAMILIES = {
    "ycsb-a": lambda: ycsb("a"),
    "ycsb-c": lambda: ycsb("c"),
    "tpcc": lambda: tpcc(100),
    "tpch": lambda: tpch(10),
}
OBS_PER_FAMILY = 8


def _tuned_config(db, workload, seed):
    opt = BayesianOptimizer(db.space, n_init=8, objectives=THROUGHPUT, seed=seed, n_candidates=128)
    return TuningSession(opt, db.evaluator(workload, "throughput"), max_trials=25).run().best_config


def test_e19_workload_identification(table):
    def experiment():
        rng = np.random.default_rng(0)
        # 1. Clustering noisy observations of each family.
        embedder = WorkloadEmbedder(n_components=4, seed=0, n_steps=96)
        base = [make() for make in FAMILIES.values()]
        embedder.fit(base)
        observations, truth = [], []
        for label, make in enumerate(FAMILIES.values()):
            for _ in range(OBS_PER_FAMILY):
                observations.append(embedder.embed(make().perturbed(rng, 0.05)))
                truth.append(label)
        Z = np.stack(observations)
        labels, _ = kmeans(Z, len(FAMILIES), rng=np.random.default_rng(1))
        accuracy = clustering_accuracy(labels, np.array(truth))
        silhouette = silhouette_score(Z, np.array(truth))

        # 2. Config reuse by similarity.
        db = SimulatedDBMS(env=QUIET_CLOUD(seed=3), seed=3)
        archive = {name: _tuned_config(db, make(), 3) for name, make in FAMILIES.items()}
        corpus_z = np.stack([embedder.embed(make()) for make in FAMILIES.values()])
        mystery = ycsb("a").perturbed(rng, 0.04)
        idx = int(knn_indices(embedder.embed(mystery), corpus_z, k=1)[0])
        matched_name = list(FAMILIES)[idx]
        reused = archive[matched_name]
        reuse_tput = db.run(mystery, config=reused).throughput
        default_tput = db.run(mystery, config=db.space.default_configuration()).throughput
        scratch_cfg = _tuned_config(db, mystery, 4)
        scratch_tput = db.run(mystery, config=scratch_cfg).throughput

        # 3. Shift detection over a phased trace's telemetry stream.
        trace = PhasedTrace([(ycsb("a"), 40), (tpch(10), 40)])
        detector = WindowShiftDetector(reference_size=20, window=6, threshold_z=4.0)
        alarms = []
        srng = np.random.default_rng(5)
        for t in range(len(trace)):
            feats = telemetry_features(
                generate_telemetry(trace.at(t), n_steps=48, rng=srng)
            )
            if detector.update(feats):
                alarms.append(t)
        return accuracy, silhouette, matched_name, reuse_tput, default_tput, scratch_tput, alarms

    accuracy, silhouette, matched, reuse, default, scratch, alarms = experiment()
    table(
        "E19 (slides 88-91) — embedding quality",
        ["metric", "value"],
        [("k-means accuracy vs family", accuracy), ("silhouette (true labels)", silhouette)],
    )
    table(
        "E19 (slide 92) — similarity-gated config reuse for a mystery tenant",
        ["strategy", "throughput"],
        [
            (f"reuse nearest ({matched})", reuse),
            ("default config", default),
            ("tuned from scratch (25 trials)", scratch),
        ],
    )
    table(
        "E19 (slide 92) — workload shift detection (true shift at t=40)",
        ["alarms fired at", str(alarms)],
        [],
    )
    # Shape claims.
    assert accuracy >= 0.8
    assert matched.startswith("ycsb-a")
    assert reuse > default * 1.5  # zero-trial reuse is already a big win
    assert reuse >= scratch * 0.5
    assert any(40 <= a <= 55 for a in alarms)  # detected promptly
    assert not any(a < 40 for a in alarms)  # no false alarm pre-shift
