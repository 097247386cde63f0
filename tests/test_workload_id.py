"""Unit tests for workload identification: features, embeddings,
similarity, shift detection, synthesis."""

import numpy as np
import pytest

from repro.exceptions import NotFittedError, ReproError
from repro.sysim import generate_telemetry
from repro.workload_id import (
    PCAEmbedding,
    PageHinkleyDetector,
    RandomProjectionEmbedding,
    WindowShiftDetector,
    WorkloadEmbedder,
    clustering_accuracy,
    kmeans,
    knn_indices,
    mixture_weights,
    query_log_features,
    silhouette_score,
    synthesize_benchmark,
    synthetic_query_log,
    telemetry_features,
)
from repro.workloads import tpcc, tpch, ycsb


class TestFeatures:
    def test_telemetry_feature_width(self, rng):
        trace = generate_telemetry(ycsb("a"), n_steps=64, rng=rng)
        feats = telemetry_features(trace)
        assert feats.shape == (25,)  # 5 channels x 5 features
        assert np.all(np.isfinite(feats))

    def test_similar_workloads_close_in_feature_space(self, rng):
        a1 = telemetry_features(generate_telemetry(ycsb("a"), rng=rng))
        a2 = telemetry_features(generate_telemetry(ycsb("a"), rng=rng))
        h = telemetry_features(generate_telemetry(tpch(10), rng=rng))
        assert np.linalg.norm(a1 - a2) < np.linalg.norm(a1 - h)

    def test_query_log_mix_matches_workload(self, rng):
        log = synthetic_query_log(ycsb("c"), n_queries=400, rng=rng)
        kinds = {q.kind for q in log}
        assert kinds <= {"point_select", "range_scan"}  # read-only workload
        feats = query_log_features(log)
        assert feats[0] > 0.9  # nearly all point selects

    def test_write_heavy_log(self, rng):
        log = synthetic_query_log(tpcc(10), n_queries=400, rng=rng)
        writes = sum(q.kind in ("insert", "update") for q in log)
        assert writes > 100

    def test_validation(self, rng):
        with pytest.raises(ReproError):
            synthetic_query_log(ycsb("a"), n_queries=0)
        with pytest.raises(ReproError):
            query_log_features([])


class TestEmbeddings:
    def test_pca_reduces_and_reconstructs_order(self, rng):
        # Correlated columns (standardisation removes raw scale, so use
        # correlation to create a dominant principal direction).
        X = rng.standard_normal((50, 10))
        X[:, 1] = X[:, 0] + rng.normal(0, 0.1, 50)
        X[:, 2] = X[:, 0] + rng.normal(0, 0.1, 50)
        emb = PCAEmbedding(n_components=3).fit(X)
        Z = emb.transform(X)
        assert Z.shape == (50, 3)
        assert emb.explained_variance_ratio[0] > 0.2
        assert np.all(np.diff(emb.explained_variance_ratio) <= 1e-12)

    def test_pca_unfitted(self):
        with pytest.raises(NotFittedError):
            PCAEmbedding().transform(np.zeros((2, 3)))

    def test_random_projection_roughly_preserves_distances(self, rng):
        X = rng.standard_normal((30, 40))
        emb = RandomProjectionEmbedding(n_components=20, seed=0).fit(X)
        Z = emb.transform(X)
        d_orig = np.linalg.norm(X[0] - X[1]) / np.linalg.norm(X[2] - X[3])
        d_proj = np.linalg.norm(Z[0] - Z[1]) / np.linalg.norm(Z[2] - Z[3])
        assert 0.3 < d_proj / d_orig < 3.0

    def test_workload_embedder_clusters_families(self):
        """Slide 88: similar workloads land near each other."""
        corpus = [ycsb("a"), ycsb("b"), tpcc(50), tpcc(200), tpch(5), tpch(50)]
        embedder = WorkloadEmbedder(n_components=3, seed=0, n_steps=64)
        embedder.fit(corpus)
        za = embedder.embed(ycsb("a"))
        za2 = embedder.embed(ycsb("a"))
        zh = embedder.embed(tpch(20))
        assert np.linalg.norm(za - za2) < np.linalg.norm(za - zh)

    def test_embedder_modalities(self):
        with pytest.raises(ReproError):
            WorkloadEmbedder(use_telemetry=False, use_query_log=False)
        tel_only = WorkloadEmbedder(use_query_log=False, seed=0, n_steps=32)
        feats = tel_only.raw_features(ycsb("a"))
        assert feats.shape == (25,)
        both = WorkloadEmbedder(seed=0, n_steps=32)
        assert both.raw_features(ycsb("a")).shape == (33,)

    def test_embedder_unfitted(self):
        with pytest.raises(NotFittedError):
            WorkloadEmbedder(seed=0).embed(ycsb("a"))


class TestSimilarity:
    def test_kmeans_recovers_blobs(self, rng):
        blobs = np.vstack([
            rng.normal(0, 0.2, (30, 2)),
            rng.normal(5, 0.2, (30, 2)),
            rng.normal([0, 5], 0.2, (30, 2)),
        ])
        truth = np.repeat([0, 1, 2], 30)
        labels, centroids = kmeans(blobs, 3, rng=rng)
        assert clustering_accuracy(labels, truth) > 0.95
        assert centroids.shape == (3, 2)

    def test_silhouette_high_for_separated_blobs(self, rng):
        blobs = np.vstack([rng.normal(0, 0.1, (20, 2)), rng.normal(10, 0.1, (20, 2))])
        labels = np.repeat([0, 1], 20)
        assert silhouette_score(blobs, labels) > 0.9

    def test_silhouette_needs_two_clusters(self, rng):
        with pytest.raises(ReproError):
            silhouette_score(rng.random((5, 2)), np.zeros(5))

    def test_knn(self):
        corpus = np.array([[0.0], [1.0], [2.0], [3.0]])
        assert list(knn_indices(np.array([1.2]), corpus, k=2)) == [1, 2]
        with pytest.raises(ReproError):
            knn_indices(np.array([0.0]), corpus, k=9)

    def test_kmeans_validation(self, rng):
        with pytest.raises(ReproError):
            kmeans(rng.random((3, 2)), 5)


class TestShiftDetection:
    def embedding_stream(self, rng, shift_at=40, n=80):
        """2-D embeddings jumping from one regime to another."""
        pre = rng.normal(0.0, 0.05, (shift_at, 2))
        post = rng.normal(1.0, 0.05, (n - shift_at, 2))
        return np.vstack([pre, post])

    def test_window_detector_fires_near_shift(self, rng):
        detector = WindowShiftDetector(reference_size=20, window=6, threshold_z=4.0)
        stream = self.embedding_stream(rng)
        for z in stream:
            detector.update(z)
        assert len(detector.alarms) >= 1
        assert 40 <= detector.alarms[0] <= 55

    def test_window_detector_quiet_without_shift(self, rng):
        detector = WindowShiftDetector(reference_size=20, window=6, threshold_z=5.0)
        for _ in range(100):
            detector.update(rng.normal(0.0, 0.05, 2))
        assert detector.alarms == []

    def test_window_detector_rereferences_after_alarm(self, rng):
        detector = WindowShiftDetector(reference_size=15, window=5, threshold_z=4.0)
        stream = np.vstack([
            rng.normal(0.0, 0.05, (40, 2)),
            rng.normal(1.0, 0.05, (40, 2)),
            rng.normal(2.0, 0.05, (40, 2)),
        ])
        for z in stream:
            detector.update(z)
        assert len(detector.alarms) >= 2  # detected both shifts

    def test_page_hinkley(self, rng):
        detector = PageHinkleyDetector(delta=0.05, threshold=2.0)
        fired = []
        for i in range(120):
            value = 0.0 if i < 60 else 1.0
            if detector.update(value + rng.normal(0, 0.05)):
                fired.append(i)
        assert fired and fired[0] >= 60

    def test_validation(self):
        with pytest.raises(ReproError):
            WindowShiftDetector(reference_size=2)
        with pytest.raises(ReproError):
            PageHinkleyDetector(threshold=0.0)


class TestSynthesis:
    def test_recovers_known_mixture(self):
        library = [ycsb("a"), ycsb("c"), tpch(10)]
        target = ycsb("a").blend(ycsb("c"), 0.5)
        weights = mixture_weights(target.signature(), np.stack([w.signature() for w in library]))
        assert weights[2] < 0.2  # tpch barely involved
        assert weights[0] + weights[1] > 0.8

    def test_synthetic_workload_close_to_target(self):
        library = [ycsb("a"), ycsb("b"), ycsb("c"), tpcc(100), tpch(10)]
        target = tpcc(150)
        synthetic, weights = synthesize_benchmark(target, library)
        assert weights.sum() == pytest.approx(1.0)
        d_syn = np.linalg.norm(synthetic.signature() - target.signature())
        d_far = np.linalg.norm(tpch(10).signature() - target.signature())
        assert d_syn < d_far / 2

    def test_in_tree_nnls_matches_scipy(self, monkeypatch):
        """The least-squares problems of the two mixtures above, and random ones,
        against ``scipy.optimize.nnls`` (the reference; the package has no scipy)."""
        from scipy.optimize import nnls

        from repro.workload_id import synthesis

        problems = []
        solve = synthesis._nnls
        monkeypatch.setattr(synthesis, "_nnls", lambda A, b: problems.append((A, b)) or solve(A, b))
        synthesize_benchmark(ycsb("a").blend(ycsb("c"), 0.5), [ycsb("a"), ycsb("c"), tpch(10)])
        synthesize_benchmark(tpcc(150), [ycsb("a"), ycsb("b"), ycsb("c"), tpcc(100), tpch(10)])
        assert len(problems) == 2
        rng = np.random.default_rng(0)
        for _ in range(200):
            m, n = rng.integers(1, 30, size=2)
            problems.append((rng.standard_normal((m, n)), rng.standard_normal(m)))
        for A, b in problems:
            reference = nnls(A, b)[0]
            assert np.linalg.norm(solve(A, b) - reference) <= 1e-10 * max(np.linalg.norm(reference), 1.0)

    def test_validation(self):
        with pytest.raises(ReproError):
            synthesize_benchmark(ycsb("a"), [])
        with pytest.raises(ReproError):
            mixture_weights(np.zeros(3), np.zeros((2, 4)))
