"""Workload identification: features, embeddings, similarity, shift
detection, synthetic benchmark generation."""

from .._lazy import lazy_exports

# Public name -> defining submodule, imported on first use.
_EXPORTS = {
    "PCAEmbedding": ".embedding",
    "RandomProjectionEmbedding": ".embedding",
    "WorkloadEmbedder": ".embedding",
    "QueryRecord": ".features",
    "query_log_features": ".features",
    "synthetic_query_log": ".features",
    "telemetry_features": ".features",
    "SeasonalForecaster": ".forecasting",
    "PageHinkleyDetector": ".shift_detection",
    "WindowShiftDetector": ".shift_detection",
    "clustering_accuracy": ".similarity",
    "kmeans": ".similarity",
    "knn_indices": ".similarity",
    "silhouette_score": ".similarity",
    "blend_mixture": ".synthesis",
    "mixture_weights": ".synthesis",
    "synthesize_benchmark": ".synthesis",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
