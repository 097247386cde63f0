"""E24 — surrogate hot-path performance: suggest latency vs trial count.

The tutorial's central loop (evaluate → update model M → argmax AF) is
only as fast as the surrogate refit. This suite measures where that time
goes and gates the hot-path overhaul's speed claims:

* the incremental-conditioning path (rank-k Cholesky append) is ≥3× faster
  than a from-scratch fit of a fresh GP at 400 observed trials, with
  posterior mean/std matching it within rtol 1e-6;
* SMAC's steady-state suggest stays ≤ 60 ms at n=400 and a batch of 8
  costs ≤ 2× a single suggest.

Exactness of the shortcuts (forest grower vs the recursive reference tree,
analytic vs finite-difference NLL gradients) is tier-1's job:
``tests/test_forest.py`` and ``tests/test_gp_incremental.py``.

Latency numbers for BO and SMAC at n ∈ {50, 200, 400} are written to
``BENCH_surrogate.json`` so future PRs can track the perf trajectory.
Heavy timing tests carry the ``perf`` marker (opt out with ``-m 'not
perf'``); CI runs the whole file in a separate non-blocking job.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import Objective
from repro.optimizers import BayesianOptimizer, SMACOptimizer
from repro.optimizers.gp import GaussianProcessRegressor, default_kernel
from repro.space import ConfigurationSpace, FloatParameter

SCORE = Objective("score", minimize=True)
TRIAL_COUNTS = (50, 200, 400)
DIMS = 8
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_surrogate.json"


def _space(seed=0):
    space = ConfigurationSpace("e24", seed=seed)
    for i in range(DIMS):
        space.add(FloatParameter(f"x{i}", 0.0, 1.0, default=0.5))
    return space


def _score(config):
    return float(sum((config[f"x{i}"] - 0.3) ** 2 for i in range(DIMS)))


def _best_of(fn, repeats=5):
    """Best-of-k wall-clock in milliseconds (robust to scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, (time.perf_counter() - t0) * 1e3)
    return best


def _grown_data(n, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, DIMS))
    y = np.sin(X @ np.linspace(0.5, 2.5, DIMS)) + 0.02 * rng.standard_normal(n)
    return X, y


def _write_bench(payload: dict) -> None:
    merged = {}
    if OUT_PATH.exists():
        try:
            merged = json.loads(OUT_PATH.read_text())
        except json.JSONDecodeError:
            merged = {}
    merged.update(payload)
    OUT_PATH.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")


@pytest.mark.perf
def test_e24_incremental_conditioning_speedup(emit, table):
    """Acceptance: rank-k append ≥3× faster than full refit at n=400,
    posteriors matching within rtol 1e-6."""
    def fresh():
        return GaussianProcessRegressor(kernel=default_kernel(DIMS), optimize_hypers=False)

    rows = []
    results = {}
    for n in TRIAL_COUNTS:
        X, y = _grown_data(n + 1)
        # Warm on the first n rows, then time conditioning on one more; the
        # full-refit baseline is a fresh GP (first fit = full factorization).
        fast = fresh().fit(X[:n], y[:n])
        t_inc = _best_of(lambda: fast.fit(X, y))
        t_full = _best_of(lambda: fresh().fit(X, y))
        slow = fresh().fit(X, y)
        assert fast.stats.cholesky_incremental >= 1
        assert slow.stats.cholesky_incremental == 0
        Xq = np.random.default_rng(9).random((128, DIMS))
        m_fast, s_fast = fast.predict(Xq, return_std=True)
        m_slow, s_slow = slow.predict(Xq, return_std=True)
        np.testing.assert_allclose(m_fast, m_slow, rtol=1e-6, atol=1e-10)
        np.testing.assert_allclose(s_fast, s_slow, rtol=1e-6, atol=1e-10)
        speedup = t_full / t_inc
        rows.append((n, f"{t_full:.2f}", f"{t_inc:.2f}", f"{speedup:.1f}x"))
        results[str(n)] = {
            "full_refit_ms": t_full,
            "incremental_ms": t_inc,
            "speedup": speedup,
        }
    table(
        "E24 — GP conditioning latency: full refit vs incremental Cholesky",
        ["n trials", "full refit (ms)", "incremental (ms)", "speedup"],
        rows,
    )
    _write_bench({"gp_conditioning": results})
    assert results["400"]["speedup"] >= 3.0


@pytest.mark.perf
def test_e24_suggest_latency_curve(emit, table):
    """Suggest latency vs trial count for BO and SMAC (recorded, not gated)."""
    rows = []
    results = {"bo": {}, "smac": {}}
    for n in TRIAL_COUNTS:
        bo = BayesianOptimizer(
            _space(0), n_init=8, n_candidates=64, refit_every=64, objectives=SCORE, seed=0
        )
        smac = SMACOptimizer(
            _space(1), n_init=8, n_candidates=64, n_trees=16, objectives=SCORE, seed=0
        )
        rng = np.random.default_rng(n)
        for opt in (bo, smac):
            for _ in range(n):
                config = opt.space.sample(rng)
                opt.observe(config, _score(config))
        # Steady-state: each timed suggest follows a fresh observation, so
        # the surrogate update (conditioning, not hyper-refit) is included.
        def bo_step():
            config = bo.suggest()[0]
            bo.observe(config, _score(config))

        def smac_step():
            config = smac.suggest()[0]
            smac.observe(config, _score(config))

        bo_ms = _best_of(bo_step, repeats=5)
        smac_ms = _best_of(smac_step, repeats=3)
        results["bo"][str(n)] = bo_ms
        results["smac"][str(n)] = smac_ms
        rows.append((n, f"{bo_ms:.1f}", f"{smac_ms:.1f}"))
    results["bo_surrogate_stats"] = bo.surrogate_stats()  # n=400 snapshot
    table(
        "E24 — suggest latency (ms, best-of-k, incl. surrogate update)",
        ["n trials", "GP-BO", "SMAC-RF"],
        rows,
    )
    _write_bench({"suggest_latency_ms": results})
    # Sanity only: latency must not explode cubically between 200 and 400.
    assert results["bo"]["400"] < results["bo"]["200"] * 8


@pytest.mark.perf
def test_e24_smac_suggest_and_batch_gates(emit, table):
    """Acceptance for the vectorized-forest overhaul (ISSUE 8):

    * SMAC suggest ≤ 60 ms at n=400;
    * batch ``suggest(n=8)`` costs ≤ 2× a single suggest (constant-liar
      fantasies on one routed candidate pool, one fit for the whole batch).
    """
    n = 400

    def _grown_smac():
        # interleave=0: every suggest is model-guided, so best-of-k timing
        # never picks up a ~0.1ms random-interleave slot.
        opt = SMACOptimizer(
            _space(1), n_init=8, n_trees=24, n_candidates=512, interleave=0,
            objectives=SCORE, seed=0,
        )
        rng = np.random.default_rng(n)
        for _ in range(n):
            config = opt.space.sample(rng)
            opt.observe(config, _score(config))
        return opt

    # Steady-state single-suggest latency (each suggest follows a fresh
    # observation, so the cadenced surrogate update is included).
    fast = _grown_smac()

    def fast_step():
        config = fast.suggest()[0]
        fast.observe(config, _score(config))

    fast_ms = _best_of(fast_step, repeats=5)

    # Batch amortization: one fit + one routed pool for all 8 picks.
    batch = _grown_smac()
    batch.suggest()  # absorb the pending fit so single/batch start equal
    single_ms = _best_of(lambda: batch.suggest(1), repeats=5)
    batch_ms = _best_of(lambda: batch.suggest(8), repeats=5)

    stats = fast.surrogate_stats()
    table(
        "E24 — SMAC suggest overhaul (n=400, 512 candidates, 24 trees)",
        ["metric", "value"],
        [
            ("suggest (vectorized forest)", f"{fast_ms:.1f} ms"),
            ("suggest(1) after warm fit", f"{single_ms:.1f} ms"),
            ("suggest(8) constant-liar batch", f"{batch_ms:.1f} ms"),
            ("batch/single cost ratio", f"{batch_ms / single_ms:.2f}x"),
            ("forest fits / partial_fits", f"{stats['n_fits']:.0f} / {stats['n_partial_fits']:.0f}"),
        ],
    )
    _write_bench({
        "smac_suggest": {
            "n": n,
            "suggest_ms": fast_ms,
            "single_suggest_ms": single_ms,
            "batch8_suggest_ms": batch_ms,
            "batch_amortization": batch_ms / single_ms,
        }
    })
    assert fast_ms <= 60.0, f"SMAC suggest {fast_ms:.1f}ms exceeds the 60ms gate"
    assert batch_ms <= 2.0 * single_ms, (
        f"batch of 8 costs {batch_ms / single_ms:.2f}x a single suggest"
    )


def test_e24_smac_telemetry_counters_exposed():
    """SMAC's suggest path must surface forest fit/predict/fantasy counters."""
    smac = SMACOptimizer(_space(3), n_init=4, n_candidates=32, n_trees=8, objectives=SCORE, seed=3)
    rng = np.random.default_rng(3)
    for _ in range(8):
        config = smac.suggest()[0]
        smac.observe(config, _score(config))
    smac.suggest(4)
    stats = smac.surrogate_stats()
    for key in (
        "fit_ms",
        "predict_ms",
        "n_fits",
        "n_partial_fits",
        "n_trees",
        "n_nodes",
        "pending_fantasies",
        "fantasies_total",
        "encode_cache_hits",
    ):
        assert key in stats
    assert stats["n_fits"] >= 1
    assert stats["n_trees"] == 8
    assert stats["fantasies_total"] >= 1
    assert stats["pending_fantasies"] == 0  # always discarded after a batch


def test_e24_telemetry_counters_exposed():
    """The suggest path must surface cholesky_ms / nll_evals / cache hits."""
    bo = BayesianOptimizer(_space(2), n_init=4, n_candidates=32, objectives=SCORE, seed=2)
    rng = np.random.default_rng(2)
    for _ in range(10):
        config = bo.suggest()[0]
        bo.observe(config, _score(config))
    stats = bo.surrogate_stats()
    for key in (
        "cholesky_ms",
        "fit_ms",
        "nll_evals",
        "cholesky_full",
        "cholesky_incremental",
        "kernel_constructions",
        "distance_cache_hits",
        "encode_cache_hits",
    ):
        assert key in stats
    assert stats["nll_evals"] > 0
    assert stats["encode_cache_hits"] > 0
