"""Surrogate hot-path correctness: incremental Cholesky parity, analytic
NLL gradients, encoding caches, and seeded suggest determinism.

They assert the *exactness* of every shortcut the suggest loop takes; how
much work each one saves is pinned by the ``counters`` block of
``tests/data/suggest_goldens.json``.
"""

import gc
import tracemalloc

import numpy as np
import pytest
from scipy import optimize

from repro.core import Objective
from repro.optimizers import (
    BayesianOptimizer,
    ConstrainedBayesianOptimizer,
    SMACOptimizer,
    StructuredBayesianOptimizer,
)
from repro.optimizers.gp import GaussianProcessRegressor, default_kernel
from repro.optimizers.kernels import RBF, ConstantKernel, Matern, WhiteKernel
from repro.space.encoding import OrdinalEncoder, TrialEncodingCache

SCORE = Objective("score", minimize=True)


def _data(n, d=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    y = np.sin(X @ np.linspace(1.0, 3.0, d)) + 0.05 * rng.standard_normal(n)
    return X, y


class TestIncrementalCholesky:
    def _pair(self, d=3):
        """Two GPs with identical kernels. ``slow`` is only ever fitted
        once per test, and a fresh GP's first fit is a full factorization —
        that is the full-refit reference the appended ``fast`` must match."""
        fast = GaussianProcessRegressor(kernel=default_kernel(d), optimize_hypers=False)
        slow = GaussianProcessRegressor(kernel=default_kernel(d), optimize_hypers=False)
        return fast, slow

    def test_single_append_parity(self):
        X, y = _data(30)
        fast, slow = self._pair()
        fast.fit(X[:29], y[:29])
        fast.fit(X, y)
        slow.fit(X, y)
        assert fast.stats.cholesky_incremental == 1
        Xq, _ = _data(16, seed=9)
        m1, s1 = fast.predict(Xq, return_std=True)
        m2, s2 = slow.predict(Xq, return_std=True)
        np.testing.assert_allclose(m1, m2, rtol=1e-6, atol=1e-10)
        np.testing.assert_allclose(s1, s2, rtol=1e-6, atol=1e-10)

    def test_block_append_parity(self):
        """Appending several rows at once (batch observe) is a rank-k update."""
        X, y = _data(40)
        fast, slow = self._pair()
        fast.fit(X[:32], y[:32])
        fast.fit(X, y)
        slow.fit(X, y)
        assert fast.stats.cholesky_incremental == 1
        np.testing.assert_allclose(fast.predict(X), slow.predict(X), rtol=1e-6)
        np.testing.assert_allclose(
            fast.log_marginal_likelihood(), slow.log_marginal_likelihood(), rtol=1e-6
        )

    def test_theta_change_forces_full_recompute(self):
        X, y = _data(20)
        fast, _ = self._pair()
        fast.fit(X[:19], y[:19])
        fast.kernel.theta = fast.kernel.theta + 0.1
        fast.fit(X, y)
        assert fast.stats.cholesky_incremental == 0
        assert fast.stats.cholesky_full == 2

    def test_modified_prefix_forces_full_recompute(self):
        X, y = _data(20)
        fast, _ = self._pair()
        fast.fit(X[:19], y[:19])
        X2 = X.copy()
        X2[3, 0] += 0.25  # history edited, not appended
        fast.fit(X2, y)
        assert fast.stats.cholesky_incremental == 0

    def test_same_inputs_new_targets_reuses_factor(self):
        """y-only changes (renormalization, lie updates) skip factorization."""
        X, y = _data(25)
        fast, slow = self._pair()
        fast.fit(X, y)
        fast.fit(X, y * 2.0 + 5.0)
        assert fast.stats.cholesky_full == 1
        slow.fit(X, y * 2.0 + 5.0)
        np.testing.assert_allclose(fast.predict(X), slow.predict(X), rtol=1e-6)

    def test_incremental_after_hyperparameter_refit(self):
        """BO cadence: refit → (incremental conditioning)* → refit."""
        X, y = _data(26)
        gp = GaussianProcessRegressor(kernel=default_kernel(3))
        gp.optimize_hypers = True
        gp.fit(X[:24], y[:24])
        gp.optimize_hypers = False
        gp.fit(X[:25], y[:25])
        gp.fit(X, y)
        assert gp.stats.cholesky_incremental == 2


class TestJitterEscalation:
    def test_near_duplicate_rows_escalate_jitter(self):
        """Noise-free kernel + duplicated rows: the base jitter fails and the
        escalation path must rescue the factorization."""
        rng = np.random.default_rng(1)
        X = np.repeat(rng.random((6, 2)), 3, axis=0)
        y = rng.standard_normal(len(X))
        gp = GaussianProcessRegressor(
            kernel=ConstantKernel(1.0) * RBF(0.5), optimize_hypers=False, jitter=0.0
        )
        gp.fit(X, y)
        assert gp.stats.jitter_escalations >= 1
        mean, std = gp.predict(X[:4], return_std=True)
        assert np.all(np.isfinite(mean)) and np.all(np.isfinite(std))

    def test_escalation_disables_incremental_path(self):
        """An escalated factor is not a valid prefix for the rank-k append —
        the next fit must refactorize from scratch for exact parity."""
        rng = np.random.default_rng(2)
        X = np.repeat(rng.random((5, 2)), 3, axis=0)
        y = rng.standard_normal(len(X))
        gp = GaussianProcessRegressor(
            kernel=ConstantKernel(1.0) * RBF(0.5), optimize_hypers=False, jitter=0.0
        )
        gp.fit(X, y)
        assert gp.stats.jitter_escalations >= 1
        X2 = np.vstack([X, rng.random((1, 2))])
        y2 = np.append(y, 0.0)
        gp.fit(X2, y2)
        assert gp.stats.cholesky_incremental == 0


class TestAnalyticGradients:
    @pytest.mark.parametrize(
        "kernel_fn",
        [
            lambda: ConstantKernel(1.5) * RBF(np.full(3, 0.4)) + WhiteKernel(1e-2),
            lambda: Matern(0.5, nu=0.5),
            lambda: Matern(np.full(3, 0.3), nu=1.5),
            lambda: ConstantKernel(2.0) * Matern(0.3, nu=2.5) + WhiteKernel(1e-3),
        ],
    )
    def test_nll_gradient_matches_finite_differences(self, kernel_fn):
        X, y = _data(20)
        gp = GaussianProcessRegressor(kernel=kernel_fn(), optimize_hypers=False)
        gp.fit(X, y)
        theta = gp.kernel.theta.copy()
        _, grad = gp._nll_and_grad(theta.copy())
        grad_fd = optimize.approx_fprime(theta, lambda t: gp._nll(t.copy()), 1e-6)
        np.testing.assert_allclose(grad, grad_fd, rtol=1e-3, atol=1e-5)

    def test_analytic_fit_matches_lml_with_fewer_constructions(self):
        X, y = _data(25)
        analytic = GaussianProcessRegressor(kernel=default_kernel(3), seed=0).fit(X, y)
        # Baseline: the same search (same starts, bounds, maxiter) driven by
        # finite differences of _nll instead of the analytic gradient.
        numeric = GaussianProcessRegressor(kernel=default_kernel(3), seed=0, optimize_hypers=False)
        numeric.fit(X, y)
        bounds = numeric.kernel.bounds
        starts = [numeric.kernel.theta.copy(), numeric.rng.uniform(bounds[:, 0], bounds[:, 1])]
        fits = [
            optimize.minimize(
                numeric._nll, start, method="L-BFGS-B", bounds=bounds, options={"maxiter": 50}
            )
            for start in starts
        ]
        numeric.kernel.theta = min(fits, key=lambda res: res.fun).x
        assert analytic.log_marginal_likelihood() >= numeric.log_marginal_likelihood() - 1e-6
        assert analytic.stats.kernel_constructions < numeric.stats.kernel_constructions

    def test_distance_cache_hits_during_fit(self):
        """θ evaluations within one fit must reuse the squared-diff tensor."""
        X, y = _data(25)
        gp = GaussianProcessRegressor(kernel=default_kernel(3), seed=0).fit(X, y)
        stats = gp.stats_dict()
        assert stats["distance_cache_hits"] > 0

    def test_gradient_evaluation_never_holds_the_derivative_tensor(self):
        """The gradient is |θ| numbers: one evaluation allocates O(n²) beside the
        kernel's cached (n, n, d) tensor, never an (n, n, |θ|) array."""
        n, d = 150, 21
        rng = np.random.default_rng(0)
        gp = GaussianProcessRegressor(kernel=default_kernel(d), optimize_hypers=False)
        gp.fit(rng.random((n, d)), rng.standard_normal(n))
        theta = gp.kernel.theta.copy()
        gp._nll_and_grad(theta)  # warm-up: the cached tensor exists from here on
        tracemalloc.start()
        try:
            gp._nll_and_grad(theta)
            allocated_at_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert allocated_at_peak <= 16 * n * n * 8  # d = 21: one tensor alone is 21·n²·8


def _kernel_arrays(gp):
    """Every array the GP's kernel tree references, its distance cache included."""
    return [value for kernel in gp.kernel.walk() for value in vars(kernel).values() if isinstance(value, np.ndarray)]


def _assert_holds_o_n2(gp):
    n = len(gp._X)
    assert max(a.size for a in _kernel_arrays(gp)) <= n * n


class TestFittedModelFootprint:
    """The distance tensor lasts one fit: a fitted GP keeps X, y, α and L⁻¹ —
    O(n²) — and no (n, n, d) array, whichever path the fit took."""

    def test_every_fit_path_leaves_no_tensor(self):
        X, y = _data(40, d=5)
        gp = GaussianProcessRegressor(kernel=default_kernel(5), seed=0)
        gp.fit(X[:30], y[:30])
        assert gp.stats.nll_evals > 0  # hyper-fit, then its recompute
        _assert_holds_o_n2(gp)
        gp.optimize_hypers = False
        edited = X[:35].copy()
        edited[0, 0] += 0.1
        gp.fit(edited, y[:35])
        assert gp.stats.cholesky_full == 2  # an edited prefix: full recompute
        _assert_holds_o_n2(gp)
        gp.fit(np.vstack([edited, X[35:]]), y)
        assert gp.stats.cholesky_incremental == 1
        _assert_holds_o_n2(gp)
        gp.log_marginal_likelihood()
        _assert_holds_o_n2(gp)

    def test_a_fitted_gp_retains_o_n2_bytes(self):
        n, d = 150, 21
        rng = np.random.default_rng(0)
        X, y = rng.random((n, d)), rng.standard_normal(n)
        gc.collect()
        tracemalloc.start()
        try:
            gp = GaussianProcessRegressor(kernel=default_kernel(d), seed=0).fit(X, y)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert gp.stats.nll_evals > 0
        assert retained < 4 * n * n * 8  # L⁻¹ is one n²; the (n, n, 21) tensor alone is 21

    @pytest.mark.parametrize("family", ["bo", "constrained", "structured"])
    def test_no_model_of_an_optimizer_holds_a_tensor(self, family, simple_space, conditional_space):
        if family == "bo":
            opt = BayesianOptimizer(simple_space, n_init=5, seed=1, n_candidates=32, objectives=SCORE)
            models = lambda: [opt.model]
        elif family == "constrained":
            opt = ConstrainedBayesianOptimizer(
                simple_space, constraint_metrics=["c1", "c2"], n_init=5, n_candidates=32, objectives=SCORE, seed=1
            )
            models = lambda: [opt.model, *opt.constraint_models.values()]
        else:
            opt = StructuredBayesianOptimizer(conditional_space, n_init=8, n_candidates=32, objectives=SCORE, seed=1)
            models = lambda: [opt.model]
        fitted = 0
        for _ in range(20):
            config = opt.suggest()[0]
            for gp in models():
                if gp.is_fitted:
                    _assert_holds_o_n2(gp)
                    fitted += 1
            unit = [config.space[name].to_unit(config[name]) for name in config.active]
            score = sum((u - 0.3) ** 2 for u in unit)
            opt.observe(config, {"score": score, "c1": unit[0] - 0.8, "c2": 0.2 - unit[-1]})
        assert fitted > 0
        if family == "bo":
            assert opt.model.stats.cholesky_incremental > 0 and opt.model.stats.nll_evals > 0


class TestSuggestDeterminism:
    def _score(self, config):
        return sum(
            (config.space[name].to_unit(config[name]) - 0.3) ** 2
            for name in config.space.names
        )

    def _run(self, make_opt, rounds=14):
        opt = make_opt()
        suggested = []
        for _ in range(rounds):
            config = opt.suggest()[0]
            suggested.append(tuple(sorted(config.as_dict().items())))
            opt.observe(config, self._score(config))
        return suggested

    def test_bo_suggest_reproducible(self, simple_space):
        make = lambda: BayesianOptimizer(
            simple_space, n_init=5, seed=7, n_candidates=32, objectives=SCORE
        )
        assert self._run(make) == self._run(make)

    def test_smac_suggest_reproducible(self, simple_space):
        make = lambda: SMACOptimizer(
            simple_space, n_init=5, seed=7, n_candidates=32, n_trees=8, objectives=SCORE
        )
        assert self._run(make) == self._run(make)

    def test_bo_uses_incremental_path_between_refits(self, simple_space):
        opt = BayesianOptimizer(
            simple_space, n_init=4, seed=3, n_candidates=32, objectives=SCORE
        )
        for _ in range(14):
            config = opt.suggest()[0]
            opt.observe(config, self._score(config))
        assert opt.model.stats.cholesky_incremental > 0
        stats = opt.surrogate_stats()
        assert stats["encode_cache_hits"] > 0
        assert stats["cholesky_ms"] >= 0.0


class TestCandidateSplit:
    def test_local_candidate_guaranteed_with_incumbent(self, simple_space):
        opt = BayesianOptimizer(simple_space, n_init=1, seed=0, n_candidates=2, objectives=SCORE)
        config = opt.suggest()[0]
        opt.observe(config, 1.0)
        opt.n_candidates = 1  # degenerate split: global share rounds to all
        cands = opt._candidates()
        assert len(cands) == 1  # the single candidate is a local neighbor


class TestTrialEncodingCache:
    def test_cache_rows_match_direct_encoding(self, simple_space):
        opt = BayesianOptimizer(simple_space, n_init=2, seed=0, objectives=SCORE)
        rng = np.random.default_rng(0)
        for _ in range(6):
            opt.observe(simple_space.sample(rng), float(rng.random()))
        trials = opt.history.completed()
        cache = TrialEncodingCache(OrdinalEncoder(simple_space))
        X1 = cache.encode_trials(trials)
        X2 = np.stack([OrdinalEncoder(simple_space).encode(t.config) for t in trials])
        np.testing.assert_allclose(X1, X2)
        # Second pass is all hits, identical rows.
        X3 = cache.encode_trials(trials)
        np.testing.assert_allclose(X1, X3)
        assert cache.hits == len(trials)
