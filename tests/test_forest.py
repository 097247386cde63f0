"""Unit tests for the from-scratch regression trees / random forest."""

import numpy as np
import pytest

from repro.exceptions import NotFittedError, OptimizerError
from repro.optimizers.forest import ROW_BLOCK, RandomForestRegressor, RegressionTree, _grow_tree_arrays


def step_function(X):
    """Piecewise-constant target: ideal for trees."""
    return np.where(X[:, 0] < 0.5, 1.0, 5.0) + np.where(X[:, 1] < 0.3, 0.0, 2.0)


@pytest.fixture
def data(rng):
    X = rng.random((120, 2))
    return X, step_function(X)


class TestRegressionTree:
    def test_fits_step_function(self, data):
        X, y = data
        tree = RegressionTree(max_depth=4, seed=0).fit(X, y)
        assert np.abs(tree.predict(X) - y).max() < 0.5

    def test_depth_one_is_single_split(self, data):
        X, y = data
        tree = RegressionTree(max_depth=1, seed=0).fit(X, y)
        assert len(np.unique(tree.predict(X))) <= 2

    def test_constant_target_is_leaf(self, rng):
        X = rng.random((20, 2))
        tree = RegressionTree(seed=0).fit(X, np.full(20, 3.0))
        assert np.all(tree.predict(X) == 3.0)

    def test_min_samples_leaf_respected(self, data):
        X, y = data
        tree = RegressionTree(max_depth=20, min_samples_leaf=30, seed=0).fit(X, y)
        _, counts = np.unique(tree.predict(X), return_counts=True)
        assert counts.min() >= 30

    def test_variance_output(self, data):
        X, y = data
        tree = RegressionTree(max_depth=2, seed=0).fit(X, y)
        mean, var = tree.predict(X, return_var=True)
        assert np.all(var >= 0)

    def test_unfitted(self):
        with pytest.raises(NotFittedError):
            RegressionTree().predict(np.zeros((1, 2)))

    def test_validation(self):
        with pytest.raises(OptimizerError):
            RegressionTree(max_depth=0)
        with pytest.raises(OptimizerError):
            RegressionTree(min_samples_leaf=0)
        with pytest.raises(OptimizerError):
            RegressionTree(max_features=1.5)
        with pytest.raises(OptimizerError):
            RegressionTree().fit(np.zeros((3, 2)), np.zeros(2))


class TestRandomForest:
    def test_fits_and_generalizes(self, data, rng):
        X, y = data
        rf = RandomForestRegressor(n_trees=16, seed=0).fit(X, y)
        Xq = rng.random((60, 2))
        assert np.abs(rf.predict(Xq) - step_function(Xq)).mean() < 0.6

    def test_uncertainty_higher_off_data(self, rng):
        """SMAC's key property: tree disagreement signals unexplored areas."""
        X = rng.random((80, 2)) * 0.4  # train only in the lower-left corner
        y = step_function(X)
        rf = RandomForestRegressor(n_trees=24, seed=0).fit(X, y)
        _, std_in = rf.predict(X[:20], return_std=True)
        _, std_out = rf.predict(np.full((20, 2), 0.9), return_std=True)
        assert std_out.mean() >= std_in.mean()

    def test_handles_categorical_onehot_blocks(self, rng):
        """Forests split on one-hot categories natively (slide 51)."""
        n = 150
        cat = rng.integers(0, 3, n)
        X = np.zeros((n, 4))
        X[np.arange(n), cat] = 1.0  # one-hot in cols 0-2
        X[:, 3] = rng.random(n)
        y = np.array([10.0, 0.0, 5.0])[cat] + 0.1 * X[:, 3]
        rf = RandomForestRegressor(n_trees=16, seed=0).fit(X, y)
        pred_cat0 = rf.predict(np.array([[1, 0, 0, 0.5]]))[0]
        pred_cat1 = rf.predict(np.array([[0, 1, 0, 0.5]]))[0]
        assert pred_cat0 - pred_cat1 > 5.0

    def test_deterministic_given_seed(self, data):
        X, y = data
        p1 = RandomForestRegressor(n_trees=8, seed=7).fit(X, y).predict(X[:10])
        p2 = RandomForestRegressor(n_trees=8, seed=7).fit(X, y).predict(X[:10])
        assert np.allclose(p1, p2)

    def test_unfitted(self):
        with pytest.raises(NotFittedError):
            RandomForestRegressor().predict(np.zeros((1, 2)))

    def test_validation(self):
        with pytest.raises(OptimizerError):
            RandomForestRegressor(n_trees=0)


def wavy(X):
    """Continuous target with plenty of near-tie split decisions."""
    return np.sin(X @ np.arange(1, X.shape[1] + 1)) + 0.5 * X[:, 0]


class TestArrayBuilderParity:
    """The vectorized level-wise grower must reproduce the recursive
    :class:`RegressionTree` tree by tree: same bootstrap + same split
    decisions => same leaf mean and variance for every query."""

    # max_features=None: feature subsampling draws rng in a different order
    # in the two, so parity is defined on the full-feature path.
    TREE = dict(max_depth=12, min_samples_leaf=2, max_features=None)

    def _assert_same_tree(self, Xb, yb, Xq):
        grown = _grow_tree_arrays(Xb, yb, rng=np.random.default_rng(0), **self.TREE)
        reference = RegressionTree(**self.TREE).fit(Xb, yb)
        for Q in (Xq, Xb):
            leaves = grown.route(Q)
            mean, var = reference.predict(Q, return_var=True)
            np.testing.assert_allclose(grown.value[leaves], mean, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(grown.variance[leaves], var, rtol=1e-9, atol=1e-12)
        # Leaf counts (what partial_fit's streaming absorb starts from) are
        # the number of training rows the reference routes to each leaf.
        ref_leaves = reference._route(Xb)
        np.testing.assert_array_equal(
            grown.count[grown.route(Xb)], np.bincount(ref_leaves)[ref_leaves]
        )

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_mean_and_std_match(self, rng, seed):
        X = rng.random((160, 5))
        y = wavy(X)
        Xq = rng.random((50, 5))
        boot_rng = np.random.default_rng(seed)
        for _ in range(4):
            idx = boot_rng.integers(0, len(X), size=len(X))  # the forest's bootstrap draw
            self._assert_same_tree(X[idx], y[idx], Xq)

    def test_parity_survives_partial_fit(self, rng):
        """A bootstrap extended the way ``partial_fit`` extends ``_boot``:
        appended row ids, each repeated Poisson(1) times."""
        X = rng.random((120, 4))
        y = wavy(X)
        boot_rng = np.random.default_rng(3)
        idx = boot_rng.integers(0, 100, size=100)
        new_ids = np.arange(100, 120)
        idx = np.concatenate([idx, np.repeat(new_ids, boot_rng.poisson(1.0, size=len(new_ids)))])
        assert len(idx) > 100
        self._assert_same_tree(X[idx], y[idx], rng.random((40, 4)))


class TestPartialFit:
    def test_requires_fit_first(self):
        with pytest.raises(NotFittedError):
            RandomForestRegressor().partial_fit(np.zeros((1, 2)), np.zeros(1))

    def test_feature_mismatch_rejected(self, data):
        X, y = data
        rf = RandomForestRegressor(n_trees=4, seed=0).fit(X, y)
        with pytest.raises(OptimizerError, match="feature-count mismatch"):
            rf.partial_fit(np.zeros((2, 5)), np.zeros(2))

    def test_absorbs_new_data_without_full_regrow(self, data, rng):
        X, y = data
        rf = RandomForestRegressor(n_trees=16, seed=0).fit(X, y)
        grown_before = rf.stats.trees_grown
        Xn = rng.random((5, 2))
        rf.partial_fit(Xn, step_function(Xn))
        assert rf.stats.n_partial_fits == 1
        # Bounded regrowth: far fewer than all 16 trees rebuilt for 5 rows.
        assert rf.stats.trees_grown - grown_before < 16
        Xq = rng.random((40, 2))
        assert np.abs(rf.predict(Xq) - step_function(Xq)).mean() < 0.7

    def test_stale_trees_regrow(self, data, rng):
        X, y = data
        rf = RandomForestRegressor(n_trees=8, seed=0).fit(X, y)
        grown_before = rf.stats.trees_grown
        Xn = rng.random((90, 2))  # 75% of the data: every tree goes stale
        rf.partial_fit(Xn, step_function(Xn))
        assert rf.stats.trees_grown - grown_before == 8


class TestFantasies:
    def test_fantasy_moves_prediction_and_clear_restores_exactly(self, data):
        X, y = data
        rf = RandomForestRegressor(n_trees=8, seed=0).fit(X, y)
        xq = X[:1]
        m0, s0 = rf.predict(xq, return_std=True)
        rf.add_fantasy(xq[0], float(y.min()) - 10.0)
        m1, _ = rf.predict(xq, return_std=True)
        assert m1[0] < m0[0]  # the low lie drags the routed leaves down
        assert rf.stats.pending_fantasies == 1
        rf.clear_fantasies()
        assert rf.stats.pending_fantasies == 0
        m2, s2 = rf.predict(xq, return_std=True)
        assert m2[0] == m0[0] and s2[0] == s0[0]  # bit-exact restore

    def test_route_leaves_valid_across_fantasies(self, data):
        X, y = data
        rf = RandomForestRegressor(n_trees=8, seed=0).fit(X, y)
        leaves = rf.route_leaves(X[:5])
        rf.add_fantasy(X[0], 0.0)
        # Fantasies touch leaf stats only — the routing is unchanged, and
        # predict_from_leaves sees the fantasized posterior.
        assert np.array_equal(rf.route_leaves(X[:5]), leaves)
        m_cached, s_cached = rf.predict_from_leaves(leaves)
        m_fresh, s_fresh = rf.predict(X[:5], return_std=True)
        assert np.array_equal(m_cached, m_fresh)
        assert np.array_equal(s_cached, s_fresh)

    def test_fit_discards_pending_fantasies(self, data):
        X, y = data
        rf = RandomForestRegressor(n_trees=4, seed=0).fit(X, y)
        rf.add_fantasy(X[0], -5.0)
        rf.fit(X, y)
        assert rf.stats.pending_fantasies == 0
        assert rf.stats.fantasies_total == 1

    def test_requires_fit(self):
        with pytest.raises(NotFittedError):
            RandomForestRegressor().add_fantasy(np.zeros(2), 0.0)
        with pytest.raises(NotFittedError):
            RandomForestRegressor().route_leaves(np.zeros((1, 2)))


class TestRowBlocks:
    """Scoring in blocks of ``ROW_BLOCK`` rows is the whole-pool sweep, bit for bit."""

    @pytest.fixture
    def forest(self, rng):
        X = rng.random((80, 5))
        return RandomForestRegressor(n_trees=24, seed=3).fit(X, np.sin(6 * X[:, 0]) + X[:, 1] * X[:, 2]), rng

    @staticmethod
    def _whole(rf, Q):
        """The unblocked computation: every (tree, row) pair of the pool in one sweep."""
        leaves = rf._route_block(Q)
        mean, std = rf._moments(leaves)
        return leaves, mean, std

    @pytest.mark.parametrize("n", [1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 512])
    @pytest.mark.parametrize("fantasies", [0, 3])
    def test_blocked_scoring_is_bit_identical(self, forest, n, fantasies):
        rf, rng = forest
        for x in rng.random((fantasies, 5)):
            rf.add_fantasy(x, -1.0)
        # Several pools: a last bit that differs shows up in about half of them.
        for Q in rng.random((8, n, 5)):
            leaves, mean, std = self._whole(rf, Q)
            blocked_mean, blocked_std = rf.predict(Q, return_std=True)
            assert np.array_equal(rf.route_leaves(Q), leaves)
            assert np.array_equal(blocked_mean, mean) and np.array_equal(blocked_std, std)
            assert np.array_equal(rf.predict(Q), mean)
            cached_mean, cached_std = rf.predict_from_leaves(leaves)
            assert np.array_equal(cached_mean, mean) and np.array_equal(cached_std, std)

    def test_batch_path_counts_in_stats(self, forest):
        rf, rng = forest
        Q = rng.random((ROW_BLOCK + 1, 5))
        before = rf.stats.n_predicts
        leaves = rf.route_leaves(Q)
        assert rf.stats.n_predicts == before and rf.stats.predict_ms > 0
        ms = rf.stats.predict_ms
        rf.predict_from_leaves(leaves)
        rf.predict_from_leaves(leaves)
        assert rf.stats.n_predicts == before + 2 and rf.stats.predict_ms > ms
