"""Random-forest regression with predictive uncertainty (SMAC's surrogate).

"Random Forest: SMAC — learn f̂(x) with RF, use regression tree outputs to
estimate mean and variance" (slide 50). Trees split on encoded features, so
categorical knobs are handled natively without imposing an order — the
alternative-surrogate answer to discrete/hybrid spaces on slide 51.

Implemented from scratch on numpy: variance-reduction splits, bootstrap
bagging, and the SMAC-style uncertainty estimate (variance of tree means
plus mean of leaf variances).

Trees are grown breadth-first by :func:`_grow_tree_arrays`, straight into
flat node arrays (``feature``/``threshold``/``left``/``right``/``value``/
``variance``): a whole level's splits are searched at once with presorted
per-feature sweeps and segment prefix sums — no Python recursion on the fit
hot path. :class:`RegressionTree`, the per-node recursive CART the grower
was derived from (same split criterion, stopping rules, and tie-breaks), is
not used by the forest; it stays as the reference ``tests/test_forest.py``
compares the grower against tree by tree.

The forest also supports a warm :meth:`~RandomForestRegressor.partial_fit`
(online bagging: appended rows enter each tree's bootstrap with Poisson(1)
multiplicity; leaf statistics absorb them immediately and only stale trees
regrow) and constant-liar *fantasies* for batch suggestion
(:meth:`~RandomForestRegressor.add_fantasy` /
:meth:`~RandomForestRegressor.clear_fantasies`).

Prediction routes and scores candidates in blocks of :data:`ROW_BLOCK` rows:
all trees advance one block's rows together, so the routing state alive at
once is (trees × block), not (trees × pool). A block's leaf statistics reduce
over the tree axis of a (trees × rows) array, as the whole pool's did, so the
means and deviations are the same to the last bit.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from ..exceptions import NotFittedError, OptimizerError

__all__ = ["RegressionTree", "RandomForestRegressor", "ForestStats"]

# np.allclose defaults — the array grower replicates RegressionTree's
# constant-leaf test exactly.
_CONST_RTOL = 1e-5
_CONST_ATOL = 1e-8


@dataclass
class _Node:
    # Leaf fields
    value: float = 0.0
    variance: float = 0.0
    # Split fields (children None ⇒ leaf)
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class RegressionTree:
    """CART regression tree minimising within-node squared error."""

    def __init__(
        self,
        max_depth: int = 12,
        min_samples_leaf: int = 2,
        max_features: float | None = None,
        seed: int | None = None,
    ) -> None:
        if max_depth < 1:
            raise OptimizerError(f"max_depth must be >= 1, got {max_depth}")
        if min_samples_leaf < 1:
            raise OptimizerError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
        if max_features is not None and not 0.0 < max_features <= 1.0:
            raise OptimizerError(f"max_features must be in (0, 1], got {max_features}")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.rng = np.random.default_rng(seed)
        self._root: _Node | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RegressionTree":
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if len(X) != len(y) or len(X) == 0:
            raise OptimizerError(f"bad training data: {X.shape}, {y.shape}")
        self._n_features = X.shape[1]
        self._root = self._build(X, y, depth=0)
        self._compile()
        return self

    def _compile(self) -> None:
        """Flatten the node tree into arrays for vectorized routing.

        ``feature == -1`` marks a leaf. ``left``/``right`` hold node indices,
        so prediction is a handful of fancy-indexing sweeps (one per tree
        level) instead of a Python walk per sample.
        """
        features: list[int] = []
        thresholds: list[float] = []
        lefts: list[int] = []
        rights: list[int] = []
        values: list[float] = []
        variances: list[float] = []

        def add(node: _Node) -> int:
            i = len(features)
            features.append(-1 if node.is_leaf else node.feature)
            thresholds.append(node.threshold)
            values.append(node.value)
            variances.append(node.variance)
            lefts.append(-1)
            rights.append(-1)
            if not node.is_leaf:
                lefts[i] = add(node.left)
                rights[i] = add(node.right)
            return i

        add(self._root)
        self._features = np.array(features, dtype=np.intp)
        self._thresholds = np.array(thresholds)
        self._lefts = np.array(lefts, dtype=np.intp)
        self._rights = np.array(rights, dtype=np.intp)
        self._values = np.array(values)
        self._variances = np.array(variances)

    def _route(self, X: np.ndarray) -> np.ndarray:
        """Leaf index for every row of X, routed level-by-level."""
        idx = np.zeros(len(X), dtype=np.intp)
        while True:
            f = self._features[idx]
            active = np.nonzero(f >= 0)[0]
            if len(active) == 0:
                return idx
            cur = idx[active]
            go_left = X[active, self._features[cur]] <= self._thresholds[cur]
            idx[active] = np.where(go_left, self._lefts[cur], self._rights[cur])

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        node = _Node(value=float(y.mean()), variance=float(y.var()))
        if depth >= self.max_depth or len(y) < 2 * self.min_samples_leaf or np.allclose(y, y[0]):
            return node
        split = self._best_split(X, y)
        if split is None:
            return node
        feature, threshold = split
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X[mask], y[mask], depth + 1)
        node.right = self._build(X[~mask], y[~mask], depth + 1)
        return node

    def _best_split(self, X: np.ndarray, y: np.ndarray) -> tuple[int, float] | None:
        n, d = X.shape
        features = np.arange(d)
        if self.max_features is not None:
            k = max(1, int(round(d * self.max_features)))
            features = self.rng.choice(d, size=k, replace=False)
        best: tuple[float, int, float] | None = None
        # Sequential (cumsum) totals, not np.sum's pairwise ones:
        # _grow_tree_arrays accumulates its per-node totals sequentially, and
        # exact SSE ties between features (same induced partition) must break
        # the same way in both for split parity to hold bit-for-bit.
        total_sq, total_sum = float(np.cumsum(y * y)[-1]), float(np.cumsum(y)[-1])
        for f in features:
            order = np.argsort(X[:, f], kind="stable")
            xs, ys = X[order, f], y[order]
            csum = np.cumsum(ys)
            csq = np.cumsum(ys * ys)
            # Candidate split after position i (1-based sizes).
            sizes = np.arange(1, n)
            valid = (xs[:-1] < xs[1:]) & (sizes >= self.min_samples_leaf) & (n - sizes >= self.min_samples_leaf)
            if not valid.any():
                continue
            left_sse = csq[:-1] - csum[:-1] ** 2 / sizes
            right_sum = total_sum - csum[:-1]
            right_sq = total_sq - csq[:-1]
            right_sse = right_sq - right_sum**2 / (n - sizes)
            sse = np.where(valid, left_sse + right_sse, np.inf)
            i = int(np.argmin(sse))
            if np.isfinite(sse[i]) and (best is None or sse[i] < best[0]):
                best = (float(sse[i]), int(f), float((xs[i] + xs[i + 1]) / 2.0))
        if best is None:
            return None
        return best[1], best[2]

    def predict(self, X: np.ndarray, return_var: bool = False):
        if self._root is None:
            raise NotFittedError("tree is not fitted")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        idx = self._route(X)
        mean = self._values[idx]
        if not return_var:
            return mean
        return mean, self._variances[idx]


@dataclass
class _TreeArrays:
    """One tree flattened into parallel node arrays (``feature == -1`` ⇒ leaf)."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    variance: np.ndarray
    count: np.ndarray  # training rows per node (float for streaming updates)

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def route(self, X: np.ndarray) -> np.ndarray:
        """Leaf index for every row of X, routed level-by-level."""
        idx = np.zeros(len(X), dtype=np.intp)
        while True:
            f = self.feature[idx]
            active = np.nonzero(f >= 0)[0]
            if len(active) == 0:
                return idx
            cur = idx[active]
            go_left = X[active, self.feature[cur]] <= self.threshold[cur]
            idx[active] = np.where(go_left, self.left[cur], self.right[cur])

    def absorb(self, X: np.ndarray, y: np.ndarray) -> None:
        """Stream new observations into leaf statistics without regrowing.

        Leaf mean/variance update via running (count, sum, sum-of-squares);
        the split structure is untouched, so the tree gradually goes stale
        until the forest regrows it from its full bootstrap.
        """
        leaves = self.route(X)
        s = self.value * self.count
        sq = (self.variance + self.value**2) * self.count
        cnt = self.count.copy()
        np.add.at(s, leaves, y)
        np.add.at(sq, leaves, y * y)
        np.add.at(cnt, leaves, 1.0)
        touched = np.zeros(self.n_nodes, dtype=bool)
        touched[leaves] = True
        denom = np.maximum(cnt, 1.0)
        self.value = np.where(touched, s / denom, self.value)
        self.variance = np.where(
            touched, np.maximum(sq / denom - (s / denom) ** 2, 0.0), self.variance
        )
        self.count = cnt


def _grow_tree_arrays(
    X: np.ndarray,
    y: np.ndarray,
    max_depth: int,
    min_samples_leaf: int,
    max_features: float | None,
    rng: np.random.Generator,
) -> _TreeArrays:
    """Grow one CART tree breadth-first, directly into flat node arrays.

    Split criterion, stopping rules, and tie-breaks replicate
    :meth:`RegressionTree._build` (first feature / first position wins on
    ties, midpoint thresholds, ``np.allclose`` constant-leaf test), but an
    entire level is searched at once: for each feature the level's rows are
    presorted with one ``lexsort`` keyed by (node, value), and every node's
    candidate SSEs come from segment prefix sums over that ordering.
    """
    n, d = X.shape
    n_sub = None
    if max_features is not None:
        n_sub = max(1, int(round(d * max_features)))
        if n_sub >= d:
            n_sub = None

    chunks: list[tuple[np.ndarray, ...]] = []
    rows = np.arange(n, dtype=np.intp)
    nid = np.zeros(n, dtype=np.intp)  # local node index within the level
    base = 0  # global id of the level's first node (BFS ids are contiguous)
    m = 1
    depth = 0

    while len(rows):
        order = np.argsort(nid, kind="stable")
        rows, nid = rows[order], nid[order]
        counts = np.bincount(nid, minlength=m)
        starts = np.zeros(m, dtype=np.intp)
        np.cumsum(counts[:-1], out=starts[1:])

        ys = y[rows]
        means = np.add.reduceat(ys, starts) / counts
        dev = ys - means[nid]
        variances = np.add.reduceat(dev * dev, starts) / counts

        lv_feature = np.full(m, -1, dtype=np.intp)
        lv_threshold = np.zeros(m)
        lv_left = np.full(m, -1, dtype=np.intp)
        lv_right = np.full(m, -1, dtype=np.intp)

        # Constant-leaf test, matching allclose(y, y[0]) bit-for-bit:
        # |yᵢ−y₀| ≤ atol + rtol·|y₀| ⇔ |yᵢ−y₀| − (atol + rtol·|y₀|) ≤ 0
        # (IEEE subtraction preserves the comparison's sign exactly).
        y0 = ys[starts]
        thresh = _CONST_ATOL + _CONST_RTOL * np.abs(y0[nid])
        excess = np.abs(ys - y0[nid]) - thresh
        allconst = np.maximum.reduceat(excess, starts) <= 0.0
        trym = ~((depth >= max_depth) | (counts < 2 * min_samples_leaf) | allconst)

        if not trym.any():
            chunks.append((lv_feature, lv_threshold, lv_left, lv_right, means, variances, counts))
            break

        # Compact the level to the nodes still looking for a split.
        t_idx = np.nonzero(trym)[0]
        mt = len(t_idx)
        remap = np.full(m, -1, dtype=np.intp)
        remap[t_idx] = np.arange(mt)
        rmask = trym[nid]
        rows_t = rows[rmask]
        nid_t = remap[nid[rmask]]
        cnt_t = counts[t_idx]
        starts_t = np.zeros(mt, dtype=np.intp)
        np.cumsum(cnt_t[:-1], out=starts_t[1:])

        allow = None
        if n_sub is not None:
            # Per-node feature subset, drawn as the n_sub smallest of d
            # uniforms — one vectorized draw for the whole level.
            r = rng.random((mt, d))
            pick = np.argpartition(r, n_sub - 1, axis=1)[:, :n_sub]
            allow = np.zeros((mt, d), dtype=bool)
            np.put_along_axis(allow, pick, True, axis=1)

        R = len(rows_t)
        pos = np.arange(R)
        seg = nid_t  # ascending; lexsort below keeps segments in place
        col = pos - starts_t[seg]  # position within the segment
        lsize = col + 1
        rsize = cnt_t[seg] - lsize
        cmax = int(cnt_t.max())
        # Per-node *local* prefix sums via one padded (node × position)
        # cumsum: each row accumulates sequentially from its own segment
        # start, bit-identical to the per-node cumsum RegressionTree
        # computes — so exact SSE ties between features that induce the
        # same partition (common at small nodes) resolve to the first
        # feature in both. A global cumsum minus segment offsets would
        # perturb those ties and flip splits. The pad past each segment's
        # end is never written or read, but the cumsum runs over it, so it
        # must be zeros: uninitialised memory there overflows to inf/nan.
        P = np.zeros((mt, cmax))
        rowsel = np.arange(mt)
        # Node totals accumulate over *node order* (not per-feature sorted
        # order), shared by every feature — the same single sequential sum
        # RegressionTree takes before its feature loop. Per-feature
        # totals would sum in a different order, drift by an ulp, and flip
        # exact SSE ties.
        ysn = y[rows_t]
        P[seg, col] = ysn
        tot_sum = np.cumsum(P, axis=1)[rowsel, cnt_t - 1]
        P[seg, col] = ysn * ysn
        tot_sq = np.cumsum(P, axis=1)[rowsel, cnt_t - 1]
        best_sse = np.full((mt, d), np.inf)
        best_thr = np.zeros((mt, d))
        for f in range(d):
            xf = X[rows_t, f]
            order_f = np.lexsort((xf, nid_t))
            xs = xf[order_f]
            ysf = y[rows_t[order_f]]
            P[seg, col] = ysf
            csumM = np.cumsum(P, axis=1)
            left_sum = csumM[seg, col]
            P[seg, col] = ysf * ysf
            csqM = np.cumsum(P, axis=1)
            left_sq = csqM[seg, col]
            valid = np.zeros(R, dtype=bool)
            if R > 1:
                valid[:-1] = (seg[:-1] == seg[1:]) & (xs[:-1] < xs[1:])
            valid &= (lsize >= min_samples_leaf) & (rsize >= min_samples_leaf)
            with np.errstate(invalid="ignore", divide="ignore"):
                lsse = left_sq - left_sum**2 / lsize
                rsum = tot_sum[seg] - left_sum
                rsq = tot_sq[seg] - left_sq
                rsse = rsq - rsum**2 / np.maximum(rsize, 1)
            sse = np.where(valid, lsse + rsse, np.inf)
            seg_min = np.minimum.reduceat(sse, starts_t)
            # First position attaining each segment's min (argmin semantics).
            hit = np.where(sse == seg_min[seg], pos, R)
            arg = np.minimum.reduceat(hit, starts_t)
            ok = np.isfinite(seg_min)
            best_sse[:, f] = np.where(ok, seg_min, np.inf)
            safe = np.where(ok, arg, 0)
            best_thr[:, f] = (xs[safe] + xs[np.minimum(safe + 1, R - 1)]) / 2.0

        if allow is not None:
            best_sse = np.where(allow, best_sse, np.inf)
        fbest = np.argmin(best_sse, axis=1)  # first feature wins ties
        can_split = np.isfinite(best_sse[np.arange(mt), fbest])
        split_t = np.nonzero(can_split)[0]
        ns = len(split_t)

        if ns:
            feat_sel = fbest[split_t]
            thr_sel = best_thr[split_t, feat_sel]
            local = t_idx[split_t]
            left_ids = base + m + 2 * np.arange(ns)
            lv_feature[local] = feat_sel
            lv_threshold[local] = thr_sel
            lv_left[local] = left_ids
            lv_right[local] = left_ids + 1
        chunks.append((lv_feature, lv_threshold, lv_left, lv_right, means, variances, counts))
        if ns == 0:
            break

        # Route the split nodes' rows to their children for the next level.
        remap2 = np.full(mt, -1, dtype=np.intp)
        remap2[split_t] = np.arange(ns)
        k_of = remap2[nid_t]
        keep = k_of >= 0
        rows_n = rows_t[keep]
        k_of = k_of[keep]
        go_left = X[rows_n, feat_sel[k_of]] <= thr_sel[k_of]
        rows = rows_n
        nid = 2 * k_of + np.where(go_left, 0, 1)
        base += m
        m = 2 * ns
        depth += 1

    return _TreeArrays(
        feature=np.concatenate([c[0] for c in chunks]),
        threshold=np.concatenate([c[1] for c in chunks]),
        left=np.concatenate([c[2] for c in chunks]),
        right=np.concatenate([c[3] for c in chunks]),
        value=np.concatenate([c[4] for c in chunks]),
        variance=np.concatenate([c[5] for c in chunks]),
        count=np.concatenate([c[6] for c in chunks]).astype(float),
    )


@dataclass
class ForestStats:
    """Fit/predict counters for the forest surrogate (mirrors the GP's
    ``SurrogateStats``); exported as telemetry gauges via
    ``surrogate_stats()``."""

    n_fits: int = 0
    n_partial_fits: int = 0
    trees_grown: int = 0
    fit_ms: float = 0.0
    predict_ms: float = 0.0
    n_predicts: int = 0
    n_trees: int = 0
    n_nodes: int = 0
    pending_fantasies: int = 0
    fantasies_total: int = 0

    def to_dict(self) -> dict[str, float]:
        return {k: float(v) for k, v in asdict(self).items()}


#: A tree regrows during ``partial_fit`` once its pending bootstrap appends reach this
#: fraction of its bootstrap size; one tree per call regrows regardless (round-robin).
STALE_FRACTION = 0.25
#: Share of the features each split of a forest tree considers.
MAX_FEATURES = 0.8
#: Rows routed and scored together by :meth:`RandomForestRegressor.predict`.
ROW_BLOCK = 64


def _row_blocks(n: int) -> list[slice]:
    """Slices of at most :data:`ROW_BLOCK` rows covering ``range(n)``. A
    one-row tail joins the block before it: numpy reduces a (trees × 1)
    array pairwise, not tree by tree, which can move the last bit of a
    row's mean away from what the same row reads inside a wider block."""
    edges = [*range(0, n, ROW_BLOCK), n]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


class RandomForestRegressor:
    """Bagged regression trees with SMAC-style mean/variance prediction."""

    def __init__(
        self,
        n_trees: int = 24,
        max_depth: int = 12,
        min_samples_leaf: int = 2,
        seed: int | None = None,
    ) -> None:
        if n_trees < 1:
            raise OptimizerError(f"n_trees must be >= 1, got {n_trees}")
        self.n_trees = int(n_trees)
        self.rng = np.random.default_rng(seed)
        self._tree_params = dict(
            max_depth=max_depth, min_samples_leaf=min_samples_leaf, max_features=MAX_FEATURES
        )
        self._trees: list[_TreeArrays] = []
        self._boot: list[np.ndarray] = []
        self._tree_seeds: list[int] = []
        self._pending: list[int] = []
        self._regrow_cursor = 0
        self._X: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self._fantasy_backup: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self.stats = ForestStats()

    @property
    def is_fitted(self) -> bool:
        return bool(self._trees)

    def stats_dict(self) -> dict[str, float]:
        return self.stats.to_dict()

    def _grow(self, idx: np.ndarray, seed: int) -> _TreeArrays:
        return _grow_tree_arrays(
            self._X[idx], self._y[idx], rng=np.random.default_rng(seed), **self._tree_params
        )

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if len(X) != len(y) or len(X) == 0:
            raise OptimizerError(f"bad training data: {X.shape}, {y.shape}")
        t0 = time.perf_counter()
        self._fantasy_backup = None
        self.stats.pending_fantasies = 0
        self._X, self._y = X.copy(), y.copy()
        self._trees, self._boot, self._tree_seeds, self._pending = [], [], [], []
        n = len(X)
        for _ in range(self.n_trees):
            idx = self.rng.integers(0, n, size=n)  # bootstrap
            seed = int(self.rng.integers(2**31))
            self._trees.append(self._grow(idx, seed))
            self._boot.append(idx)
            self._tree_seeds.append(seed)
            self._pending.append(0)
        self._compile()
        self.stats.n_fits += 1
        self.stats.trees_grown += self.n_trees
        self.stats.fit_ms += (time.perf_counter() - t0) * 1e3
        return self

    def partial_fit(self, X_new: np.ndarray, y_new: np.ndarray) -> "RandomForestRegressor":
        """Warm update with appended observations (online bagging).

        Each new row enters each tree's bootstrap with Poisson(1)
        multiplicity (Oza & Russell). Trees absorb their copies into leaf
        statistics immediately; a tree only regrows from its full bootstrap
        once ``STALE_FRACTION`` of it is pending (plus one round-robin
        regrow per call), so the per-call cost is a small, bounded slice of
        a full refit.
        """
        if not self.is_fitted:
            raise NotFittedError("partial_fit needs a fitted forest; call fit first")
        X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
        y_new = np.asarray(y_new, dtype=float).ravel()
        if len(X_new) != len(y_new) or len(X_new) == 0:
            raise OptimizerError(f"bad update data: {X_new.shape}, {y_new.shape}")
        if X_new.shape[1] != self._X.shape[1]:
            raise OptimizerError(
                f"feature-count mismatch: fitted {self._X.shape[1]}, got {X_new.shape[1]}"
            )
        t0 = time.perf_counter()
        self._fantasy_backup = None
        self.stats.pending_fantasies = 0
        start = len(self._X)
        self._X = np.vstack([self._X, X_new])
        self._y = np.concatenate([self._y, y_new])
        new_ids = np.arange(start, len(self._X))

        extras: list[np.ndarray] = []
        for t in range(self.n_trees):
            reps = self.rng.poisson(1.0, size=len(new_ids))
            extra = np.repeat(new_ids, reps)
            extras.append(extra)
            self._boot[t] = np.concatenate([self._boot[t], extra])
            self._pending[t] += len(extra)

        regrow = {
            t
            for t in range(self.n_trees)
            if self._pending[t] >= STALE_FRACTION * len(self._boot[t])
        }
        cursor = self._regrow_cursor % self.n_trees
        self._regrow_cursor += 1
        if self._pending[cursor] > 0:
            regrow.add(cursor)
        for t in range(self.n_trees):
            if t in regrow:
                self._trees[t] = self._grow(self._boot[t], self._tree_seeds[t])
                self._pending[t] = 0
            elif len(extras[t]):
                self._trees[t].absorb(self._X[extras[t]], self._y[extras[t]])
        self._compile()
        self.stats.n_partial_fits += 1
        self.stats.trees_grown += len(regrow)
        self.stats.fit_ms += (time.perf_counter() - t0) * 1e3
        return self

    def _compile(self) -> None:
        """Concatenate all trees' node arrays so one routing sweep predicts
        the whole ensemble — (n_trees × n_samples) states advance together,
        one vectorized step per tree level."""
        offsets = np.cumsum([0] + [t.n_nodes for t in self._trees[:-1]])
        self._roots = np.asarray(offsets, dtype=np.intp)
        self._features = np.concatenate([t.feature for t in self._trees])
        self._thresholds = np.concatenate([t.threshold for t in self._trees])
        # Child indices shift by each tree's offset; leaves keep -1.
        lefts, rights = [], []
        for t, off in zip(self._trees, offsets):
            internal = t.feature >= 0
            lefts.append(np.where(internal, t.left + off, -1))
            rights.append(np.where(internal, t.right + off, -1))
        self._lefts = np.concatenate(lefts)
        self._rights = np.concatenate(rights)
        self._values = np.concatenate([t.value for t in self._trees])
        self._variances = np.concatenate([t.variance for t in self._trees])
        self._counts = np.concatenate([t.count for t in self._trees])
        self.stats.n_trees = len(self._trees)
        self.stats.n_nodes = len(self._features)

    def _route_compiled(self, X: np.ndarray) -> np.ndarray:
        """Leaf index in the concatenated arrays for every (tree, row) pair,
        tree-major (``t·n + i``), routed one row block at a time."""
        leaves = np.empty((self.n_trees, len(X)), dtype=np.intp)
        for rows in _row_blocks(len(X)):
            leaves[:, rows] = self._route_block(X[rows]).reshape(self.n_trees, -1)
        return leaves.reshape(-1)

    def _route_block(self, X: np.ndarray) -> np.ndarray:
        """Leaf indices of ``X``'s rows in every tree (tree-major), all
        (tree, row) states advancing one vectorized step per tree level."""
        n = len(X)
        idx = np.repeat(self._roots, n)
        col = np.tile(np.arange(n), self.n_trees)
        while True:
            f = self._features[idx]
            active = np.nonzero(f >= 0)[0]
            if len(active) == 0:
                return idx
            cur = idx[active]
            go_left = X[col[active], self._features[cur]] <= self._thresholds[cur]
            idx[active] = np.where(go_left, self._lefts[cur], self._rights[cur])

    def _moments(self, leaves: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mean/std of one row block from its tree-major leaf indices."""
        n = len(leaves) // self.n_trees
        means = self._values[leaves].reshape(self.n_trees, n)
        # Law of total variance across the ensemble.
        variances = self._variances[leaves].reshape(self.n_trees, n)
        var = means.var(axis=0) + variances.mean(axis=0)
        return means.mean(axis=0), np.sqrt(np.maximum(var, 1e-12))

    # -- constant-liar fantasies ---------------------------------------------
    def add_fantasy(self, x: np.ndarray, y_lie: float) -> None:
        """Condition predictions on a pretend observation without refitting.

        The lie enters every tree's routed leaf statistics in the *compiled*
        arrays only — per-tree arrays are untouched, so
        :meth:`clear_fantasies` (or any recompile) restores the honest
        posterior exactly. Used by batch suggestion to push later picks away
        from already-chosen points.
        """
        if not self.is_fitted:
            raise NotFittedError("add_fantasy needs a fitted forest")
        if self._fantasy_backup is None:
            self._fantasy_backup = (
                self._values.copy(),
                self._variances.copy(),
                self._counts.copy(),
            )
        x = np.atleast_2d(np.asarray(x, dtype=float))
        leaves = self._route_compiled(x)
        y_lie = float(y_lie)
        s = self._values * self._counts
        sq = (self._variances + self._values**2) * self._counts
        np.add.at(s, leaves, y_lie)
        np.add.at(sq, leaves, y_lie**2)
        np.add.at(self._counts, leaves, 1.0)
        touched = np.unique(leaves)
        cnt = self._counts[touched]
        self._values[touched] = s[touched] / cnt
        self._variances[touched] = np.maximum(
            sq[touched] / cnt - (s[touched] / cnt) ** 2, 0.0
        )
        self.stats.pending_fantasies += 1
        self.stats.fantasies_total += 1

    def clear_fantasies(self) -> None:
        """Discard all pending fantasies, restoring the honest posterior."""
        if self._fantasy_backup is not None:
            self._values, self._variances, self._counts = self._fantasy_backup
            self._fantasy_backup = None
        self.stats.pending_fantasies = 0

    def route_leaves(self, X: np.ndarray) -> np.ndarray:
        """Leaf indices for ``X`` — the routing half of :meth:`predict`.

        Routing depends only on split structure, never on leaf statistics,
        so a cached result stays valid across :meth:`add_fantasy` /
        :meth:`clear_fantasies`. Batch suggestion routes its candidate pool
        once and rescores each pick from the cached leaves. Its time counts
        in ``stats.predict_ms``.
        """
        if not self._trees:
            raise NotFittedError("forest is not fitted")
        t0 = time.perf_counter()
        leaves = self._route_compiled(np.atleast_2d(np.asarray(X, dtype=float)))
        self.stats.predict_ms += (time.perf_counter() - t0) * 1e3
        return leaves

    def predict_from_leaves(self, leaves: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mean/std from cached :meth:`route_leaves` output (current leaf
        statistics, including any pending fantasies); one predict in
        ``stats``."""
        t0 = time.perf_counter()
        by_tree = leaves.reshape(self.n_trees, -1)
        mean, std = np.empty(by_tree.shape[1]), np.empty(by_tree.shape[1])
        for rows in _row_blocks(by_tree.shape[1]):
            mean[rows], std[rows] = self._moments(by_tree[:, rows].reshape(-1))
        self.stats.n_predicts += 1
        self.stats.predict_ms += (time.perf_counter() - t0) * 1e3
        return mean, std

    def predict(self, X: np.ndarray, return_std: bool = False):
        if not self._trees:
            raise NotFittedError("forest is not fitted")
        t0 = time.perf_counter()
        X = np.atleast_2d(np.asarray(X, dtype=float))
        mean, std = np.empty(len(X)), np.empty(len(X))
        for rows in _row_blocks(len(X)):
            mean[rows], std[rows] = self._moments(self._route_block(X[rows]))
        self.stats.n_predicts += 1
        self.stats.predict_ms += (time.perf_counter() - t0) * 1e3
        return (mean, std) if return_std else mean
