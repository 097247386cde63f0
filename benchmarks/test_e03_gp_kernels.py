"""E3 — GP surrogate quality: kernels and conditioning (slides 35–44).

Reproduces the model-side figures: (a) conditioning on observations
shrinks posterior uncertainty near data; (b) the RBF length-scale controls
smoothness (slide 44's ℓ panel); (c) Matérn ν interpolates between rough
and smooth fits (ν→∞ approaches RBF); (d) a GP fit to the Redis response
curve predicts held-out points well.
"""

import numpy as np

from repro.optimizers import RBF, ConstantKernel, GaussianProcessRegressor, Matern, WhiteKernel
from repro.sysim import QUIET_CLOUD, RedisServer

from benchmarks.conftest import P95


def _redis_curve(n=40, seed=0):
    server = RedisServer(env=QUIET_CLOUD(seed=seed), seed=seed)
    rng = np.random.default_rng(seed)
    X = rng.random((n, 1))
    y = np.array([server.kernel_response(x * 1_000_000) for x in X[:, 0]])
    return X, y, server


def test_e03_gp_model_quality(table):
    def experiment():
        X, y, server = _redis_curve(40)
        Xq = np.linspace(0, 1, 101)[:, None]
        yq = np.array([server.kernel_response(x * 1_000_000) for x in Xq[:, 0]])
        rows = []
        kernels = {
            "RBF l=0.05": ConstantKernel(1.0) * RBF(0.05) + WhiteKernel(1e-4),
            "RBF l=0.2": ConstantKernel(1.0) * RBF(0.2) + WhiteKernel(1e-4),
            "RBF l=1.0": ConstantKernel(1.0) * RBF(1.0) + WhiteKernel(1e-4),
            "Matern nu=0.5": ConstantKernel(1.0) * Matern(0.2, nu=0.5) + WhiteKernel(1e-4),
            "Matern nu=2.5": ConstantKernel(1.0) * Matern(0.2, nu=2.5) + WhiteKernel(1e-4),
        }
        preds = {}
        for name, kernel in kernels.items():
            gp = GaussianProcessRegressor(kernel=kernel, optimize_hypers=False, seed=0)
            gp.fit(X, y)
            mean, std = gp.predict(Xq, return_std=True)
            rmse = float(np.sqrt(np.mean((mean - yq) ** 2)))
            rows.append((name, rmse, float(std.mean())))
            preds[name] = rmse

        # Conditioning check: uncertainty at data vs far from data.
        gp = GaussianProcessRegressor(seed=0).fit(X[:10], y[:10])
        _, std_at = gp.predict(X[:10], return_std=True)
        _, std_far = gp.predict(np.array([[3.0]]), return_std=True)
        return rows, preds, float(std_at.mean()), float(std_far[0])

    rows, preds, std_at, std_far = experiment()
    table(
        "E3 (slides 35-44) — GP fit of the Redis kernel-response curve",
        ["kernel", "held-out RMSE", "mean posterior std"],
        rows,
    )
    table(
        "E3 — conditioning shrinks uncertainty (slide 36)",
        ["where", "posterior std"],
        [("at observed points", std_at), ("far from data", std_far)],
    )
    # Shape claims:
    # 1. The length-scale controls smoothness (slide 44): this curve has
    #    ripples on a ~0.1 scale, so fits degrade monotonically as ℓ grows
    #    past it and oversmooths them away.
    assert preds["RBF l=0.05"] < preds["RBF l=0.2"] < preds["RBF l=1.0"]
    # 2. The smooth Matérn-2.5 fits this smooth curve better than ν=0.5.
    assert preds["Matern nu=2.5"] < preds["Matern nu=0.5"]
    # 3. Conditioning: uncertainty collapses at data, stays high far away.
    assert std_at < std_far / 5
