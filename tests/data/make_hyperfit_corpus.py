"""The GP hyper-fit corpus: marginal-likelihood problems recorded from real BO campaigns.

Runs ``bo`` campaigns of 115 trials on the simulated DBMS (``dbms`` /
``tpcc-100``, 21 knobs, refused configurations included) at seeds 1 and 2
and records every problem ``GaussianProcessRegressor._optimize_theta``
solves: the training inputs, the standardised targets and both starts (the
current θ and the random restart). :func:`compare` solves each problem from
the same starts with the in-tree :func:`~repro.optimizers._dense.minimize_box`
and with scipy's L-BFGS-B (``maxiter=50``, what the GP ran before it dropped
scipy) and summarises best-of-starts NLL and evaluation counts.
``tests/test_dense.py`` holds the minimizer to the scipy reference on the
stored subset.

Regenerate the stored subset (only when the campaigns' behaviour changes on purpose)::

    PYTHONPATH=src python tests/data/make_hyperfit_corpus.py

Report the full corpus (both campaigns, every fit) without writing anything::

    PYTHONPATH=src python tests/data/make_hyperfit_corpus.py --report
"""

from __future__ import annotations

import copy
import statistics
import sys
from pathlib import Path

import numpy as np
from scipy import optimize  # the reference; the package itself has no scipy

from repro.core.evaluation import observe_evaluation, run_evaluation
from repro.core.manager import make_optimizer
from repro.optimizers import gp as gp_module
from repro.optimizers._dense import minimize_box
from repro.optimizers.gp import GaussianProcessRegressor, default_kernel
from repro.targets import make_evaluator

CORPUS_PATH = Path(__file__).resolve().parent / "hyperfit_corpus.npz"
SEEDS = (1, 2)
N_TRIALS = 115
#: Problems kept in the stored subset, spread evenly over the recorded ones.
N_STORED = 10


def record_campaign(seed: int) -> list[dict[str, np.ndarray]]:
    """Every hyper-fit problem of one ``bo`` campaign on ``dbms``/``tpcc-100``."""
    problems = []
    original = GaussianProcessRegressor._optimize_theta

    def recording(gp: GaussianProcessRegressor) -> None:
        bounds = gp.kernel.bounds
        rng = copy.deepcopy(gp.rng)  # the restarts the fit is about to draw, without drawing them
        starts = [gp.kernel.theta.copy()]
        starts += [rng.uniform(bounds[:, 0], bounds[:, 1]) for _ in range(gp_module.N_RESTARTS)]
        problems.append({"X": gp._X.copy(), "y": gp._y.copy(), "starts": np.array(starts)})
        original(gp)

    evaluator, space, objective = make_evaluator("dbms", "tpcc-100", "throughput", seed=seed)
    optimizer = make_optimizer("bo", space, objective, seed=seed)
    GaussianProcessRegressor._optimize_theta = recording
    try:
        for _ in range(N_TRIALS):
            config = optimizer.suggest()[0]
            observe_evaluation(optimizer, config, run_evaluation(evaluator, config))
    finally:
        GaussianProcessRegressor._optimize_theta = original
    return problems


def record_corpus() -> list[dict[str, np.ndarray]]:
    return [problem for seed in SEEDS for problem in record_campaign(seed)]


def save(problems: list[dict[str, np.ndarray]]) -> None:
    arrays = {f"{key}_{i}": value for i, problem in enumerate(problems) for key, value in problem.items()}
    np.savez_compressed(CORPUS_PATH, **arrays)


def load() -> list[dict[str, np.ndarray]]:
    with np.load(CORPUS_PATH) as data:
        return [{key: data[f"{key}_{i}"] for key in ("X", "y", "starts")} for i in range(len(data.files) // 3)]


def solve(problem: dict[str, np.ndarray], minimizer: str) -> tuple[float, int]:
    """Best-of-starts NLL and the number of NLL evaluations spent on it."""
    X, y = problem["X"], problem["y"]
    gp = GaussianProcessRegressor(kernel=default_kernel(X.shape[1]), optimize_hypers=False).fit(X, y)
    bounds = gp.kernel.bounds
    evals_before = gp.stats.nll_evals
    best = np.inf
    for start in problem["starts"]:
        if minimizer == "in-tree":
            nll = minimize_box(gp._nll_and_grad, start.copy(), bounds)[1]
        else:
            nll = optimize.minimize(
                gp._nll_and_grad, start.copy(), method="L-BFGS-B", jac=True, bounds=bounds,
                options={"maxiter": 50},
            ).fun
        best = min(best, float(nll))
    return best, gp.stats.nll_evals - evals_before


def compare(problems: list[dict[str, np.ndarray]]) -> dict[str, float]:
    """In-tree minus scipy, per problem: NLL differences, shares worse/better, evaluations."""
    diffs, worse, better, evals_tree, evals_ref = [], 0, 0, 0, 0
    for problem in problems:
        nll_tree, n_tree = solve(problem, "in-tree")
        nll_ref, n_ref = solve(problem, "scipy")
        diff = nll_tree - nll_ref
        diffs.append(diff)
        worse += diff > 1e-3 * abs(nll_ref)
        better += diff < -1e-3 * abs(nll_ref)
        evals_tree += n_tree
        evals_ref += n_ref
    return {
        "fits": len(problems),
        "median_diff": statistics.median(diffs),
        "mean_diff": statistics.fmean(diffs),
        "share_worse": worse / len(problems),
        "share_better": better / len(problems),
        "evals_in_tree": evals_tree,
        "evals_scipy": evals_ref,
    }


def main() -> None:
    problems = record_corpus()
    if "--report" in sys.argv[1:]:
        for key, value in compare(problems).items():
            print(f"{key:>14}: {value:.6g}")
        return
    keep = np.linspace(0, len(problems) - 1, N_STORED).round().astype(int)
    save([problems[i] for i in keep])
    print(f"wrote {N_STORED} of {len(problems)} problems to {CORPUS_PATH}")


if __name__ == "__main__":
    main()
