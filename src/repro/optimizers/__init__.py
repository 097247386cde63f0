"""Offline tuning algorithms: classic search, BO, evolutionary, bandits,
multi-objective, multi-fidelity, transfer, and parallel execution."""

from .acquisition import (
    AcquisitionFunction,
    CostAwareEI,
    ExpectedImprovement,
    LowerConfidenceBound,
    ProbabilityOfImprovement,
    ThompsonSampling,
)
from .adapted import ProjectedOptimizer
from .annealing import SimulatedAnnealingOptimizer
from .bandits import BanditArmStats, MultiArmedBanditOptimizer
from .bestconfig import BestConfigOptimizer
from .bo import BayesianOptimizer
from .constrained_bo import ConstrainedBayesianOptimizer
from .cmaes import CMAESOptimizer
from .ensemble import EnsembleOptimizer
from .forest import RandomForestRegressor, RegressionTree
from .gp import GaussianProcessRegressor, SurrogateStats, default_kernel
from .grid import GridSearchOptimizer
from .hyperband import HyperbandResult, hyperband
from .kernels import RBF, ConstantKernel, Kernel, Matern, Product, Sum, WhiteKernel
from .model_based import ModelBasedOptimizer
from .multifidelity import FidelityLevel, HalvingRecord, MultiFidelityBO, successive_halving
from .multitask import MultiOutputGP, MultiTaskOptimizer
from .parego import LinearScalarizationOptimizer, ParEGOOptimizer
from .pareto import (
    crowding_distance,
    dominates,
    hypervolume_2d,
    pareto_front,
    pareto_front_mask,
)
from .pso import ParticleSwarmOptimizer
from .random_search import RandomSearchOptimizer
from .scheduler import ParallelResult, ParallelRunner
from .smac import SMACOptimizer
from .structured import StructuredBayesianOptimizer
from .transfer import (
    DBMS_VM_SCALING,
    PriorBank,
    PriorRun,
    priors_from_trials,
    scale_config_for_vm,
    space_with_priors,
    warm_start_from_history,
)

__all__ = [
    "AcquisitionFunction",
    "CostAwareEI",
    "ExpectedImprovement",
    "LowerConfidenceBound",
    "ProbabilityOfImprovement",
    "ThompsonSampling",
    "ProjectedOptimizer",
    "SimulatedAnnealingOptimizer",
    "BanditArmStats",
    "MultiArmedBanditOptimizer",
    "BestConfigOptimizer",
    "BayesianOptimizer",
    "ModelBasedOptimizer",
    "ConstrainedBayesianOptimizer",
    "HyperbandResult",
    "hyperband",
    "MultiOutputGP",
    "MultiTaskOptimizer",
    "DBMS_VM_SCALING",
    "scale_config_for_vm",
    "CMAESOptimizer",
    "EnsembleOptimizer",
    "RandomForestRegressor",
    "RegressionTree",
    "GaussianProcessRegressor",
    "SurrogateStats",
    "default_kernel",
    "GridSearchOptimizer",
    "RBF",
    "ConstantKernel",
    "Kernel",
    "Matern",
    "Product",
    "Sum",
    "WhiteKernel",
    "FidelityLevel",
    "HalvingRecord",
    "MultiFidelityBO",
    "successive_halving",
    "LinearScalarizationOptimizer",
    "ParEGOOptimizer",
    "crowding_distance",
    "dominates",
    "hypervolume_2d",
    "pareto_front",
    "pareto_front_mask",
    "ParticleSwarmOptimizer",
    "RandomSearchOptimizer",
    "ParallelResult",
    "ParallelRunner",
    "SMACOptimizer",
    "StructuredBayesianOptimizer",
    "PriorBank",
    "PriorRun",
    "priors_from_trials",
    "space_with_priors",
    "warm_start_from_history",
]
