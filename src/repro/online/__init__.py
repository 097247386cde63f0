"""Online tuning: agents, RL policies, GAs, hybrid bandits, safety."""

from .._lazy import lazy_exports

# Public name -> defining submodule, imported on first use (see repro.optimizers).
_EXPORTS = {
    "ActorCriticTuner": ".actor_critic",
    "OnlinePolicy": ".agent",
    "OnlineResult": ".agent",
    "OnlineStepRecord": ".agent",
    "OnlineTuningAgent": ".agent",
    "REWARD": ".agent",
    "StaticConfigPolicy": ".agent",
    "ContextualBayesianOptimizer": ".contextual",
    "GeneticAlgorithmOptimizer": ".genetic",
    "GreedyOnlineTuner": ".greedy",
    "HybridBanditTuner": ".hybrid",
    "ProactiveForecastTuner": ".proactive",
    "QLearningTuner": ".qlearning",
    "Guardrail": ".safety",
    "GuardrailVerdict": ".safety",
    "SafeBayesianOptimizer": ".safety",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
