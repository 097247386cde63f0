"""Manual-driven knob discovery — the simulated LLM (slides 63–64).

DB-BERT/GPTuner use a language model to (1) identify the important tuning
knobs and (2) bias their search ranges, from documentation text. Here the
"language model" is a deterministic keyword scorer over the same corpus —
the *downstream interface is identical*: a ranked knob subset plus priors
handed to any optimizer. (docs/architecture.md records this substitution.)
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..exceptions import ReproError
from ..space import ConfigurationSpace, NormalPrior, Prior
from .manual import DBMS_MANUAL

__all__ = ["DiscoveredKnob", "ManualKnowledgeExtractor"]

#: Phrase weights: how strongly doc language signals tuning importance.
_POSITIVE_PATTERNS: tuple[tuple[str, float], ...] = (
    (r"significant(ly)? (impact|improve|performance)", 3.0),
    (r"critical", 3.0),
    (r"severely limits", 2.5),
    (r"performance bottleneck", 2.5),
    (r"significant", 2.0),
    (r"substantially", 1.5),
    (r"can (improve|help)", 1.0),
    (r"benefit", 1.0),
    (r"important", 1.5),
    (r"bottleneck", 1.5),
    (r"tune", 0.5),
)

_NEGATIVE_PATTERNS: tuple[tuple[str, float], ...] = (
    (r"rarely needs changing", -3.0),
    (r"no effect", -3.0),
    (r"adequate for almost all", -2.5),
    (r"only (matters|relevant|affects)", -1.5),
    (r"minor (impact|effect)", -1.5),
    (r"purely a", -2.0),
)

#: Range-hint phrases → suggested unit-interval prior centres.
_RANGE_HINTS: tuple[tuple[str, float], ...] = (
    (r"50% to 75% of (system )?memory", 0.8),
    (r"match expected concurrency", 0.7),
    (r"higher values", 0.7),
    (r"larger than the default", 0.65),
    (r"lowering it", 0.15),
    (r"toward 1\.1", 0.1),
)


@dataclass(frozen=True)
class DiscoveredKnob:
    """One extractor verdict: knob, relevance score, optional range prior."""

    knob: str
    score: float
    prior: Prior | None = None
    evidence: tuple[str, ...] = ()


class ManualKnowledgeExtractor:
    """Scores knobs from the simulated DBMS manual and proposes search priors.

    Parameters
    ----------
    prior_std:
        Width of the Normal priors placed at hinted range centres.
    """

    manual = DBMS_MANUAL

    def __init__(self, prior_std: float = 0.15) -> None:
        if prior_std <= 0:
            raise ReproError(f"prior_std must be positive, got {prior_std}")
        self.prior_std = float(prior_std)

    def _score_text(self, text: str) -> tuple[float, list[str]]:
        text = text.lower()
        score = 0.0
        evidence = []
        for pattern, weight in _POSITIVE_PATTERNS + _NEGATIVE_PATTERNS:
            hits = len(re.findall(pattern, text))
            if hits:
                score += weight * hits
                evidence.append(pattern)
        return score, evidence

    def _range_prior(self, text: str) -> Prior | None:
        text = text.lower()
        for pattern, center in _RANGE_HINTS:
            if re.search(pattern, text):
                return NormalPrior(center, self.prior_std)
        return None

    def discover(self, knobs: list[str] | None = None) -> list[DiscoveredKnob]:
        """Rank knobs by extracted importance, descending."""
        names = knobs if knobs is not None else list(self.manual)
        out = []
        for name in names:
            entry = self.manual.get(name)
            if entry is None:
                out.append(DiscoveredKnob(name, 0.0))
                continue
            score, evidence = self._score_text(entry.text)
            out.append(
                DiscoveredKnob(name, score, self._range_prior(entry.text), tuple(evidence))
            )
        out.sort(key=lambda d: -d.score)
        return out

    def informed_space(self, space: ConfigurationSpace, k: int = 5) -> ConfigurationSpace:
        """A reduced, prior-biased copy of ``space``: the GPTuner pipeline.

        Keeps the top-k discovered knobs (plus any knob a kept conditional
        child depends on) and installs range priors where the manual hints
        at one.
        """
        from ..optimizers.transfer import space_with_priors

        discovered = self.discover([n for n in space.names])
        keep = {d.knob for d in discovered[: max(1, k)]}
        # Pull in condition parents so the subspace stays well-formed.
        for cond in space.conditions:
            if cond.child in keep:
                keep.add(cond.parent)
        sub = space.subspace([n for n in space.names if n in keep], name=f"{space.name}+manual")
        priors = {
            d.knob: d.prior
            for d in discovered
            if d.prior is not None and d.knob in sub and sub[d.knob].is_numeric
        }
        return space_with_priors(sub, priors)
