"""Unit tests for the manual corpus and knob-discovery extractor."""

import numpy as np
import pytest

from repro.exceptions import ReproError
from repro.knowledge import DBMS_MANUAL, ManualKnowledgeExtractor
from repro.space import NormalPrior
from repro.sysim import QUIET_CLOUD, SimulatedDBMS


@pytest.fixture
def extractor():
    return ManualKnowledgeExtractor()


@pytest.fixture
def db():
    return SimulatedDBMS(env=QUIET_CLOUD(seed=0), seed=0)


class TestCorpus:
    def test_covers_every_dbms_knob(self, db):
        for knob in db.space.names:
            assert knob in DBMS_MANUAL, f"no manual entry for {knob}"

    def test_expert_labels_in_range(self):
        for entry in DBMS_MANUAL.values():
            assert 0.0 <= entry.expert_importance <= 1.0
            if entry.expert_range_hint is not None:
                lo, hi = entry.expert_range_hint
                assert 0.0 <= lo <= hi <= 1.0


class TestExtraction:
    def test_extracted_scores_correlate_with_expert_labels(self, extractor):
        """GPTuner-style validation: the text scorer should agree with the
        expert ground-truth ordering."""
        discovered = extractor.discover()
        scores = np.array([d.score for d in discovered])
        truth = np.array([DBMS_MANUAL[d.knob].expert_importance for d in discovered])
        # Spearman-ish check via rank correlation.
        score_ranks = np.argsort(np.argsort(-scores))
        truth_ranks = np.argsort(np.argsort(-truth))
        rho = np.corrcoef(score_ranks, truth_ranks)[0, 1]
        assert rho > 0.6

    def test_top5_overlaps_true_important_knobs(self, extractor, db):
        top5 = {d.knob for d in extractor.discover()[:5]}
        assert len(top5 & set(db.IMPORTANT_KNOBS)) >= 3

    def test_junk_knobs_score_negative(self, extractor, db):
        discovered = {d.knob: d.score for d in extractor.discover()}
        for junk in db.JUNK_KNOBS:
            assert discovered[junk] <= 0.0, junk

    def test_range_hints_become_priors(self, extractor):
        discovered = {d.knob: d for d in extractor.discover()}
        bp = discovered["buffer_pool_mb"]
        assert isinstance(bp.prior, NormalPrior)
        assert bp.prior.mean > 0.5  # "50% to 75% of system memory"

    def test_unknown_knob_scores_zero(self, extractor):
        out = extractor.discover(["not_a_real_knob"])
        assert out[0].score == 0.0

    def test_prior_std_validation(self):
        with pytest.raises(ReproError):
            ManualKnowledgeExtractor(prior_std=0.0)


class TestInformedSpace:
    def test_reduces_dimensionality(self, extractor, db):
        informed = extractor.informed_space(db.space, k=5)
        assert informed.n_dims <= 6  # 5 + possibly a condition parent
        assert informed.n_dims < db.space.n_dims

    def test_keeps_condition_parents(self, extractor, db):
        # Force jit_above_cost into the kept set: its parent must come along.
        informed = extractor.informed_space(db.space, k=db.space.n_dims - 1)
        if "jit_above_cost" in informed:
            assert "jit" in informed

    def test_biased_sampling(self, extractor, db, rng):
        informed = extractor.informed_space(db.space, k=5)
        if "buffer_pool_mb" in informed:
            draws = [informed.sample(rng)["buffer_pool_mb"] for _ in range(100)]
            ram = db.env.vm.ram_mb
            # Prior at ~0.8 of the log range: most samples in the top decades.
            assert np.median(draws) > ram * 0.05
