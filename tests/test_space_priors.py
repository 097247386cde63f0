"""Unit tests for sampling priors."""

import numpy as np
import pytest

from repro.exceptions import SpaceError
from repro.space import BetaPrior, HistogramPrior, NormalPrior, UniformPrior
from repro.space.params import FloatParameter


class TestUniformPrior:
    def test_samples_cover_interval(self, rng):
        p = UniformPrior()
        xs = np.array([p.sample_unit(rng) for _ in range(500)])
        assert xs.min() < 0.1 and xs.max() > 0.9

    def test_pdf(self):
        p = UniformPrior()
        assert np.all(p.pdf_unit(np.array([0.0, 0.5, 1.0])) == 1.0)
        assert np.all(p.pdf_unit(np.array([-0.1, 1.1])) == 0.0)


class TestNormalPrior:
    def test_concentrates_at_mean(self, rng):
        p = NormalPrior(0.8, 0.05)
        xs = np.array([p.sample_unit(rng) for _ in range(300)])
        assert abs(xs.mean() - 0.8) < 0.05
        assert np.all((xs >= 0) & (xs <= 1))

    def test_pdf_peaks_at_mean(self):
        p = NormalPrior(0.3, 0.1)
        grid = np.linspace(0, 1, 101)
        assert grid[np.argmax(p.pdf_unit(grid))] == pytest.approx(0.3, abs=0.01)

    def test_validation(self):
        with pytest.raises(SpaceError):
            NormalPrior(1.5, 0.1)
        with pytest.raises(SpaceError):
            NormalPrior(0.5, 0.0)


class TestBetaPrior:
    def test_skew(self, rng):
        low = BetaPrior(1.0, 5.0)
        xs = np.array([low.sample_unit(rng) for _ in range(300)])
        assert xs.mean() < 0.3

    def test_validation(self):
        with pytest.raises(SpaceError):
            BetaPrior(0.0, 1.0)

    def test_pdf_bounds(self):
        p = BetaPrior(2.0, 2.0)
        assert np.all(p.pdf_unit(np.array([-0.5, 1.5])) == 0.0)
        assert p.pdf_unit(np.array([0.5]))[0] > 0


class TestHistogramPrior:
    def test_from_samples_concentrates(self, rng):
        samples = rng.normal(0.7, 0.03, 200).clip(0, 1)
        p = HistogramPrior.from_samples(samples, n_bins=10)
        xs = np.array([p.sample_unit(rng) for _ in range(500)])
        assert abs(xs.mean() - 0.7) < 0.1

    def test_pdf_matches_weights(self):
        p = HistogramPrior([1.0, 3.0])
        pdf = p.pdf_unit(np.array([0.25, 0.75]))
        assert pdf[1] == pytest.approx(3.0 * pdf[0])

    def test_validation(self):
        with pytest.raises(SpaceError):
            HistogramPrior([])
        with pytest.raises(SpaceError):
            HistogramPrior([-1.0, 2.0])
        with pytest.raises(SpaceError):
            HistogramPrior([0.0, 0.0])

    def test_smoothing_keeps_all_bins_reachable(self, rng):
        p = HistogramPrior.from_samples([0.05] * 50, n_bins=5)
        xs = np.array([p.sample_unit(rng) for _ in range(2000)])
        # With Laplace smoothing every bin retains some mass.
        assert xs.max() > 0.2


class TestPriorOnParameter:
    def test_parameter_uses_prior(self, rng):
        p = FloatParameter("x", 0.0, 100.0, prior=NormalPrior(0.9, 0.02))
        xs = np.array([p.sample(rng) for _ in range(200)])
        assert xs.mean() > 80.0

    def test_prior_with_log_scale_composes(self, rng):
        # Prior is in unit space, so with log scale the mass sits at the
        # upper decades.
        p = FloatParameter("x", 1.0, 10_000.0, log=True, prior=NormalPrior(0.75, 0.05))
        xs = np.array([p.sample(rng) for _ in range(200)])
        assert np.median(xs) == pytest.approx(10_000 ** 0.75, rel=0.5)


class TestSampleUnitMany:
    @pytest.mark.parametrize("prior", [
        UniformPrior(),
        NormalPrior(0.5, 0.2),
        BetaPrior(2.0, 5.0),
        HistogramPrior.from_samples([0.1, 0.2, 0.8, 0.9], n_bins=4),
    ])
    def test_batch_in_unit_interval(self, prior, rng):
        u = prior.sample_unit_many(rng, 300)
        assert u.shape == (300,)
        assert np.all((u >= 0.0) & (u <= 1.0))

    def test_batch_matches_scalar_distribution(self, rng):
        prior = NormalPrior(0.7, 0.1)
        batch = prior.sample_unit_many(rng, 3000)
        scalar = np.array([prior.sample_unit(rng) for _ in range(3000)])
        assert abs(batch.mean() - scalar.mean()) < 0.02
        assert abs(batch.std() - scalar.std()) < 0.02

    def test_truncated_normal_tail_redrawn(self, rng):
        # A prior centred far outside the unit box still yields valid draws.
        prior = NormalPrior(0.01, 0.05)
        u = prior.sample_unit_many(rng, 1000)
        assert np.all((u >= 0.0) & (u <= 1.0))
