"""Unit tests for Pareto-front utilities."""

import numpy as np
import pytest

from repro.exceptions import OptimizerError
from repro.optimizers.pareto import (
    dominates,
    hypervolume_2d,
    pareto_front,
    pareto_front_mask,
)


class TestDominates:
    def test_strict_domination(self):
        assert dominates([1, 1], [2, 2])
        assert dominates([1, 2], [2, 2])
        assert not dominates([2, 2], [1, 1])

    def test_equal_points_do_not_dominate(self):
        assert not dominates([1, 1], [1, 1])

    def test_incomparable(self):
        assert not dominates([1, 3], [3, 1])
        assert not dominates([3, 1], [1, 3])


class TestParetoFront:
    def test_simple_front(self):
        pts = np.array([[1, 5], [2, 3], [3, 4], [4, 1], [5, 5]])
        mask = pareto_front_mask(pts)
        assert list(mask) == [True, True, False, True, False]

    def test_front_sorted_by_first_objective(self):
        pts = np.array([[4, 1], [1, 5], [2, 3]])
        front = pareto_front(pts)
        assert np.all(np.diff(front[:, 0]) > 0)
        assert np.all(np.diff(front[:, 1]) < 0)  # anti-chain

    def test_duplicates_kept(self):
        pts = np.array([[1, 1], [1, 1], [2, 2]])
        mask = pareto_front_mask(pts)
        assert mask[0] and mask[1] and not mask[2]

    def test_single_point(self):
        assert pareto_front_mask(np.array([[3, 3]]))[0]

    def test_all_on_front(self):
        pts = np.array([[1, 4], [2, 3], [3, 2], [4, 1]])
        assert pareto_front_mask(pts).all()


class TestHypervolume:
    def test_single_point(self):
        hv = hypervolume_2d(np.array([[1.0, 1.0]]), np.array([3.0, 3.0]))
        assert hv == pytest.approx(4.0)

    def test_two_points_union(self):
        pts = np.array([[1.0, 2.0], [2.0, 1.0]])
        hv = hypervolume_2d(pts, np.array([3.0, 3.0]))
        # Union of two 2x1 / 1x2 rectangles with 1x1 overlap counted once.
        assert hv == pytest.approx(3.0)

    def test_points_beyond_reference_ignored(self):
        pts = np.array([[1.0, 1.0], [5.0, 5.0]])
        assert hypervolume_2d(pts, np.array([3.0, 3.0])) == pytest.approx(4.0)

    def test_empty_contribution(self):
        assert hypervolume_2d(np.array([[5.0, 5.0]]), np.array([3.0, 3.0])) == 0.0

    def test_dominated_points_add_nothing(self):
        base = hypervolume_2d(np.array([[1.0, 1.0]]), np.array([3.0, 3.0]))
        more = hypervolume_2d(np.array([[1.0, 1.0], [2.0, 2.0]]), np.array([3.0, 3.0]))
        assert base == pytest.approx(more)

    def test_better_front_has_more_volume(self):
        good = np.array([[1.0, 2.0], [2.0, 1.0]])
        bad = np.array([[2.0, 2.5], [2.5, 2.0]])
        ref = np.array([4.0, 4.0])
        assert hypervolume_2d(good, ref) > hypervolume_2d(bad, ref)

    def test_shape_validation(self):
        with pytest.raises(OptimizerError):
            hypervolume_2d(np.zeros((2, 3)), np.zeros(3))
