"""Unit tests for ordinal and one-hot encoders."""

import numpy as np
import pytest

from repro.space.encoding import OneHotEncoder, OrdinalEncoder


class TestOrdinalEncoder:
    def test_width(self, simple_space):
        assert OrdinalEncoder(simple_space).n_features == simple_space.n_dims

    def test_encode_many_shape(self, simple_space, rng):
        enc = OrdinalEncoder(simple_space)
        X = enc.encode_many(simple_space.sample_many(5, rng))
        assert X.shape == (5, simple_space.n_dims)

    def test_encode_many_empty(self, simple_space):
        assert OrdinalEncoder(simple_space).encode_many([]).shape == (0, 4)


class TestOneHotEncoder:
    def test_width_counts_categories(self, simple_space):
        enc = OneHotEncoder(simple_space)
        # x, y, n numeric (3) + mode has 3 choices
        assert enc.n_features == 3 + 3

    def test_one_hot_block_sums_to_one(self, simple_space, rng):
        enc = OneHotEncoder(simple_space)
        for _ in range(10):
            x = enc.encode(simple_space.sample(rng))
            assert x[3:].sum() == pytest.approx(1.0)
            assert set(np.unique(x[3:])) <= {0.0, 1.0}

    def test_encode_many_empty(self, simple_space):
        assert OneHotEncoder(simple_space).encode_many([]).shape == (0, 6)

    def test_categorical_distance_is_symmetric(self, simple_space):
        """One-hot makes all category pairs equidistant — ordinal does not."""
        enc_oh = OneHotEncoder(simple_space)
        enc_ord = OrdinalEncoder(simple_space)
        cfgs = [simple_space.make({"mode": m}) for m in ("a", "b", "c")]
        d_oh = [
            np.linalg.norm(enc_oh.encode(cfgs[i]) - enc_oh.encode(cfgs[j]))
            for i, j in [(0, 1), (1, 2), (0, 2)]
        ]
        assert d_oh[0] == pytest.approx(d_oh[1]) == pytest.approx(d_oh[2])
        d_ord = [
            np.linalg.norm(enc_ord.encode(cfgs[i]) - enc_ord.encode(cfgs[j]))
            for i, j in [(0, 1), (0, 2)]
        ]
        assert d_ord[0] < d_ord[1]  # artificial order imposed


class TestVectorizedEncodeMany:
    """The column-vectorized batch path must match row-by-row encode."""

    @pytest.mark.parametrize("encoder_cls", [OrdinalEncoder, OneHotEncoder])
    def test_matches_row_encoding(self, encoder_cls, simple_space, rng):
        enc = encoder_cls(simple_space)
        configs = simple_space.sample_many(20, rng)
        batch = enc.encode_many(configs)
        rows = np.stack([enc.encode(c) for c in configs])
        np.testing.assert_allclose(batch, rows)

    @pytest.mark.parametrize("encoder_cls", [OrdinalEncoder, OneHotEncoder])
    def test_matches_row_encoding_conditional_space(self, encoder_cls, conditional_space, rng):
        """Inactive conditional knobs fall back to defaults in both paths."""
        enc = encoder_cls(conditional_space)
        configs = conditional_space.sample_many(20, rng)
        batch = enc.encode_many(configs)
        rows = np.stack([enc.encode(c) for c in configs])
        np.testing.assert_allclose(batch, rows)
