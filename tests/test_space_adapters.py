"""Unit tests for LlamaTune-style space adapters."""

import numpy as np
import pytest

from repro.exceptions import SpaceError
from repro.space import CategoricalParameter, ConfigurationSpace, FloatParameter, IntegerParameter
from repro.space.adapters import (
    BucketizationAdapter,
    LlamaTuneAdapter,
    RandomProjectionAdapter,
    SpecialValuesAdapter,
)


@pytest.fixture
def wide_space():
    space = ConfigurationSpace("wide", seed=0)
    for i in range(12):
        space.add(FloatParameter(f"f{i}", 0.0, 1.0))
    space.add(IntegerParameter("threads", 1, 64, log=True))
    space.add(CategoricalParameter("mode", ["a", "b", "c"]))
    return space


class TestRandomProjection:
    def test_latent_dimensionality(self, wide_space):
        ad = RandomProjectionAdapter(wide_space, d=4, seed=0)
        assert ad.adapted_space.n_dims == 4

    def test_d_clipped_to_target_dims(self, wide_space):
        ad = RandomProjectionAdapter(wide_space, d=100, seed=0)
        assert ad.adapted_space.n_dims == wide_space.n_dims

    def test_d_must_be_positive(self, wide_space):
        with pytest.raises(SpaceError):
            RandomProjectionAdapter(wide_space, d=0)

    def test_projection_valid_configs(self, wide_space, rng):
        ad = RandomProjectionAdapter(wide_space, d=4, seed=0)
        for _ in range(20):
            latent = ad.adapted_space.sample(rng)
            cfg = ad.project(latent)
            assert set(cfg) == set(wide_space.names)

    def test_every_latent_dim_used(self, wide_space):
        ad = RandomProjectionAdapter(wide_space, d=4, seed=0)
        assert set(ad._assignment) == {0, 1, 2, 3}

    def test_correlated_moves(self, wide_space):
        """Knobs sharing a latent dim move together."""
        ad = RandomProjectionAdapter(wide_space, d=2, seed=1)
        lo = ad.project(ad.adapted_space.make({"z0": 0.1, "z1": 0.1}))
        hi = ad.project(ad.adapted_space.make({"z0": 0.9, "z1": 0.9}))
        changed = sum(lo[n] != hi[n] for n in wide_space.names)
        assert changed >= wide_space.n_dims - 2  # nearly all knobs moved

    def test_center_maps_to_center(self, wide_space):
        ad = RandomProjectionAdapter(wide_space, d=3, seed=0)
        center = ad.adapted_space.make({})  # defaults = 0.5
        cfg = ad.project(center)
        for i in range(12):
            assert cfg[f"f{i}"] == pytest.approx(0.5, abs=0.01)

    def test_deterministic_embedding(self, wide_space, rng):
        a = RandomProjectionAdapter(wide_space, d=4, seed=5)
        b = RandomProjectionAdapter(wide_space, d=4, seed=5)
        latent = a.adapted_space.sample(rng)
        assert a.project(latent) == b.project(latent)


class TestBucketization:
    def test_snaps_to_lattice(self, wide_space, rng):
        ad = BucketizationAdapter(wide_space, n_buckets=5)
        cfg = ad.project(wide_space.sample(rng))
        for i in range(12):
            u = cfg[f"f{i}"]
            assert u * 4 == pytest.approx(round(u * 4), abs=1e-6)

    def test_categorical_untouched(self, wide_space, rng):
        ad = BucketizationAdapter(wide_space, n_buckets=4)
        cfg = wide_space.sample(rng)
        assert ad.project(cfg)["mode"] == cfg["mode"]

    def test_min_buckets(self, wide_space):
        with pytest.raises(SpaceError):
            BucketizationAdapter(wide_space, n_buckets=1)


class TestSpecialValues:
    def test_low_region_maps_to_sentinel(self, wide_space):
        ad = SpecialValuesAdapter(wide_space, {"f0": [0.0]}, bias=0.2)
        cfg = wide_space.make({"f0": 0.1})  # unit 0.1 < bias
        assert ad.project(cfg)["f0"] == 0.0

    def test_high_region_restretched(self, wide_space):
        ad = SpecialValuesAdapter(wide_space, {"f0": [0.0]}, bias=0.2)
        cfg = wide_space.make({"f0": 0.6})  # unit 0.6 -> (0.6-0.2)/0.8 = 0.5
        assert ad.project(cfg)["f0"] == pytest.approx(0.5)

    def test_multiple_sentinels_partition_bias(self, wide_space):
        ad = SpecialValuesAdapter(wide_space, {"f0": [0.0, 1.0]}, bias=0.2)
        assert ad.project(wide_space.make({"f0": 0.05}))["f0"] == 0.0
        assert ad.project(wide_space.make({"f0": 0.15}))["f0"] == 1.0

    def test_unknown_knob_rejected(self, wide_space):
        with pytest.raises(SpaceError):
            SpecialValuesAdapter(wide_space, {"nope": [0.0]})

    def test_bias_bounds(self, wide_space):
        with pytest.raises(SpaceError):
            SpecialValuesAdapter(wide_space, {"f0": [0.0]}, bias=1.5)


class TestLlamaTunePipeline:
    def test_full_pipeline(self, wide_space, rng):
        ad = LlamaTuneAdapter(
            wide_space, d=4, n_buckets=8, special_values={"f0": [0.0]}, seed=0
        )
        assert ad.adapted_space.n_dims == 4
        for _ in range(20):
            cfg = ad.project(ad.adapted_space.sample(rng))
            assert set(cfg) == set(wide_space.names)

    def test_no_buckets(self, wide_space, rng):
        ad = LlamaTuneAdapter(wide_space, d=4, n_buckets=None, seed=0)
        cfg = ad.project(ad.adapted_space.sample(rng))
        assert set(cfg) == set(wide_space.names)
