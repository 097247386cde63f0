"""Unit tests for workload presets and time-varying traces."""

import numpy as np
import pytest

from repro.exceptions import ReproError
from repro.workloads import (
    DiurnalTrace,
    DriftingTrace,
    PhasedTrace,
    TPCC_TX_MIX,
    TPCH_QUERIES,
    Workload,
    tpcc,
    tpch,
    tpch_query_mix,
    ycsb,
)


class TestWorkloadBase:
    def test_validation(self):
        with pytest.raises(ReproError):
            Workload("w", read_fraction=1.5)
        with pytest.raises(ReproError):
            Workload("w", working_set_mb=200, data_size_mb=100)
        with pytest.raises(ReproError):
            Workload("w", concurrency=0)
        with pytest.raises(ReproError):
            Workload("w", scale_factor=0.0)

    def test_write_fraction(self):
        assert Workload("w", read_fraction=0.7).write_fraction == pytest.approx(0.3)

    def test_blend_endpoints(self):
        a, b = ycsb("a"), tpch(10)
        assert a.blend(b, 0.0).read_fraction == pytest.approx(a.read_fraction)
        assert a.blend(b, 1.0).read_fraction == pytest.approx(b.read_fraction)

    def test_blend_working_set_never_exceeds_data(self):
        a = Workload("a", data_size_mb=100, working_set_mb=100)
        b = Workload("b", data_size_mb=10_000, working_set_mb=100)
        mix = a.blend(b, 0.5)
        assert mix.working_set_mb <= mix.data_size_mb

    def test_perturbed_stays_valid(self, rng):
        w = tpcc(100)
        for _ in range(20):
            v = w.perturbed(rng, magnitude=0.2)
            assert 0 <= v.read_fraction <= 1
            assert v.working_set_mb <= v.data_size_mb

    def test_signature_shape_and_names(self):
        sig = ycsb("a").signature()
        assert sig.shape == (len(Workload.SIGNATURE_FIELDS),)

    def test_similar_workloads_have_close_signatures(self, rng):
        base = tpcc(100)
        near = base.perturbed(rng, 0.02)
        far = tpch(100)
        d_near = np.linalg.norm(base.signature() - near.signature())
        d_far = np.linalg.norm(base.signature() - far.signature())
        assert d_near < d_far


class TestYCSB:
    def test_mix_characteristics(self):
        assert ycsb("c").read_fraction == 1.0
        assert ycsb("a").read_fraction == 0.5
        assert ycsb("e").scan_fraction > 0.5

    def test_data_sizing(self):
        w = ycsb("a", record_count=1_000_000, field_bytes=1_000)
        assert w.data_size_mb == pytest.approx(1000.0)

    def test_case_insensitive(self):
        assert ycsb("A").name == "ycsb-a"
        assert ycsb("workloadb").name == "ycsb-b"

    def test_unknown_mix(self):
        with pytest.raises(ReproError):
            ycsb("z")

    def test_bad_params(self):
        with pytest.raises(ReproError):
            ycsb("a", record_count=0)
        with pytest.raises(ReproError):
            ycsb("a", hot_fraction=0.0)


class TestTPCC:
    def test_standard_mix_sums_to_one(self):
        assert sum(TPCC_TX_MIX.values()) == pytest.approx(1.0)

    def test_scaling_with_warehouses(self):
        assert tpcc(200).data_size_mb == pytest.approx(2 * tpcc(100).data_size_mb)
        assert tpcc(200).concurrency == 2 * tpcc(100).concurrency

    def test_write_heavy(self):
        assert tpcc(10).write_fraction > 0.4

    def test_custom_mix_changes_characteristics(self):
        readonly = tpcc(10, tx_mix={
            "new_order": 0.0, "payment": 0.0, "order_status": 0.5,
            "delivery": 0.0, "stock_level": 0.5,
        })
        assert readonly.read_fraction == pytest.approx(1.0)
        assert readonly.scan_fraction > tpcc(10).scan_fraction

    def test_bad_mix_keys(self):
        with pytest.raises(ReproError):
            tpcc(10, tx_mix={"new_order": 1.0})

    def test_validation(self):
        with pytest.raises(ReproError):
            tpcc(0)


class TestTPCH:
    def test_has_22_queries(self):
        assert sorted(TPCH_QUERIES) == list(range(1, 23))

    def test_q1_is_scan_heavy(self):
        q1 = TPCH_QUERIES[1]
        assert q1.scan_gb_per_sf > 0.5 and q1.join_intensity < 0.2

    def test_query_mix_uniform(self):
        mix = tpch_query_mix([1, 6])
        assert mix == {1: 0.5, 6: 0.5}

    def test_unknown_query(self):
        with pytest.raises(ReproError):
            tpch_query_mix([99])

    def test_workload_scales(self):
        assert tpch(100).data_size_mb == pytest.approx(100 * 1024.0)
        assert tpch(1).read_fraction == 1.0

    def test_validation(self):
        with pytest.raises(ReproError):
            tpch(0.0)


class TestTraces:
    def test_phased_shift_points(self):
        trace = PhasedTrace([(ycsb("a"), 10), (tpcc(10), 5), (tpch(1), 5)])
        assert len(trace) == 20
        assert trace.at(9).name == "ycsb-a"
        assert trace.at(10).name == "tpcc-10w"
        assert trace.at(19).name == "tpch-sf1"

    def test_phased_clamps_beyond_end(self):
        trace = PhasedTrace([(ycsb("a"), 3)])
        assert trace.at(100).name == "ycsb-a"

    def test_phased_validation(self):
        with pytest.raises(ReproError):
            PhasedTrace([])
        with pytest.raises(ReproError):
            PhasedTrace([(ycsb("a"), 0)])

    def test_drifting_interpolates(self):
        trace = DriftingTrace(ycsb("c"), ycsb("a"), length=11)
        assert trace.at(0).read_fraction == pytest.approx(1.0)
        assert trace.at(10).read_fraction == pytest.approx(0.5)
        assert trace.at(5).read_fraction == pytest.approx(0.75)

    def test_diurnal_swings_concurrency(self):
        base = ycsb("b", concurrency=100)
        trace = DiurnalTrace(base, length=24, period=24, amplitude=0.5)
        concs = [trace.at(t).concurrency for t in range(24)]
        assert max(concs) >= 140 and min(concs) <= 60

    def test_diurnal_validation(self):
        with pytest.raises(ReproError):
            DiurnalTrace(ycsb("a"), length=10, period=1)
        with pytest.raises(ReproError):
            DiurnalTrace(ycsb("a"), length=10, amplitude=1.0)

    def test_trace_iteration(self):
        trace = PhasedTrace([(ycsb("a"), 3)])
        assert len(list(trace)) == 3

    def test_negative_step_rejected(self):
        trace = PhasedTrace([(ycsb("a"), 3)])
        with pytest.raises(ReproError):
            trace.at(-1)
