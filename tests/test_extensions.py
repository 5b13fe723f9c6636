"""Tests for the extension features: multi-engine scaling and the
paper-value consistency checks."""

from __future__ import annotations

import pytest

from repro.arch import fpga_cyclone_v, map_model
from repro.arch.scaling import ScaledDeployment, engines_needed_for_throughput
from repro.errors import ConfigurationError
from repro.models import default_lenet5_plan, lenet5_spec


class TestMultiEngineScaling:
    @pytest.fixture(scope="class")
    def base_report(self):
        return map_model(
            lenet5_spec(), default_lenet5_plan(), fpga_cyclone_v()
        )

    def test_throughput_scales_linearly(self, base_report):
        scaled = ScaledDeployment(base_report, num_engines=4)
        assert scaled.throughput_fps == pytest.approx(
            4 * base_report.throughput_fps
        )

    def test_efficiency_invariant_without_overhead(self, base_report):
        # The §5.1 claim: replication costs no energy efficiency.
        for n in (1, 2, 8):
            scaled = ScaledDeployment(base_report, num_engines=n)
            assert scaled.gops_per_watt == pytest.approx(
                base_report.gops_per_watt
            )

    def test_shared_overhead_degrades_efficiency(self, base_report):
        clean = ScaledDeployment(base_report, 4)
        loaded = ScaledDeployment(base_report, 4, shared_overhead_w=1.0)
        assert loaded.gops_per_watt < clean.gops_per_watt

    def test_latency_unchanged(self, base_report):
        scaled = ScaledDeployment(base_report, num_engines=16)
        assert scaled.latency_s == base_report.latency_s

    def test_engines_needed(self, base_report):
        one = engines_needed_for_throughput(
            base_report, base_report.throughput_fps * 0.5
        )
        assert one == 1
        several = engines_needed_for_throughput(
            base_report, base_report.throughput_fps * 3.5
        )
        assert several == 4

    def test_invalid_configs(self, base_report):
        with pytest.raises(ConfigurationError):
            ScaledDeployment(base_report, 0)
        with pytest.raises(ConfigurationError):
            engines_needed_for_throughput(base_report, 0.0)


class TestPaperValueConsistency:
    """Internal consistency of the recorded paper claims."""

    def test_6x_times_17x_is_102x(self):
        from repro.experiments import paper_values as pv

        assert pv.FIG15_BASE_IMPROVEMENT_MIN * pv.FIG15_NEAR_THRESHOLD_FACTOR \
            == pytest.approx(pv.FIG15_TOTAL_IMPROVEMENT)

    def test_tx1_ratios_consistent_with_nt_factor(self):
        from repro.experiments import paper_values as pv

        assert pv.FIG15_VS_TX1_NT / pv.FIG15_VS_TX1_BASE == pytest.approx(
            pv.FIG15_NEAR_THRESHOLD_FACTOR, rel=0.01
        )

    def test_headline_band_matches_fig15(self):
        from repro.experiments import paper_values as pv

        low, high = pv.HEADLINE_IMPROVEMENT_BAND
        assert low == pv.FIG15_BASE_IMPROVEMENT_MIN
        assert high == pv.FIG15_TOTAL_IMPROVEMENT

    def test_truenorth_tables_cover_fig14_datasets(self):
        from repro.experiments import paper_values as pv

        assert set(pv.TRUENORTH_RESULTS) == set(pv.CIRCNN_FPGA_RESULTS) == {
            "mnist", "cifar10", "svhn",
        }

    def test_sec53_rates_ordering(self):
        from repro.experiments import paper_values as pv

        # The paper's own numbers: ARM beats GPU on the large FC layer.
        assert pv.SEC53_ARM_FC_LAYERS_PER_S > pv.SEC53_GPU_FC_LAYERS_PER_S
