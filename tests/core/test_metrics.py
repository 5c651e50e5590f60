"""Unit tests for RunMetrics derived quantities."""

import pytest

from repro.common.params import FOUR_KB
from repro.core.metrics import METRICS_SCHEMA_VERSION, RunMetrics
from repro.hw.walkstats import NESTED_FULL


def make_metrics(**fields):
    metrics = RunMetrics("test", "agile", FOUR_KB)
    for key, value in fields.items():
        setattr(metrics, key, value)
    return metrics


class TestOverheads:
    def test_page_walk_overhead(self):
        metrics = make_metrics(ideal_cycles=1000, walk_cycles=250)
        assert metrics.page_walk_overhead == 0.25

    def test_l2_cycles_excluded_from_walk_overhead(self):
        metrics = make_metrics(ideal_cycles=1000, walk_cycles=250,
                               tlb_l2_cycles=999)
        assert metrics.page_walk_overhead == 0.25

    def test_vmm_overhead(self):
        metrics = make_metrics(ideal_cycles=1000, vmm_cycles=570)
        assert metrics.vmm_overhead == 0.57

    def test_total_overhead(self):
        metrics = make_metrics(ideal_cycles=1000, total_cycles=1800)
        assert metrics.total_overhead == pytest.approx(0.8)

    def test_zero_guards(self):
        metrics = make_metrics()
        assert metrics.page_walk_overhead == 0.0
        assert metrics.vmm_overhead == 0.0
        assert metrics.total_overhead == 0.0
        assert metrics.avg_refs_per_miss == 0.0
        assert metrics.miss_rate_per_kop == 0.0


class TestMixAndRates:
    def test_avg_refs(self):
        metrics = make_metrics(tlb_misses=10, walk_refs=45)
        assert metrics.avg_refs_per_miss == 4.5

    def test_miss_rate(self):
        metrics = make_metrics(ops=2000, tlb_misses=10)
        assert metrics.miss_rate_per_kop == 5.0

    def test_mode_mix(self):
        metrics = make_metrics(walks_by_depth={0: 80, 1: 15, 2: 5, 3: 0, 4: 0,
                                               NESTED_FULL: 0})
        mix = metrics.mode_mix()
        assert mix["Shadow"] == 0.80
        assert mix["L4"] == 0.15
        assert mix["L3"] == 0.05
        assert sum(mix.values()) == pytest.approx(1.0)

    def test_mode_mix_empty(self):
        assert make_metrics(walks_by_depth={}).mode_mix() == {}

    def test_vmtraps_sums_only_trap_kinds(self):
        metrics = make_metrics(trap_counts={"pt_write": 5, "ad_assist": 99,
                                            "context_switch": 2})
        assert metrics.vmtraps == 7  # ad_assist is hardware, not a trap

class TestSchemaVersion:
    def test_to_dict_stamps_current_version(self):
        payload = make_metrics(ops=100).to_dict()
        assert payload["schema_version"] == METRICS_SCHEMA_VERSION

    def test_round_trip_preserves_fields(self):
        metrics = make_metrics(ops=100, ideal_cycles=200, tlb_misses=4,
                               trap_counts={"pt_write": 3})
        again = RunMetrics.from_dict(metrics.to_dict())
        assert again.to_dict() == metrics.to_dict()

    def test_unknown_version_rejected_with_clear_error(self):
        payload = make_metrics(ops=100).to_dict()
        payload["schema_version"] = 99
        with pytest.raises(ValueError) as excinfo:
            RunMetrics.from_dict(payload)
        message = str(excinfo.value)
        assert "schema_version" in message
        assert "99" in message
        assert "cache" in message  # tells the user how to recover

    def test_missing_version_treated_as_v1(self):
        """Payloads cached before the key existed still load."""
        payload = make_metrics(ops=100).to_dict()
        del payload["schema_version"]
        assert RunMetrics.from_dict(payload).ops == 100


class TestMixAndRatesSummary:
    def test_summary_round_trips(self):
        metrics = make_metrics(ops=100, ideal_cycles=200, walk_cycles=50,
                               tlb_misses=4, walk_refs=16)
        summary = metrics.summary()
        assert summary["ops"] == 100
        assert summary["avg_refs_per_miss"] == 4.0
        assert summary["page_walk_overhead"] == 0.25


class TestCheck:
    @staticmethod
    def conserved(**fields):
        values = dict(ops=10, reads=6, writes=4, ideal_cycles=20,
                      walk_cycles=80, tlb_l2_cycles=7, vmm_cycles=1200,
                      guest_fault_cycles=500,
                      trap_cycles={"pt_write": 1200})
        values["total_cycles"] = (20 + 80 + 7 + 1200 + 500)
        values.update(fields)
        return make_metrics(**values)

    def test_conserved_metrics_pass(self):
        self.conserved().check()
        make_metrics().check()

    def test_real_run_passes(self):
        from repro.core.simulator import run_workload
        from repro.workloads.suite import McfLike

        for mode in ("native", "shadow", "agile"):
            run_workload(McfLike, seed=3, ops=3000, mode=mode).check()

    @pytest.mark.parametrize("fields, message", [
        (dict(walk_cycles=81), "total_cycles"),
        (dict(total_cycles=1806), "total_cycles"),
        (dict(trap_cycles={"pt_write": 1199}), "trap_cycles"),
        (dict(reads=5), "ops"),
    ])
    def test_broken_identity_raises(self, fields, message):
        with pytest.raises(ValueError, match=message):
            self.conserved(**fields).check()
