import random

import pytest

from litrag.footprint import (
    GERMANY_INTENSITY_KG_PER_KWH,
    MEMORY_W_PER_GB,
    TREE_MONTH_KG,
    HardwareProfile,
    estimate_carbon,
    estimate_energy,
    footprint_from_log,
    to_tree_months,
)
from litrag.gateway import TimingLog, dedupe_timing_logs, format_hours_minutes, sum_runtime
from conftest import build_timing_fixture


def profile(**overrides):
    base = dict(name="bench", cores=48, power_per_core=10.0, usage=1.0,
                memory_gb=0.0, pue=1.0)
    base.update(overrides)
    return HardwareProfile(**base)


class TestEstimateEnergy:
    def test_48_cores_at_10w_for_one_hour(self):
        assert estimate_energy(1.0, profile()) == pytest.approx(0.48)

    def test_zero_runtime(self):
        assert estimate_energy(0.0, profile()) == 0.0

    def test_linear_in_runtime(self):
        rng = random.Random(37)
        for _ in range(50):
            hours = rng.uniform(0.0, 500.0)
            p = profile(usage=rng.uniform(0.1, 1.0), memory_gb=rng.uniform(0, 256),
                        pue=1.0 + rng.uniform(0, 1))
            single = estimate_energy(hours, p)
            assert estimate_energy(2 * hours, p) == pytest.approx(2 * single, rel=1e-12)

    def test_memory_and_pue_terms(self):
        p = profile(cores=0, power_per_core=0.0, memory_gb=100.0, pue=1.5)
        assert estimate_energy(1.0, p) == pytest.approx(1.5 * 100 * MEMORY_W_PER_GB / 1000)

    def test_negative_runtime_rejected(self):
        with pytest.raises(ValueError):
            estimate_energy(-1.0, profile())

    def test_invalid_profile_rejected(self):
        with pytest.raises(ValueError):
            profile(pue=0.9)
        with pytest.raises(ValueError):
            profile(usage=1.5)


class TestEstimateCarbon:
    def test_main_pipeline_figure(self):
        carbon = estimate_carbon(177.55, GERMANY_INTENSITY_KG_PER_KWH)
        assert carbon == pytest.approx(60.14, rel=0.005)

    def test_conversion_pipeline_figure(self):
        carbon = estimate_carbon(50.63, GERMANY_INTENSITY_KG_PER_KWH)
        assert carbon == pytest.approx(17.15, rel=0.005)

    def test_zero_energy(self):
        assert estimate_carbon(0.0) == 0.0

    def test_ratio_constant_per_location(self):
        rng = random.Random(41)
        for _ in range(20):
            energy = rng.uniform(0.1, 1000)
            assert estimate_carbon(energy) / energy == pytest.approx(
                GERMANY_INTENSITY_KG_PER_KWH, rel=1e-12
            )


class TestToTreeMonths:
    def test_main_figure(self):
        assert to_tree_months(60.14, TREE_MONTH_KG) == pytest.approx(64.65, rel=0.01)

    def test_zero(self):
        assert to_tree_months(0.0) == 0.0

    def test_smaller_figure_differs_from_rounded_publication(self):
        # the published companion value 18.7 is inconsistent with the
        # constant implied by the main figure; the derived constant gives 18.44
        value = to_tree_months(17.15, TREE_MONTH_KG)
        assert value == pytest.approx(18.44, abs=0.01)
        assert value != pytest.approx(18.7, abs=0.1)

    def test_nonpositive_constant_rejected(self):
        with pytest.raises(ValueError):
            to_tree_months(1.0, 0.0)


def saved(timing, tmp_path):
    """The timing CSV ``timing`` writes, appended to any earlier one at the same path."""
    path = tmp_path / "timing.csv"
    timing.save_csv(path)
    return path


class TestFootprintFromLog:
    def test_rows_compose_consistently(self, tmp_path):
        rows = footprint_from_log(saved(build_timing_fixture(), tmp_path), profile())
        assert any(row.energy_kwh > 0 for row in rows)
        for row in rows:
            assert row.carbon_kg == pytest.approx(row.energy_kwh * GERMANY_INTENSITY_KG_PER_KWH)
            assert row.tree_months == pytest.approx(row.carbon_kg / TREE_MONTH_KG)

    def test_stage_rows_from_fixture(self, tmp_path):
        timing = build_timing_fixture()
        rows = {row.stage: row for row in footprint_from_log(saved(timing, tmp_path), profile())}
        deduped = dedupe_timing_logs(timing)
        assert format_hours_minutes(sum_runtime(deduped, "rag")) == "264hr 15min"
        expected_rag_hours = sum_runtime(deduped, "rag") / 3_600_000
        assert rows["rag"].runtime_h == pytest.approx(expected_rag_hours)
        assert rows["rag"].energy_kwh == pytest.approx(
            estimate_energy(expected_rag_hours, profile())
        )
        assert rows["keywords"].energy_kwh == 0.0

    def test_duplicated_reruns_do_not_inflate(self, tmp_path):
        timing = build_timing_fixture()
        once = footprint_from_log(saved(timing, tmp_path), profile())
        # replaying the whole log again must not change the sums
        twice = footprint_from_log(saved(timing, tmp_path), profile())
        assert len(TimingLog.load_csv(tmp_path / "timing.csv")) == 2 * len(timing)
        assert [(r.stage, r.energy_kwh) for r in once] == [
            (r.stage, r.energy_kwh) for r in twice
        ]
