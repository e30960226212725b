"""End-to-end tests for defining a custom platform with ``register_model``."""

from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.platform.registry import (
    CharacterizationGrid,
    DroopParams,
    FaultParams,
    PerfCalibration,
    PlatformModel,
    VariationParams,
    register_model,
)
from repro.platform.specs import (
    CacheSpec,
    ChipSpec,
    FrequencyClass,
    get_spec,
)
from repro.platform.thermal import ThermalParams
from repro.power.model import PowerParams
from repro.units import ghz, mhz
from repro.vmin.model import VminModel


def toy_model() -> PlatformModel:
    return PlatformModel(
        key="toy8",
        spec=ChipSpec(
            name="Toy-8",
            n_cores=8,
            cores_per_pmd=2,
            fmax_hz=ghz(2.0),
            fmin_hz=mhz(250),
            nominal_voltage_mv=900,
            min_voltage_mv=600,
            tdp_w=20.0,
            technology_nm=14,
            caches=CacheSpec(32768, 32768, 262144, 8 * 2**20, True),
            memory_bandwidth_bps=30e9,
        ),
        vmin_base_mv={
            FrequencyClass.HIGH: (780, 800, 815),
            FrequencyClass.SKIP: (760, 780, 795),
            FrequencyClass.DIVIDE: (700, 720, 735),
        },
        variation=VariationParams(),
        droop=DroopParams(),
        faults=FaultParams(),
        power=PowerParams(
            uncore_w=1.5,
            core_dyn_max_w=1.5,
            core_leak_w=0.15,
            pmd_overhead_w=0.3,
            uncore_on_rail=True,
            external_w=0.5,
        ),
        thermal=ThermalParams(resistance_c_per_w=1.0, time_constant_s=8.0),
        perf=PerfCalibration(),
        characterization=CharacterizationGrid(
            threads=(8, 4, 2), freqs_hz=(ghz(2.0), ghz(1.0))
        ),
    )


@pytest.fixture(scope="module")
def registered(restore_registry):
    return register_model(toy_model())


class TestRegistration:
    def test_lookup_after_registration(self, registered):
        assert get_spec(registered).name == "Toy-8"
        assert get_spec("Toy-8").n_cores == 8

    def test_vmin_table_row_length_validated(self):
        model = replace(
            toy_model(),
            vmin_base_mv={
                FrequencyClass.HIGH: (780, 800),  # needs 3 classes
                FrequencyClass.SKIP: (760, 780),
            },
        )
        with pytest.raises(ConfigurationError, match="droop classes"):
            register_model(model)

    def test_vmin_table_monotone_validated(self):
        model = replace(
            toy_model(),
            vmin_base_mv={
                FrequencyClass.HIGH: (800, 780, 815),
                FrequencyClass.SKIP: (760, 780, 795),
            },
        )
        with pytest.raises(ConfigurationError, match="non-decreasing"):
            register_model(model)

    def test_vmin_table_needs_core_classes(self):
        model = replace(
            toy_model(),
            vmin_base_mv={FrequencyClass.HIGH: (780, 800, 815)},
        )
        with pytest.raises(ConfigurationError, match="missing the 'skip' row"):
            register_model(model)

    def test_vmin_above_nominal_rejected(self):
        model = replace(
            toy_model(),
            vmin_base_mv={
                FrequencyClass.HIGH: (780, 800, 950),
                FrequencyClass.SKIP: (760, 780, 795),
            },
        )
        with pytest.raises(ConfigurationError, match="exceeds the nominal"):
            register_model(model)


class TestEndToEnd:
    def test_vmin_model_works(self, registered):
        spec = get_spec(registered)
        model = VminModel(spec)
        vmin = model.safe_vmin_mv(spec.fmax_hz, range(8))
        assert 810 <= vmin <= 830

    def test_full_evaluation_runs(self, registered):
        from repro.core import run_evaluation

        evaluation = run_evaluation(registered, duration_s=240.0, seed=3)
        rows = {r.config: r for r in evaluation.rows()}
        assert rows["optimal"].energy_savings_pct > 0
        for result in evaluation.results.values():
            assert result.violations == []

    def test_thermal_model_available(self, registered):
        from repro.platform.thermal import ThermalModel

        thermal = ThermalModel(get_spec(registered))
        assert thermal.steady_state_c(10.0) > thermal.ambient_c
