"""Invariant tests of the declarative platform registry.

Every shipped spec file must load, validate, round-trip through the
dict serialization, and satisfy the physical monotonicity the rest of
the stack assumes: a worse droop class never lowers the safe Vmin, a
lower frequency class never raises it, and the calibrated power model
stays inside the TDP envelope.
"""

from __future__ import annotations

import copy
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.experiments.fig3_vmin_characterization import characterization_grid
from repro.perf.model import mem_time_scale
from repro.platform.registry import (
    get_platform,
    load_platform_file,
    model_for_spec,
    model_from_dict,
    model_to_dict,
    platform_key_for_spec,
    platform_keys,
    register_model,
    spec_files,
    try_get_platform,
    validate_model,
)
from repro.platform.specs import FrequencyClass, get_spec
from repro.power.model import PowerModel
from repro.units import ghz
from repro.vmin.droop import DroopModel, droop_ladder
from repro.vmin.faults import FaultModel
from repro.vmin.variation import make_variation_map, max_core_offset_mv

ALL_KEYS = platform_keys()


@pytest.fixture(params=ALL_KEYS)
def model(request):
    """Each registered platform bundle in turn."""
    return get_platform(request.param)


class TestSpecFiles:
    def test_three_builtin_platforms(self):
        assert ALL_KEYS == ("xgene2", "xgene3", "xgene3-xl")

    def test_every_shipped_file_loads_and_validates(self):
        for path in spec_files():
            loaded = load_platform_file(path)
            assert validate_model(loaded) == []

    def test_shipped_files_match_registered_models(self):
        by_key = {
            load_platform_file(path).key: load_platform_file(path)
            for path in spec_files()
        }
        for key in ALL_KEYS:
            assert by_key[key] == get_platform(key)

    def test_dict_round_trip_is_identity(self, model):
        assert model_from_dict(model_to_dict(model)) == model

    def test_json_shape_round_trips(self, model):
        # model_to_dict output must survive JSON (the .json loader path).
        import json

        data = json.loads(json.dumps(model_to_dict(model)))
        assert model_from_dict(data) == model


class TestVminMonotonicity:
    def test_vmin_non_decreasing_in_droop_class(self, model):
        for row in model.vmin_base_mv.values():
            assert list(row) == sorted(row)

    def test_lower_frequency_class_never_raises_vmin(self, model):
        order = (
            FrequencyClass.HIGH,
            FrequencyClass.SKIP,
            FrequencyClass.DIVIDE,
        )
        present = [c for c in order if c in model.vmin_base_mv]
        for above, below in zip(present, present[1:]):
            for hi, lo in zip(
                model.vmin_base_mv[above], model.vmin_base_mv[below]
            ):
                assert lo <= hi

    def test_rows_span_the_droop_ladder(self, model):
        n_classes = len(droop_ladder(model.spec))
        for row in model.vmin_base_mv.values():
            assert len(row) == n_classes

    def test_base_vmin_below_nominal(self, model):
        nominal = model.spec.nominal_voltage_mv
        for row in model.vmin_base_mv.values():
            assert max(row) <= nominal


class TestPowerSanity:
    def test_idle_below_max_below_tdp(self, model):
        power = PowerModel(model.spec)
        from repro.platform.chip import ChipState

        idle = power.idle_power_w(
            ChipState(
                spec=model.spec,
                voltage_mv=model.spec.nominal_voltage_mv,
                pmd_frequencies_hz=(model.spec.fmax_hz,)
                * model.spec.n_pmds,
                active_cores=frozenset(),
            )
        )
        assert 0 < idle < power.max_power_w() < model.spec.tdp_w

    def test_thermal_params_resolve(self, model):
        from repro.platform.thermal import ThermalModel

        assert ThermalModel(model.spec).params.resistance_c_per_w > 0


class TestXgene3XL:
    """The spec-file-only platform runs through the same consumer stack."""

    def test_resolves_by_key_and_display_name(self):
        spec = get_spec("xgene3-xl")
        assert spec.n_cores == 64
        assert spec.n_pmds == 32
        assert platform_key_for_spec(spec) == "xgene3-xl"
        assert try_get_platform(spec.name) is get_platform("xgene3-xl")

    def test_fault_params_come_from_the_bundle(self):
        spec = get_spec("xgene3-xl")
        faults = FaultModel(spec=spec)
        params = get_platform("xgene3-xl").faults
        assert faults.MAX_WIDTH_MV == params.max_width_mv
        assert faults.WIDTH_STEP_MV == params.width_step_mv
        assert faults.MIN_WIDTH_MV == params.min_width_mv

    def test_paper_chip_fault_params_equal_class_defaults(self):
        # Bit-for-bit guard: the paper bundles restate the historical
        # class defaults, so cache content keys cannot move.
        default = FaultModel()
        for key in ("xgene2", "xgene3"):
            bundled = FaultModel(spec=get_spec(key))
            assert bundled.MAX_WIDTH_MV == default.MAX_WIDTH_MV
            assert bundled.WIDTH_STEP_MV == default.WIDTH_STEP_MV
            assert bundled.MIN_WIDTH_MV == default.MIN_WIDTH_MV

    def test_characterization_grid_declared(self):
        grid = get_platform("xgene3-xl").characterization
        assert grid.threads == (64, 32, 16)
        assert grid.freqs_hz == (ghz(3.2), ghz(1.6))

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_same_seed_same_silicon(self, silicon_seed):
        spec = get_spec("xgene3-xl")
        first = make_variation_map(spec, silicon_seed)
        second = make_variation_map(spec, silicon_seed)
        assert first.offsets_mv == second.offsets_mv
        assert len(first.offsets_mv) == spec.n_cores
        limit = get_platform("xgene3-xl").variation.max_offset_mv
        assert all(0 <= o <= limit for o in first.offsets_mv)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_droop_model_deterministic(self, seed):
        spec = get_spec("xgene3-xl")
        first = DroopModel(spec, seed=seed)
        second = DroopModel(spec, seed=seed)
        rates = first.rates_per_mcycles(8, FrequencyClass.HIGH)
        assert rates == second.rates_per_mcycles(8, FrequencyClass.HIGH)


class TestRejection:
    def test_unknown_platform_lists_keys(self):
        with pytest.raises(ConfigurationError) as excinfo:
            get_platform("epyc")
        assert "xgene3-xl" in str(excinfo.value)

    def test_missing_section_rejected(self):
        data = model_to_dict(get_platform("xgene3"))
        del data["power"]
        with pytest.raises(ConfigurationError):
            model_from_dict(data)

    def test_non_monotonic_droop_row_fails_validation(self):
        data = copy.deepcopy(model_to_dict(get_platform("xgene3")))
        row = data["vmin"]["base_mv"]["high"]
        data["vmin"]["base_mv"]["high"] = list(reversed(row))
        broken = model_from_dict(data)
        assert any(
            "droop" in problem for problem in validate_model(broken)
        )

    def test_vmin_above_nominal_fails_validation(self):
        data = copy.deepcopy(model_to_dict(get_platform("xgene2")))
        data["vmin"]["base_mv"]["high"][-1] = (
            data["chip"]["nominal_voltage_mv"] + 100
        )
        broken = model_from_dict(data)
        assert validate_model(broken) != []

    def test_unknown_frequency_class_rejected(self):
        data = copy.deepcopy(model_to_dict(get_platform("xgene2")))
        data["vmin"]["base_mv"]["turbo"] = [700, 700, 700]
        with pytest.raises(ConfigurationError):
            model_from_dict(data)


class TestUnregisteredSpec:
    @pytest.mark.parametrize(
        "lookup",
        [
            model_for_spec,
            mem_time_scale,
            max_core_offset_mv,
            DroopModel,
            lambda spec: FaultModel(spec=spec),
            characterization_grid,
        ],
        ids=[
            "model_for_spec",
            "mem_time_scale",
            "max_core_offset_mv",
            "DroopModel",
            "FaultModel",
            "characterization_grid",
        ],
    )
    def test_fails_loud(self, spec2, lookup):
        # A renamed clone has no bundle: no layer may fall back to a
        # default or another chip's constants.
        clone = replace(spec2, name="Clone-8")
        with pytest.raises(ConfigurationError, match="Clone-8"):
            lookup(clone)

    def test_malformed_spec_file_names_the_file(self, tmp_path):
        path = tmp_path / "broken.toml"
        path.write_text("[platform\nkey = 'broken'\n", encoding="utf-8")
        with pytest.raises(ConfigurationError) as excinfo:
            load_platform_file(path)
        assert str(excinfo.value).startswith("broken.toml: ")


class TestDisplayNameCollision:
    def test_second_key_cannot_claim_a_registered_name(self, restore_registry):
        xgene3 = get_platform("xgene3")
        alpha = replace(
            xgene3, key="alpha", spec=replace(xgene3.spec, name="Shared Chip")
        )
        lower = {
            freq_class: tuple(mv - 40 for mv in row)
            for freq_class, row in alpha.vmin_base_mv.items()
        }
        beta = replace(alpha, key="beta", vmin_base_mv=lower)
        register_model(alpha)
        with pytest.raises(ConfigurationError) as excinfo:
            register_model(beta)
        message = str(excinfo.value)
        for part in ("'alpha'", "'beta'", "'Shared Chip'"):
            assert part in message
        assert model_for_spec(alpha.spec) is alpha

    def test_same_key_may_re_register(self, restore_registry):
        xgene3 = get_platform("xgene3")
        gamma = replace(
            xgene3, key="gamma", spec=replace(xgene3.spec, name="Gamma Chip")
        )
        register_model(gamma)
        renamed = replace(gamma, spec=replace(gamma.spec, name="Gamma Two"))
        assert register_model(renamed) == "gamma"
        assert model_for_spec(renamed.spec) is renamed
        # The old name is free again once its key moved on.
        delta = replace(gamma, key="delta")
        assert register_model(delta) == "delta"
