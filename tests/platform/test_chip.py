"""Tests for the runtime chip model and its snapshots."""

import dataclasses
import pickle

import pytest

from repro.errors import ConfigurationError, SchedulingError
from repro.platform.chip import Chip
from repro.platform.specs import FrequencyClass
from repro.units import ghz, MHZ


class TestOccupancy:
    def test_occupy_and_release(self, chip2):
        chip2.occupy(0, "p1")
        assert chip2.occupant_of(0) == "p1"
        chip2.release(0)
        assert chip2.occupant_of(0) is None

    def test_double_occupy_same_owner_ok(self, chip2):
        chip2.occupy(0, "p1")
        chip2.occupy(0, "p1")
        assert chip2.occupant_of(0) == "p1"

    def test_double_occupy_conflict(self, chip2):
        chip2.occupy(0, "p1")
        with pytest.raises(SchedulingError):
            chip2.occupy(0, "p2")

    def test_release_occupant_frees_all(self, chip2):
        chip2.occupy(0, "p1")
        chip2.occupy(3, "p1")
        chip2.occupy(5, "p2")
        chip2.release_occupant("p1")
        assert chip2.active_cores == frozenset({5})

    def test_cores_of_occupant_sorted(self, chip2):
        chip2.occupy(6, "p1")
        chip2.occupy(2, "p1")
        assert chip2.cores_of_occupant("p1") == (2, 6)

    def test_idle_cores(self, chip2):
        chip2.occupy(0, "p1")
        assert chip2.idle_cores == tuple(range(1, 8))

    def test_occupy_out_of_range(self, chip2):
        with pytest.raises(ConfigurationError):
            chip2.occupy(8, "p1")

    def test_utilized_pmds(self, chip2):
        chip2.occupy(0, "p1")
        chip2.occupy(1, "p1")
        chip2.occupy(6, "p2")
        assert chip2.utilized_pmds == frozenset({0, 3})

    def test_pmd_is_fully_idle(self, chip2):
        chip2.occupy(0, "p1")
        assert not chip2.pmd_is_fully_idle(0)
        assert chip2.pmd_is_fully_idle(1)


class TestKnobs:
    def test_voltage_delegates_to_slimpro(self, chip2):
        chip2.set_voltage(900)
        assert chip2.voltage_mv == 900
        assert chip2.slimpro.transition_count() == 1

    def test_frequency_delegates_to_cppc(self, chip2):
        chip2.set_pmd_frequency(1, ghz(1.2))
        assert chip2.cppc.frequency_of(1) == ghz(1.2)

    def test_set_all_frequencies(self, chip2):
        chip2.set_all_frequencies(900 * MHZ)
        assert chip2.cppc.frequencies() == (900 * MHZ,) * 4

    def test_reset(self, chip2):
        chip2.occupy(0, "p1")
        chip2.set_voltage(700)
        chip2.set_all_frequencies(300 * MHZ)
        chip2.reset()
        assert chip2.voltage_mv == 980
        assert chip2.active_cores == frozenset()
        assert chip2.cppc.frequencies() == (ghz(2.4),) * 4


class TestChipState:
    def test_snapshot_captures_point(self, chip2):
        chip2.occupy(0, "p")
        chip2.set_pmd_frequency(0, ghz(1.2))
        chip2.set_voltage(900)
        state = chip2.state()
        assert state.voltage_mv == 900
        assert state.active_cores == frozenset({0})
        assert state.pmd_frequencies_hz[0] == ghz(1.2)

    def test_snapshot_immutable_after_change(self, chip2):
        state = chip2.state()
        chip2.set_voltage(900)
        assert state.voltage_mv == 980

    def test_active_pmds(self, chip3):
        chip3.occupy(0, "a")
        chip3.occupy(31, "b")
        assert chip3.state().active_pmds == frozenset({0, 15})

    def test_frequency_of_core(self, chip2):
        chip2.set_pmd_frequency(3, ghz(1.2))
        state = chip2.state()
        assert state.frequency_of_core(6) == ghz(1.2)
        assert state.frequency_of_core(0) == ghz(2.4)

    def test_max_active_frequency_idle_is_floor(self, chip2, spec2):
        assert chip2.state().max_active_frequency() == spec2.fmin_hz

    def test_max_active_frequency(self, chip2):
        chip2.set_all_frequencies(ghz(1.2))
        chip2.set_pmd_frequency(2, ghz(2.4))
        chip2.occupy(4, "p")  # core 4 is on PMD 2
        chip2.occupy(0, "q")
        assert chip2.state().max_active_frequency() == ghz(2.4)

    def test_worst_active_frequency_class(self, chip2):
        chip2.set_all_frequencies(900 * MHZ)
        chip2.occupy(0, "p")
        assert (
            chip2.state().worst_active_frequency_class()
            is FrequencyClass.DIVIDE
        )
        chip2.set_pmd_frequency(0, ghz(2.4))
        assert (
            chip2.state().worst_active_frequency_class()
            is FrequencyClass.HIGH
        )

    def test_cached_active_pmds_equals_recomputation(self, chip3):
        for core in (0, 1, 7, 31):
            chip3.occupy(core, core)
        state = chip3.state()
        expected = frozenset(
            state.spec.pmd_of_core(c) for c in state.active_cores
        )
        assert state.active_pmds == expected
        # Cached: the same object on every read of one snapshot.
        assert state.active_pmds is state.active_pmds

    def test_cached_active_pmds_stays_out_of_identity(self, chip2):
        chip2.occupy(4, "p")
        cached = chip2.state()
        fresh = chip2.state()
        assert cached.active_pmds == frozenset({2})
        assert "active_pmds" in vars(cached)
        assert "active_pmds" not in vars(fresh)
        assert cached == fresh
        assert hash(cached) == hash(fresh)
        # ``replace`` builds a new snapshot: nothing carried over.
        moved = dataclasses.replace(cached, active_cores=frozenset({0}))
        assert "active_pmds" not in vars(moved)
        assert moved.active_pmds == frozenset({0})
        # A pickle round-trip drops the cache and recomputes it.
        restored = pickle.loads(pickle.dumps(cached))
        assert "active_pmds" not in vars(restored)
        assert restored == cached
        assert pickle.dumps(cached) == pickle.dumps(fresh)
        assert restored.active_pmds == frozenset({2})

    def test_from_name_factory(self):
        chip = Chip.from_name("xgene3", silicon_seed=5)
        assert chip.spec.n_cores == 32
        assert chip.silicon_seed == 5
