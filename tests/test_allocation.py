"""Tests for clustered/spreaded core allocation (paper Fig. 2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation import (
    Allocation,
    clustered_cores,
    cores_for,
    pick_free_cores,
    spreaded_cores,
    utilized_pmd_count,
    utilized_pmds,
)
from repro.errors import ConfigurationError, PlacementError
from repro.platform.specs import get_spec


class TestClustered:
    def test_consecutive_cores(self, spec2):
        assert clustered_cores(spec2, 4) == (0, 1, 2, 3)

    def test_pmd_count_is_ceil_half(self, spec2):
        assert utilized_pmd_count(spec2, 1, Allocation.CLUSTERED) == 1
        assert utilized_pmd_count(spec2, 2, Allocation.CLUSTERED) == 1
        assert utilized_pmd_count(spec2, 3, Allocation.CLUSTERED) == 2
        assert utilized_pmd_count(spec2, 4, Allocation.CLUSTERED) == 2

    def test_xgene3_16t_clustered_uses_8_pmds(self, spec3):
        # Table II: 16T(clustered) -> 8 PMDs.
        assert utilized_pmd_count(spec3, 16, Allocation.CLUSTERED) == 8


class TestSpreaded:
    def test_one_thread_per_pmd(self, spec2):
        cores = spreaded_cores(spec2, 4)
        assert cores == (0, 2, 4, 6)
        assert len(utilized_pmds(spec2, cores)) == 4

    def test_xgene3_16t_spreaded_uses_16_pmds(self, spec3):
        # Table II: 16T(spreaded) -> 16 PMDs.
        assert utilized_pmd_count(spec3, 16, Allocation.SPREADED) == 16

    def test_overflow_fills_second_cores(self, spec2):
        cores = spreaded_cores(spec2, 6)
        assert set(cores) == {0, 2, 4, 6, 1, 3}

    def test_full_chip_equals_clustered(self, spec2):
        assert set(spreaded_cores(spec2, 8)) == set(
            clustered_cores(spec2, 8)
        )


class TestCoresFor:
    def test_dispatch(self, spec2):
        assert cores_for(spec2, 2, Allocation.CLUSTERED) == (0, 1)
        assert cores_for(spec2, 2, Allocation.SPREADED) == (0, 2)

    def test_nthreads_bounds(self, spec2):
        with pytest.raises(ConfigurationError):
            cores_for(spec2, 0, Allocation.CLUSTERED)
        with pytest.raises(ConfigurationError):
            cores_for(spec2, 9, Allocation.CLUSTERED)


class TestPickFreeCores:
    def test_clustered_prefers_partially_used_pmds(self, spec2):
        # Core 1 is busy; clustered should pick its sibling (core 0)
        # before opening a fresh PMD.
        free = [0, 2, 3, 4, 5, 6, 7]
        chosen = pick_free_cores(spec2, free, 1, Allocation.CLUSTERED)
        assert chosen == (0,)

    def test_clustered_packs_pairs(self, spec2):
        chosen = pick_free_cores(
            spec2, range(8), 4, Allocation.CLUSTERED
        )
        assert len(utilized_pmds(spec2, chosen)) == 2

    def test_spreaded_prefers_fresh_pmds(self, spec2):
        # Cores 0 and 1 busy (PMD0 full); the spreaded pick should use
        # fresh PMDs 1, 2, 3.
        free = [2, 3, 4, 5, 6, 7]
        chosen = pick_free_cores(spec2, free, 3, Allocation.SPREADED)
        assert len(utilized_pmds(spec2, chosen)) == 3

    def test_spreaded_on_empty_chip(self, spec3):
        chosen = pick_free_cores(
            spec3, range(32), 16, Allocation.SPREADED
        )
        assert len(utilized_pmds(spec3, chosen)) == 16

    def test_not_enough_free(self, spec2):
        with pytest.raises(PlacementError):
            pick_free_cores(spec2, [0, 1], 3, Allocation.CLUSTERED)

    def test_no_duplicates(self, spec3):
        chosen = pick_free_cores(
            spec3, range(32), 32, Allocation.CLUSTERED
        )
        assert len(set(chosen)) == 32

    def test_picks_only_free_cores(self, spec2):
        free = [1, 3, 5, 7]
        chosen = pick_free_cores(spec2, free, 2, Allocation.SPREADED)
        assert set(chosen) <= set(free)


def _reference_pick(spec, free_cores, nthreads, allocation):
    """The unmemoized greedy, restated from the strategy's definition."""
    free_set = set(free_cores)
    if len(free_set) < nthreads:
        raise PlacementError("not enough free cores")
    chosen = []
    for _ in range(nthreads):
        chosen_pmds = {spec.pmd_of_core(c) for c in chosen}

        def rank(core):
            pmd = spec.pmd_of_core(core)
            siblings_free = all(
                s in free_set for s in spec.cores_of_pmd(pmd) if s != core
            )
            if allocation is Allocation.CLUSTERED:
                return (1 if siblings_free else 0, core)
            fresh = pmd not in chosen_pmds and siblings_free
            return (0 if fresh else 1, core)

        core = min(free_set, key=rank)
        chosen.append(core)
        free_set.remove(core)
    return tuple(chosen)


@st.composite
def _pick_cases(draw):
    spec = get_spec(draw(st.sampled_from(("xgene2", "xgene3", "xgene3-xl"))))
    # Unsorted, with duplicates: the memo key must canonicalize both.
    free = draw(st.lists(st.integers(0, spec.n_cores - 1), max_size=80))
    nthreads = draw(st.integers(1, min(len(set(free)) + 2, spec.n_cores)))
    allocation = draw(st.sampled_from(tuple(Allocation)))
    return spec, free, nthreads, allocation


class TestPickFreeCoresMemo:
    @given(_pick_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_greedy(self, case):
        spec, free, nthreads, allocation = case
        if len(set(free)) < nthreads:
            with pytest.raises(PlacementError):
                pick_free_cores(spec, free, nthreads, allocation)
            return
        expected = _reference_pick(spec, free, nthreads, allocation)
        # Twice: the second call is served by the memo.
        assert pick_free_cores(spec, free, nthreads, allocation) == expected
        assert pick_free_cores(spec, free, nthreads, allocation) == expected
        reordered = sorted(set(free), reverse=True)
        assert (
            pick_free_cores(spec, reordered, nthreads, allocation)
            == expected
        )
