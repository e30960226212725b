"""Tests for the L3C-rate workload classifier (paper Section IV.B)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classifier import DEFAULT_THRESHOLD, L3RateClassifier
from repro.errors import ConfigurationError
from repro.sim.process import WorkloadClass


@pytest.fixture
def classifier():
    return L3RateClassifier()


class TestThreshold:
    def test_paper_threshold(self):
        assert DEFAULT_THRESHOLD == 3000.0

    def test_above_threshold_memory(self, classifier):
        sample = classifier.classify(8000.0)
        assert sample.decided is WorkloadClass.MEMORY_INTENSIVE

    def test_below_threshold_cpu(self, classifier):
        sample = classifier.classify(100.0)
        assert sample.decided is WorkloadClass.CPU_INTENSIVE

    def test_exactly_threshold_is_cpu(self, classifier):
        # Paper: "more than 3K" -> memory.
        sample = classifier.classify(3000.0)
        assert sample.decided is WorkloadClass.CPU_INTENSIVE

    def test_negative_rate_rejected(self, classifier):
        with pytest.raises(ConfigurationError):
            classifier.classify(-1.0)


class TestHysteresis:
    def test_borderline_does_not_flap(self, classifier):
        # A rate oscillating just inside the band keeps the class.
        first = classifier.classify(
            3100.0, previous=WorkloadClass.CPU_INTENSIVE
        )
        assert first.decided is WorkloadClass.CPU_INTENSIVE  # < upper
        second = classifier.classify(
            2950.0, previous=WorkloadClass.MEMORY_INTENSIVE
        )
        assert second.decided is WorkloadClass.MEMORY_INTENSIVE  # > lower

    def test_clear_crossing_flips(self, classifier):
        sample = classifier.classify(
            5000.0, previous=WorkloadClass.CPU_INTENSIVE
        )
        assert sample.decided is WorkloadClass.MEMORY_INTENSIVE
        assert sample.changed

    def test_changed_flag_only_on_flip(self, classifier):
        stays = classifier.classify(
            100.0, previous=WorkloadClass.CPU_INTENSIVE
        )
        assert not stays.changed

    def test_unknown_never_counts_as_change(self, classifier):
        sample = classifier.classify(
            100.0, previous=WorkloadClass.UNKNOWN
        )
        assert not sample.changed

    def test_bounds(self):
        c = L3RateClassifier(threshold=3000.0, hysteresis=0.1)
        assert c.upper_bound == pytest.approx(3300.0)
        assert c.lower_bound == pytest.approx(2700.0)

    def test_zero_hysteresis_allowed(self):
        c = L3RateClassifier(hysteresis=0.0)
        assert c.upper_bound == c.lower_bound == c.threshold


class TestValidation:
    def test_bad_threshold(self):
        with pytest.raises(ConfigurationError):
            L3RateClassifier(threshold=0.0)

    def test_bad_hysteresis(self):
        with pytest.raises(ConfigurationError):
            L3RateClassifier(hysteresis=1.0)


_PREVIOUS = tuple(WorkloadClass)


def _edges(classifier):
    """Every decision bound and its two neighbouring floats."""
    rates = []
    for bound in (
        classifier.threshold,
        classifier.lower_bound,
        classifier.upper_bound,
    ):
        rates += [
            math.nextafter(bound, -math.inf),
            bound,
            math.nextafter(bound, math.inf),
        ]
    return rates


class TestDecide:
    """``decide`` is ``classify`` without the sample allocation."""

    @pytest.mark.parametrize("hysteresis", [0.0, 0.05, 0.1])
    def test_edges_match_classify(self, hysteresis):
        c = L3RateClassifier(hysteresis=hysteresis)
        for rate in _edges(c):
            for previous in _PREVIOUS:
                assert (
                    c.decide(rate, previous)
                    is c.classify(rate, previous).decided
                )

    @given(
        st.sampled_from((0.0, 0.05, 0.1)),
        st.sampled_from(_PREVIOUS),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_near_bounds_match_classify(self, hysteresis, previous, data):
        c = L3RateClassifier(hysteresis=hysteresis)
        bound = data.draw(
            st.sampled_from((c.threshold, c.lower_bound, c.upper_bound))
        )
        rate = data.draw(st.floats(bound * 0.99, bound * 1.01))
        assert c.decide(rate, previous) is c.classify(rate, previous).decided

    @pytest.mark.parametrize("previous", _PREVIOUS)
    def test_negative_rate_raises_from_both(self, classifier, previous):
        with pytest.raises(ConfigurationError):
            classifier.decide(-1e-9, previous)
        with pytest.raises(ConfigurationError):
            classifier.classify(-1e-9, previous)
