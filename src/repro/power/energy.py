"""Energy accounting and combined energy/performance metrics (Section V).

Energy is the integral of power over a run; to compare configurations
without rewarding arbitrarily slow ones, the paper uses the
energy-delay-squared product (ED2P = E * D^2), the standard server-class
metric that weighs performance more heavily than EDP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..units import Joules, Seconds, Watts


def edp(energy_j: Joules, delay_s: Seconds) -> float:
    """Energy-delay product, J*s."""
    return energy_j * delay_s


def ed2p(energy_j: Joules, delay_s: Seconds) -> float:
    """Energy-delay-squared product, J*s^2 (the paper's metric)."""
    return energy_j * delay_s * delay_s


def savings_percent(baseline: float, improved: float) -> float:
    """Relative saving of ``improved`` vs ``baseline``, in percent.

    Positive when ``improved`` is smaller (better); this is how the
    paper's Tables III/IV report energy and ED2P savings.
    """
    if baseline == 0:
        raise ConfigurationError("baseline value must be non-zero")
    return 100.0 * (baseline - improved) / baseline


def penalty_percent(baseline: float, degraded: float) -> float:
    """Relative increase of ``degraded`` vs ``baseline``, in percent.

    Positive when ``degraded`` is larger; used for completion-time
    penalties (3.2 % / 2.5 % in the paper's evaluation).
    """
    return -savings_percent(baseline, degraded)


@dataclass
class EnergyMeter:
    """Integrates piecewise-constant power into energy over time.

    The system simulator calls :meth:`accumulate` for every interval
    between events; per-interval samples can optionally be kept for
    time-series figures (Figs. 14/15).
    """

    keep_samples: bool = False
    energy_j: float = 0.0
    elapsed_s: float = 0.0
    samples: List[Tuple[float, float, float]] = field(default_factory=list)
    _time_s: float = 0.0

    def accumulate(self, power_w: Watts, dt_s: Seconds) -> None:
        """Add an interval of constant power."""
        self.accumulate_each(power_w, (dt_s,))

    def accumulate_each(
        self, power_w: Watts, intervals: Sequence[Seconds]
    ) -> None:
        """Add consecutive intervals at one constant power, in order:
        the same sums :meth:`accumulate` makes, one call per interval."""
        if power_w < 0:
            raise ConfigurationError("power must be non-negative")
        energy_j = self.energy_j
        elapsed_s = self.elapsed_s
        time_s = self._time_s
        for dt_s in intervals:
            if dt_s < 0:
                raise ConfigurationError("interval must be non-negative")
            if dt_s == 0:
                continue
            if self.keep_samples:
                self.samples.append((time_s, dt_s, power_w))
            energy_j += power_w * dt_s
            elapsed_s += dt_s
            time_s += dt_s
        self.energy_j = energy_j
        self.elapsed_s = elapsed_s
        self._time_s = time_s

    @property
    def average_power_w(self) -> Watts:
        """Mean power over everything accumulated so far."""
        if self.elapsed_s == 0:
            return 0.0
        return self.energy_j / self.elapsed_s

    def ed2p(self, delay_s: Optional[Seconds] = None) -> float:
        """ED2P using the accumulated energy and (by default) elapsed time."""
        delay = self.elapsed_s if delay_s is None else delay_s
        return ed2p(self.energy_j, delay)


@dataclass(frozen=True)
class RunEnergy:
    """Energy summary of one completed run."""

    duration_s: float
    energy_j: float

    @property
    def average_power_w(self) -> Watts:
        """Mean power over the run."""
        if self.duration_s == 0:
            return 0.0
        return self.energy_j / self.duration_s

    @property
    def edp(self) -> float:
        """Energy-delay product of the run."""
        return edp(self.energy_j, self.duration_s)

    @property
    def ed2p(self) -> float:
        """Energy-delay-squared product of the run."""
        return ed2p(self.energy_j, self.duration_s)

    def normalized(self, instances: int) -> "RunEnergy":
        """Energy divided by the number of replicated instances.

        Section II.B: N copies of a single-threaded benchmark execute N
        units of work, so their energy is normalized by N to compare
        fairly with parallel programs that execute one unit.
        """
        if instances < 1:
            raise ConfigurationError("instances must be >= 1")
        return RunEnergy(
            duration_s=self.duration_s, energy_j=self.energy_j / instances
        )
