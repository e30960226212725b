"""The monitoring half of the online daemon (Section VI.A).

The monitor is a watchdog that periodically reads per-process performance
counters (through the paper's zero-overhead kernel-module path, or a
noisy perf-like path for the measurement ablation), computes each
process's L3C access rate over a window of at least one million cycles,
and (re)classifies the process. It also reports the currently utilized
PMDs, which determine the droop class the placement half must respect.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from .. import telemetry
from ..errors import ConfigurationError
from ..sim.process import SimProcess, WorkloadClass
from ..telemetry import names as metric_names
from .classifier import ClassificationSample, L3RateClassifier

if TYPE_CHECKING:  # pragma: no cover - typing only (import cycle guard)
    from ..policies.surfaces import Observation

#: Minimum cycle window between two classification reads (Section VI.A:
#: the daemon counts L3C accesses during one million cycles).
MIN_WINDOW_CYCLES = 1_000_000

#: Ticks one quiet verdict covers (:meth:`MonitoringDaemon.quiet_until`);
#: the float-error margin grows with the counter magnitude at its end.
QUIET_HORIZON_TICKS = 1 << 16

#: Unit roundoff of IEEE-754 binary64 (half an ulp of 1.0).
UNIT_ROUNDOFF = 2.0**-53

#: Reads (cycles, l3_accesses) of a process; replaceable for noise models.
CounterReader = Callable[[SimProcess], Tuple[float, float]]


def kernel_module_reader(process: SimProcess) -> Tuple[float, float]:
    """Exact counter read (the paper's kernel-module path)."""
    return process.counters.cycles, process.counters.l3_accesses


class PerfLikeReader:
    """Counter reads with ±``noise`` relative error (perf/PAPI path).

    Section VI.A motivates the kernel module with the ±3 % overhead of
    perf-style tooling; this reader exists so the measurement-noise
    ablation can quantify the misclassifications that noise causes near
    the 3 K threshold.
    """

    def __init__(self, noise: float = 0.03, seed: int = 0):
        if not 0.0 <= noise < 1.0:
            raise ConfigurationError("noise must be in [0, 1)")
        self._noise = noise
        self._rng = random.Random(seed)

    def __call__(self, process: SimProcess) -> Tuple[float, float]:
        def jitter(value: float) -> float:
            return value * (
                1.0 + self._rng.uniform(-self._noise, self._noise)
            )

        return (
            jitter(process.counters.cycles),
            jitter(process.counters.l3_accesses),
        )


@dataclass(frozen=True)
class ClassChange:
    """One process whose class flipped during a monitor pass."""

    process: SimProcess
    sample: ClassificationSample


class MonitoringDaemon:
    """Watchdog half of the daemon: classify processes, track PMDs."""

    def __init__(
        self,
        classifier: Optional[L3RateClassifier] = None,
        reader: Optional[CounterReader] = None,
        min_window_cycles: float = MIN_WINDOW_CYCLES,
    ):
        if min_window_cycles <= 0:
            raise ConfigurationError("window must be positive")
        self.classifier = classifier or L3RateClassifier()
        self.reader: CounterReader = reader or kernel_module_reader
        self.min_window_cycles = min_window_cycles
        #: pid -> (cycles, l3_accesses, time_s) of the last
        #: classification read.
        self._snapshots: Dict[int, Tuple[float, float, float]] = {}
        self.samples_taken = 0

    def forget(self, process: SimProcess) -> None:
        """Drop state for a finished process."""
        self._snapshots.pop(process.pid, None)

    def sample(self, system: "Observation") -> List[ClassChange]:
        """One monitor pass: classify every running process.

        ``system`` is anything exposing ``running_processes()`` — a live
        :class:`~repro.policies.surfaces.Observation` in the policy
        dispatch path, or the server system itself in tests/tools.

        A process is (re)classified only once its cycle counter advanced
        by at least the window since the previous read — the hardware
        protocol of two counter reads one million cycles apart.
        Returns the processes whose class changed.
        """
        changes: List[ClassChange] = []
        now = system.now
        snapshots = self._snapshots
        reader = self.reader
        decide = self.classifier.decide
        window = self.min_window_cycles
        classified = 0
        for process in system.running_processes():
            cycles, accesses = reader(process)
            previous = snapshots.get(process.pid)
            if previous is None:
                snapshots[process.pid] = (cycles, accesses, now)
                continue
            dcycles = cycles - previous[0]
            if dcycles < window * process.nthreads:
                continue
            daccesses = max(0.0, accesses - previous[1])
            rate = 1e6 * daccesses / dcycles
            snapshots[process.pid] = (cycles, accesses, now)
            classified += 1
            was = process.observed_class
            decided = decide(rate, was)
            if decided is was:
                continue
            process.observed_class = decided
            # UNKNOWN -> CPU is not a behavioural change: new processes
            # are already treated as CPU-intensive (the fail-safe
            # default of Fig. 13).
            if (
                was is not WorkloadClass.UNKNOWN
                or decided is not WorkloadClass.CPU_INTENSIVE
            ):
                sample = ClassificationSample(rate, was, decided)
                changes.append(ClassChange(process, sample))
                telemetry.inc(metric_names.DAEMON_CLASS_FLIPS)
        if classified:
            self.samples_taken += classified
            telemetry.inc(metric_names.DAEMON_CLASSIFICATIONS, classified)
        return changes

    def quiet_until(self, system: "Observation", period_s: float) -> float:
        """Time before which passes every ``period_s`` flip no class.

        Asked at a tick, before its pass, assuming the machine stays on
        its current steady segment (no event but ticks). Returns
        ``system.now`` (nothing proven) unless, for every running
        process:

        * the reader is the exact :func:`kernel_module_reader` (a noisy
          reader draws random numbers on every read);
        * the process has been classified (an unclassified one changes
          class on its first full window);
        * its open window is *pure*: it was opened by the previous pass,
          one period ago, at or after the last full refresh, so it spans
          one interval of the constant rates every later window sees;
        * every later window still meets the cycle window, and its rate
          stays on the process's side of the edge its class is judged
          by (``lower_bound`` for memory-intensive, ``upper_bound`` for
          CPU-intensive), by more than the float-error margin below.

        Then it returns the end of :data:`QUIET_HORIZON_TICKS` periods.

        The margin, for either counter (cycles or L3 accesses). Let
        ``u = 2**-53`` and ``T`` the horizon's end. The engine schedules
        ticks as ``t + period``, so an interval differs from ``period``
        by at most ``ulp(T) / 2``, and the increment the engine adds
        each interval (``freq * dt * nthreads``; the L3 one has one
        rounding more) lies within a relative ``s = ulp(T) / (2 *
        period) + 4 * u`` of one fixed value ``C``. Adding it to a
        counter of magnitude at most ``X`` rounds by at most ``u * X``,
        and the pass's subtraction of two reads is exact (Sterbenz) or
        one more ``u``. So every window's measured delta is within
        ``E = u * X + sigma * D`` of ``C``, with ``D`` the open window's
        delta, ``sigma = 2 * s = ulp(T) / period + 8 * u`` (covering
        ``C <= 2 * D``) and ``X = counter + QUIET_HORIZON_TICKS * D``
        the counter's value at the horizon. Two windows therefore
        differ by at most ``2 * E``; the check uses ``4 * E``, twice
        that, so the rounding of the bound arithmetic cannot undercut
        it, and widens the rate's own two roundings to ``8 * u``. For
        real runs ``X / D`` stays far below 2**20, so the margin is
        under ~1e-9 of the rate: only a rate that close to an edge, or
        a window that close to the cycle minimum, keeps ticks unfolded.
        """
        now = system.now
        if self.reader is not kernel_module_reader:
            return now
        steady_s = system.steady_since_s
        horizon = QUIET_HORIZON_TICKS
        sigma = (
            math.ulp(now + horizon * period_s) / period_s
            + 8 * UNIT_ROUNDOFF
        )
        slack = 1.0 + 8 * UNIT_ROUNDOFF
        upper = self.classifier.upper_bound
        lower = self.classifier.lower_bound
        snapshots = self._snapshots
        window = self.min_window_cycles
        for process in system.running_processes():
            previous = snapshots.get(process.pid)
            if previous is None:
                return now
            was = process.observed_class
            snap_cycles, snap_accesses, snap_s = previous
            if (
                was is WorkloadClass.UNKNOWN
                or snap_s < steady_s
                or snap_s + period_s != now
            ):
                return now
            cycles = process.counters.cycles
            accesses = process.counters.l3_accesses
            dcycles = cycles - snap_cycles
            daccesses = max(0.0, accesses - snap_accesses)
            err_cycles = 4 * (
                UNIT_ROUNDOFF * (cycles + horizon * dcycles)
                + sigma * dcycles
            )
            err_accesses = 4 * (
                UNIT_ROUNDOFF * (accesses + horizon * daccesses)
                + sigma * daccesses
            )
            low_cycles = dcycles - err_cycles
            if low_cycles < window * process.nthreads:
                return now
            if was is WorkloadClass.MEMORY_INTENSIVE:
                low_rate = (
                    1e6 * (daccesses - err_accesses)
                    / (dcycles + err_cycles)
                    / slack
                )
                if not low_rate > lower:
                    return now
            else:
                high_rate = (
                    1e6 * (daccesses + err_accesses) / low_cycles * slack
                )
                if high_rate > upper:
                    return now
        return now + (horizon - 1) * period_s

    def on_folded(self, system: "Observation", n_passes: int) -> None:
        """Account for ``n_passes`` quiet passes that were not run.

        Leaves the monitor as those passes would have: each classified
        every running process (``quiet_until`` proved every window met
        and no class flips), so the snapshots hold the current counters
        and time, and the classification counts grow by one per process
        per pass.
        """
        now = system.now
        snapshots = self._snapshots
        reader = self.reader
        running = system.running_processes()
        for process in running:
            cycles, accesses = reader(process)
            snapshots[process.pid] = (cycles, accesses, now)
        classified = n_passes * len(running)
        if classified:
            self.samples_taken += classified
            telemetry.inc(metric_names.DAEMON_CLASSIFICATIONS, classified)

    def utilized_pmds(self, system: "Observation") -> int:
        """Number of PMDs with at least one running thread."""
        return len(system.chip.utilized_pmds)
