"""Tests for the daemon's monitoring half (paper Section VI.A)."""

import math

import pytest

from repro import telemetry
from repro.core.classifier import L3RateClassifier
from repro.core.monitoring import (
    MIN_WINDOW_CYCLES,
    QUIET_HORIZON_TICKS,
    UNIT_ROUNDOFF,
    MonitoringDaemon,
    PerfLikeReader,
    kernel_module_reader,
)
from repro.errors import ConfigurationError
from repro.telemetry import names as metric_names
from repro.sim.process import SimProcess, WorkloadClass
from repro.workloads.suites import get_benchmark


class FakeSystem:
    """Minimal stand-in: running_processes(), a chip, the clock and the
    time of the last full refresh."""

    def __init__(self, processes, chip=None):
        self._processes = processes
        self.chip = chip
        self.now = 0.0
        self.steady_since_s = 0.0

    def running_processes(self):
        return self._processes


def running_proc(pid, name, nthreads=1):
    proc = SimProcess(
        pid=pid,
        profile=get_benchmark(name),
        nthreads=nthreads,
        arrival_s=0.0,
    )
    proc.start(0.0, tuple(range(nthreads)))
    return proc


class TestSampling:
    def test_first_sample_only_snapshots(self):
        monitor = MonitoringDaemon()
        proc = running_proc(1, "CG")
        proc.counters.advance(5e6, 5e4)
        changes = monitor.sample(FakeSystem([proc]))
        assert changes == []
        assert proc.observed_class is WorkloadClass.UNKNOWN

    def test_classifies_after_window(self):
        monitor = MonitoringDaemon()
        proc = running_proc(1, "CG")
        proc.counters.advance(1e6, 1e4)
        monitor.sample(FakeSystem([proc]))  # snapshot
        proc.counters.advance(2e6, 2e4)  # 10000/1M cycles: memory
        changes = monitor.sample(FakeSystem([proc]))
        assert proc.observed_class is WorkloadClass.MEMORY_INTENSIVE
        assert len(changes) == 1

    def test_short_window_skipped(self):
        monitor = MonitoringDaemon()
        proc = running_proc(1, "CG")
        monitor.sample(FakeSystem([proc]))
        proc.counters.advance(MIN_WINDOW_CYCLES / 2, 1e4)
        monitor.sample(FakeSystem([proc]))
        assert proc.observed_class is WorkloadClass.UNKNOWN

    def test_window_scales_with_threads(self):
        # A 4-thread process accumulates 4x cycles per wall second; the
        # window is per-thread.
        monitor = MonitoringDaemon()
        proc = running_proc(1, "CG", nthreads=4)
        monitor.sample(FakeSystem([proc]))
        proc.counters.advance(2e6, 2e4)  # only 0.5M cycles per thread
        monitor.sample(FakeSystem([proc]))
        assert proc.observed_class is WorkloadClass.UNKNOWN

    def test_unknown_to_cpu_not_reported_as_change(self):
        # New processes already run under CPU assumptions (fail-safe
        # default), so UNKNOWN -> CPU needs no replan.
        monitor = MonitoringDaemon()
        proc = running_proc(1, "namd")
        monitor.sample(FakeSystem([proc]))
        proc.counters.advance(2e6, 100)
        changes = monitor.sample(FakeSystem([proc]))
        assert proc.observed_class is WorkloadClass.CPU_INTENSIVE
        assert changes == []

    def test_class_flip_reported(self):
        monitor = MonitoringDaemon()
        proc = running_proc(1, "CG")
        monitor.sample(FakeSystem([proc]))
        proc.counters.advance(2e6, 2e4)
        monitor.sample(FakeSystem([proc]))  # -> memory
        proc.counters.advance(2e6, 100)  # now CPU-like phase
        changes = monitor.sample(FakeSystem([proc]))
        assert len(changes) == 1
        assert changes[0].sample.decided is WorkloadClass.CPU_INTENSIVE

    def test_forget_drops_state(self):
        monitor = MonitoringDaemon()
        proc = running_proc(1, "CG")
        monitor.sample(FakeSystem([proc]))
        monitor.forget(proc)
        proc.counters.advance(2e6, 2e4)
        changes = monitor.sample(FakeSystem([proc]))
        # After forget, the next sample is a fresh snapshot again.
        assert changes == []

    def test_samples_counted(self):
        monitor = MonitoringDaemon()
        proc = running_proc(1, "CG")
        monitor.sample(FakeSystem([proc]))
        proc.counters.advance(2e6, 2e4)
        monitor.sample(FakeSystem([proc]))
        assert monitor.samples_taken == 1


class TestReaders:
    def test_kernel_reader_exact(self):
        proc = running_proc(1, "CG")
        proc.counters.advance(123.0, 45.0)
        assert kernel_module_reader(proc) == (123.0, 45.0)

    def test_perf_reader_noisy(self):
        proc = running_proc(1, "CG")
        proc.counters.advance(1e6, 3e3)
        reader = PerfLikeReader(noise=0.03, seed=2)
        cycles, accesses = reader(proc)
        assert cycles != 1e6
        assert abs(cycles - 1e6) <= 3e4

    def test_perf_reader_validation(self):
        with pytest.raises(ConfigurationError):
            PerfLikeReader(noise=1.0)

    def test_noisy_reader_can_misclassify_borderline(self):
        # The paper's rationale for the kernel module: +/-3% noise near
        # the 3K threshold flips borderline classifications.
        monitor_noisy = MonitoringDaemon(reader=PerfLikeReader(0.03, seed=3))
        monitor_exact = MonitoringDaemon()
        decisions_noisy = set()
        decisions_exact = set()
        for trial in range(40):
            noisy_proc = running_proc(trial, "CG")
            exact_proc = running_proc(trial, "CG")
            for monitor, proc, out in (
                (monitor_noisy, noisy_proc, decisions_noisy),
                (monitor_exact, exact_proc, decisions_exact),
            ):
                monitor.sample(FakeSystem([proc]))
                # Rate right below the threshold boundary: 2990 / 1M.
                proc.counters.advance(2e6, 2 * 2990)
                monitor.sample(FakeSystem([proc]))
                out.add(proc.observed_class)
        assert decisions_exact == {WorkloadClass.CPU_INTENSIVE}
        assert len(decisions_noisy) == 2  # noise flips some trials


class TestValidation:
    def test_bad_window(self):
        with pytest.raises(ConfigurationError):
            MonitoringDaemon(min_window_cycles=0)


PERIOD_S = 0.4
#: One tick's worth of cycles at 2.4 GHz.
TICK_CYCLES = 2.4e9 * PERIOD_S


def documented_margin(cycles, accesses, dcycles, daccesses, now):
    """The relative rate margin ``quiet_until``'s docstring derives:
    each counter's error bound ``4 * (u * X + sigma * D)`` over its
    window delta, plus the rate's own roundings."""
    u = UNIT_ROUNDOFF
    horizon = QUIET_HORIZON_TICKS
    sigma = math.ulp(now + horizon * PERIOD_S) / PERIOD_S + 8 * u
    err_cycles = 4 * (u * (cycles + horizon * dcycles) + sigma * dcycles)
    err_accesses = 4 * (
        u * (accesses + horizon * daccesses) + sigma * daccesses
    )
    return err_cycles / dcycles + err_accesses / daccesses + 8 * u


def open_window(rate, was, lifetime_ticks=100, tick_cycles=TICK_CYCLES):
    """A monitor, a process of class ``was`` and a system clock one
    period after the pass that opened a pure window on it; the window
    holds one tick at ``rate`` L3C accesses per million cycles."""
    monitor = MonitoringDaemon()
    proc = running_proc(1, "CG")
    proc.observed_class = was
    proc.counters.advance(
        lifetime_ticks * tick_cycles,
        lifetime_ticks * tick_cycles * rate / 1e6,
    )
    system = FakeSystem([proc])
    system.now = 100.0
    system.steady_since_s = 50.0
    monitor.sample(system)  # opens the window (first read)
    proc.counters.advance(tick_cycles, tick_cycles * rate / 1e6)
    system.now = 100.0 + PERIOD_S
    return monitor, proc, system


def margin_of(proc, monitor, system):
    cycles, accesses, _ = monitor._snapshots[proc.pid]
    return documented_margin(
        proc.counters.cycles,
        proc.counters.l3_accesses,
        proc.counters.cycles - cycles,
        proc.counters.l3_accesses - accesses,
        system.now,
    )


class TestQuietUntil:
    def is_quiet(self, monitor, system):
        return monitor.quiet_until(system, PERIOD_S) > system.now

    def test_far_from_every_edge_is_quiet_for_the_horizon(self):
        monitor, _, system = open_window(
            1000.0, WorkloadClass.CPU_INTENSIVE
        )
        assert monitor.quiet_until(system, PERIOD_S) == (
            system.now + (QUIET_HORIZON_TICKS - 1) * PERIOD_S
        )

    def test_margin_is_the_documented_float_error_bound(self):
        # Well outside the derived margin is quiet, well inside is not;
        # the margin itself is float noise, far below the hysteresis.
        upper = L3RateClassifier().upper_bound
        monitor, proc, system = open_window(
            upper, WorkloadClass.CPU_INTENSIVE
        )
        margin = margin_of(proc, monitor, system)
        assert 0 < margin < 1e-9
        for factor, quiet in ((4.0, True), (0.125, False)):
            monitor, _, system = open_window(
                upper * (1 - factor * margin), WorkloadClass.CPU_INTENSIVE
            )
            assert self.is_quiet(monitor, system) is quiet

    def test_margin_grows_with_counter_magnitude(self):
        upper = L3RateClassifier().upper_bound
        monitor, proc, system = open_window(
            upper, WorkloadClass.CPU_INTENSIVE
        )
        margin = margin_of(proc, monitor, system)
        rate = upper * (1 - 4 * margin)
        monitor, _, system = open_window(rate, WorkloadClass.CPU_INTENSIVE)
        assert self.is_quiet(monitor, system)
        # Same rate and window on a counter 10,000x further along: its
        # magnitude at the horizon, hence the margin, is ~16x larger.
        monitor, _, system = open_window(
            rate, WorkloadClass.CPU_INTENSIVE, lifetime_ticks=1_000_000
        )
        assert not self.is_quiet(monitor, system)

    @pytest.mark.parametrize(
        "was, edge, side",
        [
            (WorkloadClass.CPU_INTENSIVE, "upper_bound", -1),
            (WorkloadClass.CPU_INTENSIVE, "upper_bound", +1),
            (WorkloadClass.MEMORY_INTENSIVE, "lower_bound", +1),
            (WorkloadClass.MEMORY_INTENSIVE, "lower_bound", -1),
            (WorkloadClass.UNKNOWN, "threshold", -1),
            (WorkloadClass.UNKNOWN, "threshold", +1),
        ],
    )
    def test_rate_inside_the_margin_of_its_edge_is_not_quiet(
        self, was, edge, side
    ):
        value = getattr(L3RateClassifier(), edge)
        monitor, proc, system = open_window(value, was)
        margin = margin_of(proc, monitor, system)
        monitor, _, system = open_window(
            value * (1 + side * margin / 8), was
        )
        assert not self.is_quiet(monitor, system)

    def test_unclassified_process_is_not_quiet(self):
        # Its first full window sets a class, whatever the rate.
        monitor, _, system = open_window(10.0, WorkloadClass.UNKNOWN)
        assert not self.is_quiet(monitor, system)

    def test_missed_cycle_window_is_not_quiet(self):
        monitor, _, system = open_window(
            1000.0,
            WorkloadClass.CPU_INTENSIVE,
            tick_cycles=MIN_WINDOW_CYCLES * 0.999,
        )
        assert not self.is_quiet(monitor, system)
        # Met by less than the margin: a later window may miss it.
        monitor, _, system = open_window(
            1000.0,
            WorkloadClass.CPU_INTENSIVE,
            tick_cycles=MIN_WINDOW_CYCLES * (1 + 1e-14),
        )
        assert not self.is_quiet(monitor, system)

    def test_process_without_snapshot_is_not_quiet(self):
        monitor, _, system = open_window(1000.0, WorkloadClass.CPU_INTENSIVE)
        newcomer = running_proc(2, "namd")
        newcomer.observed_class = WorkloadClass.CPU_INTENSIVE
        system._processes.append(newcomer)
        assert not self.is_quiet(monitor, system)

    def test_window_across_a_full_refresh_is_not_quiet(self):
        monitor, _, system = open_window(1000.0, WorkloadClass.CPU_INTENSIVE)
        system.steady_since_s = system.now - PERIOD_S / 2
        assert not self.is_quiet(monitor, system)

    def test_window_longer_than_one_period_is_not_quiet(self):
        monitor, _, system = open_window(1000.0, WorkloadClass.CPU_INTENSIVE)
        system.now += PERIOD_S
        assert not self.is_quiet(monitor, system)

    def test_noisy_reader_is_never_quiet(self):
        monitor, _, system = open_window(1000.0, WorkloadClass.CPU_INTENSIVE)
        monitor.reader = PerfLikeReader(0.03, seed=1)
        assert not self.is_quiet(monitor, system)

    def test_no_running_process_is_quiet(self):
        monitor = MonitoringDaemon()
        system = FakeSystem([])
        assert self.is_quiet(monitor, system)


class TestOnFolded:
    def test_leaves_the_monitor_as_real_passes_would(self):
        n_passes = 7

        def replay(fold):
            monitor = MonitoringDaemon()
            procs = [running_proc(1, "CG"), running_proc(2, "namd", 2)]
            system = FakeSystem(procs)
            with telemetry.session() as registry:
                for tick in range(2 + n_passes):
                    system.now = tick * PERIOD_S
                    for proc in procs:
                        proc.counters.advance(
                            TICK_CYCLES * proc.nthreads, 1234.5 * proc.pid
                        )
                    if not fold or tick < 2:
                        monitor.sample(system)
                if fold:
                    monitor.on_folded(system, n_passes)
                counters = registry.snapshot()["counters"]
            return (
                dict(monitor._snapshots),
                monitor.samples_taken,
                counters[metric_names.DAEMON_CLASSIFICATIONS],
                [proc.observed_class for proc in procs],
            )

        assert replay(fold=True) == replay(fold=False)
