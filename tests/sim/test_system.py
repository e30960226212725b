"""Tests for the server-system simulator."""

import pytest

from repro.core.monitoring import MonitoringDaemon, PerfLikeReader
from repro.core.policy import VminPolicyTable
from repro.errors import SimulationError, SystemCrash
from repro.experiments.fig13_flow import _TracingDaemon
from repro.perf.model import ExecutionState, job_duration_s
from repro.platform.chip import Chip
from repro.platform.specs import xgene2_spec
from repro.platform.thermal import ThermalModel
from repro.policies.arbitration import PolicyStack
from repro.policies.daemon import OnlineMonitoringDaemon
from repro.policies.ed2p import Ed2pPolicy
from repro.policies.governors import BaselinePolicy
from repro.policies.surfaces import Action, Policy, PolicyEvent
from repro.sim import system as system_module
from repro.sim.reference import ReferenceServerSystem
from repro.sim.system import ServerSystem
from repro.vmin.droop import DroopModel
from repro.workloads.generator import JobSpec, Workload
from repro.workloads.suites import get_benchmark
from tests.sim.test_incremental_equivalence import observables


def make_workload(jobs, duration=600.0, max_cores=8):
    return Workload(
        jobs=tuple(
            JobSpec(job_id=i, benchmark=name, nthreads=n, start_time_s=t)
            for i, (name, n, t) in enumerate(jobs)
        ),
        duration_s=duration,
        max_cores=max_cores,
        seed=0,
    )


def run_system(jobs, policy=None, chip=None, **kwargs):
    chip = chip or Chip(xgene2_spec())
    system = ServerSystem(
        chip,
        make_workload(jobs),
        policy=policy or BaselinePolicy(),
        **kwargs,
    )
    return system.run(), system


class TestSingleJob:
    def test_runs_to_completion(self):
        result, _ = run_system([("namd", 1, 0.0)])
        proc = result.processes[0]
        assert proc.finish_s is not None
        assert result.makespan_s == proc.finish_s

    def test_duration_matches_analytic_model(self, spec2):
        # Under the baseline the job runs solo at fmax: the DES duration
        # must equal the closed-form model's.
        result, _ = run_system([("namd", 1, 0.0)])
        expected = job_duration_s(
            get_benchmark("namd"), spec2, spec2.fmax_hz
        )
        assert result.makespan_s == pytest.approx(expected, rel=1e-6)

    def test_energy_positive_and_consistent(self):
        result, _ = run_system([("EP", 2, 0.0)])
        assert result.energy_j > 0
        assert result.average_power_w == pytest.approx(
            result.energy_j / result.makespan_s
        )

    def test_ed2p(self):
        result, _ = run_system([("EP", 2, 0.0)])
        assert result.ed2p == pytest.approx(
            result.energy_j * result.makespan_s**2
        )

    def test_arrival_delay_respected(self):
        result, _ = run_system([("namd", 1, 50.0)])
        assert result.processes[0].start_s == pytest.approx(50.0)


class TestMultipleJobs:
    def test_contention_slows_memory_jobs(self, spec2):
        solo, _ = run_system([("CG", 4, 0.0)])
        crowded, _ = run_system([("CG", 4, 0.0), ("milc", 1, 0.0),
                                 ("lbm", 1, 0.0), ("mcf", 1, 0.0)])
        cg_solo = solo.processes[0]
        cg_crowded = crowded.processes[0]
        assert (
            cg_crowded.finish_s - cg_crowded.start_s
            > cg_solo.finish_s - cg_solo.start_s
        )

    def test_all_jobs_complete(self, short_workload2, chip2):
        system = ServerSystem(
            chip2, short_workload2, BaselinePolicy()
        )
        result = system.run()
        assert all(p.finish_s is not None for p in result.processes)

    def test_queueing_when_full(self):
        # 8 single-thread jobs + 1 more than capacity at t=0.
        jobs = [("namd", 1, 0.0)] * 8 + [("EP", 2, 0.0)]
        result, _ = run_system(jobs)
        ep = result.processes[-1]
        assert ep.start_s > 0.0  # had to wait for cores
        assert ep.finish_s is not None

    def test_makespan_covers_all(self, short_workload2, chip2):
        result = ServerSystem(
            chip2, short_workload2, BaselinePolicy()
        ).run()
        assert result.makespan_s == max(
            p.finish_s for p in result.processes
        )


class TestTraces:
    def test_trace_sampled_every_second(self):
        result, _ = run_system([("EP", 4, 0.0)])
        trace = result.trace
        assert trace is not None
        assert len(trace.samples) >= int(result.makespan_s)

    def test_trace_disabled(self):
        chip = Chip(xgene2_spec())
        system = ServerSystem(
            chip,
            make_workload([("EP", 2, 0.0)]),
            BaselinePolicy(),
            trace_period_s=None,
        )
        assert system.run().trace is None

    def test_trace_shows_busy_cores(self):
        result, _ = run_system([("EP", 4, 1.0)])
        busy = [s.busy_cores for s in result.trace.samples]
        assert 0 in busy  # before arrival
        assert 4 in busy  # while running


class TestPmuAccounting:
    def test_process_counters_advance(self):
        result, _ = run_system([("CG", 2, 0.0)])
        proc = result.processes[0]
        assert proc.counters.cycles > 0
        assert proc.counters.l3_accesses > 0

    def test_l3_rate_near_profile(self, spec2):
        # The per-process PMU rate is what the daemon classifies from.
        result, _ = run_system([("CG", 2, 0.0)])
        proc = result.processes[0]
        rate = 1e6 * proc.counters.l3_accesses / proc.counters.cycles
        assert rate > 3000  # CG is memory-intensive

    def test_droop_events_recorded(self):
        _, system = run_system([("CG", 8, 0.0)])
        assert sum(system.chip.pmu.droop_events.values()) > 0


class TestRowInputChecks:
    """The fast path adds interval deltas straight into the registers,
    so the full refresh that builds the rows rejects any input that
    could make a delta negative, naming the process."""

    @pytest.mark.parametrize(
        "forged, message",
        [
            (
                ExecutionState(10.0, 0.5, -1.0, 0.5),
                "pid 0: negative L3 rate",
            ),
            (
                ExecutionState(10.0, 0.5, 100.0, -0.1),
                "pid 0: negative activity",
            ),
            (
                ExecutionState(0.0, 0.5, 100.0, 0.5),
                "pid 0: non-positive duration",
            ),
            (
                ExecutionState(-5.0, 0.5, 100.0, 0.5),
                "pid 0: non-positive duration",
            ),
        ],
    )
    def test_forged_execution_state_raises_at_full_refresh(
        self, monkeypatch, forged, message
    ):
        monkeypatch.setattr(
            system_module, "execution_state", lambda *a, **k: forged
        )
        system = ServerSystem(
            Chip(xgene2_spec()),
            make_workload([("namd", 1, 0.0)]),
            BaselinePolicy(),
        )
        with pytest.raises(SimulationError, match=message):
            system.run()
        # Raised by the admission's full refresh, before any interval
        # was integrated.
        process = system.processes[0]
        assert process.is_running
        assert process.counters.cycles == 0.0

    @pytest.mark.parametrize(
        "rates, message",
        [
            ({(25, 35): -1e-3}, "negative rate"),
            ({(15, 25): 1e-3}, "unknown droop bin"),
        ],
    )
    def test_forged_droop_rates_raise_at_full_refresh(
        self, rates, message
    ):
        class _ForgedDroops(DroopModel):
            def rates_per_mcycles(self, *args, **kwargs):
                return dict(rates)

        spec = xgene2_spec()
        system = ServerSystem(
            Chip(spec),
            make_workload([("namd", 1, 0.0)]),
            BaselinePolicy(),
            droop_model=_ForgedDroops(spec),
        )
        with pytest.raises(SimulationError, match=message):
            system.run()
        assert system.processes[0].counters.cycles == 0.0


class _RecklessPolicy(BaselinePolicy):
    """Baseline that settles the rail far below any safe Vmin at start."""

    def decide(self, obs):
        action = super().decide(obs)
        if obs.event is PolicyEvent.START:
            action.voltage_mv = 700
        return action


class TestVoltageAudit:
    def test_baseline_never_violates(self, short_workload2, chip2):
        result = ServerSystem(
            chip2, short_workload2, BaselinePolicy()
        ).run()
        assert result.violations == []

    def test_undervolted_chip_detected(self):
        result, _ = run_system(
            [("namd", 8, 0.0)], policy=_RecklessPolicy()
        )
        assert result.violations
        assert result.violations[0].depth_mv > 0

    def test_raise_policy_crashes(self):
        chip = Chip(xgene2_spec())
        system = ServerSystem(
            chip,
            make_workload([("namd", 8, 0.0)]),
            _RecklessPolicy(),
            fault_policy="raise",
        )
        with pytest.raises(SystemCrash):
            system.run()

    def test_off_policy_ignores(self):
        result, _ = run_system(
            [("namd", 8, 0.0)],
            policy=_RecklessPolicy(),
            fault_policy="off",
        )
        assert result.violations == []

    def test_unknown_policy_rejected(self, chip2, short_workload2):
        with pytest.raises(SimulationError):
            ServerSystem(
                chip2,
                short_workload2,
                BaselinePolicy(),
                fault_policy="maybe",
            )


class TestMigrationApi:
    def test_migrate_many_swaps(self):
        class Swapper(BaselinePolicy):
            def decide(self, obs):
                action = super().decide(obs)
                if obs.event is not PolicyEvent.STARTED:
                    return action
                running = obs.running_processes()
                if len(running) == 2:
                    a, b = running
                    action.migrations = {
                        a.pid: tuple(b.cores),
                        b.pid: tuple(a.cores),
                    }
                return action

        result, _ = run_system(
            [("namd", 2, 0.0), ("EP", 2, 0.0)], policy=Swapper()
        )
        assert all(p.finish_s is not None for p in result.processes)
        assert result.total_migrations == 2

    def test_migrate_to_busy_core_rejected(self):
        class Bad(BaselinePolicy):
            def decide(self, obs):
                action = super().decide(obs)
                if obs.event is not PolicyEvent.STARTED:
                    return action
                running = obs.running_processes()
                if len(running) == 2:
                    a, b = running
                    # One-sided move onto b's busy cores: not a swap.
                    obs.system.migrate(a, b.cores)
                return action

        with pytest.raises(SimulationError):
            run_system(
                [("namd", 2, 0.0), ("EP", 2, 0.0)], policy=Bad()
            )


class TestAdmitCores:
    def test_admit_cores_honoured(self):
        class Pinner(Policy):
            def __init__(self):
                self.placed_on = None

            def decide(self, obs):
                if obs.event is PolicyEvent.ADMIT:
                    return Action(admit_cores=(5,))
                if obs.event is PolicyEvent.STARTED:
                    self.placed_on = tuple(obs.process.cores)
                return None

        policy = Pinner()
        result, _ = run_system([("namd", 1, 0.0)], policy=policy)
        assert policy.placed_on == (5,)
        assert result.processes[0].finish_s is not None


class TestTicks:
    def test_ticks_delivered_while_running(self):
        class Ticker(Policy):
            monitor_period_s = 1.0

            def __init__(self):
                self.ticks = 0

            def decide(self, obs):
                if obs.event is PolicyEvent.TICK:
                    self.ticks += 1
                return None

        policy = Ticker()
        result, _ = run_system([("namd", 1, 0.0)], policy=policy)
        # namd solo at fmax runs ~150 s on X-Gene 2.
        assert policy.ticks >= int(result.makespan_s) - 2

    def test_ticks_stop_after_work_done(self):
        class Ticker(Policy):
            monitor_period_s = 1.0

        result, system = run_system(
            [("EP", 8, 0.0)], policy=Ticker()
        )
        # Simulation terminates (run() returned) and time does not run
        # far past the last completion.
        assert system.now <= result.makespan_s + 2.0


SPEC2 = xgene2_spec()
TABLE2 = VminPolicyTable.from_characterization(SPEC2)

#: Arrivals 20-60 s apart, so the daemon sits in long quiet stretches.
FOLD_JOBS = [
    ("mcf", 1, 0.0),
    ("namd", 1, 20.0),
    ("CG", 4, 45.0),
    ("lbm", 1, 100.0),
]


def replay_both(make_policy, make_thermal=None):
    """``FOLD_JOBS`` on the fast path and on the reference simulator.

    Returns ``(system, observables)`` per path, the policies built
    fresh for each.
    """
    runs = []
    for simulator in (ServerSystem, ReferenceServerSystem):
        system = simulator(
            Chip(SPEC2),
            make_workload(FOLD_JOBS),
            policy=make_policy(),
            thermal_model=make_thermal() if make_thermal else None,
        )
        observed = observables(system.run(), system)
        observed["temperatures"] = list(system.temperature_series)
        runs.append((system, observed))
    return runs


def daemon():
    return OnlineMonitoringDaemon(SPEC2, policy=TABLE2)


class TestQuietTickFolding:
    """Folding replays quiet daemon ticks bit for bit, and every case
    it must leave alone keeps the one-by-one flow."""

    def assert_unfolded(self, make_policy, **kwargs):
        (fast, fast_seen), (oracle, oracle_seen) = replay_both(
            make_policy, **kwargs
        )
        assert fast.ticks_folded == 0
        assert fast_seen == oracle_seen
        return fast, oracle

    def test_plain_daemon_folds_most_ticks(self):
        (fast, fast_seen), (oracle, oracle_seen) = replay_both(daemon)
        ticks = fast._event_counts["tick"]
        assert fast.ticks_folded > ticks // 2
        assert oracle.ticks_folded == 0
        assert fast_seen == oracle_seen

    def test_perf_like_reader_not_folded(self):
        # The noisy reader draws two random numbers per read: skipping
        # a read would shift every later draw.
        fast, oracle = self.assert_unfolded(
            lambda: OnlineMonitoringDaemon(
                SPEC2,
                policy=TABLE2,
                monitor=MonitoringDaemon(reader=PerfLikeReader(0.03, seed=4)),
            )
        )
        assert (
            fast.policy.monitor.reader._rng.getstate()
            == oracle.policy.monitor.reader._rng.getstate()
        )

    def test_on_applied_hook_not_folded(self):
        # The Fig. 13 flow tracer journals every dispatch after it acts.
        sinks = []

        def tracer():
            sinks.append([])
            return _TracingDaemon(SPEC2, sinks[-1])

        self.assert_unfolded(tracer)
        fast_steps, oracle_steps = sinks
        assert fast_steps and fast_steps == oracle_steps

    def test_policy_stack_not_folded(self):
        self.assert_unfolded(
            lambda: PolicyStack(SPEC2, [daemon()], table=TABLE2)
        )

    def test_thermal_model_not_folded(self):
        self.assert_unfolded(
            daemon, make_thermal=lambda: ThermalModel(SPEC2, ambient_c=45.0)
        )

    def test_ed2p_daemon_not_folded(self):
        # A subclass inherits the hooks but not the right to use them.
        self.assert_unfolded(lambda: Ed2pPolicy(SPEC2, policy=TABLE2))


class TestReferenceSimulator:
    def test_reference_never_elides_a_reschedule(self):
        # Outputs cannot tell an eliding reference from the real one:
        # only the queue counts can. With static profiles and no
        # same-instant events, the fast path saves exactly one cancel
        # and one schedule per elided reschedule.
        (fast, _), (reference, _) = replay_both(daemon)
        elided = fast._reschedules_elided
        assert elided > 0
        assert reference._reschedules_elided == 0
        assert (
            reference.events.scheduled_total
            == fast.events.scheduled_total + elided
        )
        assert (
            reference.events.cancelled_total
            == fast.events.cancelled_total + elided
        )
