"""Incremental-refresh equivalence: fast path ≡ full-refresh oracle.

The simulator's incremental hot path (dirty-set refresh, execution-state
cache, reschedule elision, same-timestamp coalescing, per-tick
integration rows) claims *bit-for-bit* identity with the original
recompute-everything flow, which survives as
:class:`~repro.sim.reference.ReferenceServerSystem`. These properties replay random
workloads (phased benchmarks included) under both modes and compare
every observable of the run — per-process and per-core PMU counters,
droop detections and the daemon's classification count among them —
not approximately, but with ``==`` on the raw floats.

A separate regression pins the energy-accounting semantics at the end of
a run: energy integrates exactly up to the last dispatched event, which
with a ticking policy trails the last process finish by the idle
monitor periods still in the queue — and covers nothing beyond.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core.classifier import L3RateClassifier
from repro.core.policy import VminPolicyTable
from repro.errors import SystemCrash
from repro.perf.contention import bandwidth_utilization, contention_factor
from repro.perf.model import bandwidth_demand_gbs, execution_state
from repro.platform.chip import Chip
from repro.platform.specs import xgene2_spec, xgene3_spec
from repro.platform.thermal import ThermalModel
from repro.power.model import PowerModel
from repro.policies.daemon import OnlineMonitoringDaemon
from repro.policies.governors import BaselinePolicy
from repro.policies.safevmin import SafeVminPolicy
from repro.policies.surfaces import Action, Policy
from repro.sim.reference import ReferenceServerSystem
from repro.sim.system import ServerSystem
from repro.telemetry.manifest import canonical_json
from repro.workloads.generator import JobSpec, Workload
from repro.workloads.phases import resolve_benchmark
from repro.workloads.suites import evaluation_pool, get_benchmark

SPEC2 = xgene2_spec()
SPEC3 = xgene3_spec()
POLICY2 = VminPolicyTable.from_characterization(SPEC2)
#: The evaluation pool plus phased programs, whose mid-run profile
#: switches exercise the phase scan and phase reschedules.
_POOL = [p.name for p in evaluation_pool()] + [
    "stream-compute",
    "setup-then-crunch",
    "compute-then-writeback",
]

#: Trace periods shorter than, equal to and longer than the daemon's
#: 0.4 s monitor tick: samples landing on a tick, and intervals that
#: hold several samples.
TRACE_PERIODS = (0.25, 0.4, 1.0, 3.0)


@st.composite
def workloads(draw, max_cores=8):
    """Small random workloads that fit the 8-core chip at issue time."""
    jobs = []
    count = draw(st.integers(1, 6))
    for job_id in range(count):
        name = draw(st.sampled_from(_POOL))
        parallel = resolve_benchmark(name).parallel
        nthreads = draw(st.sampled_from((2, 4))) if parallel else 1
        start = draw(st.floats(0.0, 120.0).map(lambda v: round(v, 2)))
        jobs.append(JobSpec(job_id, name, nthreads, start))
    return Workload(
        jobs=tuple(jobs), duration_s=300.0, max_cores=max_cores, seed=0
    )


def edge_threshold(rate, edge, ulps, hysteresis=0.05):
    """A classifier threshold that puts ``edge`` on ``rate``, ``ulps``
    steps away.

    ``threshold`` is the edge an unclassified process is judged by; the
    hysteresis edges ``upper_bound = threshold * (1 + h)`` (a
    CPU-intensive process) and ``lower_bound = threshold * (1 - h)`` (a
    memory-intensive one) land on ``rate`` when the threshold is
    ``rate`` divided by that factor.
    """
    threshold = {
        "threshold": rate,
        "upper": rate / (1.0 + hysteresis),
        "lower": rate / (1.0 - hysteresis),
    }[edge]
    toward = math.inf if ulps > 0 else 0.0
    for _ in range(abs(ulps)):
        threshold = math.nextafter(threshold, toward)
    return threshold


def execution_rates(workload, make_policy, spec=SPEC2):
    """The distinct ``l3_rate_per_mcycles`` a replay's processes ran at:
    the pure-window rates the monitor measures, up to float error."""
    system = ServerSystem(
        Chip(spec), workload, make_policy(), trace_period_s=None
    )
    system.run()
    return sorted(
        {state.l3_rate_per_mcycles for state in system._exec_cache.values()}
    )


def observables(result, system):
    """Every field of a run, in raw-float comparable form.

    ``system`` is the replayed :class:`ServerSystem`: its chip's PMU
    registers and its policy's monitor are observables too.
    """
    trace = None
    if result.trace is not None:
        trace = [
            (
                s.time_s,
                s.power_w,
                s.busy_cores,
                s.running_processes,
                s.cpu_intensive,
                s.memory_intensive,
                s.voltage_mv,
                s.mean_active_freq_hz,
            )
            for s in result.trace.samples
        ]
    pmu = system.chip.pmu
    policy = system.policy
    monitor = getattr(policy, "monitor", None)
    return {
        "makespan_s": result.makespan_s,
        "energy_j": result.energy_j,
        "voltage_transitions": result.voltage_transitions,
        "frequency_transitions": result.frequency_transitions,
        "violations": [
            (v.time_s, v.voltage_mv, v.required_mv)
            for v in result.violations
        ],
        "processes": [
            (
                p.pid,
                p.start_s,
                p.finish_s,
                p.migrations,
                tuple(p.cores),
                p.counters.cycles,
                p.counters.l3_accesses,
                p.observed_class.value,
            )
            for p in result.processes
        ],
        "pmu_cores": [
            (regs.cycles, regs.instructions, regs.l3_accesses)
            for regs in pmu.cores
        ],
        "droop_events": sorted(pmu.droop_events.items()),
        "samples_taken": (
            monitor.samples_taken if monitor is not None else None
        ),
        "snapshots": (
            sorted(monitor._snapshots.items())
            if monitor is not None
            else None
        ),
        # Dispatched events per kind. Phase events are left out: when
        # two fall on one instant, the coalescing fast path dispatches
        # both, while the oracle's refresh between them moves the second
        # to its next boundary first; neither changes any state.
        "event_counts": sorted(
            (kind, count)
            for kind, count in system._event_counts.items()
            if kind != "phase"
        ),
        "controller_calls": system._controller_calls,
        "replans": getattr(policy, "replans", None),
        "retunes": getattr(policy, "retunes", None),
        "trace": trace,
    }


def run_both(workload, make_policy, spec=SPEC2, **kwargs):
    outcomes = []
    for simulator in (ServerSystem, ReferenceServerSystem):
        system = simulator(
            Chip(spec),
            workload,
            make_policy(),
            **kwargs,
        )
        outcomes.append(observables(system.run(), system))
    return outcomes


def run_both_thermal(workload, make_policy, spec, ambient_c):
    """Both modes with a fresh thermal model each; adds the
    junction-temperature series to the compared observables."""
    outcomes = []
    for simulator in (ServerSystem, ReferenceServerSystem):
        system = simulator(
            Chip(spec),
            workload,
            make_policy(),
            thermal_model=ThermalModel(spec, ambient_c=ambient_c),
        )
        observed = observables(system.run(), system)
        observed["temperature_series"] = list(system.temperature_series)
        outcomes.append(observed)
    return outcomes


def crash_both(workload, make_policy, spec=SPEC2):
    """Both simulators under ``fault_policy="raise"``.

    Returns, per simulator, the crash ``(message, time)`` (``None`` when
    the run completes) and the observables: the violations and energy
    after a crash, every field of :func:`observables` otherwise.
    """
    outcomes = []
    for simulator in (ServerSystem, ReferenceServerSystem):
        system = simulator(
            Chip(spec), workload, make_policy(), fault_policy="raise"
        )
        try:
            result = system.run()
        except SystemCrash as crash:
            outcomes.append((
                (str(crash), system.now),
                {
                    "violations": [
                        (v.time_s, v.voltage_mv, v.required_mv)
                        for v in system.violations
                    ],
                    "energy_j": system.meter.energy_j,
                },
            ))
        else:
            outcomes.append((None, observables(result, system)))
    return outcomes


class _UndervoltAt(BaselinePolicy):
    """Baseline that settles the rail at ``voltage_mv`` on its
    ``step``-th decision, as an error-prone trim would."""

    def __init__(self, step, voltage_mv):
        super().__init__()
        self.step = step
        self.voltage_mv = voltage_mv
        self.decisions = 0

    def decide(self, obs):
        action = super().decide(obs)
        self.decisions += 1
        if self.decisions == self.step:
            action = action or Action()
            action.voltage_mv = self.voltage_mv
        return action


def optimistic_table(spec, table, cut_mv):
    """``table`` with every entry ``cut_mv`` lower: a daemon reading it
    undervolts wherever the cut eats the workload's Vmin margin."""
    return VminPolicyTable(
        spec,
        {(r.freq_class, r.droop_class): r.vmin_mv - cut_mv for r in table.rows()},
    )


@st.composite
def bunched_workloads(draw):
    """``workloads()`` with every arrival moved onto a 5 s grid, so
    several jobs often arrive at one instant."""
    workload = draw(workloads())
    jobs = tuple(
        JobSpec(
            job.job_id,
            job.benchmark,
            job.nthreads,
            5.0 * draw(st.integers(0, 3)),
        )
        for job in workload.jobs
    )
    return Workload(jobs=jobs, duration_s=300.0, max_cores=8, seed=0)


class TestIncrementalEquivalence:
    @given(workloads())
    @settings(max_examples=20, deadline=None)
    def test_baseline_bit_identical(self, workload):
        fast, oracle = run_both(workload, BaselinePolicy)
        assert fast == oracle

    @given(workloads())
    @settings(max_examples=15, deadline=None)
    def test_safe_vmin_bit_identical(self, workload):
        fast, oracle = run_both(
            workload, lambda: SafeVminPolicy(SPEC2, policy=POLICY2)
        )
        assert fast == oracle

    @given(workloads())
    @settings(max_examples=15, deadline=None)
    def test_daemon_bit_identical(self, workload):
        fast, oracle = run_both(
            workload,
            lambda: OnlineMonitoringDaemon(SPEC2, policy=POLICY2),
        )
        assert fast == oracle

    @given(workloads(max_cores=32), st.sampled_from([None, 0.5]))
    @settings(max_examples=10, deadline=None)
    def test_daemon_xgene3_with_and_without_trace(
        self, workload, trace_period_s
    ):
        policy3 = VminPolicyTable.from_characterization(SPEC3)
        fast, oracle = run_both(
            workload,
            lambda: OnlineMonitoringDaemon(SPEC3, policy=policy3),
            spec=SPEC3,
            trace_period_s=trace_period_s,
        )
        assert fast == oracle

    @given(workloads(), st.sampled_from(TRACE_PERIODS))
    @settings(max_examples=12, deadline=None)
    def test_baseline_trace_periods_bit_identical(self, workload, period):
        fast, oracle = run_both(
            workload, BaselinePolicy, trace_period_s=period
        )
        assert fast["trace"]
        assert fast == oracle

    @given(workloads(), st.sampled_from(TRACE_PERIODS))
    @settings(max_examples=12, deadline=None)
    def test_daemon_trace_periods_bit_identical(self, workload, period):
        fast, oracle = run_both(
            workload,
            lambda: OnlineMonitoringDaemon(SPEC2, policy=POLICY2),
            trace_period_s=period,
        )
        assert fast["trace"]
        assert fast == oracle

    def test_baseline_phased_reference_class_in_trace(self):
        # No classifier runs under the baseline, so the trace reads each
        # process's reference class, which flips at every phase
        # boundary; phase events put samples right at those boundaries.
        workload = Workload(
            jobs=(
                JobSpec(0, "sawtooth", 1, 0.0),
                JobSpec(1, "stream-compute", 1, 0.3),
                JobSpec(2, "setup-then-crunch", 1, 1.1),
            ),
            duration_s=300.0,
            max_cores=8,
            seed=0,
        )
        fast, oracle = run_both(
            workload, BaselinePolicy, trace_period_s=0.25
        )
        classes = {(s[4], s[5]) for s in fast["trace"]}
        assert len(classes) > 2
        assert fast == oracle

    @given(workloads(), st.sampled_from([25.0, 85.0]))
    @settings(max_examples=10, deadline=None)
    def test_thermal_daemon_xgene2_bit_identical(self, workload, ambient):
        # Leakage and the thermal Vmin shift move on every interval, so
        # the thermal branch refreshes power even on clean ticks.
        fast, oracle = run_both_thermal(
            workload,
            lambda: OnlineMonitoringDaemon(SPEC2, policy=POLICY2),
            SPEC2,
            ambient,
        )
        assert fast["temperature_series"]
        assert fast == oracle

    @given(workloads(), st.sampled_from([25.0, 85.0]))
    @settings(max_examples=8, deadline=None)
    def test_thermal_baseline_xgene2_bit_identical(self, workload, ambient):
        fast, oracle = run_both_thermal(
            workload, BaselinePolicy, SPEC2, ambient
        )
        assert fast == oracle

    @given(workloads(max_cores=32), st.sampled_from([15.0, 65.0]))
    @settings(max_examples=8, deadline=None)
    def test_thermal_daemon_xgene3_bit_identical(self, workload, ambient):
        policy3 = VminPolicyTable.from_characterization(SPEC3)
        fast, oracle = run_both_thermal(
            workload,
            lambda: OnlineMonitoringDaemon(SPEC3, policy=policy3),
            SPEC3,
            ambient,
        )
        assert fast["temperature_series"]
        assert fast == oracle

    @given(workloads())
    @settings(max_examples=10, deadline=None)
    def test_fault_policy_off_bit_identical(self, workload):
        fast, oracle = run_both(
            workload, BaselinePolicy, fault_policy="off"
        )
        assert fast == oracle

    @given(
        workloads(),
        st.data(),
        st.sampled_from(("threshold", "upper", "lower")),
        st.integers(-4, 4),
    )
    @settings(max_examples=25, deadline=None)
    def test_daemon_rates_on_classifier_edges(
        self, workload, data, edge, ulps
    ):
        # A process whose pure-window rate sits on (or a few ulps from)
        # the edge its class is judged by: float noise in the windowed
        # counters decides the class tick by tick.
        rates = execution_rates(
            workload, lambda: OnlineMonitoringDaemon(SPEC2, policy=POLICY2)
        )
        rate = data.draw(st.sampled_from(rates), label="rate")
        threshold = edge_threshold(rate, edge, ulps)

        def make_policy():
            return OnlineMonitoringDaemon(
                SPEC2,
                policy=POLICY2,
                classifier=L3RateClassifier(threshold=threshold),
            )

        fast, oracle = run_both(workload, make_policy)
        assert fast == oracle

    @given(
        st.one_of(workloads(), bunched_workloads()),
        st.integers(1, 40),
        st.integers(700, 970),
    )
    @settings(max_examples=20, deadline=None)
    def test_baseline_undervolt_raise_bit_identical(
        self, workload, step, voltage_mv
    ):
        # Coalescing stays on under ``raise``: a crash inside a batch
        # comes from the audit between two same-instant events, where
        # the reference's per-event refresh audits the same state.
        fast, oracle = crash_both(
            workload, lambda: _UndervoltAt(step, voltage_mv)
        )
        assert fast == oracle

    @given(st.one_of(workloads(), bunched_workloads()), st.integers(0, 80))
    @settings(max_examples=15, deadline=None)
    def test_daemon_undervolt_raise_bit_identical(self, workload, cut_mv):
        # A plain daemon folds its quiet ticks under ``raise`` too.
        table = optimistic_table(SPEC2, POLICY2, cut_mv)
        fast, oracle = crash_both(
            workload, lambda: OnlineMonitoringDaemon(SPEC2, policy=table)
        )
        assert fast == oracle

    def test_raise_crash_inside_coalesced_batch(self):
        # Two jobs arrive at t=5; the first one's STARTED decision (the
        # policy's third) settles the rail far too low. The fast path
        # crashes in the audit before the second arrival of the batch,
        # the reference in the refresh after the first.
        workload = Workload(
            jobs=(JobSpec(0, "namd", 4, 5.0), JobSpec(1, "mcf", 1, 5.0)),
            duration_s=60.0,
            max_cores=8,
            seed=0,
        )
        systems, crashes = [], []
        for simulator in (ServerSystem, ReferenceServerSystem):
            system = simulator(
                Chip(SPEC2),
                workload,
                _UndervoltAt(3, 700),
                fault_policy="raise",
            )
            with pytest.raises(SystemCrash) as crash:
                system.run()
            systems.append(system)
            crashes.append(str(crash.value))
        fast, oracle = systems
        assert fast.now == oracle.now == 5.0
        assert crashes[0] == crashes[1]
        assert fast.violations and fast.violations == oracle.violations
        # Both crash between the two arrivals: the fast path after
        # popping the second into its batch, the reference before.
        assert fast._event_counts == oracle._event_counts
        assert fast._event_counts["arrival"] == 1
        assert fast.events.peek_time() is None
        assert oracle.events.peek_time() == 5.0

    def test_env_var_forces_oracle(self, monkeypatch):
        workload = Workload(
            jobs=(JobSpec(0, "mcf", 1, 0.0),),
            duration_s=60.0,
            max_cores=8,
            seed=0,
        )
        monkeypatch.setenv("REPRO_SIM_FULL_REFRESH", "1")
        system = ServerSystem(
            Chip(SPEC2), workload, BaselinePolicy()
        )
        assert type(system) is ReferenceServerSystem
        monkeypatch.setenv("REPRO_SIM_FULL_REFRESH", "0")
        system = ServerSystem(
            Chip(SPEC2), workload, BaselinePolicy()
        )
        assert type(system) is ServerSystem


class TestIncrementalDeterminism:
    def test_same_seed_runs_are_byte_identical(self):
        """Two incremental same-seed runs: identical results + metrics."""
        jobs = tuple(
            JobSpec(i, name, 1, 10.0 * i)
            for i, name in enumerate(("mcf", "lbm", "namd", "povray"))
        )
        workload = Workload(
            jobs=jobs, duration_s=300.0, max_cores=8, seed=7
        )

        def one_run():
            with telemetry.session() as registry:
                system = ServerSystem(
                    Chip(SPEC2),
                    workload,
                    OnlineMonitoringDaemon(SPEC2, policy=POLICY2),
                )
                result = system.run()
                snap = registry.snapshot()
            return observables(result, system), snap

        obs_a, snap_a = one_run()
        obs_b, snap_b = one_run()
        assert json.dumps(obs_a, sort_keys=True) == json.dumps(
            obs_b, sort_keys=True
        )
        # The full metric snapshot — including the new refresh/elision
        # counters — must serialize to the same bytes run over run.
        assert canonical_json(snap_a) == canonical_json(snap_b)
        counters = snap_a["counters"]
        assert counters[telemetry.names.SIM_REFRESH_INCREMENTAL] > 0
        assert counters[telemetry.names.SIM_RESCHEDULE_ELIDED] > 0
        assert counters[telemetry.names.SIM_REFRESH_FULL] > 0


class _IdleTickPolicy(Policy):
    """No-op policy that keeps ticking past the last finish."""

    monitor_period_s = 7.0


class TestIdleTailEnergy:
    def test_energy_integrates_to_last_event_only(self):
        """Pin the end-of-run energy semantics with hand integration.

        One single-threaded, single-phase job ("mcf") runs for ``T_f``
        seconds at constant power; the no-op monitor ticks every 7 s.
        Energy must equal active power integrated up to ``T_f`` plus
        idle power over the gap up to the *last* tick event (the first
        tick at or after ``T_f``) — and nothing beyond it, even though
        nothing stops the wall clock there. The hand integration
        replays the meter's per-interval ``+= power * dt`` summation so
        the comparison is exact, not approximate.
        """
        workload = Workload(
            jobs=(JobSpec(0, "mcf", 1, 0.0),),
            duration_s=600.0,
            max_cores=8,
            seed=0,
        )
        system = ServerSystem(
            Chip(SPEC2),
            workload,
            _IdleTickPolicy(),
            trace_period_s=None,
            fault_policy="off",
        )
        result = system.run()
        finish_s = result.processes[0].finish_s
        assert finish_s is not None

        # Independently evaluate the two power levels from the models:
        # one process on core 0 at fmax, then the all-idle chip.
        behaviour = get_benchmark("mcf")
        demand = bandwidth_demand_gbs(behaviour, SPEC2, SPEC2.fmax_hz)
        crowd = contention_factor(SPEC2, [demand])
        bw_util = bandwidth_utilization(SPEC2, [demand])
        exec_state = execution_state(
            behaviour,
            SPEC2,
            SPEC2.fmax_hz,
            nthreads=1,
            shares_pmd=False,
            contention=crowd,
        )
        power_model = PowerModel(SPEC2)
        active_chip = Chip(SPEC2)
        active_chip.occupy(0, 0)
        active_w = power_model.chip_power(
            active_chip.state(),
            {0: exec_state.effective_activity},
            bw_util,
        ).total_w
        idle_w = power_model.chip_power(
            Chip(SPEC2).state(), {}, 0.0
        ).total_w

        # Event times: ticks by repeated 7 s addition (as the handler
        # schedules them), the finish interleaved; the run ends at the
        # first tick at/after the finish.
        period = _IdleTickPolicy.monitor_period_s
        times = []
        t = period
        while t < finish_s:
            times.append(t)
            t += period
        last_event_s = t
        times.extend([finish_s, last_event_s])

        expected_j = 0.0
        prev = 0.0
        for event_s in times:
            power_w = active_w if event_s <= finish_s else idle_w
            expected_j += power_w * (event_s - prev)
            prev = event_s

        assert result.energy_j == expected_j
        assert result.makespan_s == finish_s
        assert last_event_s > finish_s  # the idle tail is really there
