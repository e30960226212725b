"""The server-system simulator: Linux-like process lifecycle on a chip.

:class:`ServerSystem` replays a generated workload (Section VI.B) on a
:class:`~repro.platform.chip.Chip` under a pluggable
:class:`~repro.policies.surfaces.Policy` — the Baseline governor, the
Safe-Vmin trim, or the paper's monitoring daemon. The simulator itself
contains no policy logic: at each control event it builds an
:class:`~repro.policies.surfaces.Observation`, asks the policy to
``decide``, and actuates the returned
:class:`~repro.policies.surfaces.Action` through the one sanctioned
funnel (:func:`repro.policies.actuation.apply_action`). The model is
fluid: between events every running process advances
at a rate set by its profile, its clock, its PMD sharing and the
chip-wide memory contention; power is constant on each interval and
integrates into energy.

The simulator also audits electrical safety: after every state change it
compares the rail voltage against the ground-truth safe Vmin of the new
configuration, recording (or raising on) undervolting violations. The
paper's fail-safe daemon never violates; error-prone predictive policies
do, which is what the fail-safe ablation measures.

The hot path is *incremental*: every model evaluation in the refresh
(contention, execution states, activity map, power, safe-Vmin audit) is
a pure function of inputs tracked by cheap version counters — core
occupancy, per-PMD clocks, the rail voltage and each process's active
behaviour profile. A refresh whose inputs did not change reuses the
cached results, which are bit-identical to a recomputation; only the
finish/phase times (which depend on the advancing clock) are recomputed,
and their cancel+schedule pair is elided when the recomputed time equals
the scheduled one. Each full refresh also builds the per-tick
integration rows and droop rates every interval until the next one
replays, and the trace reads busy cores, voltage and mean clock once
per chip-state snapshot. Monitor ticks a policy proves silent
(:meth:`~repro.policies.surfaces.Policy.quiet_until`) are *folded*:
the ticks before the next other event replay in one batched step that
skips their policy pass and queue round trip.

The original recompute-everything flow is a separate simulator,
:class:`~repro.sim.reference.ReferenceServerSystem`, which overrides
the few methods that flow does differently. ``REPRO_SIM_FULL_REFRESH=1``
in the environment makes every ``ServerSystem(...)`` construction
return it; the equivalence property suite asserts both produce
identical results.
"""

from __future__ import annotations

import os
from collections import Counter, deque
from dataclasses import dataclass
from typing import Deque, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..errors import SimulationError, SystemCrash
from ..perf.contention import bandwidth_utilization, contention_factor
from ..telemetry import names as metric_names
from ..perf.model import ExecutionState, bandwidth_demand_gbs, execution_state
from ..platform.chip import Chip, ChipState
from ..platform.pmu import CoreCounters
from ..platform.thermal import ThermalModel
from ..policies.actuation import apply_action
from ..policies.surfaces import Action, Observation, Policy, PolicyEvent
from ..power.energy import EnergyMeter, ed2p
from ..power.model import PowerBreakdown, PowerModel
from ..vmin.droop import DroopModel
from ..vmin.model import VminModel
from ..workloads.generator import Workload
from ..workloads.phases import PhasedBenchmark, resolve_benchmark
from ..workloads.profiles import BenchmarkProfile
from .engine import Event, EventQueue, SimClock
from .process import ProcessCounters, SimProcess, WorkloadClass
from .scheduler import SpreadScheduler
from .tracing import TimelineTrace, TraceSample

#: Remaining-work fractions below this are "done" (float guard).
REMAINING_EPS = 1e-9

#: Bound on the keyed execution-state cache; cleared wholesale when
#: exceeded (distinct (behaviour, freq, nthreads, sharing, contention)
#: operating points seen over one run).
EXEC_STATE_CACHE_MAX = 4096


@dataclass(frozen=True, slots=True)
class ViolationRecord:
    """One interval where the rail sat below the ground-truth safe Vmin."""

    time_s: float
    voltage_mv: int
    required_mv: float

    @property
    def depth_mv(self) -> float:
        """How far below the safe Vmin the rail sat."""
        return self.required_mv - self.voltage_mv


class TickRow(NamedTuple):
    """One running process's integration inputs between full refreshes.

    Cores, clocks and execution states change only through a full
    refresh, so every interval until the next one reads the same row.
    """

    process: SimProcess
    counters: ProcessCounters
    freq_hz: int
    #: ``l3_rate_per_mcycles * freq_hz``: the reference's leading product.
    l3_rate_freq: float
    activity: float
    duration_s: float
    nthreads: int
    #: (PMU register bank, PMD clock) of each occupied core.
    cores: Tuple[Tuple[CoreCounters, int], ...]


@dataclass(slots=True)
class SystemResult:
    """Outcome of one full workload replay (one Tables III/IV column)."""

    makespan_s: float
    energy_j: float
    trace: Optional[TimelineTrace]
    processes: List[SimProcess]
    violations: List[ViolationRecord]
    voltage_transitions: int
    frequency_transitions: int

    @property
    def average_power_w(self) -> float:
        """Mean power over the run."""
        if self.makespan_s <= 0:
            return 0.0
        return self.energy_j / self.makespan_s

    @property
    def ed2p(self) -> float:
        """Energy-delay-squared product of the whole workload."""
        return ed2p(self.energy_j, self.makespan_s)

    @property
    def total_migrations(self) -> int:
        """Process migrations performed across the run."""
        return sum(p.migrations for p in self.processes)


def _check_row_inputs(
    pid: int, freq_hz: int, exec_state: ExecutionState
) -> None:
    """Reject row inputs that would make an interval's delta negative
    (or divide by zero), naming the process."""
    if freq_hz < 0:
        raise SimulationError(f"pid {pid}: negative clock {freq_hz} Hz")
    if exec_state.l3_rate_per_mcycles < 0:
        raise SimulationError(
            f"pid {pid}: negative L3 rate {exec_state.l3_rate_per_mcycles}"
        )
    if exec_state.effective_activity < 0:
        raise SimulationError(
            f"pid {pid}: negative activity {exec_state.effective_activity}"
        )
    if exec_state.duration_s <= 0:
        raise SimulationError(
            f"pid {pid}: non-positive duration {exec_state.duration_s} s"
        )


class ServerSystem:
    """Replays one workload on one chip under one control policy.

    This is the incremental path: dirty-set refresh, memoized demands
    and execution states, integration rows, per-snapshot trace fields,
    reschedule elision, same-timestamp event coalescing and quiet-tick
    folding. With ``REPRO_SIM_FULL_REFRESH`` set (to anything but
    ``0``) in the environment, construction returns a
    :class:`~repro.sim.reference.ReferenceServerSystem` instead: the
    original recompute-everything flow, kept as the ground-truth oracle.

    Folding stays off under a thermal model (power moves on every
    tick), for a policy that overrides ``on_applied``, and for one whose
    own class does not declare ``quiet_until`` (see
    :meth:`_fold_ticks`). ``ticks_folded`` counts the ticks it replayed.
    """

    #: Coalescing batches same-time events behind one refresh, keeping
    #: one safety audit per event; quiet-tick folding builds on it.
    _coalesce = True

    def __new__(cls, *args, **kwargs):
        if cls is ServerSystem and os.environ.get(
            "REPRO_SIM_FULL_REFRESH", ""
        ) not in ("", "0"):
            from .reference import ReferenceServerSystem

            cls = ReferenceServerSystem
        return super().__new__(cls)

    def __init__(
        self,
        chip: Chip,
        workload: Workload,
        policy: Optional[Policy] = None,
        power_model: Optional[PowerModel] = None,
        vmin_model: Optional[VminModel] = None,
        droop_model: Optional[DroopModel] = None,
        fault_policy: str = "record",
        trace_period_s: Optional[float] = 1.0,
        thermal_model: Optional[ThermalModel] = None,
    ):
        if fault_policy not in ("record", "raise", "off"):
            raise SimulationError(f"unknown fault policy {fault_policy!r}")
        self.chip = chip
        self.spec = chip.spec
        self.workload = workload
        self.policy = policy or Policy()
        #: Whether the policy wants the post-actuation hook; detected
        #: once so ordinary policies pay nothing per dispatch.
        self._policy_hooked = (
            type(self.policy).on_applied is not Policy.on_applied
        )
        self.power_model = power_model or PowerModel(chip.spec)
        self.vmin_model = vmin_model or VminModel.for_chip(chip)
        self.droop_model = droop_model or DroopModel(chip.spec)
        self.fault_policy = fault_policy
        #: Quiet-tick folding needs the coalescing flow, constant power
        #: between refreshes, no post-actuation hook, and the hook pair
        #: declared on the policy's own class: a subclass may change
        #: what its ticks decide (the power-capped daemon does).
        self._fold = (
            self._coalesce
            and thermal_model is None
            and not self._policy_hooked
            and "quiet_until" in vars(type(self.policy))
        )
        #: Ticks replayed by batched steps instead of dispatched.
        self.ticks_folded = 0
        #: Time of the last full refresh (see ``Observation``).
        self.steady_since_s = 0.0
        #: Optional junction-temperature tracker; None = the calibration
        #: temperature everywhere (the paper's reporting condition).
        self.thermal = thermal_model
        #: (time, degC) samples when the thermal model is enabled.
        self.temperature_series: List[Tuple[float, float]] = []
        self.scheduler = SpreadScheduler()
        self.clock = SimClock()
        self.events = EventQueue()
        self.meter = EnergyMeter()
        self.trace = (
            TimelineTrace(trace_period_s) if trace_period_s else None
        )
        self._next_sample_s = 0.0
        self.processes: List[SimProcess] = [
            SimProcess(
                pid=job.job_id,
                profile=resolve_benchmark(job.benchmark),
                nthreads=job.nthreads,
                arrival_s=job.start_time_s,
            )
            for job in workload.jobs_sorted()
        ]
        self._by_pid: Dict[int, SimProcess] = {
            p.pid: p for p in self.processes
        }
        self.queue: Deque[SimProcess] = deque()
        self.violations: List[ViolationRecord] = []
        self._finish_events: Dict[int, Event] = {}
        self._phase_events: Dict[int, Event] = {}
        self._proc_states: Dict[int, ExecutionState] = {}
        self._power_w = 0.0
        #: Power breakdown of the last recompute at leakage multiplier
        #: 1.0.
        self._power_base: Optional[PowerBreakdown] = None
        self._pending_arrivals = 0
        #: Events dispatched per kind + policy dispatch invocations;
        #: preallocated Counter/int slots, flushed into telemetry at
        #: end of run.
        self._event_counts: Counter[str] = Counter()
        self._controller_calls = 0
        # -- incremental-refresh state -----------------------------------
        #: Running processes in ``self.processes`` order, maintained
        #: eagerly at the two membership mutation points (admit/finish).
        self._running: List[SimProcess] = []
        self._order: Dict[int, int] = {
            p.pid: i for i, p in enumerate(self.processes)
        }
        #: Inputs of the last full refresh, reused verbatim while the
        #: version counters below say nothing relevant changed.
        self._state: Optional[ChipState] = None
        self._freqs: Dict[int, int] = {}
        self._behaviours: Dict[int, BenchmarkProfile] = {}
        self._activity_map: Dict[int, float] = {}
        self._bw_util = 0.0
        self._required_base = 0.0
        self._occ_version = -1
        self._freq_version = -1
        self._volt_version = -1
        #: Per-tick integration rows, one per running process, rebuilt
        #: by every full refresh (see ``_build_rows``).
        self._rows: List[TickRow] = []
        #: Running processes with phased profiles: the only ones whose
        #: behaviour can change without a refresh, or that have phase
        #: events to reschedule.
        self._phased: List[SimProcess] = []
        #: Cached droop-generation inputs (derived from the chip state
        #: and execution states, fixed between refreshes): the top
        #: active clock and the jitter-free rates per magnitude bin
        #: (``None`` while no PMD is active).
        self._droop_freq = 0
        self._droop_rates: Optional[Dict[Tuple[int, int], float]] = None
        #: (process, duration_s) of each row, in ``_running`` order: the
        #: completion reschedule's inputs until the next full refresh.
        self._durations: List[Tuple[SimProcess, float]] = []
        #: Trace fields (busy cores, voltage, mean active clock) of the
        #: ``ChipState`` snapshot they were computed from.
        self._trace_state: Optional[ChipState] = None
        self._trace_state_fields: Tuple[int, int, float] = (0, 0, 0.0)
        #: Memos keyed on behaviour identity. Every behaviour object is
        #: reachable from ``self.processes``, so its id() stays valid
        #: for the system's lifetime.
        #: (behaviour id, freq, nthreads, shares_pmd, contention) ->
        #: execution state.
        self._exec_cache: Dict[
            Tuple[int, int, int, bool, float], ExecutionState
        ] = {}
        #: (behaviour id, freq) -> uncontended bandwidth demand.
        self._demands: Dict[Tuple[int, int], float] = {}
        self._refreshes_full = 0
        self._refreshes_incremental = 0
        self._reschedules_elided = 0

    # -- public API used by policies and the actuation layer ---------------------

    @property
    def now(self) -> float:
        """Current simulation time, seconds."""
        return self.clock.now

    def running_processes(self) -> List[SimProcess]:
        """Processes currently occupying cores."""
        return list(self._live())

    def _live(self) -> List[SimProcess]:
        """The running processes in ``self.processes`` order; not a copy."""
        return self._running

    def migrate(self, process: SimProcess, cores: Sequence[int]) -> None:
        """Move a running process to new cores (actuation API)."""
        if not process.is_running:
            raise SimulationError(
                f"pid {process.pid}: cannot migrate a non-running process"
            )
        new = tuple(cores)
        if new == process.cores:
            return
        for core in new:
            holder = self.chip.occupant_of(core)
            if holder is not None and holder != process.pid:
                raise SimulationError(
                    f"core {core} busy with pid {holder}; migration invalid"
                )
        self.chip.release_occupant(process.pid)
        for core in new:
            self.chip.occupy(core, process.pid)
        process.migrate(new)

    def migrate_many(
        self, moves: Dict[SimProcess, Tuple[int, ...]]
    ) -> None:
        """Apply several migrations atomically (two-phase).

        All moving processes release their cores first, then re-occupy
        their targets, so swaps between processes are legal.
        """
        for process in moves:
            if not process.is_running:
                raise SimulationError(
                    f"pid {process.pid}: cannot migrate a non-running process"
                )
            self.chip.release_occupant(process.pid)
        for process, cores in moves.items():
            for core in cores:
                self.chip.occupy(core, process.pid)
            process.migrate(tuple(cores))

    def process_frequency_hz(self, process: SimProcess) -> int:
        """Slowest clock among the PMDs a running process occupies."""
        if not process.cores:
            return self.spec.fmax_hz
        state = self.chip.state()
        return min(state.frequency_of_core(c) for c in process.cores)

    # -- main loop ----------------------------------------------------------------

    def run(self) -> SystemResult:
        """Replay the whole workload and return the run summary."""
        for process in self.processes:
            self.events.schedule(process.arrival_s, "arrival", process.pid)
        self._pending_arrivals = len(self.processes)
        self._dispatch_policy(PolicyEvent.START)
        if self.policy.monitor_period_s:
            self.events.schedule(
                self.policy.monitor_period_s, "tick"
            )
        self._refresh()
        events = self.events
        fold = self._fold
        while events:
            event = events.pop()
            self._integrate_to(event.time_s)
            self.clock.advance_to(event.time_s)
            if fold and event.kind == "tick" and self._fold_ticks():
                continue
            self._dispatch(event)
            if self._coalesce:
                batched = events.pop_at(event.time_s)
                while batched is not None:
                    # The audited instants of the uncoalesced flow: one
                    # safety check per intermediate same-time event.
                    self._audit_step()
                    self._dispatch(batched)
                    batched = events.pop_at(event.time_s)
            self._refresh()
        makespan = self._makespan()
        # Energy integrates exactly to the last dispatched event — which
        # may trail the last finish by up to one monitor period (idle
        # ticks), but never covers the idle time past the final event
        # even when tracing sampled beyond it.
        result = SystemResult(
            makespan_s=makespan,
            energy_j=self.meter.energy_j,
            trace=self.trace,
            processes=self.processes,
            violations=self.violations,
            voltage_transitions=self.chip.slimpro.transition_count(),
            frequency_transitions=self.chip.cppc.transition_count(),
        )
        if telemetry.enabled():
            self._flush_telemetry(result)
        return result

    # -- event handling ----------------------------------------------------------

    def _dispatch_policy(
        self, event: str, process: Optional[SimProcess] = None
    ) -> Optional[Action]:
        """Consult the policy on one control event and actuate its action.

        The engine's entire contact surface with the control plane: it
        builds the observation, asks ``decide`` and funnels any returned
        action through :func:`~repro.policies.actuation.apply_action` —
        there are no policy-specific branches anywhere in the simulator.
        One increment of ``_controller_calls`` per dispatch keeps the
        ``sim.controller.callbacks`` counter's historical meaning.
        """
        self._controller_calls += 1
        obs = Observation(self, event, process)
        action = self.policy.decide(obs)
        if action is not None:
            apply_action(self, action)
        if self._policy_hooked:
            # ``obs`` is live, so the hook sees the post-actuation state.
            self.policy.on_applied(obs, action)
        return action

    def _dispatch(self, event: Event) -> None:
        kind = event.kind
        self._event_counts[kind] += 1
        # Monitor ticks are most of the events: test them first.
        if kind == "tick":
            self._handle_tick()
        elif kind == "arrival":
            self._handle_arrival(self._by_pid[event.payload])
        elif kind == "finish":
            self._handle_finish(event)
        elif kind == "phase":
            self._handle_phase(event)
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown event kind {event.kind!r}")

    def _handle_arrival(self, process: SimProcess) -> None:
        self._pending_arrivals -= 1
        if not self._try_admit(process):
            self.queue.append(process)

    def _try_admit(self, process: SimProcess) -> bool:
        action = self._dispatch_policy(PolicyEvent.ADMIT, process)
        cores = action.admit_cores if action is not None else None
        if cores is None:
            cores = self.scheduler.select_cores(self.chip, process.nthreads)
        if cores is None:
            return False
        process.start(self.now, tuple(cores))
        for core in process.cores:
            self.chip.occupy(core, process.pid)
        self._running_insert(process)
        self._dispatch_policy(PolicyEvent.STARTED, process)
        return True

    def _running_insert(self, process: SimProcess) -> None:
        """Keep ``_running`` sorted by position in ``self.processes``."""
        order = self._order
        rank = order[process.pid]
        running = self._running
        i = len(running)
        while i > 0 and order[running[i - 1].pid] > rank:
            i -= 1
        running.insert(i, process)

    def _handle_finish(self, event: Event) -> None:
        process = self._by_pid[event.payload]
        current = self._finish_events.get(process.pid)
        if current is None or current.seq != event.seq:
            return  # stale completion superseded by a reschedule
        del self._finish_events[process.pid]
        self.chip.release_occupant(process.pid)
        process.finish(self.now)
        self._running.remove(process)
        self._dispatch_policy(PolicyEvent.FINISHED, process)
        self._admit_queued()

    def _admit_queued(self) -> None:
        while self.queue and self._try_admit(self.queue[0]):
            self.queue.popleft()

    def _handle_phase(self, event: Event) -> None:
        """A process crossed a phase boundary: rates change on refresh.

        The daemon is *not* notified directly — it must observe the
        shifted PMU rates through its monitor, as on real hardware.
        """
        process = self._by_pid[event.payload]
        current = self._phase_events.get(process.pid)
        if current is None or current.seq != event.seq:
            return  # superseded by a reschedule
        del self._phase_events[process.pid]

    def _handle_tick(self) -> None:
        self._dispatch_policy(PolicyEvent.TICK)
        work_left = (
            self._pending_arrivals > 0 or bool(self.queue) or bool(self._live())
        )
        if work_left and self.policy.monitor_period_s:
            self.events.schedule(
                self.now + self.policy.monitor_period_s, "tick"
            )

    def _fold_ticks(self) -> bool:
        """Replay the tick at ``now`` and the quiet ticks after it in one
        batched step; False, with nothing done, when this tick must be
        dispatched.

        A tick folds when the policy's ``quiet_until`` covers it and it
        is not the last tick strictly before the next other event: that
        one always runs normally. Folding also waits while a phased
        program runs (its profile may switch at any interval) or the
        rail sits below the safe Vmin (each tick would record a
        violation). Of each folded tick's dispatch only the policy pass
        is skipped; one ``on_folded`` call stands for all of them.
        Everything else replays with the one-by-one flow's float
        operations in its order, each accumulator on its own: the tick
        chain ``t + period``, every row's counter, progress and PMU
        deltas, the droop counts, the energy sums and the trace
        samples. Each tick's refresh recomputes every finish time as it
        would; a time that moves is cancelled and rescheduled for real,
        between the tick schedules (reserved sequence numbers), so event
        counts and FIFO ties come out the same.
        """
        events = self.events
        next_s = events.peek_time()
        if (
            next_s is None
            or self._phased
            or not (self._pending_arrivals > 0 or self.queue or self._running)
        ):
            return False
        period = self.policy.monitor_period_s
        now = self.now
        if not now + period < next_s:
            return False
        if (
            self._running
            and self.fault_policy != "off"
            and self._state.voltage_mv < self._required_base - 1e-9
        ):
            return False
        obs = Observation(self, PolicyEvent.TICK)
        quiet_s = self.policy.quiet_until(obs)
        # The tick chain: ticks[:-1] may fold, ticks[-1] runs normally.
        ticks = [now]
        tick_s = now
        while tick_s < quiet_s and tick_s + period < next_s:
            tick_s += period
            ticks.append(tick_s)
        if len(ticks) == 1:
            return False
        folded, moves = self._fold_replay(ticks)
        self.meter.accumulate_each(
            self._power_w,
            [ticks[i] - ticks[i - 1] for i in range(1, folded)],
        )
        now = ticks[folded - 1]
        self._sample_trace_until(now)
        self.clock.advance_to(now)
        self._reschedules_elided += folded * len(self._rows) - len(moves)
        self._fold_schedules(moves, ticks[: folded + 1])
        self._refreshes_incremental += folded
        self._event_counts["tick"] += folded
        self._controller_calls += folded
        self.ticks_folded += folded
        self.policy.on_folded(obs, folded)
        return True

    def _fold_replay(
        self, ticks: List[float]
    ) -> Tuple[int, List[Tuple[int, int, float]]]:
        """Replay the candidate ticks ``ticks[:-1]``: the intervals
        between them and each one's completion reschedule.

        Returns how many candidates fold and the finish moves of their
        refreshes, ``(tick index, row rank, time)`` in dispatch order,
        and leaves every process's progress, counters and PMU registers
        and the droop bins at the last folded tick. A refresh moves each
        finish event to ``t + remaining * duration``, elided when the
        event already sits there; a finish at or before the next tick
        ends the stretch at that refresh, as the next tick no longer
        comes first.

        Every register replays ``_integrate_to``'s expression interval
        by interval: the deltas are built element-wise with the same
        operands in the same order, one matrix row per register, and
        ``add.accumulate`` sums each row onto its start value
        sequentially, left to right (``r - d`` is ``r + (-d)`` in IEEE
        arithmetic). The progress chain's ``max(0, .)`` clamp is applied
        last: the first remaining at or below :data:`REMAINING_EPS` puts
        that finish at its tick, which ends the stretch, so no earlier
        value is ever clamped.
        """
        rows = self._rows
        finish_events = self._finish_events
        candidates = len(ticks) - 1
        at = np.array(ticks)
        intervals = at[1:candidates] - at[: candidates - 1]
        n_rows = len(rows)
        n_cores = sum(len(row.cores) for row in rows)
        rates = self._droop_rates or {}
        droops = self.chip.pmu.droop_events
        # One register per matrix row: progress, process cycles and L3
        # accesses, then per core cycles, instructions and L3 accesses,
        # then droop bins; column 0 holds the start values.
        sums = np.empty((3 * n_rows + 3 * n_cores + len(rates), candidates))
        starts = [row.process.remaining_fraction for row in rows]
        starts += [row.counters.cycles for row in rows]
        starts += [row.counters.l3_accesses for row in rows]
        banks = [regs for row in rows for regs, _ in row.cores]
        starts += [regs.cycles for regs in banks]
        starts += [regs.instructions for regs in banks]
        starts += [regs.l3_accesses for regs in banks]
        starts += [droops[bin_mv] for bin_mv in rates]
        sums[:, 0] = starts
        moves: List[Tuple[int, int, float]] = []
        folded = candidates
        if rows:
            (
                durations, old_finish, freqs, nthreads, l3_rate_freqs,
                activity,
            ) = np.array([
                (
                    row.duration_s,
                    finish_events[row.process.pid].time_s,
                    row.freq_hz,
                    row.nthreads,
                    row.l3_rate_freq,
                    row.activity,
                )
                for row in rows
            ]).T[:, :, None]
            cores = np.array(
                [
                    (rank, freq)
                    for rank, row in enumerate(rows)
                    for _, freq in row.cores
                ]
            )
            owner = cores[:, 0].astype(int)
            core_cycles = cores[:, 1:] * intervals
            accesses = (l3_rate_freqs * intervals / 1e6) * nthreads
            end = 3 * n_rows
            sums[:n_rows, 1:] = -(intervals / durations)
            sums[n_rows:2 * n_rows, 1:] = freqs * intervals * nthreads
            sums[2 * n_rows:end, 1:] = accesses
            sums[end:end + n_cores, 1:] = core_cycles
            sums[end + n_cores:end + 2 * n_cores, 1:] = (
                core_cycles * activity[owner]
            )
            sums[end + 2 * n_cores:end + 3 * n_cores, 1:] = (
                accesses[owner] / nthreads[owner]
            )
        if rates:
            sums[-len(rates):, 1:] = (
                np.array(list(rates.values()))[:, None]
                * (self._droop_freq * intervals)
                / 1e6
            )
        np.add.accumulate(sums, axis=1, out=sums)
        if rows:
            remaining = sums[:n_rows]
            remaining_s = remaining * durations
            tick_at = at[:-1]
            finish = np.where(
                remaining <= REMAINING_EPS,
                tick_at,
                tick_at + np.where(remaining_s > 0.0, remaining_s, 0.0),
            )
            ends = np.flatnonzero((~(finish > at[1:])).any(axis=0))
            if ends.size:
                folded = int(ends[0]) + 1
                finish = finish[:, :folded]
            previous = np.empty_like(finish)
            previous[:, :1] = old_finish
            previous[:, 1:] = finish[:, :-1]
            moved = (finish != previous) | ~(finish > tick_at[:folded])
            tick_index, rank = np.nonzero(moved.T)
            moves = list(zip(
                tick_index.tolist(),
                rank.tolist(),
                finish[rank, tick_index].tolist(),
            ))
        totals = iter(sums[:, folded - 1].tolist())
        for row in rows:
            value = next(totals)
            # ``max(0.0, remaining)``, NaN and -0.0 included.
            row.process.remaining_fraction = value if value > 0.0 else 0.0
        for row in rows:
            row.counters.cycles = next(totals)
        for row in rows:
            row.counters.l3_accesses = next(totals)
        for regs in banks:
            regs.cycles = next(totals)
        for regs in banks:
            regs.instructions = next(totals)
        for regs in banks:
            regs.l3_accesses = next(totals)
        for bin_mv in rates:
            droops[bin_mv] = next(totals)
        return folded, moves

    def _fold_schedules(
        self, moves: List[Tuple[int, int, float]], ticks: List[float]
    ) -> None:
        """Replay the folded ticks' schedules and their refreshes' finish
        moves, ``(tick index, row rank, time)`` in dispatch order, then
        queue ``ticks[-1]``, the tick that runs normally, under the
        sequence number its schedule reserved."""
        events = self.events
        finish_events = self._finish_events
        rows = self._rows
        # Each folded tick reserves its successor's schedule before its
        # refresh moves any finish; the last reservation is the tick
        # that runs normally.
        folded = len(ticks) - 1
        reserved = 0
        for i, rank, finish_s in moves:
            if reserved <= i:
                seq = events.reserve(i + 1 - reserved)
                reserved = i + 1
            pid = rows[rank].process.pid
            old = finish_events[pid]
            events.cancel(old)  # reprolint: disable=RL005 -- time changed
            finish_events[pid] = events.schedule(finish_s, "finish", pid)
        if reserved < folded:
            seq = events.reserve(folded - reserved)
        events.schedule_reserved(ticks[-1], seq, "tick")

    # -- fluid integration ---------------------------------------------------------

    def _integrate_to(self, time_s: float) -> None:
        dt = time_s - self.now
        if dt <= 0:
            self._sample_trace_until(time_s)
            return
        self._advance(dt)
        self.meter.accumulate(self._power_w, dt)
        if self.thermal is not None:
            self.thermal.step(self._power_w, dt)
            self.temperature_series.append(
                (time_s, self.thermal.temperature_c)
            )
        self._sample_trace_until(time_s)

    def _advance(self, dt: float) -> None:
        """Advance counters, progress and droops by one interval.

        Replays the reference's float expressions over the rows built at
        the last full refresh: ``(l3_rate * freq) * dt`` is the
        reference's ``l3_rate * freq * dt``, operand for operand. The
        deltas go straight into the registers: ``_build_rows`` checked
        every input, so with ``dt > 0`` none is negative.
        """
        for (
            process, counters, freq, l3_rate_freq, activity,
            duration_s, nthreads, cores,
        ) in self._rows:
            accesses = (l3_rate_freq * dt / 1e6) * nthreads
            counters.cycles += freq * dt * nthreads
            counters.l3_accesses += accesses
            core_accesses = accesses / nthreads
            for regs, core_freq in cores:
                core_cycles = core_freq * dt
                regs.cycles += core_cycles
                regs.instructions += core_cycles * activity
                regs.l3_accesses += core_accesses
            remaining = process.remaining_fraction - dt / duration_s
            # ``max(0.0, remaining)``, NaN and -0.0 included.
            process.remaining_fraction = remaining if remaining > 0.0 else 0.0
        rates = self._droop_rates
        if rates is not None:
            cycles = self._droop_freq * dt
            droops = self.chip.pmu.droop_events
            for bin_mv, rate in rates.items():
                droops[bin_mv] += rate * cycles / 1e6

    def _sample_trace_until(self, time_s: float) -> None:
        trace = self.trace
        if trace is None or self._next_sample_s > time_s + 1e-12:
            return
        # Nothing changes while this call samples: every sample it emits
        # shares every field except ``time_s``.
        cpu, mem = self._class_counts()
        busy, voltage_mv, mean_freq = self._trace_now()
        n_running = len(self._live())
        power_w = self._power_w
        period_s = trace.period_s
        next_s = self._next_sample_s
        while next_s <= time_s + 1e-12:
            trace.append(
                TraceSample(
                    time_s=next_s,
                    power_w=power_w,
                    busy_cores=busy,
                    running_processes=n_running,
                    cpu_intensive=cpu,
                    memory_intensive=mem,
                    voltage_mv=voltage_mv,
                    mean_active_freq_hz=mean_freq,
                )
            )
            next_s += period_s
        self._next_sample_s = next_s

    def _trace_now(self) -> Tuple[int, int, float]:
        """The trace fields of the current state, computed once per
        ``ChipState`` snapshot."""
        state = self._state if self._state is not None else self.chip.state()
        if state is not self._trace_state:
            self._trace_state = state
            self._trace_state_fields = self._trace_fields(state)
        return self._trace_state_fields

    def _trace_fields(self, state: ChipState) -> Tuple[int, int, float]:
        """Busy cores, rail voltage and mean active clock of a snapshot."""
        active = state.active_pmds
        mean_freq = (
            sum(state.pmd_frequencies_hz[p] for p in active) / len(active)
            if active
            else self.spec.fmin_hz
        )
        return len(state.active_cores), state.voltage_mv, mean_freq

    def _class_counts(self) -> Tuple[int, int]:
        cpu = mem = 0
        for process in self._live():
            label = process.observed_class
            if label is WorkloadClass.UNKNOWN:
                label = process.reference_class
            if label is WorkloadClass.MEMORY_INTENSIVE:
                mem += 1
            else:
                cpu += 1
        return cpu, mem

    # -- state refresh ----------------------------------------------------------------

    def _refresh(self) -> None:
        """Recompute rates, power and completion times after any change.

        The incremental path recomputes only what its inputs invalidated:

        * occupancy / per-PMD clock / behaviour-profile changes — full
          recompute (contention couples every process to every other);
        * rail-voltage changes — power and the safety audit only;
          execution states are voltage-independent;
        * nothing changed — completion times (the clock advanced) and
          the safety audit against the cached safe-Vmin level; with a
          thermal model also the leakage term of the cached power
          breakdown, the only part of power temperature moves.
        """
        chip = self.chip
        dirty = (
            chip.occupancy_version != self._occ_version
            or chip.cppc.transition_count() != self._freq_version
        )
        if not dirty:
            behaviours = self._behaviours
            for process in self._phased:
                if process.current_profile() is not behaviours[process.pid]:
                    dirty = True
                    break
        if dirty:
            self._refreshes_full += 1
            self._recompute_all()
            return
        self._refreshes_incremental += 1
        state = self._state
        volt_version = chip.slimpro.transition_count()
        if volt_version != self._volt_version:
            self._volt_version = volt_version
            state = chip.state()
            self._state = state
            self._recompute_power(state)
        elif self.thermal is not None:
            # Temperature moves every interval, but only the leakage
            # multiplier depends on it: rescale the cached breakdown.
            self._power_w = self._power_base.total_with_leakage_w(
                self.thermal.leakage_multiplier()
            )
        self._reschedule_completions(self._durations)
        self._audit_cached(state)

    def _recompute_all(self) -> None:
        """Full refresh: rebuild every derived quantity from the chip."""
        self.steady_since_s = self.now
        state = self.chip.state()
        running = self._live()
        spec = self.spec
        demands: List[float] = []
        freqs: Dict[int, int] = {}
        behaviours: Dict[int, BenchmarkProfile] = {}
        for process in running:
            freq = min(state.frequency_of_core(c) for c in process.cores)
            freqs[process.pid] = freq
            behaviour = process.current_profile()
            behaviours[process.pid] = behaviour
            demands.extend([self._demand(behaviour, freq)] * process.nthreads)
        crowd = contention_factor(spec, demands)
        bw_util = bandwidth_utilization(spec, demands)
        activity_map: Dict[int, float] = {}
        self._proc_states = {}
        for process in running:
            exec_state = self._execution_state(
                behaviours[process.pid],
                freqs[process.pid],
                process.nthreads,
                self._shares_pmd(process),
                crowd,
            )
            self._proc_states[process.pid] = exec_state
            for core in process.cores:
                activity_map[core] = exec_state.effective_activity
        self._state = state
        self._freqs = freqs
        self._behaviours = behaviours
        self._activity_map = activity_map
        self._bw_util = bw_util
        self._occ_version = self.chip.occupancy_version
        self._freq_version = self.chip.cppc.transition_count()
        self._volt_version = self.chip.slimpro.transition_count()
        durations = self._build_rows(state, running)
        self._recompute_power(state)
        self._reschedule_completions(durations)
        self._audit_voltage(state, running)

    def _demand(self, behaviour: BenchmarkProfile, freq_hz: int) -> float:
        """Uncontended bandwidth demand, memoized per (behaviour, clock)."""
        key = (id(behaviour), freq_hz)
        demand = self._demands.get(key)
        if demand is None:
            demand = bandwidth_demand_gbs(behaviour, self.spec, freq_hz)
            self._demands[key] = demand
        return demand

    def _execution_state(
        self,
        behaviour: BenchmarkProfile,
        freq_hz: int,
        nthreads: int,
        shares_pmd: bool,
        contention: float,
    ) -> ExecutionState:
        """:func:`~repro.perf.model.execution_state`, memoized on its
        inputs (the behaviour by identity)."""
        cache = self._exec_cache
        key = (id(behaviour), freq_hz, nthreads, shares_pmd, contention)
        exec_state = cache.get(key)
        if exec_state is None:
            exec_state = execution_state(
                behaviour,
                self.spec,
                freq_hz,
                nthreads=nthreads,
                shares_pmd=shares_pmd,
                contention=contention,
            )
            if len(cache) >= EXEC_STATE_CACHE_MAX:
                cache.clear()
            cache[key] = exec_state
        return exec_state

    def _build_rows(
        self, state: ChipState, running: List[SimProcess]
    ) -> List[Tuple[SimProcess, float]]:
        """Cache what every interval until the next full refresh reads:
        one :class:`TickRow` per process, the phased processes, and the
        droop rates of the active configuration. Returns each process
        paired with its ``duration_s``, the completion reschedule's
        inputs until then.

        ``_integrate_to`` adds the rows' deltas straight into the
        registers, so the checks the counter, progress and droop methods
        would run on every interval run here, once: the cores' PMU banks
        are bounds-checked, and an input that could make a delta
        negative raises :class:`SimulationError`.
        """
        proc_states = self._proc_states
        freqs = self._freqs
        pmu = self.chip.pmu
        rows = []
        durations = []
        for process in running:
            exec_state = proc_states[process.pid]
            freq = freqs[process.pid]
            _check_row_inputs(process.pid, freq, exec_state)
            durations.append((process, exec_state.duration_s))
            rows.append(TickRow(
                process,
                process.counters,
                freq,
                exec_state.l3_rate_per_mcycles * freq,
                exec_state.effective_activity,
                exec_state.duration_s,
                process.nthreads,
                tuple(
                    (pmu.core(c), state.frequency_of_core(c))
                    for c in process.cores
                ),
            ))
        self._rows = rows
        self._durations = durations
        self._phased = [
            p for p in running if isinstance(p.profile, PhasedBenchmark)
        ]
        pmds = state.active_pmds
        if not pmds:
            self._droop_rates = None
            return durations
        self._droop_freq = state.max_active_frequency()
        activity = sum(
            proc_states[p.pid].effective_activity for p in running
        ) / max(1, len(running))
        rates = self.droop_model.rates_per_mcycles(
            len(pmds),
            state.worst_active_frequency_class(),
            max(0.05, activity),
            jitter=False,
        )
        for bin_mv, rate in rates.items():
            if bin_mv not in pmu.droop_events:
                raise SimulationError(f"unknown droop bin {bin_mv}")
            if rate < 0:
                raise SimulationError(
                    f"droop bin {bin_mv}: negative rate {rate}"
                )
        self._droop_rates = rates
        return durations

    def _recompute_power(self, state: ChipState) -> None:
        # Evaluated at leakage multiplier 1.0 and kept, so clean thermal
        # refreshes only rescale its leakage term.
        self._power_base = self.power_model.chip_power(
            state, self._activity_map, self._bw_util
        )
        if self.thermal is None:
            self._power_w = self._power_base.total_w
        else:
            self._power_w = self._power_base.total_with_leakage_w(
                self.thermal.leakage_multiplier()
            )

    def _shares_pmd(self, process: SimProcess) -> bool:
        for core in process.cores:
            for sibling in self.spec.cores_of_pmd(self.spec.pmd_of_core(core)):
                if sibling != core and self.chip.occupant_of(sibling) is not None:
                    return True
        return False

    def _reschedule_completions(
        self, durations: List[Tuple[SimProcess, float]]
    ) -> None:
        """Move each running process's finish (and phase) event to the
        instant its current rate reaches; ``durations`` pairs each
        process with its execution state's ``duration_s``. A move to the
        time an event already holds, strictly in the future, is elided."""
        now = self.now
        finish_events = self._finish_events
        elided = 0
        # A static profile never has a phase event to move.
        phased = self._phased
        for process, duration_s in durations:
            pid = process.pid
            remaining = process.remaining_fraction
            if remaining <= REMAINING_EPS:
                remaining_s = 0.0
            else:
                remaining_s = remaining * duration_s
                # ``max(0.0, remaining_s)``, NaN and -0.0 included.
                if not remaining_s > 0.0:
                    remaining_s = 0.0
            time_s = now + remaining_s
            old = finish_events.get(pid)
            if old is not None and old.time_s == time_s and time_s > now:
                # Identical finish instant strictly in the future: the
                # pending event already encodes it; skip the churn.
                elided += 1
            else:
                if old is not None:
                    self.events.cancel(old)  # reprolint: disable=RL005 -- time changed
                finish_events[pid] = self.events.schedule(
                    time_s, "finish", pid
                )
            if phased and process in phased:
                self._reschedule_phase(process, duration_s)
        self._reschedules_elided += elided

    def _reschedule_phase(self, process: SimProcess, duration_s: float) -> None:
        old = self._phase_events.get(process.pid)
        boundary = process.next_phase_boundary()
        if boundary is None:
            if old is not None:
                del self._phase_events[process.pid]
                self.events.cancel(old)
            return
        # Progress advances at 1/duration done-fractions per second.
        eta_s = (boundary - process.done_fraction) * duration_s
        time_s = self.now + max(0.0, eta_s)
        if old is not None and old.time_s == time_s and time_s > self.now:
            self._reschedules_elided += 1
            return
        if old is not None:
            self.events.cancel(old)  # reprolint: disable=RL005 -- time changed
        self._phase_events[process.pid] = self.events.schedule(
            time_s, "phase", process.pid
        )

    def _safe_vmin(
        self, state: ChipState, running: List[SimProcess]
    ) -> float:
        """Thermal-free safe Vmin of a state under its running programs:
        valid until occupancy, clocks or behaviours change (it does not
        depend on the rail voltage)."""
        workload_delta = max(
            p.current_profile().vmin_delta_mv for p in running
        )
        return self.vmin_model.safe_vmin_for_state(
            state, workload_delta_mv=workload_delta
        )

    def _audit_voltage(
        self, state: ChipState, running: List[SimProcess]
    ) -> None:
        """Full-refresh audit; caches the safe level it computes."""
        if self.fault_policy == "off" or not running:
            return
        self._required_base = self._safe_vmin(state, running)
        self._check_rail(state, self._required_base)

    def _audit_cached(self, state: ChipState) -> None:
        """Clean-refresh audit against the cached safe-Vmin level."""
        if self.fault_policy == "off" or not self._running:
            return
        self._check_rail(state, self._required_base)

    def _audit_step(self) -> None:
        """Safety audit between coalesced same-timestamp events.

        The uncoalesced flow refreshed (and audited) after every event;
        coalescing keeps exactly those audit instants so the violation
        record stream is unchanged, without paying for the intermediate
        rate/power recomputations that the zero-length interval never
        observes.
        """
        if self.fault_policy == "off" or not self._running:
            return
        state = self.chip.state()
        self._check_rail(state, self._safe_vmin(state, self._running))

    def _check_rail(self, state: ChipState, safe_vmin: float) -> None:
        """Record (or raise on) a rail below ``safe_vmin`` plus the
        thermal shift."""
        required = safe_vmin
        if self.thermal is not None:
            required += self.thermal.vmin_shift_mv()
        if state.voltage_mv < required - 1e-9:
            record = ViolationRecord(
                time_s=self.now,
                voltage_mv=state.voltage_mv,
                required_mv=required,
            )
            self.violations.append(record)
            if self.fault_policy == "raise":
                raise SystemCrash(
                    state.voltage_mv,
                    f"rail at {state.voltage_mv} mV below safe Vmin "
                    f"{required:.1f} mV at t={self.now:.3f}s",
                )

    def _makespan(self) -> float:
        finished = [
            p.finish_s for p in self.processes if p.finish_s is not None
        ]
        return max(finished) if finished else self.now

    # -- telemetry ---------------------------------------------------------------

    def _flush_telemetry(self, result: SystemResult) -> None:
        """Publish the run's aggregate counts into the metric registry.

        Called once per completed replay (never inside the event loop),
        so the hot path stays free of telemetry dispatch: the loop only
        bumps plain ints/dicts and this flush converts them into the
        structured counters the run manifest snapshots. Every value is
        derived from simulation state, not wall clock, so snapshots are
        deterministic for a given seed.
        """
        counts = self._event_counts
        telemetry.inc(
            metric_names.SIM_EVENTS_DISPATCHED, sum(counts.values())
        )
        telemetry.inc(
            metric_names.SIM_EVENT_ARRIVALS, counts.get("arrival", 0)
        )
        telemetry.inc(
            metric_names.SIM_EVENT_FINISHES, counts.get("finish", 0)
        )
        telemetry.inc(metric_names.SIM_EVENT_PHASES, counts.get("phase", 0))
        telemetry.inc(metric_names.SIM_EVENT_TICKS, counts.get("tick", 0))
        telemetry.inc(
            metric_names.SIM_EVENTS_SCHEDULED, self.events.scheduled_total
        )
        telemetry.inc(
            metric_names.SIM_EVENTS_CANCELLED, self.events.cancelled_total
        )
        telemetry.inc(
            metric_names.SIM_CONTROLLER_CALLBACKS, self._controller_calls
        )
        # Policies with their own counters (the arbitration stack)
        # publish them here, inside the same once-per-run flush.
        policy_flush = getattr(self.policy, "flush_telemetry", None)
        if policy_flush is not None:
            policy_flush()
        telemetry.inc(metric_names.SIM_VIOLATIONS, len(self.violations))
        telemetry.inc(
            metric_names.SIM_VOLTAGE_TRANSITIONS,
            result.voltage_transitions,
        )
        telemetry.inc(
            metric_names.SIM_FREQUENCY_TRANSITIONS,
            result.frequency_transitions,
        )
        telemetry.inc(metric_names.SIM_RUNS)
        telemetry.inc(metric_names.SIM_REFRESH_FULL, self._refreshes_full)
        telemetry.inc(
            metric_names.SIM_REFRESH_INCREMENTAL,
            self._refreshes_incremental,
        )
        telemetry.inc(
            metric_names.SIM_RESCHEDULE_ELIDED, self._reschedules_elided
        )
        if self.trace is not None:
            telemetry.inc(
                metric_names.SIM_TRACE_SAMPLES, len(self.trace.samples)
            )
        # Simulation time and integrated energy are seed-deterministic,
        # so they may live in gauges (fingerprinted) despite the _s/_j
        # suffixes: they are model outputs, not wall-clock measurements.
        telemetry.set_gauge(metric_names.SIM_MAKESPAN_S, result.makespan_s)
        telemetry.set_gauge(metric_names.SIM_ENERGY_J, result.energy_j)
