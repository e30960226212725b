"""The reference simulator: the original recompute-everything flow.

It is the ground-truth oracle :class:`~repro.sim.system.ServerSystem` is
checked against, bit for bit, by the equivalence property suite and by
CI's golden diffs. ``REPRO_SIM_FULL_REFRESH=1`` in the environment makes
every ``ServerSystem(...)`` construction return one, pool workers
included.
"""

from __future__ import annotations

from typing import List, Tuple

from ..perf.model import ExecutionState, bandwidth_demand_gbs, execution_state
from ..platform.chip import ChipState
from ..workloads.profiles import BenchmarkProfile
from .process import SimProcess
from .system import REMAINING_EPS, ServerSystem


class ReferenceServerSystem(ServerSystem):
    """:class:`ServerSystem` with every incremental mechanism taken out.

    It overrides only what the original flow does differently:

    * running membership is an ``is_running`` scan of ``processes``;
    * each interval advances from the live chip state;
    * trace fields are read from ``chip.state()`` at every sample;
    * every refresh is a full one;
    * bandwidth demands and execution states are recomputed, not
      memoized;
    * under a thermal model, ``chip_power`` takes the leakage
      multiplier;
    * finish and phase events are always cancelled and rescheduled;
    * same-timestamp events are not coalesced, so no tick folds.

    One counter differs between the paths with identical output: when
    two processes' phase events fall on one instant, the incremental
    path dispatches both in one coalesced batch, while here the refresh
    after the first moves the second to its next boundary before it
    pops. ``sim.events.phases`` and ``sim.events.dispatched`` then count
    fewer events here.
    """

    _coalesce = False

    def _live(self) -> List[SimProcess]:
        return [p for p in self.processes if p.is_running]

    def _advance(self, dt: float) -> None:
        """Advance counters, progress and droops from the live chip."""
        state = self.chip.state()
        running = self._live()
        proc_states = self._proc_states
        pmu = self.chip.pmu
        for process in running:
            exec_state = proc_states[process.pid]
            freq = self.process_frequency_hz(process)
            cycles = freq * dt * process.nthreads
            accesses = (
                exec_state.l3_rate_per_mcycles * freq * dt / 1e6
            ) * process.nthreads
            process.counters.advance(cycles, accesses)
            for core in process.cores:
                core_freq = state.frequency_of_core(core)
                pmu.core(core).advance(
                    cycles=core_freq * dt,
                    instructions=core_freq * dt * exec_state.effective_activity,
                    l3_accesses=accesses / process.nthreads,
                )
            process.progress(dt / exec_state.duration_s)
        pmds = state.active_pmds
        if not pmds:
            return
        activity = sum(
            proc_states[p.pid].effective_activity for p in running
        ) / max(1, len(running))
        events = self.droop_model.events_for_interval(
            utilized_pmds=len(pmds),
            cycles=state.max_active_frequency() * dt,
            freq_class=state.worst_active_frequency_class(),
            activity=max(0.05, activity),
        )
        for bin_mv, count in events.items():
            pmu.record_droops(bin_mv, count)

    def _trace_now(self) -> Tuple[int, int, float]:
        return self._trace_fields(self.chip.state())

    def _refresh(self) -> None:
        self._refreshes_full += 1
        self._recompute_all()

    def _demand(self, behaviour: BenchmarkProfile, freq_hz: int) -> float:
        return bandwidth_demand_gbs(behaviour, self.spec, freq_hz)

    def _execution_state(
        self,
        behaviour: BenchmarkProfile,
        freq_hz: int,
        nthreads: int,
        shares_pmd: bool,
        contention: float,
    ) -> ExecutionState:
        return execution_state(
            behaviour,
            self.spec,
            freq_hz,
            nthreads=nthreads,
            shares_pmd=shares_pmd,
            contention=contention,
        )

    def _build_rows(
        self, state: ChipState, running: List[SimProcess]
    ) -> List[Tuple[SimProcess, float]]:
        """No rows: only each process's ``duration_s``."""
        return [(p, self._proc_states[p.pid].duration_s) for p in running]

    def _recompute_power(self, state: ChipState) -> None:
        multiplier = (
            1.0 if self.thermal is None else self.thermal.leakage_multiplier()
        )
        self._power_w = self.power_model.chip_power(
            state,
            self._activity_map,
            self._bw_util,
            leakage_multiplier=multiplier,
        ).total_w

    def _reschedule_completions(
        self, durations: List[Tuple[SimProcess, float]]
    ) -> None:
        """Cancel and reschedule every finish and phase event."""
        for process, duration_s in durations:
            remaining = process.remaining_fraction
            remaining_s = 0.0
            if remaining > REMAINING_EPS:
                remaining_s = max(0.0, remaining * duration_s)
            old = self._finish_events.get(process.pid)
            if old is not None:
                self.events.cancel(old)  # reprolint: disable=RL005 -- never elided
            self._finish_events[process.pid] = self.events.schedule(
                self.now + remaining_s, "finish", process.pid
            )
            self._reschedule_phase(process, duration_s)

    def _reschedule_phase(self, process: SimProcess, duration_s: float) -> None:
        old = self._phase_events.pop(process.pid, None)
        if old is not None:
            self.events.cancel(old)
        boundary = process.next_phase_boundary()
        if boundary is None:
            return
        # Progress advances at 1/duration done-fractions per second.
        eta_s = (boundary - process.done_fraction) * duration_s
        self._phase_events[process.pid] = self.events.schedule(
            self.now + max(0.0, eta_s), "phase", process.pid
        )
