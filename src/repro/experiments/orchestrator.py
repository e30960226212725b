"""Parallel experiment orchestrator with deterministic output merging.

The ~19 regenerators in this package are independent programs that were
historically run strictly sequentially. This module schedules them over
a process pool instead:

* the **registry** (:mod:`repro.experiments.registry`) declares every
  experiment with its paper artefact, dependencies and a cost hint;
* scheduling is **topological** — independent figures run concurrently,
  dependent ones (the report) wait for their inputs — with costly
  experiments launched first to minimize the makespan;
* results are **merged deterministically**: experiment output is
  assembled in the requested order regardless of completion order, so
  ``--jobs 4`` output is byte-identical to ``--jobs 1`` output;
* every worker shares the characterization cache
  (:mod:`repro.vmin.cache`): in-memory within a process, and through
  the on-disk store across processes when a ``cache_dir`` is given, so
  repeated safe-Vmin campaigns across figures are not re-simulated;
* every batch shares one replay memo (:mod:`repro.core.replay_memo`):
  a private temporary directory, removed when the batch ends, through
  which each distinct workload replay of the batch runs once.

The CLI front-end is ``repro run-all --jobs N --cache-dir PATH``; the
per-module ``main()`` entry points also route through
:func:`run_main`.
"""

from __future__ import annotations

import importlib
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .. import telemetry
from ..analysis.tables import format_table
from ..core import replay_memo
from ..errors import ConfigurationError
from ..telemetry import names as metric_names
from ..telemetry.metrics import Snapshot
from ..vmin.cache import (
    CacheStats,
    ensure_default_cache,
    get_default_cache,
)
from .registry import (
    REGISTRY,
    ExperimentEntry,
    experiment_names,
    get_entry,
    topological_order,
)


@dataclass(frozen=True)
class ExperimentOutcome:
    """Result of one orchestrated experiment execution."""

    name: str
    artefact: str
    output: str
    elapsed_s: float
    cache: CacheStats
    #: Telemetry snapshot of this experiment's execution, present only
    #: when the batch ran with ``collect_telemetry=True``.
    metrics: Optional[Snapshot] = None

    @property
    def cache_hit_rate(self) -> float:
        """Characterization cache hit rate during this experiment."""
        return self.cache.hit_rate


@dataclass
class RunSummary:
    """Outcome of one orchestrated batch, in deterministic merge order."""

    jobs: int
    elapsed_s: float
    outcomes: List[ExperimentOutcome] = field(default_factory=list)
    #: Run-level telemetry snapshot (orchestrator counters and the run
    #: span), present only when ``collect_telemetry=True``.
    metrics: Optional[Snapshot] = None

    def outcome(self, name: str) -> ExperimentOutcome:
        """Outcome of one experiment by name."""
        for item in self.outcomes:
            if item.name == name:
                return item
        raise ConfigurationError(f"no outcome for experiment {name!r}")

    def merged_output(self) -> str:
        """Experiment output in requested order (parallel-invariant).

        This is exactly what the sequential CLI prints: a ``== name ==``
        header, the experiment text and a blank line, per experiment.
        """
        return "".join(
            f"== {item.name} ==\n{item.output}\n\n" for item in self.outcomes
        )

    @property
    def cache_totals(self) -> CacheStats:
        """Characterization cache counters summed over all experiments."""
        total = CacheStats()
        for item in self.outcomes:
            total.hits += item.cache.hits
            total.misses += item.cache.misses
            total.stores += item.cache.stores
            total.evictions += item.cache.evictions
            total.disk_hits += item.cache.disk_hits
            total.corrupt_discarded += item.cache.corrupt_discarded
        return total

    def format_table(self) -> str:
        """Per-experiment timing and cache-hit summary table."""
        rows = [
            (
                item.name,
                f"{item.elapsed_s:.2f}",
                item.cache.hits,
                item.cache.misses,
                f"{100.0 * item.cache.hit_rate:.0f}%",
            )
            for item in self.outcomes
        ]
        totals = self.cache_totals
        rows.append(
            (
                "total",
                f"{self.elapsed_s:.2f}",
                totals.hits,
                totals.misses,
                f"{100.0 * totals.hit_rate:.0f}%",
            )
        )
        table = format_table(
            ("experiment", "wall s", "cache hits", "misses", "hit rate"),
            rows,
            title=f"orchestrator summary ({self.jobs} job(s))",
        )
        return (
            f"{table}\n"
            f"speedup vs serial sum: "
            f"{self.serial_time_s / self.elapsed_s:.2f}x"
            if self.elapsed_s > 0
            else table
        )

    @property
    def serial_time_s(self) -> float:
        """Sum of per-experiment wall times (the sequential cost)."""
        return sum(item.elapsed_s for item in self.outcomes)


def _execute(
    name: str,
    platform: Optional[str],
    duration_s: float,
    seed: int,
    cache_dir: Optional[str],
    collect_telemetry: bool = False,
    policy: Optional[str] = None,
    replay_dir: Optional[str] = None,
) -> ExperimentOutcome:
    """Run one experiment in the current process (pool worker body).

    ``replay_dir`` is the batch's replay memo directory; ``None`` (a
    single experiment outside a batch) replays everything.
    """
    ensure_default_cache(cache_dir)
    entry = get_entry(name)
    module = importlib.import_module(entry.module_path)
    renderer = getattr(module, entry.render_name)
    kwargs = {"platform": platform, "duration_s": duration_s, "seed": seed}
    if policy is not None:
        # Passed only when requested, so renderer doubles (tests, older
        # entry points) keep working and the default path is untouched.
        kwargs["policy"] = policy
    cache = get_default_cache()
    before = cache.stats.snapshot()
    metrics: Optional[Snapshot] = None
    started = time.perf_counter()
    with replay_memo.activated(replay_dir):
        if collect_telemetry:
            # Fresh registry per experiment, so the snapshot attributes
            # every metric to exactly one experiment even when several
            # run in the same worker process.
            with telemetry.session() as registry:
                with telemetry.span(metric_names.ORCH_EXPERIMENT_SPAN):
                    output = renderer(**kwargs)
                cache.publish_telemetry()
                metrics = registry.snapshot()
        else:
            output = renderer(**kwargs)
    elapsed = time.perf_counter() - started
    return ExperimentOutcome(
        name=entry.name,
        artefact=entry.artefact,
        output=output,
        elapsed_s=elapsed,
        cache=cache.stats.delta(before),
        metrics=metrics,
    )


def render_experiment(
    name: str,
    platform: Optional[str] = None,
    duration_s: float = 600.0,
    seed: int = 0,
    cache_dir: Optional[str] = None,
    policy: Optional[str] = None,
) -> str:
    """Render one experiment's text through the orchestrator."""
    return _execute(
        name, platform, duration_s, seed, cache_dir, policy=policy
    ).output


def run_experiments(
    names: Optional[Sequence[str]] = None,
    jobs: int = 1,
    platform: Optional[str] = None,
    duration_s: float = 600.0,
    seed: int = 0,
    cache_dir: Optional[str] = None,
    collect_telemetry: bool = False,
    policy: Optional[str] = None,
) -> RunSummary:
    """Run a batch of experiments, optionally across worker processes.

    ``names`` defaults to the full registry in canonical order; the
    merge order of :meth:`RunSummary.merged_output` always follows the
    requested order, independent of scheduling. ``jobs=1`` runs
    everything in-process; higher values fan independent experiments
    out over a process pool while dependents wait for their inputs.

    With ``collect_telemetry=True`` every experiment carries a metric
    snapshot (:attr:`ExperimentOutcome.metrics`) and the summary carries
    the orchestrator-level snapshot (:attr:`RunSummary.metrics`) —
    queue depth and busy-worker samples, the completed-experiment
    counter and the run wall-time span.

    Each distinct workload replay runs once per batch: experiments share
    them through a replay memo in a private temporary directory, which
    is removed when the batch returns or raises.
    """
    if jobs < 1:
        raise ConfigurationError("jobs must be >= 1")
    requested = list(
        dict.fromkeys(names if names is not None else experiment_names())
    )
    schedule = topological_order(requested)
    registry_index = {entry.name: i for i, entry in enumerate(REGISTRY)}
    started = time.perf_counter()
    run_metrics: Optional[Snapshot] = None
    with tempfile.TemporaryDirectory(prefix="repro-replay-") as replay_dir:
        if collect_telemetry:
            with telemetry.session() as registry:
                with telemetry.span(metric_names.ORCH_RUN_SPAN):
                    outcomes = _run_schedule(
                        schedule, jobs, platform, duration_s, seed,
                        cache_dir, registry_index, True, policy,
                        replay_dir,
                    )
                run_metrics = registry.snapshot()
        else:
            outcomes = _run_schedule(
                schedule, jobs, platform, duration_s, seed, cache_dir,
                registry_index, False, policy, replay_dir,
            )
    return RunSummary(
        jobs=jobs,
        elapsed_s=time.perf_counter() - started,
        outcomes=[outcomes[name] for name in requested],
        metrics=run_metrics,
    )


def _run_schedule(
    schedule: List[ExperimentEntry],
    jobs: int,
    platform: Optional[str],
    duration_s: float,
    seed: int,
    cache_dir: Optional[str],
    registry_index: Dict[str, int],
    collect_telemetry: bool,
    policy: Optional[str] = None,
    replay_dir: Optional[str] = None,
) -> Dict[str, ExperimentOutcome]:
    """Dispatch ``schedule`` serially or over the pool."""
    if jobs == 1 or len(schedule) == 1:
        outcomes: Dict[str, ExperimentOutcome] = {}
        for i, entry in enumerate(schedule):
            telemetry.observe(
                metric_names.ORCH_QUEUE_DEPTH, len(schedule) - i
            )
            outcomes[entry.name] = _execute(
                entry.name, platform, duration_s, seed, cache_dir,
                collect_telemetry, policy, replay_dir,
            )
            telemetry.inc(metric_names.ORCH_EXPERIMENTS_COMPLETED)
        return outcomes
    return _run_pool(
        schedule, jobs, platform, duration_s, seed, cache_dir,
        registry_index, collect_telemetry, policy, replay_dir,
    )


def _run_pool(
    schedule: List[ExperimentEntry],
    jobs: int,
    platform: Optional[str],
    duration_s: float,
    seed: int,
    cache_dir: Optional[str],
    registry_index: Dict[str, int],
    collect_telemetry: bool = False,
    policy: Optional[str] = None,
    replay_dir: Optional[str] = None,
) -> Dict[str, ExperimentOutcome]:
    """Topological fan-out of ``schedule`` over a process pool."""
    chosen = {entry.name for entry in schedule}
    entry_of = {entry.name: entry for entry in schedule}
    waiting = {
        entry.name: {dep for dep in entry.depends if dep in chosen}
        for entry in schedule
    }
    outcomes: Dict[str, ExperimentOutcome] = {}
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        running: Dict[object, str] = {}
        while waiting or running:
            # Launch every dependency-free experiment, costliest first,
            # so long-running ones do not straggle at the end.
            ready = sorted(
                (name for name, deps in waiting.items() if not deps),
                key=lambda n: (-entry_of[n].cost, registry_index[n]),
            )
            for name in ready:
                del waiting[name]
                future = pool.submit(
                    _execute, name, platform, duration_s, seed, cache_dir,
                    collect_telemetry, policy, replay_dir,
                )
                running[future] = name
            # Scheduler-health samples; completion-order dependent, so
            # they are histogram shapes, never part of any fingerprint
            # comparison between differently-scheduled runs.
            telemetry.observe(metric_names.ORCH_QUEUE_DEPTH, len(waiting))
            telemetry.observe(metric_names.ORCH_INFLIGHT, len(running))
            done, _ = wait(set(running), return_when=FIRST_COMPLETED)
            for future in done:
                name = running.pop(future)
                outcomes[name] = future.result()
                telemetry.inc(metric_names.ORCH_EXPERIMENTS_COMPLETED)
                for deps in waiting.values():
                    deps.discard(name)
    return outcomes


def run_main(name: str) -> int:
    """Module ``main()`` entry point: render one experiment and print it."""
    print(render_experiment(name))
    return 0
