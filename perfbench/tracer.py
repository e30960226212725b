"""Outside-in tracing of the repro layers.

The program is not edited: :class:`Instrumentation` replaces the public
entry points of each layer at runtime with wrappers that record one span
per call into a :class:`SpanLog`, and puts the originals back afterwards.
A span is (label, parent span, start, end); the parent is whichever
wrapped call was open when the span began, so self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

#: Span label -> entry points, as ``module:attribute`` or
#: ``module:Class.method``. Labels are named after ``src/repro`` layers.
ENTRY_POINTS: Dict[str, Tuple[str, ...]] = {
    "sim.run": ("repro.sim.system:ServerSystem.run",),
    "sim.queue": tuple(
        f"repro.sim.engine:EventQueue.{name}"
        for name in ("schedule", "cancel", "peek_time", "pop", "pop_at")
    ),
    "power.chip_power": ("repro.power.model:PowerModel.chip_power",),
    "thermal": tuple(
        f"repro.platform.thermal:ThermalModel.{name}"
        for name in ("step", "leakage_multiplier", "vmin_shift_mv")
    ),
    "perf.execution_state": ("repro.perf.model:execution_state",),
    "perf.contention_factor": ("repro.perf.contention:contention_factor",),
    "core.monitor.sample": ("repro.core.monitoring:MonitoringDaemon.sample",),
    "core.placement.plan": ("repro.core.placement:PlacementEngine.plan",),
    "core.policy_table.lookup": (
        "repro.core.policy:VminPolicyTable.entry",
        "repro.core.policy:VminPolicyTable.safe_voltage_mv",
    ),
    "core.policy_table.build": (
        "repro.core.policy:VminPolicyTable.from_characterization",
    ),
    # Filled in at install time: every Policy subclass's own ``decide``.
    "policies.decide": (),
    "policies.apply_action": ("repro.policies.actuation:apply_action",),
    "vmin.safe_vmin_for_state": (
        "repro.vmin.model:VminModel.safe_vmin_for_state",
    ),
    "vmin.droop.events_for_interval": (
        "repro.vmin.droop:DroopModel.events_for_interval",
    ),
    "vmin.campaign": tuple(
        f"repro.vmin.characterize:VminCampaign.{name}"
        for name in (
            "measure_safe_vmin", "measure_safe_vmin_batch",
            "scan_unsafe_region", "scan_unsafe_region_batch",
            "pfail_curve", "pfail_curves",
        )
    ),
    "vmin.cache.get": ("repro.vmin.cache:VminCache.get",),
    "vmin.cache.put": ("repro.vmin.cache:VminCache.put",),
    "kernels": (
        "repro.kernels.vmin:evaluate_grid",
        "repro.kernels.vmin:safe_vmin_grid",
        "repro.kernels.vmin:safe_vmin_matrix",
        "repro.kernels.power:chip_power_grid",
        "repro.kernels.faults:width_mv_grid",
        "repro.kernels.faults:pfail_grid",
        "repro.kernels.faults:outcome_mix_grid",
        "repro.kernels.faults:analytic_failure_counts",
        "repro.kernels.faults:analytic_outcome_counts",
        "repro.kernels.faults:multinomial_split",
        "repro.kernels.faults:sample_outcome_counts",
    ),
    "workloads.generate": (
        "repro.workloads.generator:ServerWorkloadGenerator.generate",
    ),
}

LABELS: Tuple[str, ...] = tuple(ENTRY_POINTS)


class SpanLog:
    """Append-only in-memory store of spans, one row per traced call."""

    def __init__(self) -> None:
        self.label = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: List[int] = [-1]

    def wrap(self, label_id: int, fn: Callable) -> Callable:
        """``fn`` recording one span under ``label_id`` per call."""
        clock = time.perf_counter
        labels, parents = self.label, self.parent
        starts, ends, open_ = self.start, self.end, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(labels)
            labels.append(label_id)
            parents.append(open_[-1])
            ends.append(0.0)
            open_.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                open_.pop()

        return traced

    def arrays(self) -> Dict[str, np.ndarray]:
        """The spans as numpy columns."""
        return {
            "label": np.frombuffer(self.label, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }


def summarize(log: SpanLog, wall_s: float) -> Dict[str, Dict[str, float]]:
    """Per-label ``calls``, ``self_s`` and ``total_s``, plus the share of
    ``wall_s`` that top-level spans cover (``coverage``)."""
    cols = log.arrays()
    duration = cols["end"] - cols["start"]
    parent = cols["parent"]
    nested = parent >= 0
    children = np.bincount(
        parent[nested], weights=duration[nested], minlength=len(duration)
    )
    self_s = duration - children
    n_labels = len(LABELS)
    calls = np.bincount(cols["label"], minlength=n_labels)
    self_by = np.bincount(cols["label"], weights=self_s, minlength=n_labels)
    total_by = np.bincount(
        cols["label"], weights=duration, minlength=n_labels
    )
    out: Dict[str, Dict[str, float]] = {
        label: {
            "calls": int(calls[i]),
            "self_s": float(self_by[i]),
            "total_s": float(total_by[i]),
        }
        for i, label in enumerate(LABELS)
    }
    covered = float(duration[~nested].sum())
    out["trace"] = {"coverage": covered / wall_s if wall_s > 0 else 0.0}
    return out


def write_spans(path: Path, logs: Sequence[SpanLog]) -> None:
    """Write every traced iteration's spans to one ``.npz`` file."""
    columns: Dict[str, np.ndarray] = {"labels": np.array(LABELS)}
    for i, log in enumerate(logs):
        for name, values in log.arrays().items():
            columns[f"iter{i}_{name}"] = values
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **columns)


def _resolve(target: str) -> Tuple[object, str]:
    module_name, _, qualname = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *outer, attr = qualname.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


def _policy_classes() -> List[type]:
    from repro.policies.surfaces import Policy

    found: Dict[type, None] = {}
    todo = [Policy]
    while todo:
        cls = todo.pop()
        found[cls] = None
        todo.extend(cls.__subclasses__())
    return list(found)


class Instrumentation:
    """Installs :class:`SpanLog` wrappers on every entry point, and
    restores the originals on exit (use as a context manager)."""

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self._undo: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Instrumentation":
        for label_id, label in enumerate(LABELS):
            targets = [_resolve(t) for t in ENTRY_POINTS[label]]
            if label == "policies.decide":
                targets = [(cls, "decide") for cls in _policy_classes()
                           if "decide" in vars(cls)]
            for owner, attr in targets:
                self._patch(label_id, owner, attr)
        return self

    def __exit__(self, *exc: object) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, label_id: int, owner: object, attr: str) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self.log.wrap(label_id, raw.__func__))
        else:
            wrapped = self.log.wrap(label_id, raw)
        self._set(owner, attr, raw, wrapped)
        if isinstance(owner, type):
            return
        # Module-level functions are also bound by ``from x import f`` in
        # other modules; rebind every such alias.
        for name, module in list(sys.modules.items()):
            if module is owner or not name.startswith("repro"):
                continue
            for alias, value in list(vars(module).items()):
                if value is raw:
                    self._set(module, alias, raw, wrapped)

    def _set(self, owner: object, attr: str, raw: object,
             wrapped: object) -> None:
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, wrapped)
