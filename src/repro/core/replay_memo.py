"""Batch-scoped memo of workload replays.

One orchestrated batch replays the same (chip, workload, configuration)
triple several times: Tables III/IV and Figs. 14/15 share their runs,
and the report redoes every Table III/IV replay. While a batch is
active, :func:`repro.core.configurations.run_configuration` looks each
replay up here by a content-addressed key and runs it only on a miss.

* **Scope.** The orchestrator creates one private temporary directory
  per batch, hands it to every experiment (in-process or in a pool
  worker) and removes it when the batch ends. Outside a batch nothing
  is memoized, and nothing persists between runs: a persistent key
  would also have to cover the simulator's own source.
* **Key.** :func:`replay_key` hashes every input of a replay (see its
  docstring); it is a ``@cache_key_producer``, so reprolint checks it
  stays pure.
* **Value.** The pickled :class:`~repro.sim.system.SystemResult`,
  written atomically. Every hit unpickles a fresh object, so two
  experiments never share mutable process or trace state. A replay
  that raises stores nothing.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import Callable, Iterator, Optional

from .. import telemetry
from ..platform.specs import ChipSpec
from ..sim.system import SystemResult
from ..telemetry import names as metric_names
from ..vmin.cache import (
    cache_key_producer,
    make_key,
    model_fingerprint,
    spec_fingerprint,
)
from ..vmin.model import VminModel
from ..workloads.generator import Workload
from .policy import VminPolicyTable

#: Memo directory of the batch whose experiment is running, if any.
_active_dir: ContextVar[Optional[Path]] = ContextVar(
    "replay_memo_dir", default=None
)


@contextmanager
def activated(directory: Optional[str]) -> Iterator[None]:
    """Memoize replays into ``directory`` for the duration of the block
    (``None``: replay everything)."""
    token = _active_dir.set(
        Path(directory) if directory is not None else None
    )
    try:
        yield
    finally:
        _active_dir.reset(token)


def active_dir() -> Optional[Path]:
    """The active batch's memo directory (``None`` outside a batch)."""
    return _active_dir.get()


@cache_key_producer
def replay_key(
    spec: ChipSpec,
    vmin_model: VminModel,
    workload: Workload,
    policy_key: str,
    silicon_seed: int,
    table: VminPolicyTable,
    trace_period_s: Optional[float],
    fault_policy: str,
) -> str:
    """Content-addressed key of one replay.

    Covers the spec and ground-truth Vmin-model fingerprints, the
    workload's serialized bytes, the resolved policy registry key, the
    silicon seed, the safe-Vmin table the policy consumes (entries and
    guard margin), the trace period and the fault policy.
    """
    return make_key(
        kind="replay",
        spec=spec_fingerprint(spec),
        model=model_fingerprint(vmin_model),
        workload=hashlib.sha256(
            workload.to_json().encode("utf-8")
        ).hexdigest(),
        policy=policy_key,
        silicon_seed=silicon_seed,
        table=[
            [entry.freq_class.value, entry.droop_class, entry.vmin_mv]
            for entry in table.rows()
        ],
        guard_mv=table.guard_mv,
        trace_period_s=trace_period_s,
        fault_policy=fault_policy,
    )


def recall(
    directory: Path, key: str, replay: Callable[[], SystemResult]
) -> SystemResult:
    """The memoized result under ``key``, running ``replay`` on a miss."""
    path = directory / f"{key}.pkl"
    try:
        payload = path.read_bytes()
    except FileNotFoundError:
        pass
    else:
        telemetry.inc(metric_names.ORCH_REPLAY_HITS)
        return pickle.loads(payload)
    telemetry.inc(metric_names.ORCH_REPLAY_MISSES)
    result = replay()
    # Pool workers may race on one key; both store an equal result, and
    # the rename keeps every reader on a whole file.
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    with os.fdopen(fd, "wb") as handle:
        pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)
    return result
