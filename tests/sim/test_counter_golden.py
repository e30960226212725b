"""Golden telemetry counters of one fixed daemon replay on X-Gene 2.

The simulator's fast paths claim to keep every counter it and the daemon
publish (events dispatched per kind, schedules and cancels, refreshes,
elided reschedules, policy dispatches, classifications, replans) at the
value the plain one-event-at-a-time flow gives. This test pins those
counters, and the run's simulated makespan and energy, to a committed
snapshot so that claim is checked by machine.

Regenerate the snapshot only when the replay's behaviour legitimately
changes::

    PYTHONPATH=src python tests/sim/test_counter_golden.py
"""

import json
from pathlib import Path

from repro import telemetry
from repro.core.policy import VminPolicyTable
from repro.platform.chip import Chip
from repro.platform.specs import xgene2_spec
from repro.policies.daemon import OnlineMonitoringDaemon
from repro.sim.system import ServerSystem
from repro.workloads.generator import ServerWorkloadGenerator

GOLDEN = (
    Path(__file__).resolve().parent.parent
    / "golden"
    / "daemon_counters_xgene2.json"
)

#: The replay: a generated 900 s workload (seed 11) under the Optimal
#: daemon, traced every second.
DURATION_S = 900.0
SEED = 11

#: Metric families the snapshot keeps.
PREFIXES = ("sim.", "daemon.")


def replay_metrics():
    """Counters and gauges of the ``sim.*``/``daemon.*`` families."""
    spec = xgene2_spec()
    workload = ServerWorkloadGenerator(
        max_cores=spec.n_cores, seed=SEED
    ).generate(DURATION_S)
    daemon = OnlineMonitoringDaemon(
        spec, policy=VminPolicyTable.from_characterization(spec)
    )
    with telemetry.session() as registry:
        ServerSystem(Chip(spec), workload, daemon).run()
        snap = registry.snapshot()
    return {
        kind: {
            name: value
            for name, value in snap[kind].items()
            if name.startswith(PREFIXES)
        }
        for kind in ("counters", "gauges")
    }


def test_daemon_replay_counters_match_golden():
    expected = json.loads(GOLDEN.read_text())
    assert replay_metrics() == expected


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(replay_metrics(), indent=2, sort_keys=True) + "\n"
    )
