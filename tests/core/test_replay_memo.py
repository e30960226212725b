"""Tests for the batch-scoped replay memo (repro.core.replay_memo)."""

import pytest

from repro import telemetry
from repro.core import replay_memo
from repro.core.configurations import run_configuration
from repro.core.policy import VminPolicyTable
from repro.experiments import tables34
from repro.platform.specs import get_spec
from repro.telemetry import names
from repro.vmin.model import VminModel
from repro.workloads.generator import ServerWorkloadGenerator

SPEC2 = get_spec("xgene2")


@pytest.fixture(scope="module")
def workload():
    return ServerWorkloadGenerator(max_cores=8, seed=3).generate(120.0)


def _counters(body):
    with telemetry.session() as registry:
        body()
        return registry.snapshot()["counters"]


def _observables(result):
    return (
        result.makespan_s,
        result.energy_j,
        result.voltage_transitions,
        result.frequency_transitions,
        [(v.time_s, v.voltage_mv, v.required_mv) for v in result.violations],
        [(p.pid, p.start_s, p.finish_s, p.migrations) for p in result.processes],
        [(s.time_s, s.power_w, s.voltage_mv) for s in result.trace.samples],
    )


class TestScope:
    def test_activation_is_restored(self, tmp_path):
        with replay_memo.activated(str(tmp_path)):
            assert replay_memo.active_dir() == tmp_path
            with replay_memo.activated(None):
                assert replay_memo.active_dir() is None
            assert replay_memo.active_dir() == tmp_path
        assert replay_memo.active_dir() is None

    def test_direct_tables34_run_never_hits(self):
        def twice():
            tables34.run("xgene2", duration_s=600.0, seed=0)
            tables34.run("xgene2", duration_s=600.0, seed=0)

        counters = _counters(twice)
        assert names.ORCH_REPLAY_HITS not in counters
        assert names.ORCH_REPLAY_MISSES not in counters
        # Both tables replay all four configurations.
        assert counters[names.SIM_RUNS] == 8


class TestRecall:
    def test_hit_is_a_fresh_equal_result(self, tmp_path, workload):
        with replay_memo.activated(str(tmp_path)):
            results = []
            counters = _counters(
                lambda: results.extend(
                    run_configuration("xgene2", workload, "optimal")
                    for _ in range(2)
                )
            )
        first, second = results
        assert counters[names.ORCH_REPLAY_MISSES] == 1
        assert counters[names.ORCH_REPLAY_HITS] == 1
        assert counters[names.SIM_RUNS] == 1
        assert _observables(first) == _observables(second)
        # No mutable state is shared between the two experiments.
        assert second is not first
        assert second.trace is not first.trace
        assert second.processes[0] is not first.processes[0]

    def test_hit_matches_an_unmemoized_replay(self, tmp_path, workload):
        direct = run_configuration("xgene2", workload, "placement")
        with replay_memo.activated(str(tmp_path)):
            run_configuration("xgene2", workload, "placement")
            recalled = run_configuration("xgene2", workload, "placement")
        assert _observables(recalled) == _observables(direct)

    def test_implicit_table_shares_the_explicit_replay(
        self, tmp_path, workload
    ):
        table = VminPolicyTable.from_characterization(SPEC2)
        with replay_memo.activated(str(tmp_path)):
            counters = _counters(
                lambda: (
                    run_configuration(
                        "xgene2", workload, "optimal", policy=table
                    ),
                    run_configuration("xgene2", workload, "optimal"),
                )
            )
        assert counters[names.ORCH_REPLAY_HITS] == 1

    def test_paper_name_and_registry_key_share_a_replay(
        self, tmp_path, workload
    ):
        with replay_memo.activated(str(tmp_path)):
            counters = _counters(
                lambda: (
                    run_configuration("xgene2", workload, "optimal"),
                    run_configuration("xgene2", workload, "daemon"),
                )
            )
        assert counters[names.ORCH_REPLAY_HITS] == 1

    def test_raising_replay_stores_nothing(self, tmp_path):
        def crash():
            raise RuntimeError("replay failed")

        for _ in range(2):
            with pytest.raises(RuntimeError):
                replay_memo.recall(tmp_path, "k", crash)
        assert not any(tmp_path.iterdir())


class TestKey:
    @pytest.fixture(scope="class")
    def parts(self, workload):
        return dict(
            spec=SPEC2,
            vmin_model=VminModel(SPEC2),
            workload=workload,
            policy_key="daemon",
            silicon_seed=0,
            table=VminPolicyTable.from_characterization(SPEC2),
            trace_period_s=1.0,
            fault_policy="record",
        )

    def test_stable(self, parts):
        assert replay_memo.replay_key(**parts) == replay_memo.replay_key(
            **dict(parts, vmin_model=VminModel(SPEC2))
        )

    @pytest.mark.parametrize(
        "change",
        [
            lambda: {"spec": get_spec("xgene3")},
            lambda: {"vmin_model": VminModel(SPEC2, silicon_seed=4)},
            lambda: {
                "workload": ServerWorkloadGenerator(
                    max_cores=8, seed=4
                ).generate(120.0)
            },
            lambda: {"policy_key": "daemon-placement"},
            lambda: {"silicon_seed": 1},
            lambda: {
                "table": VminPolicyTable.from_characterization(
                    SPEC2, vmin_model=VminModel(SPEC2, silicon_seed=4)
                )
            },
            lambda: {
                "table": VminPolicyTable.from_characterization(
                    SPEC2, guard_mv=10
                )
            },
            lambda: {"trace_period_s": None},
            lambda: {"fault_policy": "raise"},
        ],
        ids=[
            "spec", "vmin_model", "workload", "policy_key",
            "silicon_seed", "table_entries", "guard_mv",
            "trace_period_s", "fault_policy",
        ],
    )
    def test_every_input_moves_the_key(self, parts, change):
        changed = dict(parts, **change())
        assert replay_memo.replay_key(**changed) != replay_memo.replay_key(
            **parts
        )
