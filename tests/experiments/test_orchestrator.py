"""Tests for the experiment registry and the parallel orchestrator."""

import importlib
import tempfile
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.experiments import orchestrator
from repro.experiments.registry import (
    REGISTRY,
    ExperimentEntry,
    experiment_names,
    get_entry,
    topological_order,
)
from repro.vmin.cache import reset_default_cache

#: Cheap experiments used for end-to-end orchestration tests.
FAST_SUBSET = ["table1", "fig5", "fig6"]

#: Experiments sharing replays through the batch's replay memo.
MEMO_SUBSET = ["fig14", "fig15", "table3"]


@pytest.fixture(autouse=True)
def fresh_default_cache():
    reset_default_cache()
    yield
    reset_default_cache()


class TestRegistry:
    def test_names_unique_and_nonempty(self):
        names = experiment_names()
        assert len(names) == len(set(names)) > 0

    def test_every_entry_resolves_to_a_render_callable(self):
        for entry in REGISTRY:
            module = importlib.import_module(entry.module_path)
            assert callable(getattr(module, entry.render_name))

    def test_every_entry_declares_an_artefact(self):
        for entry in REGISTRY:
            assert entry.artefact
            assert entry.cost > 0

    def test_depends_reference_known_names(self):
        names = set(experiment_names())
        for entry in REGISTRY:
            assert set(entry.depends) <= names

    def test_get_entry_unknown_name(self):
        with pytest.raises(ConfigurationError):
            get_entry("fig99")

    def test_report_depends_on_upstream_experiments(self):
        assert set(get_entry("report").depends) >= {"fig3", "table2"}


class TestTopologicalOrder:
    def test_full_registry_keeps_dependencies_before_dependents(self):
        order = [e.name for e in topological_order(experiment_names())]
        position = {name: i for i, name in enumerate(order)}
        for entry in REGISTRY:
            for dep in entry.depends:
                assert position[dep] < position[entry.name]

    def test_dependency_free_selection_keeps_registry_order(self):
        order = [e.name for e in topological_order(["fig5", "table1"])]
        assert order == ["table1", "fig5"]

    def test_deps_outside_selection_are_ignored(self):
        assert [e.name for e in topological_order(["report"])] == ["report"]

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            topological_order(["fig99"])

    def test_cycle_detected(self):
        cyclic = (
            ExperimentEntry(
                name="a", artefact="A", module="a", depends=("b",), cost=1.0
            ),
            ExperimentEntry(
                name="b", artefact="B", module="b", depends=("a",), cost=1.0
            ),
        )
        with pytest.raises(ConfigurationError):
            topological_order(["a", "b"], registry=cyclic)

    def test_alternative_registry_unknown_name(self):
        alt = (
            ExperimentEntry(name="a", artefact="A", module="a", cost=1.0),
        )
        with pytest.raises(ConfigurationError):
            topological_order(["b"], registry=alt)


class TestRenderExperiment:
    def test_matches_direct_module_call(self):
        module = importlib.import_module("repro.experiments.table1")
        assert orchestrator.render_experiment("table1") == module.render()

    def test_platform_override(self):
        xg2 = orchestrator.render_experiment("fig5", platform="xgene2")
        xg3 = orchestrator.render_experiment("fig5", platform="xgene3")
        assert xg2 != xg3

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            orchestrator.render_experiment("fig99")


class TestRunExperiments:
    def test_sequential_summary_shape(self):
        summary = orchestrator.run_experiments(names=FAST_SUBSET, jobs=1)
        assert summary.jobs == 1
        assert [o.name for o in summary.outcomes] == FAST_SUBSET
        for outcome in summary.outcomes:
            assert outcome.output
            assert outcome.elapsed_s >= 0.0
        assert summary.elapsed_s > 0.0

    def test_parallel_output_identical_to_sequential(self):
        sequential = orchestrator.run_experiments(names=FAST_SUBSET, jobs=1)
        parallel = orchestrator.run_experiments(names=FAST_SUBSET, jobs=2)
        assert parallel.merged_output() == sequential.merged_output()

    def test_parallel_memo_subset_identical_to_sequential(self):
        # On xgene2 fig15 and table3 replay fig14's runs: whichever
        # experiment runs first simulates, the others recall its result.
        sequential = orchestrator.run_experiments(
            names=MEMO_SUBSET, jobs=1, platform="xgene2"
        )
        parallel = orchestrator.run_experiments(
            names=MEMO_SUBSET, jobs=2, platform="xgene2"
        )
        assert parallel.merged_output() == sequential.merged_output()
        unmemoized = "".join(
            f"== {name} ==\n"
            f"{orchestrator.render_experiment(name, platform='xgene2')}\n\n"
            for name in MEMO_SUBSET
        )
        assert sequential.merged_output() == unmemoized

    def test_merged_output_in_requested_order(self):
        summary = orchestrator.run_experiments(
            names=["fig6", "table1"], jobs=2
        )
        merged = summary.merged_output()
        assert merged.index("== fig6 ==") < merged.index("== table1 ==")

    def test_duplicate_names_collapsed(self):
        summary = orchestrator.run_experiments(
            names=["table1", "table1"], jobs=1
        )
        assert [o.name for o in summary.outcomes] == ["table1"]

    def test_unknown_name_rejected_before_any_work(self):
        with pytest.raises(ConfigurationError):
            orchestrator.run_experiments(names=["table1", "fig99"])

    def test_cache_accounting_reports_second_run_hits(self, tmp_path):
        cold = orchestrator.run_experiments(
            names=["fig3"], jobs=1, cache_dir=tmp_path
        )
        reset_default_cache()
        warm = orchestrator.run_experiments(
            names=["fig3"], jobs=1, cache_dir=tmp_path
        )
        assert warm.merged_output() == cold.merged_output()
        assert cold.outcome("fig3").cache.hits == 0
        warm_stats = warm.outcome("fig3").cache
        assert warm_stats.misses == 0
        assert warm_stats.hits > 0
        assert warm.outcome("fig3").cache_hit_rate == 1.0

    def test_summary_table_lists_each_experiment(self):
        summary = orchestrator.run_experiments(names=FAST_SUBSET, jobs=1)
        table = summary.format_table()
        for name in FAST_SUBSET:
            assert name in table
        assert "total" in table
        assert "speedup vs serial sum" in table

    def test_cache_totals_aggregate_outcomes(self):
        summary = orchestrator.run_experiments(
            names=["fig5", "fig6"], jobs=1
        )
        totals = summary.cache_totals
        assert totals.lookups == sum(
            o.cache.lookups for o in summary.outcomes
        )


class TestReplayMemo:
    def test_serial_run_all_replay_hits(self):
        from repro.telemetry import names

        summary = orchestrator.run_experiments(
            jobs=1, platform="xgene2", collect_telemetry=True
        )

        def count(metric):
            return {
                o.name: o.metrics["counters"][metric]
                for o in summary.outcomes
                if metric in o.metrics["counters"]
            }

        # fig15 recalls fig14's Optimal run, table3 both fig14 runs and
        # the report all eight Table III/IV replays.
        hits = count(names.ORCH_REPLAY_HITS)
        assert hits == {"fig15": 1, "table3": 2, "report": 8}
        assert sum(hits.values()) == 11
        assert sum(count(names.ORCH_REPLAY_MISSES).values()) == 8

    @pytest.fixture
    def batch_tmp(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        return tmp_path

    def test_batch_directory_removed_after_the_batch(
        self, batch_tmp, monkeypatch
    ):
        seen = []
        execute = orchestrator._execute

        def spy(*args):
            replay_dir = args[-1]
            seen.append(replay_dir)
            outcome = execute(*args)
            assert any(Path(replay_dir).glob("*.pkl"))
            return outcome

        monkeypatch.setattr(orchestrator, "_execute", spy)
        orchestrator.run_experiments(
            names=["fig15"], jobs=1, platform="xgene2"
        )
        assert seen and seen[0].startswith(str(batch_tmp))
        assert not any(batch_tmp.iterdir())

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_batch_directory_removed_when_an_experiment_raises(
        self, batch_tmp, jobs
    ):
        # Seed 304 generates an empty 600 s Table IV workload.
        with pytest.raises(ConfigurationError, match="seed 304"):
            orchestrator.run_experiments(
                names=["fig5", "table4"], jobs=jobs, seed=304
            )
        assert not any(batch_tmp.iterdir())


class TestWorkerEntryPoint:
    def test_execute_populates_shared_disk_cache(self, tmp_path):
        outcome = orchestrator._execute(
            "fig3", None, 600.0, 0, str(tmp_path)
        )
        assert outcome.name == "fig3"
        assert outcome.output
        assert outcome.elapsed_s >= 0.0
        assert outcome.cache.misses > 0
        assert any(tmp_path.iterdir())


class TestReferenceSwitch:
    def test_env_var_reaches_pool_workers(self, monkeypatch):
        # Two experiments, so the batch fans out over the pool: every
        # worker's replays must run on the reference simulator too.
        from repro.telemetry import names

        monkeypatch.setenv("REPRO_SIM_FULL_REFRESH", "1")
        summary = orchestrator.run_experiments(
            ["table3", "table4"],
            jobs=2,
            platform="xgene2",
            collect_telemetry=True,
        )
        assert len(summary.outcomes) == 2
        for outcome in summary.outcomes:
            counters = outcome.metrics["counters"]
            assert counters[names.SIM_REFRESH_INCREMENTAL] == 0
            assert counters[names.SIM_REFRESH_FULL] > 0
