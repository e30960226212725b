"""The benchmark's workloads.

Each workload is a closed loop with one client: :meth:`Workload.run`
performs one iteration at the stated size and returns its output, and
the next iteration starts only after it returns. A workload seed is the
only input the benchmark chooses; the program generates everything else
from it, exactly as the ``repro`` CLI would.

Timed iterations replay the workload's own seed (:attr:`Workload.seed`,
the paper's configuration), whose output is pinned by a committed
reference. The amount of work a generated workload holds varies several
fold between seeds, so timing a different seed per run would measure the
seed, not the program. The benchmark's ``--seed`` drives one untimed
seeded replay per run instead (see ``run.py``).
"""

from __future__ import annotations

import hashlib
import importlib
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space inside the checkout (cold cache directories, traces,
#: result files); listed in the root ``.gitignore``.
OUT_DIR = ROOT / ".perfbench_out"

PAPER_PLATFORMS = ("xgene2", "xgene3")
#: Paper configurations with reported savings (the baseline has none).
SAVINGS_CONFIGS = ("safe_vmin", "placement", "optimal")
SAVINGS_FIELDS = ("energy_savings_pct", "ed2p_savings_pct")


def digest(text: str) -> str:
    """SHA-256 of an iteration's output text."""
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Outcome:
    """One iteration's output: the text users see, the problems the
    benchmark found in it, and the raw result objects."""

    text: str
    problems: List[str] = field(default_factory=list)
    detail: object = None


class Workload:
    """One benchmark workload; subclasses fill in the class attributes."""

    name = ""
    #: Generator seed of the timed iterations; ``reference.json`` (or
    #: the golden file) pins its output.
    seed = 0
    #: Whether ``--seed`` drives an untimed seeded replay per run.
    seeded = True
    #: ``--seed`` kept out of tuning: a claimed gain must also hold on it.
    held_out_seed: Optional[int] = None

    def prepare(self) -> None:
        """Set-up before the first timed iteration (what ``setup_s``
        times in a fresh interpreter)."""

    def run(self, seed: int) -> Outcome:
        """One timed iteration."""
        raise NotImplementedError

    def replay(self, seed: int) -> Outcome:
        """In-process iteration that the traced run wraps."""
        return self.run(seed)

    def reference_problems(self, outcome: Outcome) -> List[str]:
        """Differences between ``outcome`` (at :attr:`seed`) and the
        committed reference."""
        reference = json.loads((HERE / "reference.json").read_text())
        expected = reference[self.name]["sha256"]
        got = digest(outcome.text)
        if got != expected:
            return [f"{self.name} seed {self.seed}: output sha256 {got} "
                    f"!= committed {expected}"]
        return []


class EvalPaper(Workload):
    """Tables III and IV at paper scale under the four configurations."""

    name = "eval-paper"
    seed = 42
    held_out_seed = 2027
    duration_s = 3600.0

    def prepare(self) -> None:
        from repro.core.policy import VminPolicyTable
        from repro.experiments import tables34  # noqa: F401
        from repro.platform.specs import get_spec
        from repro.workloads.generator import ServerWorkloadGenerator

        for platform in PAPER_PLATFORMS:
            spec = get_spec(platform)
            VminPolicyTable.from_characterization(spec)
            ServerWorkloadGenerator(
                max_cores=spec.n_cores, seed=self.seed
            ).generate(self.duration_s)

    def run(self, seed: int) -> Outcome:
        from repro.experiments import tables34

        tables = [
            tables34.run(platform, duration_s=self.duration_s, seed=seed)
            for platform in PAPER_PLATFORMS
        ]
        problems = [
            f"{table.platform} {row.config}: {row.violations} safe-Vmin "
            f"violations"
            for table in tables
            for row in table.evaluation.rows()
            if row.violations
        ]
        return Outcome(
            "\n".join(table.format() for table in tables), problems, tables
        )


def paper_error_pp(tables) -> float:
    """Mean |measured - paper| savings, in percentage points, over the
    energy and ED2P savings cells of Tables III and IV."""
    errors = []
    for table in tables:
        paper = table.paper_reference()
        for config in SAVINGS_CONFIGS:
            row = table.evaluation.row(config)
            for name in SAVINGS_FIELDS:
                errors.append(abs(getattr(row, name) - paper[config][name]))
    return sum(errors) / len(errors)


class RunAllJ2(Workload):
    """``repro run-all --jobs 2 --platform xgene2`` from a cold cache.

    The catalogue's inputs are run-all's defaults (seed 0), the ones
    ``tests/golden/run_all_xgene2.txt`` pins. No seeded replay: at
    run-all's 600 s duration some seeds generate a Table IV workload
    with no jobs, and the report then raises "baseline value must be
    non-zero" (seed 304 does).
    """

    name = "runall-j2"
    seeded = False
    jobs = 2
    platform = "xgene2"
    golden = ROOT / "tests" / "golden" / "run_all_xgene2.txt"

    def prepare(self) -> None:
        from repro.experiments import orchestrator  # noqa: F401
        from repro.experiments.registry import REGISTRY
        from repro.platform.registry import get_platform

        for entry in REGISTRY:
            importlib.import_module(entry.module_path)
        get_platform(self.platform)

    def run(self, seed: int) -> Outcome:
        return self._run_all(seed, self.jobs)

    def replay(self, seed: int) -> Outcome:
        # Function-level spans need every experiment in this process.
        return self._run_all(seed, 1)

    def _run_all(self, seed: int, jobs: int) -> Outcome:
        from repro.experiments import orchestrator
        from repro.vmin.cache import reset_default_cache

        # Forked workers inherit this process's in-memory cache, so
        # start every iteration from an empty one and an empty disk
        # directory: each iteration is a cold run.
        reset_default_cache()
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        cache_dir = tempfile.mkdtemp(prefix="vmin-cache-", dir=OUT_DIR)
        try:
            summary = orchestrator.run_experiments(
                jobs=jobs, platform=self.platform, seed=seed,
                cache_dir=cache_dir,
            )
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
            reset_default_cache()
        return Outcome(summary.merged_output(), [], summary)

    def reference_problems(self, outcome: Outcome) -> List[str]:
        if outcome.text != self.golden.read_text():
            return [f"{self.name}: output differs from "
                    f"{self.golden.relative_to(ROOT)}"]
        return []


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (EvalPaper, RunAllJ2)
}

def orchestrator_metrics(summary) -> Dict[str, float]:
    """Per-task walls, serial sum and pool utilization of a RunSummary."""
    out = {
        f"orchestrator.task_wall_s.{outcome.name}": outcome.elapsed_s
        for outcome in summary.outcomes
    }
    out["orchestrator.serial_sum_s"] = summary.serial_time_s
    out["orchestrator.pool_utilization"] = summary.serial_time_s / (
        summary.jobs * summary.elapsed_s
    )
    return out
