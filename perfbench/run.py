"""The repro benchmark: workloads measured from outside the program.

    python3 perfbench/run.py --workload eval-paper --seed 1 --seconds 20 --trace 0

``--trace 0`` times closed-loop iterations of the workload at its own
seed for ``--seconds``, replays it once, untimed, at ``--seed``, and
prints the end-to-end metrics, with timings rescaled to a reference host
speed by a probe run before every iteration (see ``HOST_PROBE``). ``--trace 1`` alternates untraced and
traced iterations and prints the per-layer metrics. Every iteration is
checked: it must not raise, eval-paper must have no safe-Vmin violation,
and output at the workload's own seed must match the committed reference
(``reference.json``, or the golden file for runall-j2). The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full result, with provenance and sample
statistics, is also written under ``.perfbench_out/``. ``METRICS.md``
says what each metric means and which workload should move it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracer import (  # noqa: E402
    LABELS,
    Instrumentation,
    SpanLog,
    summarize,
    write_spans,
)
from workloads import (  # noqa: E402
    OUT_DIR,
    WORKLOADS,
    EvalPaper,
    Outcome,
    RunAllJ2,
    Workload,
    digest,
    orchestrator_metrics,
    paper_error_pp,
)

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 7
#: Fewest timed iterations (untraced) or iteration pairs (traced).
MIN_ITERATIONS = 3
MIN_TRACED_PAIRS = 1

#: Host-speed probe: a fixed loop in an isolated interpreter, unrelated
#: to the program, that prints its own run time. The host's speed drifts
#: by up to ~2x over minutes; the probe slows with it, though by less.
HOST_PROBE = (
    "import time\n"
    "def loop():\n"
    "    x = 0\n"
    "    for i in range(3_000_000):\n"
    "        x += i * i % 7\n"
    "t = time.perf_counter()\n"
    "loop()\n"
    "print(time.perf_counter() - t)\n"
)
#: Probe time on this benchmark's reference host (2-core Intel Xeon,
#: Python 3.11.7) in its fast phase. Timings are reported in seconds of
#: that host: raw seconds x REFERENCE_PROBE_S / the run's median probe.
REFERENCE_PROBE_S = 0.23

class Checker:
    """Runs iterations, counting attempted and failed ones with reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def attempt(self, workload: Workload, seed: int,
                replay: bool = False) -> Tuple[Optional[Outcome], float, float]:
        """One iteration (the in-process replay when ``replay``); returns
        (outcome or None, wall s, cpu s). It fails when it raises, when
        its output shows a problem, or, at the workload's own seed, when
        its output differs from the committed reference."""
        run = workload.replay if replay else workload.run
        self.attempted += 1
        wall0, cpu0 = time.perf_counter(), cpu_seconds()
        try:
            outcome: Optional[Outcome] = run(seed)
        except Exception:  # an iteration that raises counts as failed
            traceback.print_exc(file=sys.stderr)
            self.fail(f"{workload.name} seed {seed}: iteration raised")
            return None, time.perf_counter() - wall0, cpu_seconds() - cpu0
        wall, cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
        problems = list(outcome.problems)
        if seed == workload.seed:
            problems += workload.reference_problems(outcome)
        if problems:
            self.fail(*problems)
        return outcome, wall, cpu

    def fail(self, *problems: str) -> None:
        self.failed += 1
        self.problems.extend(problems)


def cpu_seconds() -> float:
    """CPU seconds of this process plus its waited-for children."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in (resource.getrusage(resource.RUSAGE_SELF),
                      resource.getrusage(resource.RUSAGE_CHILDREN))
    )


def repeat(step: Callable[[], None], seconds: float, minimum: int) -> None:
    """Call ``step`` at least ``minimum`` times, then stop before the
    next call would end past ``seconds`` (judged by the median call)."""
    started = time.perf_counter()
    durations: List[float] = []
    while True:
        t0 = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - started
        if (len(durations) >= minimum
                and elapsed + statistics.median(durations) > seconds):
            return


def describe(samples: List[float]) -> Dict[str, object]:
    """Sample count, median, quartiles and the highest percentile that
    has at least ten samples beyond it."""
    out: Dict[str, object] = {"n": len(samples),
                              "median": statistics.median(samples)}
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        out.update(q1=q1, q3=q3)
    tail = [p for p in (99, 95, 90, 75, 50)
            if len(samples) * (100 - p) / 100 >= 10]
    if tail:
        cut = statistics.quantiles(samples, n=100)[tail[0] - 1]
        out[f"p{tail[0]}"] = cut
    else:
        out["tail"] = "none: fewer than 20 samples"
    return out


def peak_rss_mib() -> float:
    """High-water RSS of this process or its largest child, MiB."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def host_probe_seconds() -> float:
    """One run of :data:`HOST_PROBE`, in seconds."""
    probe = subprocess.run([sys.executable, "-I", "-S", "-c", HOST_PROBE],
                           capture_output=True, text=True, timeout=60,
                           check=True)
    return float(probe.stdout)


def setup_seconds(workload: Workload, checker: Checker) -> List[float]:
    """Wall time of fresh interpreters running the workload's set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        checker.attempted += 1
        t0 = time.perf_counter()
        probe = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"),
             "--workload", workload.name],
            cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120,
        )
        elapsed = time.perf_counter() - t0
        if probe.returncode != 0:
            checker.fail(f"set-up probe exited {probe.returncode}")
        else:
            times.append(elapsed)
    return times


def timed_run(workload: Workload, seed: int, seconds: float,
              checker: Checker) -> Tuple[Dict[str, float], Dict]:
    """Closed-loop timed iterations at the workload's own seed, then one
    untimed replay at ``seed``; returns (metrics, sample stats)."""
    walls: List[float] = []
    cpus: List[float] = []
    probes: List[float] = []
    # Keep one outcome, so memory does not grow with the iteration count.
    kept: List[Outcome] = []

    def step() -> None:
        probes.append(host_probe_seconds())
        outcome, wall, cpu = checker.attempt(workload, workload.seed)
        if outcome is not None and not kept:
            kept.append(outcome)
        walls.append(wall)
        cpus.append(cpu)

    repeat(step, seconds, MIN_ITERATIONS)
    rss = peak_rss_mib()
    stats: Dict[str, object] = {"wall_s": describe(walls),
                                "cpu_s": describe(cpus),
                                "host_probe_s": describe(probes)}
    if workload.seeded:
        # Inputs made from --seed: checked, and timed for the record
        # only, because work per generated workload varies with the seed.
        _, wall, _ = checker.attempt(workload, seed)
        stats["seeded_wall_s"] = wall
    if isinstance(workload, EvalPaper):
        paper = kept[0] if kept else None
    else:
        # The simulator's paper error sits next to every speed number.
        paper, _, _ = checker.attempt(EvalPaper(), EvalPaper.seed)
    setups = setup_seconds(workload, checker)
    if setups:
        stats["setup_s"] = describe(setups)
    # Raw seconds are in ``stats``; the metrics are in reference seconds.
    speed = REFERENCE_PROBE_S / statistics.median(probes)
    metrics = {
        "wall_s": statistics.median(walls) * speed,
        "cpu_s": statistics.median(cpus) * speed,
        "setup_s": statistics.median(setups) * speed if setups else 0.0,
        "peak_rss_mib": rss,
        "paper_err_pp": paper_error_pp(paper.detail) if paper else 0.0,
    }
    return metrics, stats


def traced_run(workload: Workload, seconds: float, checker: Checker,
               names: List[str]) -> Tuple[Dict[str, float], Dict]:
    """Untraced/traced pairs of in-process iterations at the workload's
    own seed; returns (metrics, sample stats)."""
    from repro import telemetry

    orchestrator: Dict[str, float] = {}
    if isinstance(workload, RunAllJ2):
        # The timed form runs in worker processes: take the orchestrator
        # metrics from it, and function-level spans from the replay.
        outcome, _, _ = checker.attempt(workload, workload.seed)
        if outcome is not None:
            orchestrator = orchestrator_metrics(outcome.detail)
    base_walls: List[float] = []
    traced_walls: List[float] = []
    logs: List[SpanLog] = []
    layers: List[Dict] = []
    counters: List[Dict] = []

    def step() -> None:
        _, wall, _ = checker.attempt(workload, workload.seed, replay=True)
        base_walls.append(wall)
        log = SpanLog()
        with telemetry.session() as registry, Instrumentation(log):
            _, wall, _ = checker.attempt(workload, workload.seed,
                                         replay=True)
        traced_walls.append(wall)
        logs.append(log)
        layers.append(summarize(log, wall))
        counters.append(registry.snapshot())

    repeat(step, seconds, MIN_TRACED_PAIRS)
    write_spans(OUT_DIR / f"spans-{workload.name}.npz", logs)
    metrics = layer_metrics(names, layers, counters[0], orchestrator)
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced_walls) / statistics.median(base_walls) - 1
    )
    stats = {"untraced_wall_s": describe(base_walls),
             "traced_wall_s": describe(traced_walls)}
    return metrics, stats


def layer_metrics(names: List[str], layers: List[Dict], snapshot: Dict,
                  orchestrator: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics ``names``: medians of span times over the
    traced iterations, counts from the program's own telemetry counters,
    orchestrator figures from a RunSummary (0 when it did not run)."""

    def span(label: str, key: str) -> float:
        if key == "calls":  # deterministic: the same in every iteration
            return layers[0][label][key]
        return statistics.median(layer[label][key] for layer in layers)

    count = snapshot["counters"].get
    dispatched = count("sim.events.dispatched", 0)
    full = count("sim.refresh.full", 0)
    incremental = count("sim.refresh.incremental", 0)
    hits, misses = count("vmin.cache.hits", 0), count("vmin.cache.misses", 0)
    derived = {
        "sim.host_us_per_event": (
            1e6 * span("sim.run", "total_s") / dispatched
            if dispatched else 0.0
        ),
        "sim.refresh.incremental_ratio": (
            incremental / (full + incremental)
            if full + incremental else 0.0
        ),
        "vmin.cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "trace.coverage_pct": 100.0 * span("trace", "coverage"),
    }
    out: Dict[str, float] = {}
    for name in names:
        label, _, key = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif label in LABELS:
            out[name] = span(label, key)
        elif name.endswith(".batch_points"):
            out[name] = snapshot["histograms"].get(name, {}).get("sum", 0)
        elif name.startswith("orchestrator."):
            out[name] = orchestrator.get(name, 0.0)
        elif name != "trace.overhead_pct":
            out[name] = count(name, 0)
    return out


def declared_units(section: str) -> Dict[str, str]:
    """Metric name -> unit for one section of ``BENCHMARK.json``."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in declared[section]}


def provenance(workload: Workload, args: argparse.Namespace) -> Dict:
    """Where and on what the numbers were measured."""
    import numpy

    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": git_rev(),
        "src_sha256": source_digest(),
        "workload": workload.name,
        "seed": args.seed,
        "workload_seed": workload.seed,
        "seeded_replay": workload.seeded,
        "held_out_seed": workload.held_out_seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_rev() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True, timeout=30)
    return rev.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over the program's sources, for checkouts without git."""
    files = sorted(SRC.rglob("*.py")) + sorted(SRC.rglob("*.toml"))
    return digest("".join(
        f"{path.relative_to(SRC)}\n{path.read_text()}" for path in files
    ))


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so the worker pool and set-up
    # probes are waited for instead of being left running.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload: Workload = WORKLOADS[args.workload]()
    workload.prepare()
    checker = Checker()
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if args.trace:
        metrics, stats = traced_run(workload, args.seconds, checker,
                                    list(units))
    else:
        metrics, stats = timed_run(workload, args.seed, args.seconds,
                                   checker)
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    report = {"provenance": provenance(workload, args), "samples": stats,
              "error_rate": checker.failed / checker.attempted,
              "problems": checker.problems, "result": result}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"result-{workload.name}-seed{args.seed}-trace{args.trace}"
     ".json").write_text(json.dumps(report, indent=2) + "\n")
    for key in ("provenance", "samples"):
        print(f"{key}: {json.dumps(report[key])}")
    for problem in checker.problems:
        print(f"problem: {problem}")
    print(f"error_rate: {checker.failed}/{checker.attempted} = "
          f"{report['error_rate']:.4f}")
    for name, unit in units.items():
        print(f"{name}: {metrics[name]:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
