"""One fresh interpreter doing a workload's set-up, then exiting.

``run.py`` times this script from process start to exit; the median of
several such probes is the benchmark's ``setup_s``: interpreter start,
imports, platform registry, policy-table characterization and workload
generation.

    python3 perfbench/setup_probe.py --workload eval-paper
"""

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    args = parser.parse_args()
    WORKLOADS[args.workload]().prepare()


if __name__ == "__main__":
    main()
