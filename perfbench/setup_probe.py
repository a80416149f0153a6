"""Time one benchmark set-up in a fresh interpreter and print the seconds.

    python3 perfbench/setup_probe.py <workload> <seed>

Set-up is what a user waits for before the first unit can start: importing
saldl and building the run's inputs (data, split and partition for the
in-process workloads; the config files for the CLI workload).
"""

import time

_started = time.perf_counter()

import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import WORKLOADS, data_seeds  # noqa: E402


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    work_dir = ROOT / ".perfbench_work" / f"{name}-setup-probe"
    try:
        WORKLOADS[name].setup(data_seeds(seed), work_dir)
        elapsed = time.perf_counter() - _started
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(elapsed)


if __name__ == "__main__":
    main()
