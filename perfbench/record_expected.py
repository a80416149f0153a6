"""Record every workload's test MAE per data seed into expected.json.

    python3 perfbench/record_expected.py

The benchmark checks each unit's test MAE against these values, so run
this only at a commit whose learned results are meant to become the new
reference, and say so in the change that commits the new file.
"""

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import DATA_SEED_POOL, WORKLOADS  # noqa: E402

# Float sums in another order move a test MAE by about 1e-14; a change in
# what is learned moves it by far more than this.
REL_TOL = 1e-9


def main() -> None:
    recorded = {}
    for name, workload in WORKLOADS.items():
        work_dir = ROOT / ".perfbench_work" / f"{name}-record"
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            inputs = workload.setup(list(DATA_SEED_POOL), work_dir)
            recorded[name] = {}
            for inp in inputs:
                unit = workload.run_unit(inp, work_dir)
                if unit.failures:
                    raise SystemExit(f"{name}: {unit.failures}")
                recorded[name][str(unit.data_seed)] = unit.test_mae
                print(name, unit.data_seed, unit.test_mae, flush=True)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    path = Path(__file__).resolve().parent / "expected.json"
    path.write_text(json.dumps({"rel_tol": REL_TOL, "test_mae": recorded}, indent=1) + "\n")


if __name__ == "__main__":
    main()
