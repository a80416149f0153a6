"""Cross-check the tracer against cProfile and the ROADMAP baseline.

    python3 perfbench/profile_check.py

On data seed 0 (the seed of the ROADMAP baseline) this prints:

1. for one ``train-sigma-gradient`` unit, each layer's share of the unit's
   wall time as the tracer measures it and as one cProfile run measures it;
2. each acceptance arm's ``trainer.train_sav.time_s.<arm>`` from one traced
   unit of all five arms, beside the ROADMAP baseline (fixed 0.89 s,
   sav 2.50 s, ce 0.86 s, saw 1.01 s, full 2.75 s).

cProfile charges its own cost to every Python call, the 96 960
``kl_gradient_sigma`` calls of a unit most of all, so its shares are a
sanity check on the tracer's, not a replacement.
"""

import cProfile
import dataclasses
import pstats
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

ROADMAP_BASELINE_S = {"fixed": 0.89, "sav": 2.50, "ce": 0.86, "saw": 1.01, "full": 2.75}
# layer -> (file suffix, function name) as cProfile reports it
PROFILE_NAMES = {
    "core.kl_gradient_sigma": ("saldl/core.py", "kl_gradient_sigma"),
    "model.backward_step": ("saldl/model.py", "backward_step"),
    "model.forward_batch": ("saldl/model.py", "forward_batch"),
    "model.predict_ages": ("saldl/model.py", "predict_ages"),
}


def _profile_cumtime(stats: pstats.Stats, path_suffix: str, func: str) -> float:
    return sum(row[3] for (path, _, name), row in stats.stats.items()
               if path.endswith(path_suffix) and name == func)


def main() -> None:
    work_dir = ROOT / ".perfbench_work" / "profile-check"
    unit = WORKLOADS["train-sigma-gradient"]
    inp = unit.setup([0], work_dir)[0]
    unit.warm_up([inp], work_dir)

    tracer = Tracer()
    with tracer.installed(1):
        traced = unit.run_unit(inp, work_dir)
    layers = tracer.layer_metrics(1)

    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    unit.run_unit(inp, work_dir)
    profiler.disable()
    profiled_wall = time.perf_counter() - started
    stats = pstats.Stats(profiler)

    print(f"{unit.name} unit, data seed 0: traced {traced.wall_s:.3f} s, "
          f"under cProfile {profiled_wall:.3f} s")
    print(f"{'layer (time incl. children)':<32} {'tracer':>8} {'cProfile':>9}")
    for layer, (suffix, func) in PROFILE_NAMES.items():
        t_share = layers[f"{layer}.time_s"] / traced.wall_s
        p_share = _profile_cumtime(stats, suffix, func) / profiled_wall
        print(f"{layer:<32} {t_share:>7.1%} {p_share:>8.1%}")
    print(f"{'trainer.train_sav self':<32} "
          f"{layers['trainer.train_sav.self_s'] / traced.wall_s:>7.1%}")

    all_arms = dataclasses.replace(unit, arms=tuple(ROADMAP_BASELINE_S))
    tracer = Tracer()
    with tracer.installed(1):
        all_arms.run_unit(inp, work_dir)
    layers = tracer.layer_metrics(1)
    print(f"\n{'arm':<6} {'ROADMAP s':>9} {'here s':>7}")
    for arm, baseline in ROADMAP_BASELINE_S.items():
        here = layers[f"trainer.train_sav.time_s.{arm}"]
        print(f"{arm:<6} {baseline:>9.2f} {here:>7.2f}")
    shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
