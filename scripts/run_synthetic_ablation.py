#!/usr/bin/env python3
"""Run the four-arm ablation (sav/saw off and on) on the planted two-regime
synthetic task and print the comparison table.

Usage:
    python scripts/run_synthetic_ablation.py [--out runs/ablation] [--seeds 0 1 2 3 4]
"""

import argparse
import csv
import json
import sys
from pathlib import Path

from saldl.cli import main as cli_main


def build_config(out_dir: str, seeds: list[int]) -> dict:
    return {
        "seed": seeds[0],
        "out_dir": out_dir,
        "support": {"min_label": 0, "max_label": 100},
        "data": {
            "synthetic": {
                "levels": [8.0, 1.0],
                "boundaries": [0, 50],
                "feature_dim": 16,
                "noise_scale": 0.05,
                "n_per_label": 12,
            },
            "fractions": [0.7, 0.15, 0.15],
        },
        "partition": {"mode": "kmeans", "k": 2},
        "model": {"hidden_dims": [64, 32], "activation": "relu"},
        "train": {
            "epochs": 60,
            "batch_size": 32,
            "learning_rate": 0.2,
            "stage_lr": 0.3,
            "adaptation_mode": "gradient",
            "prediction_rule": "expectation",
        },
        "ablation": {"sav": True, "saw": True, "fixed_sigma": 2.0, "seeds": seeds},
        "eval": {"cs_thresholds": [5.0], "anchors": [10, 75]},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/ablation")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config_path = out / "config.json"
    config_path.write_text(json.dumps(build_config(str(out), args.seeds), indent=2))

    code = cli_main(["run-ablation", "--config", str(config_path)])
    if code != 0:
        return code

    with open(out / "ablation.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    print(f"\n{'arm':10s} {'sav':>3s} {'saw':>3s} {'mean test MAE':>14s} {'mean CS(5)':>11s}")
    for row in rows:
        if row["seed"] == "mean":
            print(f"{row['arm']:10s} {row['sav']:>3s} {row['saw']:>3s} "
                  f"{float(row['test_mae']):14.3f} {float(row['test_cs']):11.1f}")
    print(f"\nper-seed rows and run artifacts: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
