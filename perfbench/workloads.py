"""The benchmark's two workloads.

Both run the acceptance task: planted two-stage ambiguity (levels
(8, 1), boundaries (0, 50)), 16 features, an MLP 64-32 relu, lr 0.2,
stage_lr 0.3, batch 32. A *unit* is one closed-loop request: the next unit
starts only after the previous one returned. Units of a run take their data
seeds, in turn, from an order of ``DATA_SEED_POOL`` drawn from the workload
seed; the pool is small so that every unit's test MAE can be checked
against a value recorded in ``expected.json``. Every run visits the
``REFERENCE_SEEDS`` first, so the test MAE reported over them is the same
in every run of one commit.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from saldl import cli, data, trainer
from saldl.core import LabelSupport
from saldl.errors import TrainingDivergedError
from saldl.model import init_model
from saldl.staging import StagePartition

from perfbench.checks import check_history

SUPPORT = LabelSupport()
LEVELS = (8.0, 1.0)
BOUNDARIES = (0, 50)
FEATURE_DIM = 16
NOISE_SCALE = 0.05
FRACTIONS = (0.7, 0.15, 0.15)
HIDDEN = (64, 32)
TRAIN_KW = dict(batch_size=32, learning_rate=0.2, stage_lr=0.3, fixed_sigma=2.0)
DATA_SEED_POOL = tuple(range(8))
REFERENCE_SEEDS = DATA_SEED_POOL[:3]
KMEANS_K = 10          # stages the CLI workload's kmeans partition finds

# The five acceptance arms.
ARMS = {
    "fixed": dict(sav=False, loss_mode="kl", adaptation_mode="gradient"),
    "sav": dict(sav=True, loss_mode="kl", adaptation_mode="gradient"),
    "ce": dict(sav=False, loss_mode="ce", adaptation_mode="gradient"),
    "saw": dict(sav=False, loss_mode="saw", adaptation_mode="gradient"),
    "full": dict(sav=True, loss_mode="saw", adaptation_mode="gradient"),
}


def arm_name(config: trainer.TrainConfig) -> str:
    """The ``ARMS`` name a training config belongs to (CLI arms included)."""
    for name, opts in ARMS.items():
        if (config.sav, config.loss_mode) == (opts["sav"], opts["loss_mode"]) and (
                not config.sav or config.adaptation_mode == opts["adaptation_mode"]):
            return name
    return f"{'sav' if config.sav else 'fixed'}_{config.loss_mode}_{config.adaptation_mode}"


def data_seeds(seed: int) -> list[int]:
    """The order in which a run's units visit the data seed pool: the
    reference seeds first, each part shuffled by ``seed``."""
    rng = np.random.default_rng(seed)
    rest = DATA_SEED_POOL[len(REFERENCE_SEEDS):]
    return [int(s) for s in [*rng.permutation(REFERENCE_SEEDS), *rng.permutation(rest)]]


@dataclass
class UnitResult:
    data_seed: int
    wall_s: float
    samples: int = 0                 # epochs x training samples, summed over arms
    test_mae: dict[str, float] = field(default_factory=dict)
    fingerprint: str = ""            # hash of every output the unit produced
    failures: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class TrainInputs:
    data_seed: int
    train: data.Dataset
    val: data.Dataset
    test: data.Dataset
    partition: StagePartition


@dataclass(frozen=True)
class TrainWorkload:
    """In-process ``train_sav`` runs of several arms on one data seed."""

    name: str
    arms: tuple[str, ...]
    epochs: int = 60
    n_per_label: int = 12

    def setup(self, seeds: list[int], work_dir: Path) -> list[TrainInputs]:
        partition = StagePartition(boundaries=BOUNDARIES, support=SUPPORT,
                                   provenance="manual")
        profile = data.AmbiguityProfile(levels=LEVELS, partition=partition,
                                        feature_dim=FEATURE_DIM, noise_scale=NOISE_SCALE)
        inputs = []
        for seed in seeds:
            dataset = data.generate_synthetic(profile, self.n_per_label, seed)
            train, val, test = data.split(dataset, FRACTIONS, seed)
            inputs.append(TrainInputs(seed, train, val, test, partition))
        return inputs

    def _train(self, inp: TrainInputs, arm: str, epochs: int):
        config = trainer.TrainConfig(seed=inp.data_seed, epochs=epochs, **TRAIN_KW,
                                     **ARMS[arm])
        model0 = init_model((FEATURE_DIM, *HIDDEN, SUPPORT.size), "relu",
                            inp.data_seed, SUPPORT)
        params0 = trainer.initial_stage_params(inp.partition.k, config)
        best_model, _, history = trainer.train_sav(inp.train, inp.val, inp.partition,
                                                   model0, params0, config)
        return trainer.evaluate_l1(best_model, inp.test), history

    def warm_up(self, inputs: list[TrainInputs], work_dir: Path) -> None:
        for arm in self.arms:
            self._train(inputs[0], arm, epochs=2)

    def run_unit(self, inp: TrainInputs, work_dir: Path,
                 span=contextlib.nullcontext) -> UnitResult:
        """Train every arm; ``span`` is entered around the timed part only."""
        outcomes = {}
        failures = []
        with span():
            started = time.perf_counter()
            for arm in self.arms:
                try:
                    outcomes[arm] = self._train(inp, arm, self.epochs)
                except TrainingDivergedError as exc:
                    failures.append(f"{arm}: {exc}")
            wall = time.perf_counter() - started

        result = UnitResult(inp.data_seed, wall, failures=failures)
        histories = {}
        for arm, (test_mae, history) in outcomes.items():
            histories[arm] = history.to_dicts()
            result.test_mae[arm] = test_mae
            result.samples += len(history) * len(inp.train)
            result.failures += check_history(f"{self.name}/{inp.data_seed}/{arm}",
                                             histories[arm])
        result.fingerprint = hashlib.sha256(json.dumps(
            {"test_mae": result.test_mae, "histories": histories},
            sort_keys=True).encode()).hexdigest()
        return result


@dataclass(frozen=True)
class CliWorkload:
    """One ``saldl run-ablation`` call (four arms, one seed) through ``cli.main``."""

    name: str
    epochs: int = 3
    n_per_label: int = 60

    def config(self, seed: int, out_dir: Path, epochs: int, n_per_label: int) -> dict:
        return {
            "seed": seed,
            "out_dir": str(out_dir),
            "support": {"min_label": SUPPORT.min_label, "max_label": SUPPORT.max_label},
            "data": {
                "synthetic": {"levels": list(LEVELS), "boundaries": list(BOUNDARIES),
                              "feature_dim": FEATURE_DIM, "noise_scale": NOISE_SCALE,
                              "n_per_label": n_per_label},
                "fractions": list(FRACTIONS),
            },
            "partition": {"mode": "kmeans", "k": KMEANS_K},
            "model": {"hidden_dims": list(HIDDEN), "activation": "relu"},
            "train": {"epochs": epochs, "batch_size": TRAIN_KW["batch_size"],
                      "learning_rate": TRAIN_KW["learning_rate"],
                      "stage_lr": TRAIN_KW["stage_lr"], "adaptation_mode": "gradient"},
            "ablation": {"sav": True, "saw": True,
                         "fixed_sigma": TRAIN_KW["fixed_sigma"], "seeds": [seed]},
            "eval": {"cs_thresholds": [5.0], "anchors": []},
        }

    def _write_config(self, work_dir: Path, tag: str, seed: int, epochs: int,
                      n_per_label: int) -> tuple[Path, Path]:
        out_dir = work_dir / f"run_{tag}"
        path = work_dir / f"config_{tag}.json"
        path.write_text(json.dumps(self.config(seed, out_dir, epochs, n_per_label)))
        return path, out_dir

    def setup(self, seeds: list[int], work_dir: Path) -> list[tuple[int, Path, Path]]:
        work_dir.mkdir(parents=True, exist_ok=True)
        return [(seed, *self._write_config(work_dir, str(seed), seed, self.epochs,
                                           self.n_per_label))
                for seed in seeds]

    @staticmethod
    def _main(config_path: Path) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["run-ablation", "--config", str(config_path)])

    def warm_up(self, inputs, work_dir: Path) -> None:
        path, out_dir = self._write_config(work_dir, "warmup", 0, 1, 8)
        self._main(path)
        shutil.rmtree(out_dir, ignore_errors=True)

    def run_unit(self, inp: tuple[int, Path, Path], work_dir: Path,
                 span=contextlib.nullcontext) -> UnitResult:
        """Run the ablation; ``span`` is entered around the timed part only."""
        seed, config_path, out_dir = inp
        shutil.rmtree(out_dir, ignore_errors=True)
        with span():
            started = time.perf_counter()
            code = self._main(config_path)
            wall = time.perf_counter() - started
        result = UnitResult(seed, wall)
        try:
            self._check_outputs(result, code, out_dir)
        except (OSError, KeyError, ValueError) as exc:
            result.failures.append(f"{self.name}/{seed}: unreadable output: {exc!r}")
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return result

    def _check_outputs(self, result: UnitResult, code: int, out_dir: Path) -> None:
        label = f"{self.name}/{result.data_seed}"
        if code != 0:
            result.failures.append(f"{label}: run-ablation exited {code}")
            return
        meta = json.loads((out_dir / "run_meta.json").read_text())
        if meta["status"] != "complete":
            result.failures.append(f"{label}: run_meta status {meta['status']!r}")
        table = (out_dir / "ablation.csv").read_bytes()
        rows = list(csv.DictReader(io.StringIO(table.decode())))
        # one row per arm and seed (a single seed here), then one mean per arm
        want_rows = len(cli.ABLATION_ARMS) * 1 + len(cli.ABLATION_ARMS)
        if len(rows) != want_rows:
            result.failures.append(f"{label}: ablation.csv has {len(rows)} rows, "
                                   f"expected {want_rows}")
        digest = hashlib.sha256(table)
        for row in rows:
            if row["seed"] == "mean":
                continue
            arm = row["arm"]
            result.test_mae[arm] = float(row["test_mae"])
            arm_dir = out_dir / "ablation" / arm / f"seed_{row['seed']}"
            history_bytes = (arm_dir / "history.json").read_bytes()
            digest.update(history_bytes)
            digest.update((arm_dir / "checkpoint.json").read_bytes())
            history = json.loads(history_bytes)
            result.failures += check_history(f"{label}/{arm}", history)
            with open(arm_dir / "train.csv", encoding="utf-8") as fh:
                n_train = sum(1 for _ in fh) - 1
            result.samples += len(history) * n_train
        result.fingerprint = digest.hexdigest()


WORKLOADS = {
    w.name: w for w in (
        TrainWorkload("train-sigma-gradient", arms=("sav", "full")),
        CliWorkload("ablation-cli-large"),
    )
}
