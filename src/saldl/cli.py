"""Batch command-line front end.

One experiment is one JSON config; commands read it with ``--config`` and
write their artifacts into the configured output directory, plus a
``run_meta.json`` recording the config hash, package version, wall time and
every file written. ``--seed`` and ``--out`` override the config for sweeps;
``run-ablation`` rejects ``--seed`` when the config sets ``ablation.seeds``.

Every command is assembled from four stages that work on in-memory
datasets: data (generate and split, or load the CSVs), partition, train
(checkpoint and history) and evaluate (metrics). ``run-ablation`` builds
the data and the partition once per seed and runs each arm on them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
import time
from dataclasses import (MISSING, asdict, dataclass, field, fields, is_dataclass, make_dataclass,
                         replace)
from pathlib import Path

import numpy as np

from . import __version__
from .artifacts import copy_file, recorded, write_csv, write_json
from .core import LabelSupport, _count, _each, _exactly, _key, _named, _one_of, whole_number
from .data import (
    AmbiguityProfile,
    Dataset,
    check_fractions,
    generate_synthetic,
    load_csv,
    save_csv,
    split,
    split_counts,
)
from .errors import InvalidParameterError, SaldlError, TrainingDivergedError
from .evaluation import MetricsReport, _cs_thresholds, anchor_similarity_curve, compute_metrics
from .model import ACTIVATIONS, Model, _widths, embeddings, init_model, predict_ages
from .staging import (
    PROVENANCES,
    StagePartition,
    _stage_count,
    decade_partition,
    kmeans_1d,
    load_partition,
    save_partition,
)
from .trainer import (
    TrainConfig,
    initial_stage_params,
    load_checkpoint,
    save_checkpoint,
    train_sav,
)

META_VERSION = 1

# The four arm names for the sav/saw ablation matrix, in reporting order.
ABLATION_ARMS = (
    ("base", False, False),
    ("sav", True, False),
    ("saw", False, True),
    ("sav_saw", True, True),
)

SPLITS = ("train", "val", "test")


class CommandError(SaldlError):
    """Command-level failure with a user-facing message."""


def _strict(d: dict, cls, ctx: str) -> None:
    """``d``: a JSON object of fields of ``cls``, holding each that has no default."""
    if not isinstance(d, dict):
        raise InvalidParameterError(f"{ctx} must be a JSON object, got {d!r}")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise InvalidParameterError(f"unknown keys in {ctx}: {unknown}")
    for f in fields(cls):
        if f.name not in d and f.default is MISSING and f.default_factory is MISSING:
            raise InvalidParameterError(f"{ctx} is missing {f.name!r}")


def _converter(cls, name: str):
    """The converter declared on the field ``name`` of ``cls``."""
    return cls.__dataclass_fields__[name].metadata["convert"]


def _like(cls, name: str):
    """A config field declared as the field ``name`` of ``cls``: its
    converter and its default."""
    return _key(_converter(cls, name), cls.__dataclass_fields__[name].default)


def _section(cls, d: dict, ctx: str):
    """``cls`` built from the keys of ``d`` in field order, each converted
    by its field's converter, a failure naming ``ctx.key``; then a rule
    across the fields names ``ctx``. A converter that is a dataclass reads
    its value as the section ``ctx.key``, null meaning None. A key left out
    keeps the field default, and a field without a default is required."""
    _strict(d, cls, ctx)

    def read(f):
        convert, name = f.metadata["convert"], f"{ctx}.{f.name}"
        if is_dataclass(convert):
            return None if d[f.name] is None else _section(convert, d[f.name], name)
        return _named(name, convert, d[f.name])
    return _named(ctx, cls, **{f.name: read(f) for f in fields(cls) if f.name in d})


def _optional(convert):
    """``convert``, except that null means None, as does an empty list."""
    return lambda value: None if value is None else convert(value) or None


def _path(value) -> str:
    """A path string, not "", which ``Path`` reads as the current directory."""
    if not _exactly(str)(value):
        raise InvalidParameterError("expected a path, got ''")
    return value


@dataclass
class SyntheticSpec:
    levels: tuple[float, ...] = _like(AmbiguityProfile, "levels")
    boundaries: tuple[int, ...] = _like(StagePartition, "boundaries")
    feature_dim: int = _like(AmbiguityProfile, "feature_dim")
    noise_scale: float = _like(AmbiguityProfile, "noise_scale")
    n_per_label: int = _key(_count, 12)

    def profile(self, support: LabelSupport) -> AmbiguityProfile:
        """The planted profile; a failing check names the field it reads."""
        partition = _named("data.synthetic.boundaries", StagePartition, self.boundaries, support,
                           "manual")
        # one level per stage: the check across fields
        return _named("data.synthetic.levels", AmbiguityProfile, self.levels, partition,
                      self.feature_dim, self.noise_scale)

    def check_split(self, fractions: tuple[float, float, float]) -> None:
        """Reject an ``n_per_label`` that leaves a split empty: every label
        has that many samples, so a part that ``split_counts`` gives none of
        them gets no sample at all."""
        counts = split_counts(self.n_per_label, fractions)
        empty = [name for name, count in zip(SPLITS, counts) if count == 0]
        if empty:
            raise InvalidParameterError(
                f"data.synthetic.n_per_label: {self.n_per_label} samples per label leave the "
                f"{' and '.join(empty)} split empty at fractions {list(fractions)}")


@dataclass
class DataSection:
    synthetic: SyntheticSpec | None = _key(SyntheticSpec, None)
    fractions: tuple[float, float, float] = _key(check_fractions, (0.7, 0.15, 0.15))
    train_csv: str | None = _key(_optional(_path), None)
    val_csv: str | None = _key(_optional(_path), None)
    test_csv: str | None = _key(_optional(_path), None)


@dataclass
class PartitionSection:
    mode: str = _key(_one_of(PROVENANCES), "kmeans")
    k: int = _key(whole_number, 10)
    boundaries: tuple[int, ...] | None = _key(_optional(_each(whole_number)), None)

    def __post_init__(self):
        if (self.mode == "manual") != bool(self.boundaries):  # read in manual mode only
            raise InvalidParameterError(f"{self.mode} partition "
                                        f"{'takes no' if self.boundaries else 'needs'} boundaries")

    def fixed_stages(self, support: LabelSupport) -> StagePartition | None:
        """The stages that need no data (decade, manual); for kmeans, None
        once k is checked against the labels the support can take."""
        if self.mode == "decade":
            return decade_partition(support)
        if self.mode == "manual":
            return _named("partition.boundaries", StagePartition, self.boundaries, support,
                          "manual")
        _named("partition.k", _stage_count(support.size), self.k)


@dataclass
class ModelSection:
    hidden_dims: tuple[int, ...] = _key(_widths, (64, 32))
    activation: str = _key(_one_of(ACTIVATIONS), "relu")


# The TrainConfig knobs that no other section sets.
TrainSection = make_dataclass("TrainSection", [
    (f.name, f.type, _like(TrainConfig, f.name)) for f in fields(TrainConfig)
    if f.name not in {"seed", "sav", "loss_mode", "fixed_sigma"}])


@dataclass
class AblationSection:
    sav: bool = _like(TrainConfig, "sav")
    saw: bool = _key(_exactly(bool), True)
    fixed_sigma: float = _like(TrainConfig, "fixed_sigma")
    loss_mode: str | None = _key(_optional(_converter(TrainConfig, "loss_mode")), None)
    seeds: tuple[int, ...] | None = _key(
        _optional(_each(_converter(TrainConfig, "seed"), distinct=True)), None)


@dataclass
class EvalSection:
    cs_thresholds: tuple[float, ...] = _key(_cs_thresholds, (5.0,))
    anchors: tuple[int, ...] = _key(_each(whole_number, distinct=True), ())


@dataclass
class ExperimentConfig:
    seed: int
    out_dir: str
    support: LabelSupport = field(default_factory=LabelSupport)
    data: DataSection = field(default_factory=DataSection)
    partition: PartitionSection = field(default_factory=PartitionSection)
    model: ModelSection = field(default_factory=ModelSection)
    train: TrainSection = field(default_factory=TrainSection)
    ablation: AblationSection = field(default_factory=AblationSection)
    eval: EvalSection = field(default_factory=EvalSection)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        _strict(d, cls, "config")
        config = cls(
            seed=_named("config.seed", _converter(TrainConfig, "seed"), d["seed"]),
            out_dir=_named("config.out_dir", _path, d["out_dir"]),
            **{f.name: _section(f.default_factory, d.get(f.name, {}), f.name)
               for f in fields(cls) if f.default_factory is not MISSING})
        # the sections' objects on the support, built so that their own checks speak
        if config.data.synthetic is not None:
            config.data.synthetic.profile(config.support)
            config.data.synthetic.check_split(config.data.fractions)
        config.partition.fixed_stages(config.support)
        _named("eval.anchors", config.support.indices_of, config.eval.anchors)
        return config

    def train_config(self) -> TrainConfig:
        loss_mode = self.ablation.loss_mode or ("saw" if self.ablation.saw else "kl")
        return TrainConfig(seed=self.seed, sav=self.ablation.sav, loss_mode=loss_mode,
                           fixed_sigma=self.ablation.fixed_sigma, **asdict(self.train))

    def sha256(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_config(path, seed_override: int | None = None,
                out_override: str | None = None) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise CommandError(f"config file not found: {path}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CommandError(f"config {path} is not valid JSON: {exc}") from None
    cfg = ExperimentConfig.from_dict(raw)
    if seed_override is not None:
        cfg.seed = _named("--seed", _converter(TrainConfig, "seed"), seed_override)
    if out_override is not None:
        cfg.out_dir = _named("--out", _path, out_override)
    return cfg


def _out(config: ExperimentConfig) -> Path:
    p = Path(config.out_dir)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _read_data(config: ExperimentConfig, *names: str) -> list[Dataset]:
    """The named splits, read from the configured CSVs or from ``out_dir``."""
    data, out = config.data, Path(config.out_dir)
    configured = dict(zip(SPLITS, (data.train_csv, data.val_csv, data.test_csv)))
    paths = [Path(configured[name] or out / f"{name}.csv") for name in names]
    for p in paths:
        if not p.exists():
            raise CommandError(
                f"dataset file missing: {p} (run gen-data or set data.*_csv)")
    return [load_csv(p, config.support) for p in paths]


def _build_partition(config: ExperimentConfig, train_data: Dataset) -> StagePartition:
    """The configured stages; k-means cuts the training labels into
    ``partition.k`` stages, at most one per distinct label."""
    fixed = config.partition.fixed_stages(config.support)
    if fixed is not None:
        return fixed
    k, distinct = config.partition.k, len(np.unique(train_data.labels))
    if distinct < k:
        raise InvalidParameterError(f"partition.k: {k} stages need at least {k} distinct "
                                    f"training labels, the training split has {distinct}")
    return kmeans_1d(train_data.labels, k, config.support)


def _generate_data(config: ExperimentConfig
                   ) -> tuple[AmbiguityProfile, tuple[Dataset, Dataset, Dataset]]:
    """The synthetic profile and the train/val/test split of its dataset."""
    spec = config.data.synthetic
    profile = spec.profile(config.support)
    dataset = generate_synthetic(profile, spec.n_per_label, config.seed)
    return profile, split(dataset, config.data.fractions, config.seed)


def _write_data(config: ExperimentConfig, profile: AmbiguityProfile,
                splits: tuple[Dataset, Dataset, Dataset]) -> None:
    """Write the three split CSVs and the profile actually used. Each CSV
    must read back as the split it was written from."""
    out = Path(config.out_dir)
    for name, ds in zip(SPLITS, splits):
        path = out / f"{name}.csv"
        save_csv(ds, path)
        if not load_csv(path, config.support).same_as(ds):
            raise CommandError(f"{path} does not read back as the {name} split "
                               "written to it")
    write_json(out / "profile.json", profile.to_dict())


def _train(config: ExperimentConfig, train_data: Dataset, val_data: Dataset,
           partition: StagePartition) -> None:
    """Train per the configured switches; write the best checkpoint and the
    per-epoch history. On divergence the history is still written."""
    out = Path(config.out_dir)
    tc = config.train_config()
    dims = (train_data.feature_dim, *config.model.hidden_dims, config.support.size)
    model0 = init_model(dims, config.model.activation, tc.seed, config.support)
    params0 = initial_stage_params(partition.k, tc)
    history_csv = out / "history.csv"
    history_json = out / "history.json"
    try:
        best_model, best_params, history = train_sav(
            train_data, val_data, partition, model0, params0, tc)
    except TrainingDivergedError as exc:
        if exc.history is not None:
            exc.history.to_csv(history_csv)
            exc.history.to_json(history_json)
        raise CommandError(f"training diverged: {exc}") from exc
    save_checkpoint(out / "checkpoint.json", best_model, best_params, partition)
    history.to_csv(history_csv)
    history.to_json(history_json)


def _load_model(config: ExperimentConfig, test_data: Dataset
                ) -> tuple[Model, StagePartition]:
    """The checkpoint in ``out_dir``, checked against the config and the data."""
    path = Path(config.out_dir) / "checkpoint.json"
    if not path.exists():
        raise CommandError(f"checkpoint missing: {path} (run train first)")
    model, _, partition, support = load_checkpoint(path)
    if support != config.support:
        raise CommandError(
            f"checkpoint {path} is for labels {support.min_label}..{support.max_label}, "
            f"the config support is {config.support.min_label}..{config.support.max_label}")
    if (model.input_dim, model.output_dim) != (test_data.feature_dim, support.size):
        raise CommandError(f"checkpoint {path} maps {model.input_dim} features to "
                           f"{model.output_dim} labels; the test data has "
                           f"{test_data.feature_dim} features over {support.size} labels")
    return model, partition


def _evaluate(config: ExperimentConfig, test_data: Dataset) -> MetricsReport:
    """Score the checkpoint on the test split and write the metrics."""
    out = Path(config.out_dir)
    model, partition = _load_model(config, test_data)
    preds = predict_ages(model, test_data.features_matrix(), config.support,
                         config.train.prediction_rule)
    report = compute_metrics(preds, test_data.labels, partition,
                             config.eval.cs_thresholds)
    report.save_json(out / "metrics.json")
    report.save_csv(out / "metrics.csv")
    return report


def cmd_gen_data(config: ExperimentConfig) -> None:
    """Generate the synthetic dataset, split it, and write the three CSVs
    plus the profile actually used."""
    if config.data.synthetic is None:
        raise CommandError("gen-data needs a data.synthetic section")
    _out(config)
    _write_data(config, *_generate_data(config))


def cmd_stage(config: ExperimentConfig) -> None:
    """Compute the stage partition from the training labels and write it."""
    out = _out(config)
    [train_data] = _read_data(config, "train")
    save_partition(_build_partition(config, train_data), out / "partition.json")


def cmd_train(config: ExperimentConfig) -> None:
    """Train on the CSVs with the partition the config gives for the training
    labels; a ``partition.json`` already in ``out_dir`` must hold the same."""
    out = _out(config)
    train_data, val_data = _read_data(config, "train", "val")
    partition = _build_partition(config, train_data)
    partition_path = out / "partition.json"
    if partition_path.exists():
        found = load_partition(partition_path, config.support)
        if found != partition:
            raise CommandError(
                f"{partition_path} holds stages {list(found.boundaries)} ({found.provenance}), "
                f"the config gives {list(partition.boundaries)} ({partition.provenance})")
    save_partition(partition, partition_path)
    _train(config, train_data, val_data, partition)


def cmd_eval(config: ExperimentConfig) -> None:
    """Score the checkpoint on the test split."""
    [test_data] = _read_data(config, "test")
    _evaluate(config, test_data)


def cmd_analyze(config: ExperimentConfig) -> None:
    """Write one anchor similarity curve CSV per configured anchor, using
    the checkpoint's penultimate embeddings on the test split."""
    if not config.eval.anchors:
        raise CommandError("analyze needs a non-empty eval.anchors list")
    out = _out(config)
    [test_data] = _read_data(config, "test")
    model, _ = _load_model(config, test_data)
    embedding = embeddings(model, test_data.features_matrix())
    for anchor in config.eval.anchors:
        curve = anchor_similarity_curve(embedding, test_data.labels, anchor, config.support)
        curve.to_csv(out / f"similarity_anchor_{anchor}.csv")


def cmd_run_ablation(config: ExperimentConfig) -> None:
    """Run all four sav/saw arm combinations over the configured seeds and
    emit one comparison CSV (per-seed rows plus per-arm means). Each seed's
    data and partition are built once and shared by its four arms; its data
    files are written and checked in the first arm's directory and copied
    byte for byte into the others."""
    if config.data.synthetic is None:
        raise CommandError("run-ablation needs a data.synthetic section")
    if config.data.train_csv or config.data.val_csv or config.data.test_csv:
        raise CommandError("run-ablation generates its own data; remove "
                           "data.train_csv, data.val_csv and data.test_csv")
    if not config.eval.cs_thresholds:
        raise CommandError("run-ablation reports test_cs; eval.cs_thresholds is empty")
    if config.ablation.loss_mode is not None:
        raise CommandError("ablation.loss_mode: run-ablation trains each arm on the loss its "
                           "saw switch gives; remove the key")
    out = _out(config)
    seeds = config.ablation.seeds or tuple(config.seed + i for i in range(5))
    # per arm: (seed, test MAE, CS at the lowest threshold), in seed order
    rows = {arm: [] for arm, _, _ in ABLATION_ARMS}
    for seed in seeds:
        seed_config = replace(config, seed=seed)
        profile, splits = _generate_data(seed_config)
        train_data, val_data, test_data = splits
        partition = _build_partition(seed_config, train_data)
        data_files: list[Path] = []  # the first arm's, recorded as written
        for arm, sav, saw in ABLATION_ARMS:
            arm_dir = out / "ablation" / arm / f"seed_{seed}"
            arm_dir.mkdir(parents=True, exist_ok=True)
            arm_config = replace(seed_config, out_dir=str(arm_dir),
                                 ablation=replace(config.ablation, sav=sav, saw=saw))
            if data_files:
                for src in data_files:
                    copy_file(src, arm_dir / src.name)
            else:
                with recorded() as data_files:
                    _write_data(arm_config, profile, splits)
            save_partition(partition, arm_dir / "partition.json")
            _train(arm_config, train_data, val_data, partition)
            report = _evaluate(arm_config, test_data)
            rows[arm].append((seed, report.mae, report.cs[min(report.cs)]))
    table = [[arm, sav, saw, seed, mae, cs]
             for arm, sav, saw in ABLATION_ARMS for seed, mae, cs in rows[arm]]
    for arm, sav, saw in ABLATION_ARMS:  # then one mean row per arm
        _, maes, css = zip(*rows[arm])
        table.append([arm, sav, saw, "mean", np.mean(maes), np.mean(css)])
    write_csv(out / "ablation.csv", ["arm", "sav", "saw", "seed", "test_mae", "test_cs"], table)


COMMANDS = {
    "gen-data": cmd_gen_data,
    "stage": cmd_stage,
    "train": cmd_train,
    "eval": cmd_eval,
    "analyze": cmd_analyze,
    "run-ablation": cmd_run_ablation,
}


def _write_run_meta(config: ExperimentConfig, command: str, status: str,
                    outputs: list[Path], started: float) -> None:
    meta = {
        "meta_version": META_VERSION,
        "command": command,
        "config_sha256": config.sha256(),
        "package_version": __version__,
        "status": status,
        "outputs": [str(p) for p in outputs],
        "started_at_unix": started,
        "wall_seconds": time.time() - started,
    }
    write_json(_out(config) / "run_meta.json", meta)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="saldl",
        description="Stage-wise adaptive label distribution learning experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override output directory")
    args = parser.parse_args(argv)

    started = time.time()
    config: ExperimentConfig | None = None
    try:
        with recorded() as outputs:  # every file written, a failed run's too
            loaded = load_config(args.config, args.seed, args.out)
            if args.command == "run-ablation" and args.seed is not None and loaded.ablation.seeds:
                # rejected before out_dir is touched: the run would ignore --seed
                raise CommandError("--seed: run-ablation runs the config's ablation.seeds; "
                                   "drop one of the two")
            config = loaded
            COMMANDS[args.command](config)
    except Exception as exc:  # every failure ends as one error line
        # when out_dir itself is unusable there is nowhere to record the
        # partial run; the error line below still names the first failure
        if config is not None:
            with contextlib.suppress(OSError):
                _write_run_meta(config, args.command, "partial", outputs, started)
        reason = exc if isinstance(exc, SaldlError) else f"{type(exc).__name__}: {exc}"
        print(f"error: {reason}", file=sys.stderr)
        return 1
    _write_run_meta(config, args.command, "complete", outputs, started)
    for p in outputs:
        print(p)
    return 0


if __name__ == "__main__":
    sys.exit(main())
