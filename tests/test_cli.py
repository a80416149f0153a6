"""CLI behavior: strict config validation, command outputs, exit codes, and
reproducibility of written artifacts."""

import json
import math
import re
import shutil
import tempfile
from collections import Counter
from dataclasses import MISSING, fields
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from saldl import cli
from saldl.cli import ABLATION_ARMS, ExperimentConfig, load_config, main
from saldl.core import LabelSupport
from saldl.data import (AmbiguityProfile, Dataset, generate_synthetic, load_csv, save_csv, split,
                        split_counts)
from saldl.errors import InvalidParameterError, SaldlError
from saldl.evaluation import compute_metrics, cumulative_score
from saldl.model import backward_step, init_model
from saldl.staging import StagePartition, kmeans_1d
from saldl.trainer import StageParams, TrainConfig, propose_stage_update, save_checkpoint
from test_acceptance import (BOUNDARIES, FEATURE_DIM, FRACTIONS, HIDDEN, LEVELS, N_PER_LABEL,
                             NOISE_SCALE, TRAIN_KW)
from test_acceptance import SEEDS as GATE_SEEDS

SUP = LabelSupport()
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def base_config(out_dir, epochs=3):
    return {
        "seed": 0,
        "out_dir": str(out_dir),
        "support": {"min_label": 0, "max_label": 100},
        "data": {
            "synthetic": {
                "levels": [6.0, 1.0],
                "boundaries": [0, 50],
                "feature_dim": 8,
                "noise_scale": 0.05,
                "n_per_label": 8,
            },
            "fractions": [0.7, 0.15, 0.15],
        },
        "partition": {"mode": "manual", "boundaries": [0, 50]},
        "model": {"hidden_dims": [16, 8], "activation": "relu"},
        "train": {"epochs": epochs, "batch_size": 32, "learning_rate": 0.1,
                  "stage_lr": 0.3, "adaptation_mode": "gradient"},
        "ablation": {"sav": True, "saw": True, "fixed_sigma": 2.0},
        "eval": {"cs_thresholds": [5.0], "anchors": [10, 75]},
    }


def value_cases(keys, values):
    """Each (key, value) pair, with the id ``{value}-{key}``; a value that is
    no string or number goes by its place in ``values``."""
    ids = [value if isinstance(value, (str, int, float)) else f"value{i}"
           for i, value in enumerate(values)]
    return [pytest.param(key, value, id=f"{ident}-{key}")
            for ident, value in zip(ids, values) for key in keys]


# Library calls that share a rule with config keys, each taking one value:
# the call, the places a config takes the value as (section, key, the key's
# value), and a value both take.
PROFILE = AmbiguityProfile((6.0, 1.0), StagePartition((0, 50), SUP, "manual"), feature_dim=8)
ONE = (np.array([1.0]), np.array([1]))  # one prediction and its label
SEEDS = [("config", "seed", lambda v: v), ("ablation", "seeds", lambda v: [v])]
LIBRARY_ARGS = {
    "generate_synthetic.seed": (lambda v: generate_synthetic(PROFILE, 1, v), SEEDS, 0),
    "split.seed": (lambda v: split(generate_synthetic(PROFILE, 3, 0), (0.4, 0.3, 0.3), v),
                   SEEDS, 0),
    "init_model.seed": (lambda v: init_model((8, 101), "relu", v, SUP), SEEDS, 0),
    "propose_stage_update.step": (
        lambda v: propose_stage_update(StageParams.initial(2), v, None, TrainConfig()), SEEDS, 0),
    "generate_synthetic.n_per_label": (lambda v: generate_synthetic(PROFILE, v, 0),
                                       [("data.synthetic", "n_per_label", lambda v: v)], 8),
    "kmeans_1d.k": (lambda v: kmeans_1d(SUP.labels(), v, SUP),
                    [("partition", "k", lambda v: v)], 2),
    "StagePartition.boundaries": (lambda v: StagePartition([0, v], SUP, "manual"),
                                  [("data.synthetic", "boundaries", lambda v: [0, v])], 50),
    "cumulative_score.threshold": (lambda v: cumulative_score(*ONE, v),
                                   [("eval", "cs_thresholds", lambda v: [v])], 5.0),
    "compute_metrics.cs_thresholds": (lambda v: compute_metrics(*ONE, PROFILE.partition, [v]),
                                      [("eval", "cs_thresholds", lambda v: [v])], 5.0),
    "backward_step.loss_mode": (
        lambda v: backward_step(init_model((8, 101), "relu", 0, SUP), np.zeros((1, 8)), [3],
                                StageParams.initial(2), PROFILE.partition, 0.1, SUP,
                                loss_mode=v),
        [("ablation", "loss_mode", lambda v: v)], "kl"),
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return path


class TestConfigValidation:
    def test_unknown_top_level_key_rejected(self, tmp_path):
        doc = base_config(tmp_path / "run")
        doc["unexpected"] = 1
        with pytest.raises(InvalidParameterError, match="unexpected"):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("key", ["momentum", "cs_threshold"])
    def test_unknown_nested_key_rejected(self, tmp_path, key):
        doc = base_config(tmp_path / "run")
        doc["train"][key] = 0.9
        with pytest.raises(InvalidParameterError, match=key):
            ExperimentConfig.from_dict(doc)

    def test_missing_seed_rejected(self, tmp_path):
        doc = base_config(tmp_path / "run")
        del doc["seed"]
        with pytest.raises(InvalidParameterError, match="seed"):
            ExperimentConfig.from_dict(doc)

    def test_bad_loss_mode_rejected(self, tmp_path):
        doc = base_config(tmp_path / "run")
        doc["ablation"]["loss_mode"] = "huber"
        with pytest.raises(InvalidParameterError):
            ExperimentConfig.from_dict(doc)

    def test_overrides_apply(self, tmp_path):
        path = write_config(tmp_path, base_config(tmp_path / "run"))
        cfg = load_config(path, seed_override=9, out_override=str(tmp_path / "other"))
        assert cfg.seed == 9
        assert cfg.out_dir.endswith("other")

    def test_config_hash_stable(self, tmp_path):
        doc = base_config(tmp_path / "run")
        a = ExperimentConfig.from_dict(doc)
        b = ExperimentConfig.from_dict(doc)
        assert a.sha256() == b.sha256()

    def test_config_hash_pinned(self):
        # run_meta.json's config_sha256 stays the same for every config that loads
        doc = base_config("runs/demo")
        assert ExperimentConfig.from_dict(doc).sha256() == (
            "a216121dadb230ab3ca71f140b0a365d7ec922b0a78d7783700ce10fda9f77ad")
        # values that convert keep the hash of their converted form
        doc["partition"] = {"mode": "kmeans", "k": 2.0}
        doc["ablation"]["seeds"] = ["3", 4.0]
        doc["data"]["synthetic"]["levels"] = [6, "1"]
        assert ExperimentConfig.from_dict(doc).sha256() == (
            "3798765f1a185f5c47eaa1e3b285b601b106d793dcfd4feef2ab56c59c7624aa")

    def test_committed_configs_hold_the_gate_settings(self):
        configs = {name: load_config(CONFIGS / f"{name}.json")
                   for name in ("ablation", "similarity")}
        for name, cfg in configs.items():
            assert cfg.out_dir == f"runs/{name}" and cfg.support == SUP
            spec = cfg.data.synthetic
            assert (spec.levels, spec.boundaries, spec.feature_dim, spec.noise_scale,
                    spec.n_per_label) == (LEVELS, BOUNDARIES, FEATURE_DIM, NOISE_SCALE,
                                          N_PER_LABEL)
            assert cfg.data.fractions == FRACTIONS
            assert (cfg.partition.mode, cfg.partition.k) == ("kmeans", len(BOUNDARIES))
            assert cfg.model == cli.ModelSection(hidden_dims=HIDDEN, activation="relu")
            # the gate's full arm: adaptive variance and the composite loss
            assert cfg.train_config() == TrainConfig(seed=GATE_SEEDS[0], sav=True,
                                                     loss_mode="saw", **TRAIN_KW)
        assert configs["ablation"].ablation.seeds == GATE_SEEDS
        assert configs["similarity"].eval.anchors == (10, 45, 75)

    # every optional key of every section, each hashed as loaded; synthetic is
    # the nested section below it
    @pytest.mark.parametrize("section, key, default", [
        (section, f.name, f.default)
        for section, cls in (("support", LabelSupport), ("data", cli.DataSection),
                             ("data.synthetic", cli.SyntheticSpec),
                             ("partition", cli.PartitionSection), ("model", cli.ModelSection),
                             ("train", cli.TrainSection), ("ablation", cli.AblationSection),
                             ("eval", cli.EvalSection))
        for f in fields(cls) if f.default is not MISSING and f.name != "synthetic"])
    def test_default_written_out_hashes_like_key_left_out(self, tmp_path, section, key,
                                                          default):
        doc = {"seed": 0, "out_dir": str(tmp_path / "run"),
               "data": {"synthetic": {"levels": [6.0, 1.0], "boundaries": [0, 50]}}}
        written = json.loads(json.dumps(doc))
        target = written
        for part in section.split("."):
            target = target.setdefault(part, {})
        target[key] = json.loads(json.dumps(default))
        assert (ExperimentConfig.from_dict(written).sha256()
                == ExperimentConfig.from_dict(doc).sha256())

    def test_train_values_that_load_alike_hash_alike(self):
        # train was hashed as written: each of these had its own config_sha256
        doc = json.loads((CONFIGS / "ablation.json").read_text())
        hashes = set()
        for train in ({"epochs": 60}, {"epochs": 60.0}, {"epochs": "60"},
                      {"epochs": 60, "sigma_grid": list(TrainConfig().sigma_grid)}):
            doc["train"] = {**doc["train"], **train}
            hashes.add(ExperimentConfig.from_dict(doc).sha256())
        assert len(hashes) == 1

    def test_first_error_in_section_field_order(self, tmp_path, capsys):
        # a section's keys are read in field order, not in the order the file lists them
        doc = base_config(tmp_path / "run")
        doc["model"] = {"activation": "sigmoid", "hidden_dims": [0]}
        self.assert_rejected_at_load(tmp_path, capsys, doc, "model.hidden_dims")

    @pytest.mark.parametrize("section, key, value", [
        ("data.synthetic", "levels", 5),
        ("partition", "k", "ten"),
        ("train", "epochs", "three"),
        ("data", "synthetic", 5),  # a section that is not a JSON object
        ("data", "train_csv", 5),
        ("ablation", "fixed_sigma", 0),  # converts, but TrainConfig rejects it
        ("model", "activation", "sigmoid"),
        ("model", "activation", 5),
        ("ablation", "sav", "false"),  # a JSON string, not a boolean
        ("ablation", "saw", "no"),
        ("train", "epochs", 1.5),  # loaded, then failed after files were written
        ("train", "batch_size", True),  # trained with batch size 1
        ("model", "hidden_dims", [0]),
        # integer fields took int(): fractions were truncated, true read as 1
        ("config", "seed", 1.5),
        ("config", "seed", True),
        ("partition", "k", 2.5),
        ("data.synthetic", "n_per_label", 12.7),
        ("data.synthetic", "feature_dim", True),
        ("data.synthetic", "boundaries", [0, 50.9]),
        ("eval", "anchors", [10.9]),
        ("ablation", "seeds", [0.5]),
        ("support", "max_label", 100.5),
        ("model", "hidden_dims", [16.5, True]),
        # float fields read true as 1.0
        ("ablation", "fixed_sigma", True),
        ("data", "fractions", [True, 0.15, 0.15]),
        # loaded, then failed in the command that first built the object
        ("ablation", "seeds", [-1]),
        ("partition", "boundaries", [5, 50]),
        ("partition", "boundaries", [0, 50, 40]),
        ("data.synthetic", "levels", [8.0]),
        ("eval", "anchors", [500]),
        ("eval", "cs_thresholds", [-1]),
        # nan passed every x <= 0 check: fractions then failed in split and
        # noise_scale and levels after train.csv was written, naming no field;
        # the rest loaded, and gen-data exited 0
        ("data", "fractions", [math.nan, 0.5, 0.5]),
        ("train", "learning_rate", math.nan),
        ("train", "stage_lr", math.nan),
        ("ablation", "fixed_sigma", math.nan),
        ("eval", "cs_thresholds", [math.nan]),
        ("data.synthetic", "noise_scale", math.nan),
        ("data.synthetic", "levels", [math.nan, 1]),
        ("data", "fractions", [math.inf, 0.5, 0.5]),
        ("train", "sigma_grid", [1.0, math.inf]),
        ("data.synthetic", "noise_scale", -math.inf),
        # the split allocation: failed in gen-data after out_dir was made
        ("data.synthetic", "n_per_label", 0),
        ("data", "fractions", [0.5, 0.5, 0.5]),
        ("data", "fractions", [0.85, 0.15, 0.0]),
        ("data", "fractions", [0.7, 0.3]),
        # an empty split: gen-data exited 0 with a header-only test.csv
        ("data.synthetic", "n_per_label", 3),
        ("data.synthetic", "n_per_label", 4),
        # run-ablation exited 0: true trained at 1, a string loaded as its digits
        ("train", "learning_rate", True),
        ("train", "stage_lr", True),
        ("train", "sigma_grid", "12"),
        ("train", "sigma_grid", [True, 2.0]),
        # a string loaded as its characters, an object as its keys
        ("model", "hidden_dims", "64"),
        ("model", "hidden_dims", {"64": 1}),
        ("ablation", "seeds", "12"),
        ("data.synthetic", "levels", "81"),
        ("data.synthetic", "boundaries", "05"),
        ("partition", "boundaries", "05"),
        ("eval", "anchors", "17"),
        ("eval", "cs_thresholds", "5"),
        # a falsy value loaded as absent
        ("ablation", "seeds", 0),
        ("ablation", "seeds", False),
        ("data", "synthetic", False),
        ("data", "synthetic", 0),
        ("data", "synthetic", {}),
        ("partition", "boundaries", 0),
        ("ablation", "loss_mode", False),
        ("ablation", "loss_mode", ""),
        # read as absent, so run-ablation exited 0 on an empty train_csv
        ("data", "train_csv", ""),
        ("data", "val_csv", ""),
        ("data", "test_csv", ""),
        # seed 0 trained twice, and counted twice in the arm means
        ("ablation", "seeds", [0, 0, 1]),
        # analyze wrote similarity_anchor_10.csv twice, and run_meta.json listed it twice
        ("eval", "anchors", [10, 10]),
        # metrics.csv held two cs_2.5 rows, or one row for two thresholds
        ("eval", "cs_thresholds", [2.5, 2.50000001]),
        ("eval", "cs_thresholds", [5, 5.0]),
        # read as the current directory, where gen-data wrote its files
        ("config", "out_dir", ""),
    ])
    def test_wrongly_typed_value_names_field(self, tmp_path, capsys, section, key, value):
        doc = base_config(tmp_path / "run")
        target = doc
        for part in section.split(".") if section != "config" else ():
            target = target[part]
        target[key] = value
        self.assert_rejected_at_load(tmp_path, capsys, doc, f"{section}.{key}")

    def test_removed_similarity_aggregation_key_named(self, tmp_path, capsys):
        # analyze has one similarity rule, the pairwise mean; the key that chose it is gone
        doc = base_config(tmp_path / "run")
        doc["eval"]["similarity_aggregation"] = "pairwise"
        self.assert_rejected_at_load(tmp_path, capsys, doc, "similarity_aggregation")

    # where a config sets each TrainConfig field that its train section does not
    SET_OUTSIDE_TRAIN = {"seed": "config", "sav": "ablation", "loss_mode": "ablation",
                         "fixed_sigma": "ablation"}

    @pytest.mark.parametrize("key, value", [
        *value_cases([f.name for f in fields(TrainConfig)],
                     [2.0, "3", "0.1", True, math.nan, math.inf, "12", [], "default",
                      np.True_, -1, 0, 2.5, "x"]),
        *value_cases(LIBRARY_ARGS, [True, np.True_, math.nan, math.inf, -1, 0, 2.5, "3", "x",
                                    "default"])])
    def test_train_config_and_config_take_the_same_values(self, tmp_path, key, value):
        doc = base_config(tmp_path / "run")
        if key in LIBRARY_ARGS:
            call, places, valid = LIBRARY_ARGS[key]
            # kmeans stages read partition.k; 3 samples per label fill every split
            doc["partition"] = {"mode": "kmeans", "k": 2}
            doc["data"]["fractions"] = [0.4, 0.3, 0.3]
        else:
            call, valid = (lambda v: TrainConfig(**{key: v})), getattr(TrainConfig(), key)
            places = [(self.SET_OUTSIDE_TRAIN.get(key, "train"), key, lambda v: v)]
        if isinstance(value, str) and value == "default":
            value = list(valid) if isinstance(valid, tuple) else valid
        try:
            call(value)
            accepted = True
        except InvalidParameterError:
            accepted = False
        for section, name, as_given in places:
            target = json.loads(json.dumps(doc))
            target_section = target
            for part in section.split(".") if section != "config" else ():
                target_section = target_section[part]
            target_section[name] = as_given(value)
            if accepted:
                ExperimentConfig.from_dict(target)
            else:
                with pytest.raises(InvalidParameterError,
                                   match=re.escape(f"{section}.{name}: ")):
                    ExperimentConfig.from_dict(target)

    @pytest.mark.parametrize("fractions", [(0.7, 0.15, 0.15), (0.5, 0.25, 0.25),
                                           (0.05, 0.05, 0.9), (0.8, 0.1, 0.1)])
    def test_n_per_label_loads_when_every_split_gets_each_label(self, tmp_path, fractions):
        doc = base_config(tmp_path / "run")
        doc["data"]["fractions"] = list(fractions)
        for n in range(1, 25):
            doc["data"]["synthetic"]["n_per_label"] = n
            if all(split_counts(n, fractions)):
                ExperimentConfig.from_dict(doc)
            else:
                with pytest.raises(InvalidParameterError,
                                   match="^data.synthetic.n_per_label: .* split empty"):
                    ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("k", [0, 500])
    def test_kmeans_k_outside_support_names_field(self, tmp_path, capsys, k):
        doc = base_config(tmp_path / "run")
        doc["partition"] = {"mode": "kmeans", "k": k}
        self.assert_rejected_at_load(tmp_path, capsys, doc, "partition.k")

    # a rule across a section's fields names the section: before, the first
    # two named none, and kmeans and decade stages ignored the boundaries
    @pytest.mark.parametrize("section, value, message", [
        ("partition", {"mode": "manual"}, "partition: manual partition needs boundaries"),
        ("support", {"min_label": 5, "max_label": 5},
         "support: label support needs at least 2 labels, got [5, 5]"),
        ("partition", {"mode": "kmeans", "k": 2, "boundaries": [0, 50]},
         "partition: kmeans partition takes no boundaries"),
        ("partition", {"mode": "decade", "boundaries": [0, 50]},
         "partition: decade partition takes no boundaries"),
    ], ids=["manual-without-boundaries", "one-label", "kmeans-with-boundaries",
            "decade-with-boundaries"])
    def test_rule_across_fields_names_the_section(self, tmp_path, capsys, section, value,
                                                 message):
        doc = base_config(tmp_path / "run")
        doc[section] = value
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            ExperimentConfig.from_dict(doc)
        assert main(["gen-data", "--config", str(write_config(tmp_path, doc))]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "run").exists()

    def test_config_not_utf8_names_the_file(self, tmp_path, capsys):
        # before, "error: UnicodeDecodeError: 'utf-8' codec can't decode byte 0xff ..."
        path = tmp_path / "config.json"
        text = json.dumps(base_config(tmp_path / "run")).encode()
        path.write_bytes(text.replace(b"relu", b"rel\xff"))
        assert main(["gen-data", "--config", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: config {path} is not valid JSON: ")
        assert not (tmp_path / "run").exists()

    @staticmethod
    def assert_rejected_at_load(tmp_path, capsys, doc, field):
        with pytest.raises(InvalidParameterError, match=re.escape(field)):
            ExperimentConfig.from_dict(doc)
        path = write_config(tmp_path, doc)
        for command in ("gen-data", "run-ablation"):
            assert main([command, "--config", str(path)]) == 1
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith("error:") and field in err[0]
        assert not (tmp_path / "run").exists()

    def test_empty_out_override_names_flag_and_writes_nothing(self, tmp_path, capsys,
                                                              monkeypatch):
        # Path("") is the current directory, where gen-data wrote its five files
        path = write_config(tmp_path, base_config(tmp_path / "run"))
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main(["gen-data", "--config", str(path), "--out", ""]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: --out:")
        assert list(cwd.iterdir()) == []

    @pytest.mark.parametrize("command", ["gen-data", "run-ablation"])
    def test_negative_seed_override_names_flag(self, tmp_path, capsys, command):
        path = write_config(tmp_path, base_config(tmp_path / "run"))
        assert main([command, "--config", str(path), "--seed", "-1"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: --seed:")
        assert not (tmp_path / "run").exists()

    def test_seed_override_with_ablation_seeds_rejected(self, tmp_path, capsys):
        # run-ablation trained seed_1 only and exited 0, ignoring --seed 7
        doc = base_config(tmp_path / "run")
        doc["ablation"]["seeds"] = [1]
        path = write_config(tmp_path, doc)
        assert main(["run-ablation", "--config", str(path), "--seed", "7"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: --seed:")
        assert "ablation.seeds" in err[0]
        assert not (tmp_path / "run").exists()

    def test_non_string_out_dir_names_field(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        doc = base_config(tmp_path / "run")
        doc["out_dir"] = 5
        with pytest.raises(InvalidParameterError, match=re.escape("config.out_dir")):
            ExperimentConfig.from_dict(doc)
        assert main(["gen-data", "--config", str(write_config(tmp_path, doc))]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "config.out_dir" in err[0]
        assert not (tmp_path / "5").exists()

    def test_negative_seed_names_field(self, tmp_path, capsys):
        doc = base_config(tmp_path / "run")
        doc["seed"] = -1
        with pytest.raises(InvalidParameterError, match=re.escape("config.seed")):
            ExperimentConfig.from_dict(doc)
        assert main(["gen-data", "--config", str(write_config(tmp_path, doc))]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "config.seed" in err[0]
        assert not (tmp_path / "run").exists()

    def test_out_dir_naming_a_file_fails_cleanly(self, tmp_path, capsys):
        blocker = tmp_path / "run"
        blocker.write_text("not a directory")
        path = write_config(tmp_path, base_config(blocker))
        assert main(["gen-data", "--config", str(path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: FileExistsError")
        assert blocker.read_text() == "not a directory"


class TestGenData:
    def test_outputs_and_reload(self, tmp_path):
        path = write_config(tmp_path, base_config(tmp_path / "run"))
        assert main(["gen-data", "--config", str(path)]) == 0
        out = tmp_path / "run"
        for name in ("train.csv", "val.csv", "test.csv", "profile.json"):
            assert (out / name).exists()
        train = load_csv(out / "train.csv", SUP)
        assert len(train) > 0
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["status"] == "complete"
        assert meta["command"] == "gen-data"

    def test_byte_identical_across_runs(self, tmp_path):
        doc = base_config(tmp_path / "a")
        path = write_config(tmp_path, doc)
        assert main(["gen-data", "--config", str(path)]) == 0
        first = (tmp_path / "a" / "train.csv").read_bytes()
        assert main(["gen-data", "--config", str(path),
                     "--out", str(tmp_path / "b")]) == 0
        second = (tmp_path / "b" / "train.csv").read_bytes()
        assert first == second

    def test_missing_synthetic_section_fails(self, tmp_path):
        doc = base_config(tmp_path / "run")
        doc["data"]["synthetic"] = None
        path = write_config(tmp_path, doc)
        assert main(["gen-data", "--config", str(path)]) == 1

    @pytest.mark.parametrize("key", ["levels", "boundaries"])
    def test_synthetic_field_missing_fails_cleanly(self, tmp_path, capsys, key):
        doc = base_config(tmp_path / "run")
        del doc["data"]["synthetic"][key]
        path = write_config(tmp_path, doc)
        assert main(["gen-data", "--config", str(path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and key in err[0]

    @pytest.mark.parametrize("command", ["gen-data", "run-ablation"])
    def test_csv_that_does_not_read_back_fails(self, tmp_path, capsys, monkeypatch, command):
        def rounding_save_csv(dataset, path):
            save_csv(Dataset(dataset.ids, dataset.labels, np.round(dataset.features, 3),
                             dataset.support), path)

        monkeypatch.setattr(cli, "save_csv", rounding_save_csv)
        path = write_config(tmp_path, base_config(tmp_path / "run"))
        assert main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "train.csv" in err[0]
        meta = json.loads((tmp_path / "run" / "run_meta.json").read_text())
        assert meta["status"] == "partial"
        # the file written before the mismatch is listed
        assert [Path(p).name for p in meta["outputs"]] == ["train.csv"]

    def test_invalid_profile_fails_cleanly(self, tmp_path, capsys):
        doc = base_config(tmp_path / "run")
        doc["data"]["synthetic"]["levels"] = [-1.0, 1.0]
        path = write_config(tmp_path, doc)
        assert main(["gen-data", "--config", str(path)]) == 1
        assert "error" in capsys.readouterr().err


# the pipeline in command order, each after the ones before it
PIPELINE = ("gen-data", "stage", "train", "eval", "analyze")


def inodes(root):
    return {p: p.stat().st_ino for p in root.rglob("*") if p.is_file()}


class TestRunMeta:
    @pytest.mark.parametrize("command", [*PIPELINE, "run-ablation"])
    def test_outputs_list_every_file_written(self, tmp_path, capsys, command):
        doc = base_config(tmp_path / "run", epochs=1)
        doc["ablation"]["seeds"] = [3]
        path = write_config(tmp_path, doc)
        out = tmp_path / "run"
        out.mkdir()
        for before in PIPELINE[:PIPELINE.index(command)] if command in PIPELINE else ():
            assert main([before, "--config", str(path)]) == 0, before
        seen = inodes(out)
        capsys.readouterr()
        assert main([command, "--config", str(path)]) == 0
        now = inodes(out)
        written = {p for p, ino in now.items() if seen.get(p) != ino} - {out / "run_meta.json"}
        outputs = [Path(p) for p in json.loads((out / "run_meta.json").read_text())["outputs"]]
        assert len(outputs) == len(set(outputs)) and set(outputs) == written
        assert len(outputs) == {"gen-data": 4, "stage": 1, "train": 4, "eval": 2,
                                "analyze": 2, "run-ablation": 41}[command]
        # in write order: a file written later was not modified earlier
        mtimes = [p.stat().st_mtime_ns for p in outputs]
        assert mtimes == sorted(mtimes)
        assert capsys.readouterr().out.splitlines() == [str(p) for p in outputs]

    # before, the error line named the line but not the file
    @pytest.mark.parametrize("split, command, line, cells, message", [
        ("train", "train", 4, lambda row: row[:-1], "expected 10 cells, got 9"),
        ("val", "train", 4, lambda row: row[:-1], "expected 10 cells, got 9"),
        ("test", "eval", 3, lambda row: [row[0], "300", *row[2:]],
         "label 300 outside support [0, 100]"),
    ], ids=["train-cut-row", "val-cut-row", "test-label-300"])
    def test_csv_that_fails_to_load_names_the_file(self, tmp_path, capsys, split, command,
                                                   line, cells, message):
        path = write_config(tmp_path, base_config(tmp_path / "run", epochs=0))
        for cmd in ("gen-data", "train"):
            assert main([cmd, "--config", str(path)]) == 0
        csv_path = tmp_path / "run" / f"{split}.csv"
        lines = csv_path.read_text().splitlines()
        lines[line - 1] = ",".join(cells(lines[line - 1].split(",")))
        csv_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {csv_path}: line {line}: {message}"]


class TestStage:
    def test_decade_partition_file(self, tmp_path):
        doc = base_config(tmp_path / "run")
        doc["partition"] = {"mode": "decade"}
        path = write_config(tmp_path, doc)
        assert main(["gen-data", "--config", str(path)]) == 0
        assert main(["stage", "--config", str(path)]) == 0
        part = json.loads((tmp_path / "run" / "partition.json").read_text())
        assert part["k"] == 10
        assert part["boundaries"][-1] == 90
        assert part["provenance"] == "decade"

    def test_kmeans_example_via_csv(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        ds = Dataset(ids=("0", "1", "2", "3"), labels=[1, 2, 9, 10],
                     features=np.zeros((4, 2)), support=SUP)
        for name in ("train.csv", "val.csv", "test.csv"):
            save_csv(ds, out / name)
        doc = base_config(out)
        doc["data"] = {"train_csv": str(out / "train.csv"),
                       "val_csv": str(out / "val.csv"),
                       "test_csv": str(out / "test.csv")}
        doc["partition"] = {"mode": "kmeans", "k": 2}
        path = write_config(tmp_path, doc)
        assert main(["stage", "--config", str(path)]) == 0
        part = json.loads((out / "partition.json").read_text())
        assert part["boundaries"] == [0, 6]

    def test_kmeans_k_exceeding_distinct_fails(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        ds = Dataset(ids=("0", "1", "2", "3"), labels=[5, 5, 9, 9],
                     features=np.zeros((4, 2)), support=SUP)
        for name in ("train.csv", "val.csv", "test.csv"):
            save_csv(ds, out / name)
        doc = base_config(out)
        doc["data"] = {"train_csv": str(out / "train.csv"),
                       "val_csv": str(out / "val.csv"),
                       "test_csv": str(out / "test.csv")}
        doc["partition"] = {"mode": "kmeans", "k": 5}
        path = write_config(tmp_path, doc)
        assert main(["stage", "--config", str(path)]) == 1
        # before, the line named the library argument: "error: k: expected a value in [1, 3)"
        assert capsys.readouterr().err.splitlines() == [
            "error: partition.k: 5 stages need at least 5 distinct training labels, "
            "the training split has 2"]


class TestTrainCommand:
    def test_diverging_train_prints_one_error_line_and_no_warning(self, tmp_path, capsys,
                                                                  recwarn):
        # before, NumPy's two-line "invalid value encountered in reduce" warning from the
        # logit check came first
        path = write_config(tmp_path, base_config(tmp_path / "run"))
        assert main(["gen-data", "--config", str(path)]) == 0
        train_csv = tmp_path / "run" / "train.csv"
        lines = train_csv.read_text().splitlines()
        cells = lines[1].split(",")
        cells[2] = "1e300"  # the first sample's first feature
        lines[1] = ",".join(cells)
        train_csv.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: training diverged: ")
        assert len(recwarn) == 0
        meta = json.loads((tmp_path / "run" / "run_meta.json").read_text())
        assert meta["status"] == "partial"

    def test_diverging_validation_readout_prints_no_warning(self, tmp_path, capsys, recwarn):
        # found by TestInputFuzz: 1e300 on line 71 trains weights whose validation
        # read-out overflows; before, two NumPy warnings came before the error line
        path = write_config(tmp_path, fuzz_config(tmp_path / "run"))
        assert main(["gen-data", "--config", str(path)]) == 0
        train_csv = tmp_path / "run" / "train.csv"
        lines = train_csv.read_text().splitlines()
        cells = lines[70].split(",")
        cells[2] = "1e300"
        lines[70] = ",".join(cells)
        train_csv.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["train", "--config", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: training diverged: non-finite validation predictions at epoch 0"]
        assert len(recwarn) == 0

    def test_zero_epochs_emits_initial_checkpoint(self, tmp_path):
        doc = base_config(tmp_path / "run", epochs=0)
        path = write_config(tmp_path, doc)
        assert main(["gen-data", "--config", str(path)]) == 0
        assert main(["train", "--config", str(path)]) == 0
        out = tmp_path / "run"
        assert (out / "checkpoint.json").exists()
        history = (out / "history.csv").read_text().splitlines()
        assert len(history) == 1  # header only

    def test_train_then_eval_and_analyze(self, tmp_path):
        path = write_config(tmp_path, base_config(tmp_path / "run"))
        for cmd in ("gen-data", "stage", "train", "eval", "analyze"):
            assert main([cmd, "--config", str(path)]) == 0, cmd
        out = tmp_path / "run"
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["n"] > 0
        assert (out / "similarity_anchor_10.csv").exists()
        assert (out / "similarity_anchor_75.csv").exists()

    def test_partition_file_from_other_config_rejected(self, tmp_path, capsys):
        doc = base_config(tmp_path / "run", epochs=0)
        doc["partition"] = {"mode": "kmeans", "k": 2}
        path = write_config(tmp_path, doc)
        for cmd in ("gen-data", "train"):
            assert main([cmd, "--config", str(path)]) == 0
        out = tmp_path / "run"
        first = json.loads((out / "partition.json").read_text())["boundaries"]
        doc["partition"]["k"] = 5
        write_config(tmp_path, doc)
        capsys.readouterr()
        assert main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "partition.json" in err[0] and str(first) in err[0]
        assert json.loads((out / "run_meta.json").read_text())["status"] == "partial"
        # the checkpoint of the k = 2 run is left as it was
        assert len(json.loads((out / "checkpoint.json").read_text())
                   ["partition"]["boundaries"]) == 2

    def test_fractional_partition_boundary_names_the_file(self, tmp_path, capsys):
        # int() would truncate 50.5 to the config's 50 and train on
        path = write_config(tmp_path, base_config(tmp_path / "run", epochs=0))
        for cmd in ("gen-data", "stage"):
            assert main([cmd, "--config", str(path)]) == 0
        partition = tmp_path / "run" / "partition.json"
        doc = json.loads(partition.read_text())
        doc["boundaries"][1] = 50.5
        partition.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "partition.json" in err[0]
        assert json.loads((tmp_path / "run" / "run_meta.json").read_text())["status"] == "partial"
        assert not (tmp_path / "run" / "checkpoint.json").exists()

    def test_determinism_byte_identical(self, tmp_path):
        doc = base_config(tmp_path / "a")
        path = write_config(tmp_path, doc)
        for _ in range(1):
            assert main(["gen-data", "--config", str(path)]) == 0
            assert main(["train", "--config", str(path)]) == 0
        first_hist = (tmp_path / "a" / "history.csv").read_bytes()
        first_ckpt = (tmp_path / "a" / "checkpoint.json").read_bytes()
        assert main(["gen-data", "--config", str(path), "--out",
                     str(tmp_path / "b")]) == 0
        assert main(["train", "--config", str(path), "--out",
                     str(tmp_path / "b")]) == 0
        assert (tmp_path / "b" / "history.csv").read_bytes() == first_hist
        assert (tmp_path / "b" / "checkpoint.json").read_bytes() == first_ckpt


class TestEvalCommand:
    def test_oracle_checkpoint_scores_perfectly(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        # features one-hot-encode the label; huge identity weights make the
        # model an oracle under both read-out rules
        dim = SUP.size
        labels = [0, 10, 50, 90, 100] * 3
        ds = Dataset(ids=tuple(str(i) for i in range(len(labels))), labels=labels,
                     features=np.eye(dim)[labels], support=SUP)
        for name in ("train.csv", "val.csv", "test.csv"):
            save_csv(ds, out / name)
        model = init_model((dim, dim), "relu", 0, SUP)
        model.weights[0] = np.eye(dim) * 200.0
        part = StagePartition(boundaries=(0, 50), support=SUP, provenance="manual")
        save_checkpoint(out / "checkpoint.json", model,
                        StageParams.initial(2), part)
        doc = base_config(out)
        doc["data"] = {"train_csv": str(out / "train.csv"),
                       "val_csv": str(out / "val.csv"),
                       "test_csv": str(out / "test.csv")}
        path = write_config(tmp_path, doc)
        assert main(["eval", "--config", str(path)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["mae"] == pytest.approx(0.0, abs=1e-9)
        assert metrics["cs"]["5.0"] == 100.0

    def test_missing_checkpoint_names_path(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(tmp_path / "run"))
        assert main(["gen-data", "--config", str(path)]) == 0
        assert main(["eval", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "checkpoint" in err and "run" in err
        meta = json.loads((tmp_path / "run" / "run_meta.json").read_text())
        assert meta["status"] == "partial"


    def test_truncated_checkpoint_fails_cleanly(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(tmp_path / "run", epochs=0))
        for cmd in ("gen-data", "train"):
            assert main([cmd, "--config", str(path)]) == 0
        checkpoint = tmp_path / "run" / "checkpoint.json"
        checkpoint.write_text(checkpoint.read_text()[:200])
        capsys.readouterr()
        assert main(["eval", "--config", str(path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "checkpoint.json" in err[0]
        meta = json.loads((tmp_path / "run" / "run_meta.json").read_text())
        assert (meta["command"], meta["status"]) == ("eval", "partial")

    # each value builds nothing valid: before, eval ended in a NumPy, int() or
    # stage-parameter message that named no file
    @pytest.mark.parametrize("keys, change", [
        (("model", "weights", 0), lambda blob: blob[:8]),
        (("model", "weights", 0), lambda blob: ""),
        (("partition", "boundaries", 1), lambda boundary: "x"),
        (("stage_params", "raw_alpha"), lambda raw: raw[:1]),
        # before, a TypeError naming no file, metrics through tanh, a NumPy
        # matmul error, or a silent load
        (("model", "layer_dims"), lambda dims: 5),
        (("model", "weights"), lambda blobs: 5),
        (("model", "activation"), lambda activation: "sigmoid"),
        (("model", "weights"), lambda blobs: blobs[:2]),
        (("model", "biases"), lambda blobs: blobs + blobs[-1:]),
        (("stage_params",), lambda params: {**params,
                                            "raw_sigma": params["raw_sigma"] + [0.0],
                                            "raw_alpha": params["raw_alpha"] + [0.0]}),
        # a hidden layer of width 0 with empty blobs: before, eval exited 0 and
        # scored a constant predictor
        (("model",), lambda model: {**model, "layer_dims": [model["layer_dims"][0], 0, 101],
                                    "weights": ["", ""], "biases": ["", model["biases"][-1]]}),
    ], ids=["weight-blob-cut", "weight-blob-empty", "boundary-not-a-number",
            "one-raw-alpha", "layer-dims-not-a-list", "weights-not-a-list",
            "unknown-activation", "two-of-three-weights", "one-bias-too-many",
            "three-stages-for-two", "zero-width-layer"])
    def test_checkpoint_value_that_builds_nothing_names_the_file(self, tmp_path, capsys,
                                                                 keys, change):
        path = write_config(tmp_path, base_config(tmp_path / "run", epochs=0))
        for cmd in ("gen-data", "train"):
            assert main([cmd, "--config", str(path)]) == 0
        checkpoint = tmp_path / "run" / "checkpoint.json"
        doc = json.loads(checkpoint.read_text())
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = change(node[keys[-1]])
        checkpoint.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["eval", "--config", str(path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "checkpoint.json" in err[0]
        meta = json.loads((tmp_path / "run" / "run_meta.json").read_text())
        assert (meta["command"], meta["status"]) == ("eval", "partial")

    def test_eval_and_analyze_need_only_the_test_split(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(tmp_path / "run", epochs=0))
        for cmd in ("gen-data", "train"):
            assert main([cmd, "--config", str(path)]) == 0
        out = tmp_path / "run"
        for p in out.iterdir():
            if p.name not in ("test.csv", "checkpoint.json"):
                p.unlink()
        for cmd in ("eval", "analyze"):
            assert main([cmd, "--config", str(path)]) == 0, cmd
        capsys.readouterr()
        assert main(["stage", "--config", str(path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: dataset file missing")
        assert str(out / "train.csv") in err[0]

    @pytest.mark.parametrize("command", ["eval", "analyze"])
    def test_checkpoint_support_mismatch_fails_cleanly(self, tmp_path, capsys, command):
        doc = base_config(tmp_path / "run", epochs=0)
        doc["support"]["max_label"] = 90
        path = write_config(tmp_path, doc)
        for cmd in ("gen-data", "train"):
            assert main([cmd, "--config", str(path)]) == 0
        doc["support"]["max_label"] = 100
        write_config(tmp_path, doc)
        capsys.readouterr()
        assert main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "checkpoint" in err[0]
        meta = json.loads((tmp_path / "run" / "run_meta.json").read_text())
        assert meta["status"] == "partial"
        assert meta["command"] == command


class TestAnalyzeCommand:
    def test_three_anchor_fan_out(self, tmp_path):
        doc = base_config(tmp_path / "run")
        doc["eval"]["anchors"] = [5, 25, 60]
        path = write_config(tmp_path, doc)
        for cmd in ("gen-data", "train"):
            assert main([cmd, "--config", str(path)]) == 0
        assert main(["analyze", "--config", str(path)]) == 0
        for anchor in (5, 25, 60):
            assert (tmp_path / "run" / f"similarity_anchor_{anchor}.csv").exists()

    def test_empty_anchor_list_fails(self, tmp_path):
        doc = base_config(tmp_path / "run")
        doc["eval"]["anchors"] = []
        path = write_config(tmp_path, doc)
        assert main(["gen-data", "--config", str(path)]) == 0
        assert main(["train", "--config", str(path)]) == 0
        assert main(["analyze", "--config", str(path)]) == 1


def tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "run_meta.json"}


class TestRunAblation:
    def test_arm_dirs_match_command_pipeline(self, tmp_path):
        doc = base_config(tmp_path / "ablation_run")
        doc["partition"] = {"mode": "kmeans", "k": 2}
        doc["ablation"]["seeds"] = [3]
        path = write_config(tmp_path, doc)
        assert main(["run-ablation", "--config", str(path)]) == 0
        for arm, sav, saw in ABLATION_ARMS:
            arm_dir = tmp_path / "ablation_run" / "ablation" / arm / "seed_3"
            cmd_doc = base_config(tmp_path / f"cmd_{arm}")
            cmd_doc["seed"] = 3
            cmd_doc["partition"] = doc["partition"]
            cmd_doc["ablation"].update(sav=sav, saw=saw)
            cmd_path = write_config(tmp_path, cmd_doc, f"cmd_{arm}.json")
            for cmd in ("gen-data", "stage", "train", "eval"):
                assert main([cmd, "--config", str(cmd_path)]) == 0, (arm, cmd)
            produced = tree_bytes(arm_dir)
            assert len(produced) == 10
            assert produced == tree_bytes(tmp_path / f"cmd_{arm}"), arm

    def test_data_files_written_once_per_seed(self, tmp_path, monkeypatch):
        calls = Counter()

        def spy(name):
            real = getattr(cli, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return counted

        for name in ("save_csv", "load_csv"):
            monkeypatch.setattr(cli, name, spy(name))
        doc = base_config(tmp_path / "run", epochs=1)
        doc["ablation"]["seeds"] = [3, 4]
        path = write_config(tmp_path, doc)
        assert main(["run-ablation", "--config", str(path)]) == 0
        assert calls == {"save_csv": 2 * 3, "load_csv": 2 * 3}
        for seed in (3, 4):
            first, *others = [tmp_path / "run" / "ablation" / arm / f"seed_{seed}"
                              for arm, _, _ in ABLATION_ARMS]
            for name in ("train.csv", "val.csv", "test.csv", "profile.json"):
                data = (first / name).read_bytes()
                assert all((d / name).read_bytes() == data for d in others), (seed, name)

    @pytest.mark.parametrize("section, key, value", [
        ("data", "train_csv", "train.csv"),  # would train on other data than it writes
        ("eval", "cs_thresholds", []),       # leaves the test_cs column without a value
        ("ablation", "loss_mode", "ce"),     # each arm trained on kl or saw, exit 0
    ])
    def test_config_rejected(self, tmp_path, capsys, section, key, value):
        doc = base_config(tmp_path / "run")
        doc[section][key] = value
        path = write_config(tmp_path, doc)
        assert main(["run-ablation", "--config", str(path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and f"{section}.{key}" in err[0]
        meta = json.loads((tmp_path / "run" / "run_meta.json").read_text())
        assert meta["status"] == "partial"
        assert not (tmp_path / "run" / "ablation").exists()


# The fuzzer's inputs. A train.csv cell is replaced as bytes, so a quote or a
# comma breaks the row and \xff is a byte that is not UTF-8.
FUZZ_CELLS = [b"nan", b"inf", b"1e300", b"", b"1.5", b"abc", b'"', b"a,b", b"x" * 131073,
              b"\xff"]
# A config value of another type, out of range, nan, "" or null.
FUZZ_VALUES = [None, "", math.nan, True, "x", [], {"a": 1}, -1, 0, 2.5]


def fuzz_config(out_dir):
    doc = base_config(out_dir, epochs=1)
    doc["data"]["synthetic"]["n_per_label"] = 5
    doc["model"]["hidden_dims"] = [8]
    return doc


def config_fields(doc, prefix=()):
    """The place of each value in ``doc``; out_dir is the run itself."""
    for key, value in doc.items():
        if isinstance(value, dict) and value:
            yield from config_fields(value, (*prefix, key))
        elif key != "out_dir":
            yield (*prefix, key)


class TestInputFuzz:
    """One bad train.csv cell or config value, then stage, train and eval:
    each command exits 0 with no warning, or exits 1 with one error line and
    a partial run_meta.json (none when the config fails to load), and leaves
    no temporary file."""

    @pytest.fixture(scope="class")
    def generated(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("fuzz") / "run"
        path = write_config(out.parent, fuzz_config(out))
        assert main(["gen-data", "--config", str(path)]) == 0
        (out / "run_meta.json").unlink()
        return out

    @given(st.one_of(
        st.tuples(st.just("cell"), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
                  st.sampled_from(FUZZ_CELLS)),
        st.tuples(st.just("config"), st.sampled_from(list(config_fields(fuzz_config("run")))),
                  st.sampled_from(FUZZ_VALUES))))
    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bad_input_fails_cleanly_or_runs_cleanly(self, generated, capsys, recwarn, mutation):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "run"
            shutil.copytree(generated, out)
            doc = fuzz_config(out)
            if mutation[0] == "cell":
                _, row, column, cell = mutation
                train_csv = out / "train.csv"
                lines = train_csv.read_bytes().split(b"\n")
                cells = lines[row % (len(lines) - 1)].split(b",")
                cells[column % len(cells)] = cell
                lines[row % (len(lines) - 1)] = b",".join(cells)
                train_csv.write_bytes(b"\n".join(lines))
            else:
                _, place, value = mutation
                section = doc
                for key in place[:-1]:
                    section = section[key]
                section[place[-1]] = value
            path = write_config(Path(tmp), doc)
            try:
                load_config(path)
                loads = True
            except SaldlError:
                loads = False
            for command in ("stage", "train", "eval"):
                capsys.readouterr()
                recwarn.clear()
                code = main([command, "--config", str(path)])
                err = capsys.readouterr().err.splitlines()
                assert len(recwarn) == 0, (command, [str(w.message) for w in recwarn])
                meta = out / "run_meta.json"
                if code == 0:
                    assert err == []
                    assert json.loads(meta.read_text())["status"] == "complete"
                else:
                    assert code == 1 and len(err) == 1 and err[0].startswith("error: "), err
                    if loads:
                        assert json.loads(meta.read_text())["status"] == "partial"
                    else:
                        assert not meta.exists()
                assert not [p for p in out.rglob(".*")], command
                meta.unlink(missing_ok=True)
