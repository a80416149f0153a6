"""Library arguments that share a rule with a config key: a bad value raises
an InvalidParameterError whose message starts with the argument's name,
never a bare NumPy or Python error, and is never read as another value."""

import math

import numpy as np
import pytest

from saldl.core import LabelSupport, gaussian_label_distribution
from saldl.data import AmbiguityProfile, generate_synthetic, split, split_counts
from saldl.errors import InvalidParameterError
from saldl.evaluation import anchor_similarity_curve, compute_metrics, cumulative_score
from saldl.model import backward_step, init_model, predict_ages
from saldl.staging import StagePartition, kmeans_1d
from saldl.trainer import StageParams, TrainConfig, propose_stage_update

SUP = LabelSupport()
PART = StagePartition((0, 50), SUP, "manual")
PROFILE = AmbiguityProfile((8.0, 1.0), PART, feature_dim=4)
DATA = generate_synthetic(PROFILE, 3, 0)
FRACTIONS = (0.7, 0.15, 0.15)
PARAMS = StageParams.initial(2)
ONE = (np.array([1.0]), np.array([1]))  # one prediction and its label


def step(learning_rate):
    model = init_model((4, 101), "relu", 0, SUP)
    return backward_step(model, DATA.features[:8], DATA.labels[:8], PARAMS, PART,
                         learning_rate, SUP)


# (argument, call with the bad value); each value below was accepted, ended
# in an error that was not a saldl error, or raised one that named nothing
ROWS = {
    "sigma-true": ("sigma", lambda: gaussian_label_distribution(50, True, SUP)),
    "sigma-np-true": ("sigma", lambda: gaussian_label_distribution(50, np.True_, SUP)),
    "threshold-true": ("threshold", lambda: cumulative_score(*ONE, True)),
    "cs-thresholds-true": ("cs_thresholds", lambda: compute_metrics(*ONE, PART, [True])),
    "k-true": ("k", lambda: kmeans_1d(DATA.labels, True, SUP)),
    "k-fraction": ("k", lambda: kmeans_1d(DATA.labels, 2.5, SUP)),
    "synthetic-seed-true": ("seed", lambda: generate_synthetic(PROFILE, 3, True)),
    "synthetic-seed-negative": ("seed", lambda: generate_synthetic(PROFILE, 3, -1)),
    "n-per-label-true": ("n_per_label", lambda: generate_synthetic(PROFILE, True, 0)),
    "n-per-label-fraction": ("n_per_label", lambda: generate_synthetic(PROFILE, 2.5, 0)),
    "split-seed-true": ("seed", lambda: split(DATA, FRACTIONS, True)),
    "split-seed-negative": ("seed", lambda: split(DATA, FRACTIONS, -1)),
    "split-seed-fraction": ("seed", lambda: split(DATA, FRACTIONS, 2.5)),
    "group-size-true": ("group_size", lambda: split_counts(True, FRACTIONS)),
    "init-seed-true": ("seed", lambda: init_model((4, 101), "relu", True, SUP)),
    "init-seed-negative": ("seed", lambda: init_model((4, 101), "relu", -1, SUP)),
    "learning-rate-nan": ("learning_rate", lambda: step(math.nan)),
    "learning-rate-inf": ("learning_rate", lambda: step(math.inf)),
    "learning-rate-true": ("learning_rate", lambda: step(True)),
    "boundaries-fraction": ("boundaries", lambda: StagePartition((0, 50.5), SUP, "manual")),
    "boundaries-true": ("boundaries", lambda: StagePartition((0, True), SUP, "manual")),
    "boundaries-string": ("boundaries", lambda: StagePartition("05", SUP, "manual")),
    "anchor-true": ("anchor", lambda: anchor_similarity_curve(DATA.features, DATA.labels,
                                                               True, SUP)),
    "step-negative": ("step", lambda: propose_stage_update(PARAMS, -1, None, TrainConfig())),
    "sigmas-nan": ("sigmas", lambda: StageParams.from_values([math.nan, 2.0], [0.5, 0.5])),
    "alphas-nan": ("alphas", lambda: StageParams.from_values([2.0, 2.0], [0.5, math.nan])),
    "activation-unknown": ("activation", lambda: init_model((4, 101), "sigmoid", 0, SUP)),
    "prediction-rule-unknown": ("prediction_rule", lambda: predict_ages(
        init_model((4, 101), "relu", 0, SUP), DATA.features, SUP, "median")),
    "aggregation-unknown": ("aggregation", lambda: anchor_similarity_curve(
        DATA.features, DATA.labels, 1, SUP, "max")),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")  # nan and inf steps poisoned the weights
@pytest.mark.parametrize("row", ROWS)
def test_bad_library_argument_names_it(row):
    name, call = ROWS[row]
    with pytest.raises(InvalidParameterError, match=f"^{name}: "):
        call()
