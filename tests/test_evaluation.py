"""Metric fixtures and anchor similarity curve behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from saldl.core import LabelSupport
from saldl.data import AmbiguityProfile, generate_synthetic
from saldl.errors import (
    DegenerateEmbeddingError,
    EmptyInputError,
    InvalidLabelError,
    InvalidParameterError,
    ShapeError,
)
from saldl.evaluation import (
    MetricsReport,
    anchor_similarity_curve,
    compute_metrics,
    cumulative_score,
    mae,
    per_stage_mae,
)
from saldl.staging import StagePartition

SUP = LabelSupport()
PART = StagePartition(boundaries=(0, 50), support=SUP, provenance="manual")


def value_at(curve, label):
    return curve.values[curve.support.index_of(label)]


class TestMae:
    def test_perfect(self):
        assert mae(np.array([1.0, 2.0]), np.array([1, 2])) == 0.0

    def test_mean_of_errors(self):
        assert mae(np.array([2.0, 4.0]), np.array([0, 0])) == 3.0

    def test_single_sample_reported_verbatim(self):
        assert mae(np.array([31.74]), np.array([30])) == pytest.approx(1.74)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            mae(np.array([1.0]), np.array([1, 2]))

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            mae(np.array([]), np.array([]))


class TestCumulativeScore:
    def test_saturates_at_max_error(self):
        preds = np.array([0.0, 10.0, 20.0])
        labels = np.array([1, 12, 19])
        assert cumulative_score(preds, labels, 2.0) == 100.0

    def test_counting_example(self):
        preds = np.array([0.0, 3.0, 7.0])
        labels = np.array([0, 0, 0])
        assert cumulative_score(preds, labels, 5.0) == pytest.approx(200.0 / 3.0)

    def test_zero_threshold_with_errors(self):
        preds = np.array([0.0, 1.0])
        labels = np.array([0, 0])
        assert cumulative_score(preds, labels, 0.0) < 100.0

    def test_inclusive_comparison(self):
        preds = np.array([5.0])
        labels = np.array([0])
        assert cumulative_score(preds, labels, 5.0) == 100.0

    def test_negative_threshold_rejected(self):
        with pytest.raises(InvalidParameterError):
            cumulative_score(np.array([1.0]), np.array([1]), -1.0)

    def test_nan_threshold_rejected(self):
        # nan passed the threshold < 0 check and scored 0 %
        with pytest.raises(InvalidParameterError, match="threshold"):
            cumulative_score(np.array([1.0]), np.array([1]), np.nan)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_monotone_in_threshold(self, seed):
        rng = np.random.default_rng(seed)
        preds = rng.uniform(0, 100, size=30)
        labels = rng.integers(0, 101, size=30)
        scores = [cumulative_score(preds, labels, t) for t in range(0, 11)]
        assert all(a <= b for a, b in zip(scores, scores[1:]))
        assert cumulative_score(preds, labels,
                                float(np.abs(preds - labels).max())) == 100.0


class TestPerStageMae:
    def test_single_occupied_stage(self):
        preds = np.array([10.0, 11.0])
        labels = np.array([9, 13])
        out = per_stage_mae(preds, labels, PART)
        assert out[0] == mae(preds, labels)
        assert out[1] is None

    def test_perfect_predictions_zero(self):
        preds = np.array([10.0, 80.0])
        labels = np.array([10, 80])
        out = per_stage_mae(preds, labels, PART)
        assert out == [0.0, 0.0]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_count_weighted_recombination(self, seed):
        rng = np.random.default_rng(seed)
        n = 40
        preds = rng.uniform(0, 100, size=n)
        labels = rng.integers(0, 101, size=n)
        stages = per_stage_mae(preds, labels, PART)
        counts = np.zeros(PART.k)
        for lab in labels:
            counts[PART.stage_of(int(lab))] += 1
        total = sum(c * v for c, v in zip(counts, stages) if v is not None)
        assert total / n == pytest.approx(mae(preds, labels), abs=1e-12)


def similarity_loop(embeddings, labels, anchor, support, aggregation):
    """Per-label oracle: one mask and one anchor-by-label Gram block per label."""
    unit = embeddings / np.linalg.norm(embeddings, axis=1)[:, None]
    a = unit[labels == anchor]
    values, counts = [], []
    for label in support.labels():
        mask = labels == label
        m = int(mask.sum())
        counts.append(m)
        if m == 0:
            values.append(None)
            continue
        b = unit[mask]
        if aggregation == "mean_embedding":
            ma, mb = a.mean(axis=0), b.mean(axis=0)
            val = np.dot(ma, mb) / (np.linalg.norm(ma) * np.linalg.norm(mb))
        else:
            gram = a @ b.T
            if label == anchor and m > 1:
                val = (gram.sum() - np.trace(gram)) / (m * (m - 1))
            else:
                val = gram.mean()
        values.append(float(np.clip(val, -1.0, 1.0)))
    return tuple(values), tuple(counts)


class TestAnchorSimilarityCurve:
    def test_identical_embeddings_constant_one(self):
        emb = np.tile(np.array([1.0, 2.0, 2.0]), (6, 1))
        labels = np.array([5, 5, 20, 20, 40, 40])
        curve = anchor_similarity_curve(emb, labels, 20, SUP)
        for lab in (5, 20, 40):
            assert value_at(curve, lab) == pytest.approx(1.0)
        assert value_at(curve, 3) is None

    def test_orthogonal_per_label(self):
        emb = np.zeros((4, 4))
        emb[0, 0] = emb[1, 0] = 1.0   # label 10, two identical samples
        emb[2, 1] = 1.0               # label 30
        emb[3, 2] = 1.0               # label 60
        labels = np.array([10, 10, 30, 60])
        curve = anchor_similarity_curve(emb, labels, 10, SUP)
        assert value_at(curve, 10) == pytest.approx(1.0)
        assert value_at(curve, 30) == pytest.approx(0.0)
        assert value_at(curve, 60) == pytest.approx(0.0)

    def test_self_pairs_excluded_with_multiple_samples(self):
        theta = 0.5
        emb = np.array([[1.0, 0.0], [np.cos(theta), np.sin(theta)]])
        labels = np.array([10, 10])
        curve = anchor_similarity_curve(emb, labels, 10, SUP)
        # with self pairs the mean would be (2 + 2 cos) / 4, not cos
        assert value_at(curve, 10) == pytest.approx(np.cos(theta))

    def test_single_sample_anchor_is_one(self):
        emb = np.array([[1.0, 0.0], [0.0, 1.0]])
        labels = np.array([10, 30])
        curve = anchor_similarity_curve(emb, labels, 10, SUP)
        assert value_at(curve, 10) == pytest.approx(1.0)

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(0)
        emb = rng.normal(size=(12, 5))
        labels = rng.integers(0, 101, size=12)
        anchor = int(labels[0])
        a = anchor_similarity_curve(emb, labels, anchor, SUP)
        b = anchor_similarity_curve(emb * 37.5, labels, anchor, SUP)
        for x, y in zip(a.values, b.values):
            if x is None:
                assert y is None
            else:
                assert x == pytest.approx(y, abs=1e-12)

    def test_values_within_unit_interval(self):
        rng = np.random.default_rng(4)
        emb = rng.normal(size=(30, 6))
        labels = rng.integers(0, 101, size=30)
        curve = anchor_similarity_curve(emb, labels, int(labels[3]), SUP)
        for v in curve.values:
            if v is not None:
                assert -1.0 <= v <= 1.0

    def test_absent_anchor_rejected(self):
        with pytest.raises(InvalidLabelError):
            anchor_similarity_curve(np.ones((2, 3)), np.array([5, 6]), 50, SUP)

    @given(n=st.integers(1, 40), dim=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
           aggregation=st.sampled_from(["pairwise", "mean_embedding"]))
    @settings(max_examples=60, deadline=None)
    def test_equals_per_label_loop(self, n, dim, seed, aggregation):
        rng = np.random.default_rng(seed)
        emb = rng.normal(size=(n, dim))
        # few distinct labels, so most hold several samples
        labels = rng.choice(np.array([0, 3, 50, 51, 100]), size=n)
        anchor = labels[0] = rng.choice([0, 3, 50, 51, 100])
        curve = anchor_similarity_curve(emb, labels, anchor, SUP, aggregation)
        want_values, want_counts = similarity_loop(emb, labels, anchor, SUP, aggregation)
        assert curve.counts == want_counts
        for got, want in zip(curve.values, want_values):
            assert (got is None) == (want is None)
            if want is not None:
                assert abs(got - want) <= 1e-12

    @pytest.mark.parametrize("bad", [3.7, 50, -1, np.nan])
    def test_label_not_on_the_support_rejected(self, bad):
        # a fraction was truncated, a label off the support dropped, nan a bare ValueError
        small = LabelSupport(0, 10)
        emb = np.eye(3)
        with pytest.raises(InvalidLabelError, match="label"):
            anchor_similarity_curve(emb, np.array([3, 5, bad]), 3, small)
        assert anchor_similarity_curve(emb, np.array([3.0, 5.0, 10.0]), 3, small).counts[10] == 1

    def test_zero_norm_embedding_rejected(self):
        emb = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DegenerateEmbeddingError):
            anchor_similarity_curve(emb, np.array([5, 6]), 5, SUP)

    def test_mean_embedding_variant(self):
        emb = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        labels = np.array([10, 10, 30])
        pair = anchor_similarity_curve(emb, labels, 30, SUP)
        mean = anchor_similarity_curve(emb, labels, 30, SUP,
                                       aggregation="mean_embedding")
        # pairwise averages cosines; the mean variant takes the cosine of the
        # averaged unit vectors, which differs on spread sets
        assert value_at(pair, 10) == pytest.approx(0.5)
        assert value_at(mean, 10) == pytest.approx(np.cos(np.pi / 4))

    def test_curve_flatter_in_high_ambiguity_stage(self):
        profile = AmbiguityProfile(levels=(12.0, 0.5), partition=PART,
                                   feature_dim=8, noise_scale=0.01)
        ds = generate_synthetic(profile, n_per_label=2, seed=0)
        curve = anchor_similarity_curve(ds.features_matrix(), ds.labels,
                                        25, SUP)
        vals = np.array([v for v in curve.values if v is not None])
        high_stage = vals[0:50]
        low_stage = vals[51:101]
        assert np.var(high_stage) < np.var(low_stage)

    def test_csv_export_skips_absent_labels(self, tmp_path):
        emb = np.array([[1.0, 0.0], [0.0, 1.0]])
        labels = np.array([10, 30])
        curve = anchor_similarity_curve(emb, labels, 10, SUP)
        path = tmp_path / "curve.csv"
        curve.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "label,mean_cos,count"
        assert len(lines) == 3


class TestMetricsReport:
    def test_compute_and_serialize(self, tmp_path):
        rng = np.random.default_rng(1)
        preds = rng.uniform(0, 100, size=25)
        labels = rng.integers(0, 101, size=25)
        report = compute_metrics(preds, labels, PART, cs_thresholds=(1.0, 5.0, 10.0))
        assert report.n == 25
        assert sorted(report.cs) == [1.0, 5.0, 10.0]
        assert report.cs[1.0] <= report.cs[5.0] <= report.cs[10.0]
        json_path, csv_path = tmp_path / "m.json", tmp_path / "m.csv"
        report.save_json(json_path)
        report.save_csv(csv_path)
        import json
        doc = json.loads(json_path.read_text())
        assert doc["mae"] == report.mae
        assert "mae,"[:3] in csv_path.read_text()

    def test_cs_bounds(self):
        preds = np.array([0.0, 100.0])
        labels = np.array([0, 0])
        report = compute_metrics(preds, labels, PART, cs_thresholds=(5.0,))
        assert 0.0 <= report.cs[5.0] <= 100.0
