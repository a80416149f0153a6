"""Metrics (MAE, cumulative score, per-stage MAE) and the anchor
cosine-similarity analysis over embeddings."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artifacts import write_csv, write_json
from .core import LabelSupport, _each, _named, _number, _one_of, _range, whole_number
from .errors import (
    DegenerateEmbeddingError,
    EmptyInputError,
    InvalidLabelError,
    ShapeError,
)
from .staging import StagePartition

SIMILARITY_AGGREGATIONS = ("pairwise", "mean_embedding")


def _check_pair(preds, labels):
    preds = np.asarray(preds, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if preds.shape != labels.shape or preds.ndim != 1:
        raise ShapeError(f"preds {preds.shape} and labels {labels.shape} disagree")
    if preds.size == 0:
        raise EmptyInputError("no samples to score")
    return preds, labels


def mae(preds, labels) -> float:
    """Mean absolute error in years."""
    preds, labels = _check_pair(preds, labels)
    return float(np.mean(np.abs(preds - labels)))


# A cumulative-score threshold: a finite error bound >= 0.
cs_threshold = _range(_number, 0)


def cumulative_score(preds, labels, threshold: float) -> float:
    """Percentage of samples with absolute error at most ``threshold``
    (inclusive comparison)."""
    threshold = _named("threshold", cs_threshold, threshold)
    preds, labels = _check_pair(preds, labels)
    return float(100.0 * np.mean(np.abs(preds - labels) <= threshold))


def per_stage_mae(preds, labels, partition: StagePartition) -> list[float | None]:
    """MAE restricted to each stage's labels; ``None`` marks empty stages."""
    preds, labels = _check_pair(preds, labels)
    stage_idx = partition.stages_of(labels)
    out: list[float | None] = []
    for s in range(partition.k):
        mask = stage_idx == s
        out.append(float(np.mean(np.abs(preds[mask] - labels[mask])))
                   if mask.any() else None)
    return out


@dataclass(frozen=True)
class MetricsReport:
    mae: float
    cs: dict[float, float]
    n: int
    per_stage_mae: list[float | None]

    def to_dict(self) -> dict:
        return {"mae": self.mae, "n": self.n,
                "cs": {repr(float(t)): v for t, v in sorted(self.cs.items())},
                "per_stage_mae": self.per_stage_mae}

    def save_json(self, path) -> None:
        write_json(path, self.to_dict())

    def save_csv(self, path) -> None:
        write_csv(path, ["metric", "value"], [
            ["mae", repr(float(self.mae))], ["n", self.n],
            *([f"cs_{t:g}", repr(float(self.cs[t]))] for t in sorted(self.cs)),
            *([f"mae_stage_{s}", "" if v is None else repr(float(v))]
              for s, v in enumerate(self.per_stage_mae))])


def compute_metrics(preds, labels, partition: StagePartition,
                    cs_thresholds=(5.0,)) -> MetricsReport:
    preds, labels = _check_pair(preds, labels)
    thresholds = _named("cs_thresholds", _each(cs_threshold), cs_thresholds)
    return MetricsReport(
        mae=mae(preds, labels),
        cs={t: cumulative_score(preds, labels, t) for t in thresholds},
        n=int(preds.size),
        per_stage_mae=per_stage_mae(preds, labels, partition),
    )


@dataclass(frozen=True)
class SimilarityCurve:
    """Mean cosine similarity between one anchor label's embeddings and every
    other label's embeddings; labels with no samples carry ``None``."""

    anchor: int
    values: tuple[float | None, ...]
    counts: tuple[int, ...]
    support: LabelSupport

    def to_csv(self, path) -> None:
        write_csv(path, ["label", "mean_cos", "count"], (
            [int(label), repr(float(value)), count]
            for label, value, count in zip(self.support.labels(), self.values, self.counts)
            if count > 0))


def anchor_similarity_curve(embeddings, labels, anchor: int,
                            support: LabelSupport | None = None,
                            aggregation: str = "pairwise") -> SimilarityCurve:
    """Per-label mean cosine similarity against the anchor label's embeddings.

    ``pairwise`` averages the cosine over all cross pairs (anchor-vs-anchor
    drops self pairs when the anchor has several samples); ``mean_embedding``
    compares mean normalized embeddings instead.
    """
    _named("aggregation", _one_of(SIMILARITY_AGGREGATIONS), aggregation)
    anchor, support = _named("anchor", whole_number, anchor), support or LabelSupport()
    emb = np.asarray(embeddings, dtype=np.float64)
    idx = support.indices_of(labels)
    if emb.ndim != 2 or emb.shape[0] != idx.shape[0]:
        raise ShapeError(f"embeddings {emb.shape} and labels {idx.shape} disagree")
    norms = np.linalg.norm(emb, axis=1)
    if np.any(norms == 0.0):
        raise DegenerateEmbeddingError("zero-norm embedding has no direction")
    unit = emb / norms[:, None]

    anchor_idx = support.index_of(anchor)
    anchor_mask = idx == anchor_idx
    if not anchor_mask.any():
        raise InvalidLabelError(f"anchor label {anchor} has no samples")
    a = unit[anchor_mask]
    a_sum = a.sum(axis=0)

    # per label: its sample count and the sum of its samples' dots with the anchor sum
    counts = np.bincount(idx, minlength=support.size)
    dots = np.bincount(idx, weights=unit @ a_sum, minlength=support.size)
    if aggregation == "mean_embedding":
        # the cosine of two mean vectors is the cosine of the two sums
        sums = np.zeros((support.size, unit.shape[1]))
        np.add.at(sums, idx, unit)
        norms = np.linalg.norm(sums, axis=1) * np.linalg.norm(a_sum)
        zero = np.flatnonzero((counts > 0) & (norms == 0.0))
        if zero.size:
            raise DegenerateEmbeddingError(
                f"mean embedding for label {support.min_label + zero[0]} has zero norm")
    else:
        norms = counts * float(len(a))
        if len(a) > 1:  # anchor-vs-anchor drops the self pairs
            dots[anchor_idx] -= (a * a).sum()
            norms[anchor_idx] = len(a) * (len(a) - 1)
    values = np.clip(dots / np.where(counts > 0, norms, 1.0), -1.0, 1.0)
    return SimilarityCurve(anchor=anchor, counts=tuple(counts.tolist()), support=support,
                           values=tuple(float(v) if m else None for v, m in zip(values, counts)))
