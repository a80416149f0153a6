"""Contiguous stage partitions of the label support.

Stages come either from exact 1-D k-means on a label multiset (dynamic
programming over sorted distinct values, so the result is the global
optimum and fully deterministic) or from fixed ten-year intervals.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .artifacts import read_json, write_json
from .core import LabelSupport, _each, _one_of, whole_number
from .errors import EmptyInputError, InvalidParameterError

PROVENANCES = ("kmeans", "decade", "manual")


@dataclass(frozen=True)
class StagePartition:
    """Contiguous, exhaustive grouping of the support into stages.

    ``boundaries`` holds the start label of each stage; stage s covers
    [boundaries[s], boundaries[s+1] - 1], the last stage running to the
    support maximum.
    """

    boundaries: tuple[int, ...]
    support: LabelSupport
    provenance: str

    def __post_init__(self):
        b = self.boundaries
        if len(b) < 1:
            raise InvalidParameterError("partition needs at least one stage")
        if b[0] != self.support.min_label:
            raise InvalidParameterError(
                f"first stage must start at {self.support.min_label}, got {b[0]}")
        if any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise InvalidParameterError(f"boundaries must increase strictly: {b}")
        if b[-1] > self.support.max_label:
            raise InvalidParameterError(
                f"stage start {b[-1]} beyond support max {self.support.max_label}")
        _one_of(PROVENANCES)(self.provenance)

    @property
    def k(self) -> int:
        return len(self.boundaries)

    @functools.cached_property
    def stage_index(self) -> np.ndarray:
        """Read-only stage of each support grid index."""
        index = np.searchsorted(self.boundaries, self.support.labels(), side="right") - 1
        index.flags.writeable = False
        return index

    def stages_of(self, labels) -> np.ndarray:
        """Index of the unique stage containing each label."""
        return self.stage_index[self.support.indices_of(labels)]

    def stage_of(self, label: int) -> int:
        """Index of the unique stage containing ``label``."""
        return int(self.stages_of(label))

    def to_dict(self) -> dict:
        return {"boundaries": list(self.boundaries), "k": self.k,
                "provenance": self.provenance}

    @classmethod
    def from_dict(cls, d: dict, support: LabelSupport) -> "StagePartition":
        return cls(boundaries=_each(whole_number)(d["boundaries"]),
                   support=support, provenance=str(d["provenance"]))


def save_partition(partition: StagePartition, path) -> None:
    write_json(path, partition.to_dict())


def load_partition(path, support: LabelSupport) -> StagePartition:
    return read_json(path, lambda doc: StagePartition.from_dict(doc, support))


def check_stage_count(k: int, m: int) -> None:
    """k-means can cut ``m`` distinct labels into ``k`` stages only if
    1 <= k <= m."""
    if k < 1 or k > m:
        raise InvalidParameterError(f"k must lie in [1, {m}] for {m} distinct labels, got {k}")


def kmeans_1d(labels, k: int, support: LabelSupport) -> StagePartition:
    """Globally optimal k-means clustering of a 1-D label multiset.

    Optimal 1-D clusters are contiguous in sorted order, so a dynamic
    program over the distinct sorted values minimizes the within-cluster
    sum of squared deviations exactly. Support labels absent from the data
    are attached to the nearest cluster interval, ties going to the lower
    stage, which makes the partition total over the support.
    """
    # whole labels inside the support: 3.7 or nan raises rather than being cast
    labels = support.min_label + support.indices_of(labels)
    if labels.size == 0:
        raise EmptyInputError("cannot cluster an empty label multiset")
    values, counts = np.unique(labels, return_counts=True)
    m = len(values)
    check_stage_count(k, m)

    v = values.astype(np.float64)
    c = counts.astype(np.float64)
    cw = np.concatenate(([0.0], np.cumsum(c)))
    cv = np.concatenate(([0.0], np.cumsum(c * v)))
    cv2 = np.concatenate(([0.0], np.cumsum(c * v * v)))

    # cost[i, j]: weighted SSE of values[i..j] inclusive; inf where i > j
    n = cw[None, 1:] - cw[:-1, None]
    s = cv[None, 1:] - cv[:-1, None]
    s2 = cv2[None, 1:] - cv2[:-1, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        cost = s2 - s * s / n
    cost[np.tril_indices(m, -1)] = np.inf

    # best[j]: least cost of values[0..j] in kk clusters; back[kk, j]: where
    # the last of them starts. Split i adds the best cost of values[0..i-1]
    # in kk - 1 clusters, inf when too few values precede it, and argmin keeps
    # the first minimum: ties go to the earliest split.
    best = cost[0]
    back = np.zeros((k + 1, m), dtype=np.int64)
    for kk in range(2, k + 1):
        total = np.concatenate(([np.inf], best[:-1]))[:, None] + cost
        back[kk] = np.argmin(total, axis=0)
        best = total.min(axis=0)

    # recover cluster start indices into the distinct-value array
    starts = []
    j = m - 1
    for kk in range(k, 0, -1):
        i = int(back[kk, j]) if kk > 1 else 0
        starts.append(i)
        j = i - 1
    starts.reverse()

    boundaries = [support.min_label]
    for t in range(1, k):
        upper_end = int(values[starts[t] - 1])   # largest value of cluster t-1
        lower_start = int(values[starts[t]])     # smallest value of cluster t
        # gap labels closer to the lower cluster stay there; ties go low
        boundaries.append((upper_end + lower_start) // 2 + 1)
    return StagePartition(boundaries=tuple(boundaries), support=support,
                          provenance="kmeans")


def decade_partition(support: LabelSupport) -> StagePartition:
    """Ten-label stages from the support minimum; a short tail merges into
    the final full stage."""
    starts = [support.min_label + 10 * i for i in range(max(1, support.size // 10))]
    return StagePartition(boundaries=tuple(starts), support=support, provenance="decade")
