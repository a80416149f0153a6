"""Datasets: CSV ingestion, deterministic splitting, and a synthetic
generator that plants stage-wise label ambiguity.

The generator places one prototype per label on a constant-speed circle
arc in feature space. The arc distance between adjacent labels is
inversely proportional to the ambiguity level of the label's stage, so a
highly ambiguous stage has nearly coincident prototypes while a clean
stage spreads them far apart. Samples are prototypes plus isotropic noise.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .core import LabelSupport
from .errors import (
    InvalidLabelError,
    InvalidParameterError,
    ParseError,
    ShapeError,
    StratificationError,
)
from .staging import StagePartition

# Total arc length of the prototype curve; kept below pi so prototype
# cosine similarity decreases monotonically with label distance.
_ARC_SPAN = 0.9 * np.pi


@dataclass(frozen=True, eq=False)
class Sample:
    id: str
    label: int
    features: np.ndarray

    def same_as(self, other: "Sample") -> bool:
        return (self.id == other.id and self.label == other.label
                and np.array_equal(self.features, other.features))


@dataclass
class Dataset:
    samples: list[Sample]
    feature_dim: int
    support: LabelSupport

    def __post_init__(self):
        for s in self.samples:
            if s.features.shape != (self.feature_dim,):
                raise ShapeError(
                    f"sample {s.id} has {s.features.shape[0]} features, "
                    f"expected {self.feature_dim}")
            if not self.support.contains(s.label):
                raise InvalidLabelError(
                    f"sample {s.id} label {s.label} outside support")

    def __len__(self) -> int:
        return len(self.samples)

    def features_matrix(self) -> np.ndarray:
        if not self.samples:
            return np.zeros((0, self.feature_dim))
        return np.stack([s.features for s in self.samples])

    def labels_array(self) -> np.ndarray:
        return np.array([s.label for s in self.samples], dtype=np.int64)

    def ids(self) -> list[str]:
        return [s.id for s in self.samples]

    def same_as(self, other: "Dataset") -> bool:
        return (self.feature_dim == other.feature_dim
                and self.support == other.support
                and len(self) == len(other)
                and all(a.same_as(b) for a, b in zip(self.samples, other.samples)))


@dataclass(frozen=True)
class AmbiguityProfile:
    """Planted per-stage ambiguity for the synthetic generator."""

    levels: tuple[float, ...]
    partition: StagePartition
    feature_dim: int = 16
    noise_scale: float = 0.05

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(float(v) for v in self.levels))
        if len(self.levels) != self.partition.k:
            raise InvalidParameterError(
                f"{len(self.levels)} ambiguity levels for {self.partition.k} stages")
        if any(v <= 0 for v in self.levels):
            raise InvalidParameterError("ambiguity levels must be positive")
        if self.feature_dim < 2:
            raise InvalidParameterError("feature_dim must be at least 2")
        if self.noise_scale < 0:
            raise InvalidParameterError("noise_scale must be >= 0")

    def to_dict(self) -> dict:
        return {"levels": list(self.levels),
                "boundaries": list(self.partition.boundaries),
                "feature_dim": self.feature_dim,
                "noise_scale": self.noise_scale}


def _prototypes(profile: AmbiguityProfile, rng: np.random.Generator) -> np.ndarray:
    support = profile.partition.support
    stages = profile.partition.stages_of(np.arange(support.min_label, support.max_label))
    steps = 1.0 / np.asarray(profile.levels)[stages]
    t = np.concatenate(([0.0], np.cumsum(steps)))
    t = t * (_ARC_SPAN / t[-1])
    basis, _ = np.linalg.qr(rng.standard_normal((profile.feature_dim, 2)))
    e1, e2 = basis[:, 0], basis[:, 1]
    return np.cos(t)[:, None] * e1[None, :] + np.sin(t)[:, None] * e2[None, :]


def synthetic_prototypes(profile: AmbiguityProfile, seed: int) -> np.ndarray:
    """Unit-norm prototype per label, ordered by label.

    Adjacent labels sit 1/level(stage) apart along the curve before the
    whole arc is rescaled to a fixed span, so raising one stage's level
    compresses that stage relative to the others.
    """
    return _prototypes(profile, np.random.default_rng(seed))


def generate_synthetic(profile: AmbiguityProfile, n_per_label: int, seed: int) -> Dataset:
    """Deterministic synthetic dataset: ``n_per_label`` noisy copies of each
    label's prototype. The noise draw order does not depend on the ambiguity
    levels, so level changes under the same seed reuse identical noise."""
    if n_per_label < 1:
        raise InvalidParameterError(f"n_per_label must be >= 1, got {n_per_label}")
    support = profile.partition.support
    rng = np.random.default_rng(seed)
    protos = _prototypes(profile, rng)
    samples = []
    for offset, label in enumerate(range(support.min_label, support.max_label + 1)):
        noise = rng.standard_normal((n_per_label, profile.feature_dim))
        feats = protos[offset][None, :] + profile.noise_scale * noise
        for i in range(n_per_label):
            samples.append(Sample(id=f"syn-{label}-{i}", label=label,
                                  features=feats[i]))
    return Dataset(samples=samples, feature_dim=profile.feature_dim, support=support)


CSV_ID_COLUMN = "id"
CSV_LABEL_COLUMN = "age"


def save_csv(dataset: Dataset, path) -> None:
    """Schema: header ``id,age,f0,...,fD``; floats written with full
    round-trip precision (``repr`` of each Python float)."""
    header = [CSV_ID_COLUMN, CSV_LABEL_COLUMN] + [
        f"f{i}" for i in range(dataset.feature_dim)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(
            [s.id, s.label, *s.features.astype(np.float64, copy=False).tolist()]
            for s in dataset.samples)


def load_csv(path, support: LabelSupport | None = None) -> Dataset:
    support = support or LabelSupport()
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("missing header", line=1) from None
        if (len(header) < 3 or header[0] != CSV_ID_COLUMN
                or header[1] != CSV_LABEL_COLUMN):
            raise ParseError(
                f"header must start with '{CSV_ID_COLUMN},{CSV_LABEL_COLUMN},f0,...', "
                f"got {header[:3]}", line=1)
        feature_dim = len(header) - 2
        samples = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != feature_dim + 2:
                raise ParseError(
                    f"expected {feature_dim + 2} cells, got {len(row)}", line=line_no)
            try:
                label = int(row[1])
            except ValueError:
                raise ParseError(f"age {row[1]!r} is not an integer",
                                 line=line_no) from None
            if not support.contains(label):
                raise InvalidLabelError(
                    f"line {line_no}: label {label} outside support "
                    f"[{support.min_label}, {support.max_label}]")
            try:
                feats = np.array([float(v) for v in row[2:]], dtype=np.float64)
            except ValueError:
                raise ParseError("non-numeric feature cell", line=line_no) from None
            if not np.all(np.isfinite(feats)):
                raise ParseError("non-finite feature cell", line=line_no)
            samples.append(Sample(id=row[0], label=label, features=feats))
    return Dataset(samples=samples, feature_dim=feature_dim, support=support)


def split(dataset: Dataset, fractions: tuple[float, float, float], seed: int
          ) -> tuple[Dataset, Dataset, Dataset]:
    """Label-stratified shuffle split into train/val/test.

    Within each label group the floor allocation is topped up by largest
    fractional remainder (ties favour train, then val); any label with at
    least 3 samples is guaranteed a training sample.
    """
    if len(fractions) != 3:
        raise InvalidParameterError("need exactly three split fractions")
    fr = [float(f) for f in fractions]
    if any(f <= 0 for f in fr):
        raise InvalidParameterError(f"fractions must be strictly positive: {fr}")
    if abs(sum(fr) - 1.0) > 1e-9:
        raise InvalidParameterError(f"fractions must sum to 1: {fr}")
    if len(dataset) == 0:
        raise StratificationError("cannot stratify an empty dataset")

    rng = np.random.default_rng(seed)
    by_label: dict[int, list[int]] = {}
    for i, s in enumerate(dataset.samples):
        by_label.setdefault(s.label, []).append(i)

    parts: tuple[list[int], list[int], list[int]] = ([], [], [])
    for label in sorted(by_label):
        idxs = np.array(by_label[label])
        rng.shuffle(idxs)
        g = len(idxs)
        quotas = [g * f for f in fr]
        counts = [int(np.floor(q)) for q in quotas]
        remainders = [q - c for q, c in zip(quotas, counts)]
        for _ in range(g - sum(counts)):
            j = int(np.argmax(remainders))  # argmax ties resolve to train first
            counts[j] += 1
            remainders[j] = -1.0
        if g >= 3 and counts[0] == 0:
            donor = 1 if counts[1] >= counts[2] and counts[1] > 0 else 2
            counts[donor] -= 1
            counts[0] += 1
        cut1, cut2 = counts[0], counts[0] + counts[1]
        parts[0].extend(idxs[:cut1].tolist())
        parts[1].extend(idxs[cut1:cut2].tolist())
        parts[2].extend(idxs[cut2:].tolist())

    def subset(indices: list[int]) -> Dataset:
        return Dataset(samples=[dataset.samples[i] for i in indices],
                       feature_dim=dataset.feature_dim, support=dataset.support)

    return subset(parts[0]), subset(parts[1]), subset(parts[2])
