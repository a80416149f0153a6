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
import math
from array import array
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .artifacts import write_text
from .core import (LabelSupport, _convert_fields, _count, _each, _exactly, _key, _named, _number,
                   _range, _seed, whole_number)
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
class Dataset:
    """Column store of one split: sample ids, int64 labels and a float64
    ``(n, d)`` feature matrix, row i belonging to ``ids[i]``. The arrays are
    read-only and the dataset's own: ``Dataset(...)`` copies the features
    it is given, while ``generate_synthetic``, ``split`` and ``load_csv``
    hand over the feature matrix they just built, uncopied. The labels are
    always a new array."""

    ids: tuple[str, ...]
    labels: np.ndarray
    features: np.ndarray
    support: LabelSupport

    def __post_init__(self):
        self._hold(self.ids, self.labels, np.array(self.features, dtype=np.float64))

    @classmethod
    def _adopt(cls, ids, labels, features: np.ndarray, support: LabelSupport) -> "Dataset":
        """A dataset that keeps ``features``, a float64 array no one else
        holds, instead of a copy of it."""
        dataset = object.__new__(cls)
        object.__setattr__(dataset, "support", support)
        dataset._hold(ids, labels, features)
        return dataset

    def _hold(self, ids, labels, features: np.ndarray) -> None:
        ids, labels = tuple(ids), np.asarray(labels)
        if labels.shape != (len(ids),) or features.ndim != 2 or len(features) != len(ids):
            raise ShapeError(f"{len(ids)} ids need ({len(ids)},) labels and ({len(ids)}, d) "
                             f"features, got {labels.shape} and {features.shape}")
        labels = self.support.indices_of(labels, ids)  # a new array
        labels += self.support.min_label
        labels.flags.writeable = False
        features.flags.writeable = False
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "features", features)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def features_matrix(self) -> np.ndarray:
        return self.features

    def same_as(self, other: "Dataset") -> bool:
        return (self.support == other.support and self.ids == other.ids
                and np.array_equal(self.labels, other.labels)
                and np.array_equal(self.features, other.features))


@dataclass(frozen=True)
class AmbiguityProfile:
    """Planted per-stage ambiguity for the synthetic generator."""

    levels: tuple[float, ...] = _key(_each(_range(_number, 0, low_open=True)))
    partition: StagePartition = _key(_exactly(StagePartition))
    feature_dim: int = _key(_range(whole_number, 2), 16)
    noise_scale: float = _key(_range(_number, 0), 0.05)

    def __post_init__(self):
        _convert_fields(self)
        if len(self.levels) != self.partition.k:
            raise InvalidParameterError(
                f"{len(self.levels)} ambiguity levels for {self.partition.k} stages")

    def to_dict(self) -> dict:
        return {"levels": list(self.levels),
                "boundaries": list(self.partition.boundaries),
                "feature_dim": self.feature_dim,
                "noise_scale": self.noise_scale}


def _prototypes(profile: AmbiguityProfile, rng: np.random.Generator) -> np.ndarray:
    """Unit-norm prototype per label, ordered by label.

    Adjacent labels sit 1/level(stage) apart along the curve before the
    whole arc is rescaled to a fixed span, so raising one stage's level
    compresses that stage relative to the others.
    """
    # one step from each label to the next: the stages of all labels but the last
    steps = 1.0 / np.asarray(profile.levels)[profile.partition.stage_index[:-1]]
    t = np.concatenate(([0.0], np.cumsum(steps)))
    t = t * (_ARC_SPAN / t[-1])
    basis, _ = np.linalg.qr(rng.standard_normal((profile.feature_dim, 2)))
    e1, e2 = basis[:, 0], basis[:, 1]
    return np.cos(t)[:, None] * e1[None, :] + np.sin(t)[:, None] * e2[None, :]


def generate_synthetic(profile: AmbiguityProfile, n_per_label: int, seed: int) -> Dataset:
    """Deterministic synthetic dataset: ``n_per_label`` noisy copies of each
    label's prototype. The noise draw order does not depend on the ambiguity
    levels, so level changes under the same seed reuse identical noise."""
    n_per_label, seed = _named("n_per_label", _count, n_per_label), _named("seed", _seed, seed)
    support = profile.partition.support
    rng = np.random.default_rng(seed)
    protos = _prototypes(profile, rng)
    # the noise becomes the features in place; scale * noise + proto rounds
    # as proto + scale * noise does
    features = rng.standard_normal((support.size, n_per_label, profile.feature_dim))
    features *= profile.noise_scale
    features += protos[:, None, :]
    labels = np.repeat(support.labels(), n_per_label)
    ids = map("syn-{}-{}".format, labels.tolist(), list(range(n_per_label)) * support.size)
    return Dataset._adopt(tuple(ids), labels, features.reshape(-1, profile.feature_dim),
                          support)


CSV_ID_COLUMN = "id"
CSV_LABEL_COLUMN = "age"


# Rows rendered by one format string: large enough to amortize the format,
# small enough that the text of a chunk stays a few hundred kB.
_CSV_CHUNK_ROWS = 512


def save_csv(dataset: Dataset, path) -> None:
    """Schema: header ``id,age,f0,...,fD``; floats written with full
    round-trip precision (``repr`` of each Python float). The bytes are
    those of ``csv.writer``: the csv module quotes the header and each row's
    id and label, and one ``%r`` format renders a chunk of rows' floats."""
    header = [CSV_ID_COLUMN, CSV_LABEL_COLUMN] + [
        f"f{i}" for i in range(dataset.feature_dim)]
    lines = []  # the lines the writer renders, each ending in "\n"
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n")
    row_format = "%s" + ",%r" * dataset.feature_dim + "\n"

    def chunks():
        writer.writerow(header)
        yield lines.pop()
        for lo in range(0, len(dataset), _CSV_CHUNK_ROWS):
            hi = lo + _CSV_CHUNK_ROWS
            writer.writerows(zip(dataset.ids[lo:hi], dataset.labels[lo:hi].tolist()))
            rows = dataset.features[lo:hi].tolist()
            cells = [cell for lead, floats in zip(lines, rows) for cell in (lead[:-1], *floats)]
            lines.clear()
            yield (row_format * len(rows)) % tuple(cells)
    write_text(path, chunks())


def load_csv(path, support: LabelSupport | None = None) -> Dataset:
    """The dataset in ``path``. The first bad line in file order is a
    ParseError, or an InvalidLabelError for a label outside ``support``;
    either names ``path`` and the line."""
    support = support or LabelSupport()
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("missing header", 1, path) from None
        if (len(header) < 3 or header[0] != CSV_ID_COLUMN
                or header[1] != CSV_LABEL_COLUMN):
            raise ParseError(
                f"header must start with '{CSV_ID_COLUMN},{CSV_LABEL_COLUMN},f0,...', "
                f"got {header[:3]}", 1, path)
        feature_dim = len(header) - 2
        ids, labels, line_nos = [], array("q"), array("q")
        cells = array("d")  # every feature cell, row after row
        error = None
        for row in reader:
            line_no = reader.line_num  # the row's last physical line
            if not row:
                continue
            if len(row) != feature_dim + 2:
                error = ParseError(
                    f"expected {feature_dim + 2} cells, got {len(row)}", line_no, path)
                break
            try:
                label = int(row[1])
            except ValueError:
                error = ParseError(f"age {row[1]!r} is not an integer", line_no, path)
                break
            if not support.contains(label):
                error = InvalidLabelError(
                    f"{path}: line {line_no}: label {label} outside support "
                    f"[{support.min_label}, {support.max_label}]")
                break
            try:
                cells.extend(map(float, row[2:]))
            except ValueError:
                error = ParseError("non-numeric feature cell", line_no, path)
                break
            ids.append(row[0])
            labels.append(label)
            line_nos.append(line_no)
    # whole rows only: a failing row may have added some of its cells. A
    # non-finite cell before the failing row is the first bad line.
    features = np.frombuffer(cells, count=len(ids) * feature_dim).reshape(-1, feature_dim)
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        raise ParseError("non-finite feature cell", line_nos[np.argmin(finite)], path)
    if error is not None:
        raise error
    return Dataset._adopt(ids, np.frombuffer(labels, dtype=np.int64), features, support)


def check_fractions(fractions) -> tuple[float, float, float]:
    """``fractions`` as three finite, strictly positive floats summing to 1."""
    fr = _named("fractions", _each(_range(_number, 0, low_open=True)), fractions)
    if len(fr) != 3:
        raise InvalidParameterError("need exactly three split fractions")
    if abs(sum(fr) - 1.0) > 1e-9:
        raise InvalidParameterError(f"fractions must sum to 1: {fr}")
    return fr


def split_counts(group_size: int, fractions) -> tuple[int, int, int]:
    """How many of one label's ``group_size`` samples go to train, val and
    test.

    Each part gets the floor of its quota ``group_size * fraction``; the
    samples left over go one each to the parts with the largest fractional
    remainder (ties favour train, then val). A label with at least 3
    samples gets a training sample, taken from val when val is not empty
    and holds at least as many as test, else from test.
    """
    group_size = _named("group_size", _count, group_size)
    quotas = [group_size * f for f in check_fractions(fractions)]
    counts = [math.floor(q) for q in quotas]
    remainders = [q - c for q, c in zip(quotas, counts)]
    for _ in range(group_size - sum(counts)):
        j = remainders.index(max(remainders))  # the first of equal remainders
        counts[j] += 1
        remainders[j] = -1.0
    if group_size >= 3 and counts[0] == 0:
        donor = 1 if counts[1] >= counts[2] and counts[1] > 0 else 2
        counts[donor] -= 1
        counts[0] += 1
    return counts[0], counts[1], counts[2]


def split(dataset: Dataset, fractions: tuple[float, float, float], seed: int
          ) -> tuple[Dataset, Dataset, Dataset]:
    """Label-stratified shuffle split into train/val/test.

    Each label's samples are shuffled, in label order, and allocated by
    ``split_counts``: the first of the shuffled samples go to train, the
    next to val, the rest to test. Each part lists its labels in
    ascending order, each label's samples in their shuffled order. A part
    may come out empty.
    """
    fr, seed = check_fractions(fractions), _named("seed", _seed, seed)
    if len(dataset) == 0:
        raise StratificationError("cannot stratify an empty dataset")

    # one stable sort groups the rows by label, each group in row order
    order = np.argsort(dataset.labels, kind="stable")
    grouped = dataset.labels[order]
    starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
    sizes = np.diff(np.r_[starts, len(order)])
    # one label's run at a time, in label order: the order of the draws is
    # part of what a seed's split is, and tests/test_data.py pins it
    rng = np.random.default_rng(seed)
    for lo, hi in zip(starts.tolist(), (starts + sizes).tolist()):
        rng.shuffle(order[lo:hi])
    distinct, group_kind = np.unique(sizes, return_inverse=True)
    cuts = np.cumsum([split_counts(g, fr)[:2] for g in distinct.tolist()], axis=1)
    rank = np.arange(len(order)) - np.repeat(starts, sizes)  # place within its group
    # 0 train, 1 val, 2 test
    part = (rank[:, None] >= np.repeat(cuts[group_kind], sizes, axis=0)).sum(axis=1)

    ids = np.array(dataset.ids, dtype=object)

    def subset(idx: np.ndarray) -> Dataset:
        return Dataset._adopt(ids[idx], dataset.labels[idx], dataset.features[idx],
                              dataset.support)

    return tuple(subset(order[part == p]) for p in range(3))
