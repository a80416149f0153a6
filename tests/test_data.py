"""Dataset tests: generator geometry, CSV round trips, and split properties."""

import csv
import hashlib
import io
import math
import re
import sys
import tempfile
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from saldl.core import LabelSupport
from saldl.data import (
    AmbiguityProfile,
    Dataset,
    _prototypes,
    generate_synthetic,
    load_csv,
    save_csv,
    split,
    split_counts,
)
from saldl.errors import (
    EmptyInputError,
    InvalidLabelError,
    InvalidParameterError,
    ParseError,
    ShapeError,
    StratificationError,
)
from saldl.staging import StagePartition

SUP = LabelSupport()
PART = StagePartition(boundaries=(0, 50), support=SUP, provenance="manual")


def profile(levels=(8.0, 1.0), dim=8, noise=0.05):
    return AmbiguityProfile(levels=levels, partition=PART, feature_dim=dim,
                            noise_scale=noise)


def prototypes(profile, seed):
    """Each label's prototype: the one noiseless sample per label."""
    return generate_synthetic(replace(profile, noise_scale=0.0), 1, seed).features


def adjacent_cos(protos, start, end):
    """Mean cosine similarity of adjacent-label prototype pairs in [start, end]."""
    sims = []
    for lab in range(start, end):
        a, b = protos[lab], protos[lab + 1]
        sims.append(float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b))))
    return float(np.mean(sims))


class TestDatasetColumns:
    def test_lengths_must_agree(self):
        with pytest.raises(ShapeError):
            Dataset(ids=("a", "b"), labels=[1], features=np.zeros((1, 2)), support=SUP)
        with pytest.raises(ShapeError):
            Dataset(ids=("a",), labels=[1, 2], features=np.zeros((1, 2)), support=SUP)
        with pytest.raises(ShapeError):
            Dataset(ids=("a",), labels=[1], features=np.zeros((2, 2)), support=SUP)

    def test_features_must_be_a_matrix(self):
        with pytest.raises(ShapeError):
            Dataset(ids=("a", "b"), labels=[1, 2], features=np.zeros(2), support=SUP)
        with pytest.raises(ShapeError):
            Dataset(ids=("a",), labels=[1], features=np.zeros((1, 2, 2)), support=SUP)

    def test_label_outside_support_names_sample(self):
        with pytest.raises(InvalidLabelError, match="sample b label 101"):
            Dataset(ids=("a", "b"), labels=[100, 101], features=np.zeros((2, 2)),
                    support=SUP)

    # an int64 cast would accept 3.7 as 3 and turn nan into the label -2**63
    @pytest.mark.parametrize("bad, why", [
        (3.7, "is not a whole number"),
        (np.nan, "is not a whole number"),
        pytest.param(np.inf, "outside support [0, 100]", id="inf-outside support")])
    def test_label_that_is_not_a_finite_whole_number_names_sample(self, bad, why):
        with pytest.raises(InvalidLabelError, match=f"^sample b label {bad} {re.escape(why)}$"):
            Dataset(ids=("a", "b"), labels=[3.0, bad], features=np.zeros((2, 2)),
                    support=SUP)

    # every way a label enters ends in LabelSupport.indices_of, so each gives
    # one verdict: the same error text, after the sample or the file and line
    @pytest.mark.parametrize("label, why", [
        (3.7, "is not a whole number"),
        (math.nan, "is not a whole number"),
        (math.inf, "outside support [0, 100]"),
        (-math.inf, "outside support [0, 100]"),
        (SUP.min_label - 1, "outside support [0, 100]"),
        (SUP.max_label + 1, "outside support [0, 100]"),
        (7.0, None)])
    def test_every_entry_gives_the_label_one_verdict(self, tmp_path, label, why):
        path = tmp_path / "one.csv"
        # each entry returns the labels it accepted
        entries = {"": lambda: SUP.min_label + SUP.indices_of([label]),
                   "sample s1 ": lambda: Dataset(ids=("s1",), labels=[label],
                                                 features=np.zeros((1, 2)), support=SUP).labels}
        if isinstance(label, int):  # a CSV age is an integer
            path.write_text(f"id,age,f0\ns1,{label},0.5\n")
            entries[f"{path}: line 2: "] = lambda: load_csv(path, SUP).labels
        for named, enter in entries.items():
            if why is None:
                assert enter().tolist() == [7]
                continue
            with pytest.raises(InvalidLabelError) as exc_info:
                enter()
            assert str(exc_info.value) == f"{named}label {label} {why}"

    def test_whole_float_labels_accepted(self):
        ds = Dataset(ids=("a", "b"), labels=[3.0, 10.0], features=np.zeros((2, 2)),
                     support=SUP)
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [3, 10]

    def test_columns_read_only_and_not_copied(self):
        features = np.ones((2, 3))
        ds = Dataset(ids=("a", "b"), labels=[1, 2], features=features, support=SUP)
        assert ds.labels.dtype == np.int64 and ds.features.dtype == np.float64
        features[0, 0] = 5.0  # the dataset holds its own copy
        assert ds.features[0, 0] == 1.0
        for column in (ds.labels, ds.features):
            with pytest.raises(ValueError):
                column[0] = 0
        assert ds.features_matrix() is ds.features

    def test_empty_split_keeps_width(self):
        ds = Dataset(ids=(), labels=[], features=np.zeros((0, 4)), support=SUP)
        assert len(ds) == 0 and ds.feature_dim == 4

    def test_split_csv_bytes_pinned(self, tmp_path):
        # recorded with the per-sample implementation this column store replaced
        golden = {
            "train": "6984a2e9f510bfd271ca0de771d7313934db4354499052649a01e59f03feac0a",
            "val": "5df8ecc6fad29574f682b6c7b6cb9c93d9c8560fd30553037dd206ed03cdfa55",
            "test": "77e9a20a29e8c473bb6a816099020eebcc1fa3fb49a3658d01befb8f989945f0",
        }
        parts = split(generate_synthetic(profile(), 3, seed=11), (0.7, 0.15, 0.15), seed=11)
        for name, ds in zip(golden, parts):
            path = tmp_path / f"{name}.csv"
            save_csv(ds, path)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == golden[name]


def traced_peak(make):
    """``make()`` and the traced peak memory of the call."""
    tracemalloc.start()
    try:
        made = make()
        return made, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def ids_size(*datasets):
    return sum(sys.getsizeof(ds.ids) + sum(map(sys.getsizeof, ds.ids)) for ds in datasets)


class TestDataPathMemory:
    """Each producer builds the feature matrix once and hands it to its
    dataset uncopied. The bound: one feature matrix (2.1 MB at 4 040 rows of
    64 features), the ids, and SLACK for the temporaries of a few columns
    and of the parse. Before, ``generate_synthetic`` peaked 3 feature
    matrices above the ids, ``load_csv`` 2 and ``split`` 1.4."""

    SLACK = 640 * 1024

    @pytest.fixture(scope="class")
    def dataset(self):
        generate_synthetic(profile(dim=64), 1, 0)  # the first call imports what it uses
        return generate_synthetic(profile(dim=64), 40, 0)

    def test_generate_holds_one_feature_matrix(self, dataset):
        ds, peak = traced_peak(lambda: generate_synthetic(profile(dim=64), 40, 0))
        assert ds.same_as(dataset)
        assert peak <= ds.features.nbytes + ids_size(ds) + self.SLACK

    def test_split_holds_one_feature_matrix(self, dataset):
        parts, peak = traced_peak(lambda: split(dataset, (0.7, 0.15, 0.15), 0))
        assert peak <= dataset.features.nbytes + ids_size(*parts) + self.SLACK

    def test_load_holds_one_feature_matrix(self, dataset, tmp_path):
        save_csv(dataset, tmp_path / "all.csv")
        ds, peak = traced_peak(lambda: load_csv(tmp_path / "all.csv", SUP))
        assert ds.same_as(dataset)
        assert peak <= ds.features.nbytes + ids_size(ds) + self.SLACK

    def test_adopted_columns_are_read_only_and_splits_own_theirs(self, dataset, tmp_path):
        save_csv(dataset, tmp_path / "all.csv")
        parts = split(dataset, (0.7, 0.15, 0.15), 0)
        for ds in (dataset, load_csv(tmp_path / "all.csv", SUP), *parts):
            for column in (ds.labels, ds.features):
                with pytest.raises(ValueError):
                    column[0] = 0
        for part in parts:
            for column in ("labels", "features"):
                assert not np.shares_memory(getattr(part, column), getattr(dataset, column))


class TestSyntheticGenerator:
    def test_same_seed_identical(self):
        a = generate_synthetic(profile(), 3, seed=7)
        b = generate_synthetic(profile(), 3, seed=7)
        assert a.same_as(b)

    def test_different_seed_differs(self):
        a = generate_synthetic(profile(), 3, seed=7)
        b = generate_synthetic(profile(), 3, seed=8)
        assert not a.same_as(b)

    def test_shape_and_labels(self):
        ds = generate_synthetic(profile(), 3, seed=0)
        assert len(ds) == 101 * 3
        assert ds.feature_dim == 8
        assert sorted(set(ds.labels.tolist())) == list(range(101))

    def test_prototypes_unit_norm(self):
        protos = prototypes(profile(), seed=0)
        np.testing.assert_allclose(np.linalg.norm(protos, axis=1), 1.0, atol=1e-12)

    def test_extreme_ambiguity_collapses_prototypes(self):
        protos = prototypes(profile(levels=(500.0, 1.0)), seed=0)
        sims = []
        for i in range(0, 50):
            for j in range(i + 1, 51):
                sims.append(protos[i] @ protos[j])
        assert np.mean(sims) > 0.99

    def test_high_ambiguity_stage_flatter_similarity(self):
        protos = prototypes(profile(levels=(10.0, 0.5)), seed=3)
        high = adjacent_cos(protos, 0, 49)
        low = adjacent_cos(protos, 51, 100)
        assert high > low

    @given(bump=st.floats(1.0, 50.0))
    @settings(max_examples=20, deadline=None)
    def test_raising_level_does_not_decrease_within_stage_similarity(self, bump):
        base = profile(levels=(4.0, 1.0))
        raised = profile(levels=(4.0 + bump, 1.0))
        protos_a = prototypes(base, seed=5)
        protos_b = prototypes(raised, seed=5)
        assert (adjacent_cos(protos_b, 0, 49)
                >= adjacent_cos(protos_a, 0, 49) - 1e-12)

    def test_rows_equal_one_noise_draw_per_label(self):
        rng = np.random.default_rng(4)
        protos = _prototypes(profile(), rng)
        want = np.concatenate([protos[i] + 0.05 * rng.standard_normal((3, 8))
                               for i in range(SUP.size)])
        np.testing.assert_array_equal(generate_synthetic(profile(), 3, seed=4).features, want)

    def test_noise_scale_zero_gives_exact_prototypes(self):
        for levels in ((8.0, 1.0), (500.0, 1.0), (10.0, 0.5)):
            ds = generate_synthetic(profile(levels, noise=0.0), 2, seed=1)
            protos = _prototypes(profile(levels), np.random.default_rng(1))
            for features, label in zip(ds.features, ds.labels):
                np.testing.assert_array_equal(features, protos[label])
            np.testing.assert_array_equal(prototypes(profile(levels), seed=1), protos)

    def test_invalid_profile_rejected(self):
        with pytest.raises(InvalidParameterError):
            AmbiguityProfile(levels=(1.0,), partition=PART, feature_dim=8)
        with pytest.raises(InvalidParameterError):
            AmbiguityProfile(levels=(0.0, 1.0), partition=PART, feature_dim=8)
        with pytest.raises(InvalidParameterError):
            AmbiguityProfile(levels=(1.0, 1.0), partition=PART, feature_dim=1)
        for levels in ((math.nan, 1.0), (math.inf, 1.0)):  # nan passed v <= 0
            with pytest.raises(InvalidParameterError, match="levels"):
                AmbiguityProfile(levels=levels, partition=PART, feature_dim=8)
        for noise in (math.nan, math.inf, -1.0):
            with pytest.raises(InvalidParameterError, match="noise_scale"):
                AmbiguityProfile(levels=(1.0, 1.0), partition=PART, noise_scale=noise)
        with pytest.raises(InvalidParameterError):
            generate_synthetic(profile(), 0, seed=0)


class TestCsvRoundTrip:
    def test_three_sample_round_trip(self, tmp_path):
        ds = Dataset(ids=("a", "b", "c"), labels=[3, 100, 0],
                     features=[[0.1, -2.5], [1e-17, 3.00000001], [-0.0, 12345.678]],
                     support=SUP)
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        again = load_csv(path, SUP)
        assert again.same_as(ds)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              width=64), min_size=2, max_size=6))
    @settings(max_examples=30)
    def test_float_precision_preserved(self, values):
        ds = Dataset(ids=("x",), labels=[5], features=[values], support=SUP)
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/one.csv"
            save_csv(ds, path)
            again = load_csv(path, SUP)
        np.testing.assert_array_equal(again.features[0], ds.features[0])

    @given(st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                             min_size=3, max_size=3), max_size=5))
    @example([[-0.0, 5e-324, 2.2250738585072014e-308], [1e300, -1e-300, -1e300]])
    @settings(max_examples=50)
    def test_bytes_match_per_cell_repr(self, rows):
        """The CSV bytes are those of formatting each cell as ``repr(float(v))``."""
        ds = Dataset(ids=tuple(f"s{i}" for i in range(len(rows))),
                     labels=range(len(rows)), features=np.reshape(rows, (-1, 3)),
                     support=SUP)
        want = io.StringIO(newline="")
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(["id", "age", "f0", "f1", "f2"])
        for id_, label, features in zip(ds.ids, ds.labels, ds.features):
            writer.writerow([id_, label] + [repr(float(v)) for v in features])
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/rows.csv"
            save_csv(ds, path)
            with open(path, encoding="utf-8", newline="") as fh:
                assert fh.read() == want.getvalue()

    @given(st.lists(st.lists(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.floats(allow_nan=False, allow_infinity=False).map("{:.17g}".format),
        st.floats(allow_nan=False, allow_infinity=False).map("{:.16e}".format),
        st.sampled_from(["-0.0", "0", "5e-324", "-2.2250738585072014e-308", "1e300",
                         "-1e-300", "1e-300", "1.7976931348623157e308", "0.1",
                         " 2.5", "2.5 ", "1_0", "+3", ".5", "1E5", "-0"])),
        min_size=3, max_size=3), min_size=1, max_size=6))
    @example([["-0.0", "5e-324", "1e300"], ["-1e-300", " 2.5", "1_0"]])
    @settings(max_examples=100)
    def test_cells_parse_like_python_float(self, rows):
        """Each cell parses bit for bit to what Python's ``float`` gives it."""
        text = "id,age,f0,f1,f2\n" + "".join(f"s{i},{i}," + ",".join(cells) + "\n"
                                             for i, cells in enumerate(rows))
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/cells.csv"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            ds = load_csv(path, SUP)
        want = np.array([[float(c) for c in cells] for cells in rows])
        assert ds.features.tobytes() == want.tobytes()

    @pytest.mark.parametrize("cell", ["oops", "nan", "inf"])
    @pytest.mark.parametrize("later", ["row3,500,0.5", "row3,5.5,0.5", "row3,5",
                                       "row3,5,bad"])
    def test_first_bad_line_in_file_order_wins(self, tmp_path, cell, later):
        path = tmp_path / "bad.csv"
        path.write_text(f"id,age,f0\nrow1,5,0.25\nrow2,6,{cell}\nrow2b,7,1.0\n{later}\n")
        with pytest.raises(ParseError) as exc_info:
            load_csv(path, SUP)
        assert exc_info.value.line == 3

    @pytest.mark.parametrize("cell, message", [("oops", "non-numeric"),
                                               ("-inf", "non-finite")])
    def test_blank_lines_keep_line_numbers(self, tmp_path, cell, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"id,age,f0\nrow1,5,0.25\n\n\nrow2,6,0.5\n\nrow3,7,{cell}\n")
        with pytest.raises(ParseError, match=message) as exc_info:
            load_csv(path, SUP)
        assert exc_info.value.line == 7

    @pytest.mark.parametrize("cell, message", [("oops", "non-numeric"),
                                               ("nan", "non-finite")])
    def test_quoted_newline_keeps_line_numbers(self, tmp_path, cell, message):
        # the id cell "a\nb" spans lines 2-3, so the next row is line 4
        path = tmp_path / "bad.csv"
        path.write_text(f'id,age,f0\n"a\nb",5,0.25\nrow2,6,{cell}\n')
        with pytest.raises(ParseError, match=message) as exc_info:
            load_csv(path, SUP)
        assert exc_info.value.line == 4

    def test_header_only_loads_empty_then_training_fails(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("id,age,f0,f1\n")
        ds = load_csv(path, SUP)
        assert len(ds) == 0
        with pytest.raises(StratificationError):
            split(ds, (0.7, 0.15, 0.15), seed=0)

    def test_non_numeric_feature_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,age,f0\nrow1,5,0.25\nrow2,6,oops\n")
        with pytest.raises(ParseError) as exc_info:
            load_csv(path, SUP)
        assert exc_info.value.line == 3

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_feature_names_line(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"id,age,f0\nrow1,5,0.25\nrow2,6,{cell}\n")
        with pytest.raises(ParseError) as exc_info:
            load_csv(path, SUP)
        assert exc_info.value.line == 3

    def test_non_integer_age_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,age,f0\nrow1,5.5,0.25\n")
        with pytest.raises(ParseError) as exc_info:
            load_csv(path, SUP)
        assert exc_info.value.line == 2
        assert str(exc_info.value) == f"{path}: line 2: age '5.5' is not an integer"

    def test_label_out_of_support_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,age,f0\nrow1,500,0.25\n")
        with pytest.raises(InvalidLabelError) as exc_info:
            load_csv(path, SUP)
        assert str(exc_info.value) == f"{path}: line 2: label 500 outside support [0, 100]"

    def test_jagged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,age,f0,f1\nrow1,5,0.25\n")
        with pytest.raises(ParseError):
            load_csv(path, SUP)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("name,years,x\nrow1,5,0.25\n")
        with pytest.raises(ParseError):
            load_csv(path, SUP)


def uniform_dataset(n_labels=10, per_label=10, dim=3):
    labels = np.repeat(np.arange(n_labels), per_label)
    ids = tuple(f"{lab}-{i}" for lab in range(n_labels) for i in range(per_label))
    features = np.repeat(labels[:, None].astype(float), dim, axis=1)
    return Dataset(ids=ids, labels=labels, features=features, support=SUP)


class TestSplit:
    def test_exact_sizes_on_balanced_data(self):
        ds = uniform_dataset()
        tr, va, te = split(ds, (0.8, 0.1, 0.1), seed=0)
        assert (len(tr), len(va), len(te)) == (80, 10, 10)

    def test_degenerate_fractions_rejected(self):
        ds = uniform_dataset()
        with pytest.raises(InvalidParameterError):
            split(ds, (1.0, 0.0, 0.0), seed=0)
        with pytest.raises(InvalidParameterError):
            split(ds, (0.5, 0.2, 0.2), seed=0)

    def test_disjoint_and_exhaustive(self):
        ds = uniform_dataset()
        tr, va, te = split(ds, (0.6, 0.2, 0.2), seed=1)
        ids = [set(s.ids) for s in (tr, va, te)]
        assert not (ids[0] & ids[1]) and not (ids[0] & ids[2]) and not (ids[1] & ids[2])
        assert ids[0] | ids[1] | ids[2] == set(ds.ids)

    def test_same_seed_identical(self):
        ds = uniform_dataset()
        a = split(ds, (0.6, 0.2, 0.2), seed=5)
        b = split(ds, (0.6, 0.2, 0.2), seed=5)
        for x, y in zip(a, b):
            assert x.same_as(y)

    def test_different_seed_differs(self):
        ds = uniform_dataset()
        a = split(ds, (0.6, 0.2, 0.2), seed=5)
        b = split(ds, (0.6, 0.2, 0.2), seed=6)
        assert any(not x.same_as(y) for x, y in zip(a, b))

    @given(counts=st.lists(st.integers(1, 12), min_size=1, max_size=8),
           seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_labels_with_three_or_more_samples_reach_train(self, counts, seed):
        labels = np.repeat(np.arange(len(counts)), counts)
        ids = tuple(f"{lab}-{i}" for lab, c in enumerate(counts) for i in range(c))
        ds = Dataset(ids=ids, labels=labels, features=np.zeros((len(ids), 2)),
                     support=SUP)
        tr, va, te = split(ds, (0.5, 0.25, 0.25), seed=seed)
        train_labels = set(tr.labels.tolist())
        for lab, c in enumerate(counts):
            if c >= 3:
                assert lab in train_labels
        assert len(tr) + len(va) + len(te) == len(ds)

    def test_empty_dataset_rejected(self):
        empty = Dataset(ids=(), labels=[], features=np.zeros((0, 2)), support=SUP)
        with pytest.raises(StratificationError):
            split(empty, (0.7, 0.15, 0.15), seed=0)


def reference_split(dataset, fractions, seed):
    """The per-label loop that ``split`` replaced: one scan of every label
    per distinct label, the allocation inline, then ``np.split``."""
    fr = [float(f) for f in fractions]
    rng = np.random.default_rng(seed)
    parts = ([], [], [])
    for label in np.unique(dataset.labels):
        idxs = np.flatnonzero(dataset.labels == label)
        rng.shuffle(idxs)
        g = len(idxs)
        quotas = [g * f for f in fr]
        counts = [int(np.floor(q)) for q in quotas]
        remainders = [q - c for q, c in zip(quotas, counts)]
        for _ in range(g - sum(counts)):
            j = int(np.argmax(remainders))
            counts[j] += 1
            remainders[j] = -1.0
        if g >= 3 and counts[0] == 0:
            donor = 1 if counts[1] >= counts[2] and counts[1] > 0 else 2
            counts[donor] -= 1
            counts[0] += 1
        for part, piece in zip(parts, np.split(idxs, np.cumsum(counts[:2]))):
            part.append(piece)
    ids = np.array(dataset.ids, dtype=object)
    return [(tuple(ids[idx]), dataset.labels[idx], dataset.features[idx])
            for idx in map(np.concatenate, parts)]


FRACTION_TRIPLES = [(0.7, 0.15, 0.15), (0.5, 0.25, 0.25), (0.8, 0.1, 0.1),
                    (0.05, 0.05, 0.9), (1 / 3, 1 / 3, 1 / 3), (0.6, 0.3, 0.1)]


@st.composite
def weights_as_fractions(draw):
    weights = draw(st.tuples(*[st.integers(1, 20)] * 3))
    return tuple(w / sum(weights) for w in weights)


class TestSplitMatchesReference:
    @given(groups=st.dictionaries(st.integers(0, 100), st.integers(1, 12),
                                  min_size=1, max_size=30),
           fractions=st.one_of(st.sampled_from(FRACTION_TRIPLES), weights_as_fractions()),
           row_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    @example(groups={0: 3, 7: 1, 100: 12}, fractions=(0.7, 0.15, 0.15), row_seed=0, seed=11)
    @example(groups={5: 3, 6: 4}, fractions=(0.05, 0.05, 0.9), row_seed=1, seed=2)
    def test_same_ids_labels_and_feature_bytes(self, groups, fractions, row_seed, seed):
        # labels with gaps, rows out of label order
        labels = np.repeat(list(groups), list(groups.values()))
        rows = np.random.default_rng(row_seed)
        labels = labels[rows.permutation(len(labels))]
        ds = Dataset(ids=tuple(f"r{i}" for i in range(len(labels))), labels=labels,
                     features=rows.standard_normal((len(labels), 3)), support=SUP)
        for got, (ids, labs, feats) in zip(split(ds, fractions, seed),
                                          reference_split(ds, fractions, seed)):
            assert got.ids == ids
            assert got.labels.tolist() == labs.tolist()
            assert got.features.tobytes() == feats.tobytes()


class TestSplitCounts:
    @pytest.mark.parametrize("group_size, counts", [
        (1, (1, 0, 0)), (2, (2, 0, 0)), (3, (2, 1, 0)), (4, (3, 1, 0)),
        (5, (3, 1, 1)), (8, (6, 1, 1)), (12, (8, 2, 2)), (20, (14, 3, 3))])
    def test_counts_at_default_fractions(self, group_size, counts):
        assert split_counts(group_size, (0.7, 0.15, 0.15)) == counts

    def test_ties_favour_train_then_val(self):
        assert split_counts(1, (1 / 3, 1 / 3, 1 / 3)) == (1, 0, 0)
        assert split_counts(2, (1 / 3, 1 / 3, 1 / 3)) == (1, 1, 0)

    def test_three_samples_reach_train_taken_from_val_then_test(self):
        # before the rule: (0, 0, 3), (0, 2, 2) and (0, 1, 2)
        assert split_counts(3, (0.05, 0.05, 0.9)) == (1, 0, 2)  # val empty: test gives
        assert split_counts(4, (0.05, 0.475, 0.475)) == (1, 1, 2)  # as many: val gives
        assert split_counts(3, (0.1, 0.3, 0.6)) == (1, 1, 1)  # test holds more: test gives

    @given(group_size=st.integers(1, 500),
           fractions=st.one_of(st.sampled_from(FRACTION_TRIPLES), weights_as_fractions()))
    @settings(max_examples=100, deadline=None)
    def test_counts_cover_the_group_within_one_of_each_quota(self, group_size, fractions):
        counts = split_counts(group_size, fractions)
        assert sum(counts) == group_size and min(counts) >= 0
        assert group_size < 3 or counts[0] >= 1
        for count, f in zip(counts[1:], fractions[1:]):  # train may gain a donor's sample
            assert abs(count - group_size * f) < 2

    @pytest.mark.parametrize("group_size", [0, -3])
    def test_empty_group_rejected(self, group_size):
        with pytest.raises(InvalidParameterError, match="^group_size: "):
            split_counts(group_size, (0.7, 0.15, 0.15))

    @pytest.mark.parametrize("fractions", [(math.nan, 0.5, 0.5), (0.5, math.nan, 0.5),
                                           (math.inf, 0.5, 0.5), (0.5, 0.5, 0.5),
                                           (1.0, 0.0, 0.0), (0.7, 0.3)])
    def test_bad_fractions_rejected_by_split_and_counts(self, fractions):
        with pytest.raises(InvalidParameterError, match="fractions"):
            split_counts(4, fractions)
        with pytest.raises(InvalidParameterError, match="fractions"):
            split(uniform_dataset(), fractions, seed=0)
