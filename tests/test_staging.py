"""Stage partition tests; the k-means oracle is exhaustive enumeration of
contiguous splits (optimal 1-D clusters are contiguous in sorted order)."""

import json
import tempfile
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from saldl.core import LabelSupport
from saldl.errors import EmptyInputError, InvalidLabelError, InvalidParameterError, ParseError
from saldl.staging import (
    StagePartition,
    decade_partition,
    kmeans_1d,
    load_partition,
    save_partition,
)

SUP = LabelSupport()


def stage_ranges(p):
    """Inclusive (start, end) label range per stage, read off the boundaries."""
    ends = (*p.boundaries[1:], p.support.max_label + 1)
    return [(start, end - 1) for start, end in zip(p.boundaries, ends)]


def brute_force_cost(labels, k):
    """Minimum within-cluster SSE over every contiguous split of the sorted
    distinct values."""
    values = sorted(set(labels))

    def sse(cluster_values):
        xs = [x for x in labels if x in cluster_values]
        mu = sum(xs) / len(xs)
        return sum((x - mu) ** 2 for x in xs)

    best = None
    for cuts in combinations(range(1, len(values)), k - 1):
        edges = [0, *cuts, len(values)]
        cost = sum(sse(set(values[edges[i]:edges[i + 1]])) for i in range(k))
        if best is None or cost < best:
            best = cost
    return best


def triple_loop_boundaries(labels, k, support):
    """Stage boundaries from the scalar dynamic program kmeans_1d once ran:
    a Python scan over every split point, keeping the earliest on ties."""
    values, counts = np.unique(np.asarray(labels, dtype=np.int64), return_counts=True)
    m = len(values)
    v = values.astype(np.float64)
    c = counts.astype(np.float64)
    cw = np.concatenate(([0.0], np.cumsum(c)))
    cv = np.concatenate(([0.0], np.cumsum(c * v)))
    cv2 = np.concatenate(([0.0], np.cumsum(c * v * v)))

    def cost(i, j):
        n = cw[j + 1] - cw[i]
        s = cv[j + 1] - cv[i]
        s2 = cv2[j + 1] - cv2[i]
        return s2 - s * s / n

    inf = float("inf")
    dp = np.full((k + 1, m), inf)
    back = np.zeros((k + 1, m), dtype=np.int64)
    for j in range(m):
        dp[1, j] = cost(0, j)
    for kk in range(2, k + 1):
        for j in range(kk - 1, m):
            best, best_i = inf, kk - 1
            for i in range(kk - 1, j + 1):
                val = dp[kk - 1, i - 1] + cost(i, j)
                if val < best:
                    best, best_i = val, i
            dp[kk, j] = best
            back[kk, j] = best_i

    starts = []
    j = m - 1
    for kk in range(k, 0, -1):
        i = int(back[kk, j]) if kk > 1 else 0
        starts.append(i)
        j = i - 1
    starts.reverse()
    return (support.min_label, *((int(values[starts[t] - 1]) + int(values[starts[t]])) // 2 + 1
                                 for t in range(1, k)))


# label multisets with many equal-cost splits: evenly spaced values, each
# repeated equally often
_EVEN_LABELS = st.builds(lambda start, step, n, reps: [start + step * i for i in range(n)
                                                       for _ in range(reps)],
                         st.integers(0, 10), st.integers(1, 10), st.integers(1, 10),
                         st.integers(1, 3))


def partition_cost(partition, labels):
    groups = {}
    for x in labels:
        groups.setdefault(partition.stage_of(x), []).append(x)
    total = 0.0
    for xs in groups.values():
        mu = sum(xs) / len(xs)
        total += sum((x - mu) ** 2 for x in xs)
    return total


class TestKmeans1d:
    def test_two_cluster_example(self):
        p = kmeans_1d([1, 2, 9, 10], 2, SUP)
        assert p.stage_of(1) == p.stage_of(2) == 0
        assert p.stage_of(9) == p.stage_of(10) == 1
        assert partition_cost(p, [1, 2, 9, 10]) == pytest.approx(
            brute_force_cost([1, 2, 9, 10], 2))

    def test_k_equals_distinct_count_zero_cost(self):
        labels = [3, 8, 8, 15, 42]
        p = kmeans_1d(labels, 4, SUP)
        assert p.k == 4
        assert partition_cost(p, labels) == pytest.approx(0.0)

    def test_uniform_ten_equal_stages(self):
        labels = list(range(100))
        p = kmeans_1d(labels, 10, LabelSupport(0, 99))
        assert p.boundaries == tuple(range(0, 100, 10))

    def test_gap_labels_attach_to_nearest_stage(self):
        p = kmeans_1d([0, 10], 2, SUP)
        # midpoint 5 ties to the lower stage
        assert p.stage_of(5) == 0
        assert p.stage_of(6) == 1

    def test_errors(self):
        with pytest.raises(InvalidParameterError):
            kmeans_1d([1, 2, 3], 4, SUP)
        with pytest.raises(EmptyInputError):
            kmeans_1d([], 1, SUP)
        with pytest.raises(InvalidLabelError):
            kmeans_1d([1, 200], 1, SUP)

    @pytest.mark.parametrize("bad", [3.7, np.nan])
    def test_label_that_is_not_a_whole_number_rejected(self, bad):
        # an int64 cast would cluster 3.7 as 3, and nan as some label
        with pytest.raises(InvalidLabelError, match="is not a whole number"):
            kmeans_1d([bad, 3.2, 50.9, 60.1], 2, SUP)
        with pytest.raises(InvalidLabelError, match="is not a whole number"):
            kmeans_1d([3, bad, 50, 60], 2, SUP)

    def test_whole_float_labels_cluster_as_integers(self):
        assert kmeans_1d([3.0, 3.0, 50.0, 60.0], 2, SUP) == kmeans_1d([3, 3, 50, 60], 2, SUP)

    def test_deterministic(self):
        labels = [5, 5, 9, 30, 31, 77, 78, 79]
        assert kmeans_1d(labels, 3, SUP).boundaries == kmeans_1d(labels, 3, SUP).boundaries

    @given(labels=st.lists(st.integers(0, 100), min_size=2, max_size=40),
           k=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, labels, k):
        distinct = len(set(labels))
        if distinct > 12 or k > distinct:
            return
        p = kmeans_1d(labels, k, SUP)
        assert partition_cost(p, labels) == pytest.approx(
            brute_force_cost(labels, k), abs=1e-9)

    def test_equal_cost_splits_keep_the_earliest(self):
        # {0} | {10, 20} and {0, 10} | {20} both cost 100
        labels = [0, 0, 10, 10, 20, 20]
        assert kmeans_1d(labels, 2, SUP).boundaries == (0, 6)
        assert triple_loop_boundaries(labels, 2, SUP) == (0, 6)

    @given(labels=st.one_of(_EVEN_LABELS, st.lists(st.integers(0, 100), min_size=1,
                                                     max_size=60)),
           k=st.integers(1, 8))
    @settings(max_examples=150, deadline=None)
    def test_boundaries_match_triple_loop_program(self, labels, k):
        k = min(k, len(set(labels)))
        assert kmeans_1d(labels, k, SUP).boundaries == triple_loop_boundaries(labels, k, SUP)


class TestDecadePartition:
    def test_default_support(self):
        p = decade_partition(SUP)
        assert p.k == 10
        assert p.boundaries == tuple(range(0, 100, 10))
        assert p.stage_of(100) == 9  # the final stage absorbs the remainder
        assert p.stage_of(15) == 1

    def test_short_support(self):
        p = decade_partition(LabelSupport(0, 19))
        assert p.k == 2
        assert p.boundaries == (0, 10)

    def test_tiny_support_single_stage(self):
        p = decade_partition(LabelSupport(0, 4))
        assert p.k == 1

    def test_nonzero_min(self):
        p = decade_partition(LabelSupport(16, 77))
        assert p.boundaries[0] == 16
        assert all(p.stage_of(x) >= 0 for x in range(16, 78))


class TestStageOf:
    def test_interval_membership(self):
        p = StagePartition(boundaries=(0, 12, 22), support=SUP, provenance="manual")
        assert p.stage_of(11) == 0

    def test_boundary_start_maps_to_own_stage(self):
        p = StagePartition(boundaries=(0, 12, 22), support=SUP, provenance="manual")
        for s, b in enumerate(p.boundaries):
            assert p.stage_of(b) == s

    def test_support_max_in_last_stage(self):
        p = StagePartition(boundaries=(0, 12, 22), support=SUP, provenance="manual")
        assert p.stage_of(100) == 2

    def test_outside_support_rejected(self):
        p = StagePartition(boundaries=(0, 50), support=SUP, provenance="manual")
        with pytest.raises(InvalidLabelError):
            p.stage_of(101)
        with pytest.raises(InvalidLabelError):
            p.stage_of(-1)

    @pytest.mark.parametrize("boundaries", [(0,), (0, 50), (0, 7, 30, 88), (0, 1, 99, 100)])
    def test_stages_of_matches_stage_of_over_support(self, boundaries):
        p = StagePartition(boundaries=boundaries, support=SUP, provenance="manual")
        labels = SUP.labels()
        stages = p.stages_of(labels)
        assert stages.tolist() == [p.stage_of(int(x)) for x in labels]
        for s, (start, end) in enumerate(stage_ranges(p)):
            assert np.all(stages[start:end + 1] == s)

    def test_stage_index_is_read_only(self):
        p = StagePartition(boundaries=(0, 7, 30, 88), support=SUP, provenance="manual")
        assert p.stage_index.tolist() == p.stages_of(SUP.labels()).tolist()
        with pytest.raises(ValueError):
            p.stage_index[0] = 3

    def test_stages_of_outside_support_rejected(self):
        p = StagePartition(boundaries=(0, 50), support=SUP, provenance="manual")
        for labels in ([3, 101], [-1], np.array([[0, 5], [200, 7]])):
            with pytest.raises(InvalidLabelError):
                p.stages_of(labels)

    @given(label=st.integers(0, 100))
    def test_total_over_support(self, label):
        p = StagePartition(boundaries=(0, 7, 30, 88), support=SUP, provenance="manual")
        s = p.stage_of(label)
        start, end = stage_ranges(p)[s]
        assert start <= label <= end


class TestPartitionInvariants:
    def test_ranges_cover_and_do_not_overlap(self):
        for p in (decade_partition(SUP), kmeans_1d(list(range(101)), 7, SUP)):
            ranges = stage_ranges(p)
            assert ranges[0][0] == SUP.min_label
            assert ranges[-1][1] == SUP.max_label
            for (a, b), (c, d) in zip(ranges, ranges[1:]):
                assert b + 1 == c

    def test_validation_rejects_bad_boundaries(self):
        with pytest.raises(InvalidParameterError):
            StagePartition(boundaries=(5, 20), support=SUP, provenance="manual")
        with pytest.raises(InvalidParameterError):
            StagePartition(boundaries=(0, 20, 20), support=SUP, provenance="manual")
        with pytest.raises(InvalidParameterError):
            StagePartition(boundaries=(0, 120), support=SUP, provenance="manual")
        with pytest.raises(InvalidParameterError):
            StagePartition(boundaries=(0, 50), support=SUP, provenance="bogus")


@st.composite
def boundary_values(draw):
    """Increasing stage starts from 0, each an int, an np.int64, a whole float
    or a digit string, in a tuple or a list; half of them with one value the
    boundary rule rejects in place of a start."""
    starts = [0, *sorted(draw(st.sets(st.integers(1, 100), max_size=5)))]
    values = [draw(st.sampled_from([int, np.int64, float, str]))(b) for b in starts]
    if draw(st.booleans()):
        bad = draw(st.sampled_from([50.5, True, np.True_, "x", "5.5"]))
        values[draw(st.integers(0, len(values) - 1))] = bad
    return draw(st.sampled_from([tuple, list]))(values)


class TestSerialization:
    @given(boundary_values())
    @example((0, 50.5))
    @example((0, True))
    @example("05")
    @settings(max_examples=60, deadline=None)
    def test_every_accepted_partition_round_trips(self, boundaries):
        # (0, 50.5) and (0, True) were accepted, and then their partition.json
        # failed to load; "05" failed as "first stage must start at 0, got 0"
        try:
            p = StagePartition(boundaries, SUP, "manual")
        except InvalidParameterError as exc:
            assert str(exc).startswith("boundaries: ")
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "partition.json"
            save_partition(p, path)
            assert load_partition(path, SUP) == p
        assert p.boundaries == tuple(int(b) for b in boundaries)

    def test_json_schema_and_round_trip(self, tmp_path):
        p = kmeans_1d([1, 2, 9, 10], 2, SUP)
        path = tmp_path / "partition.json"
        save_partition(p, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"boundaries", "k", "provenance"}
        assert doc["k"] == 2
        assert doc["provenance"] == "kmeans"
        loaded = load_partition(path, SUP)
        assert loaded == p

    @pytest.mark.parametrize("text", ['{"boundaries": [0, 5', '{"k": 2, "provenance": "manual"}',
                                      '{"provenance": "manual", "boundaries": [0, 5.5]}'])
    def test_malformed_file_is_parse_error(self, tmp_path, text):
        path = tmp_path / "partition.json"
        path.write_text(text)
        with pytest.raises(ParseError, match="partition.json"):
            load_partition(path, SUP)
