"""Core distribution and loss tests against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from saldl import core
from saldl.core import (
    LabelSupport,
    LossBreakdown,
    MSE_WEIGHT,
    SIGMA_MIN,
    TargetTable,
    gaussian_label_distribution,
    kl_gradient_sigma,
    saw_gradient_logits,
    saw_loss,
    whole_number,
)
from saldl.errors import (
    InvalidInputError,
    InvalidLabelError,
    InvalidParameterError,
    ShapeError,
)

SUP = LabelSupport()


class TestLabelSupport:
    def test_size_and_indexing(self):
        assert SUP.size == 101
        assert SUP.index_of(0) == 0
        assert SUP.index_of(100) == 100
        assert LabelSupport(16, 77).size == 62

    def test_too_small_rejected(self):
        with pytest.raises(InvalidParameterError):
            LabelSupport(5, 5)

    def test_index_of_outside_rejected(self):
        with pytest.raises(InvalidLabelError):
            SUP.index_of(101)

    def test_checked_indices_names_the_first_outside_index(self):
        for idx in ([5, 101, -1], [5, 101]):
            with pytest.raises(InvalidLabelError, match="label 101 outside"):
                SUP.checked_indices(idx)
        with pytest.raises(InvalidLabelError, match="label -1 outside"):
            SUP.checked_indices([-1, 101])

    def test_checked_indices_passes_an_empty_array(self):
        # .min() of an empty array raises, so this passing shows the range test skips it
        assert SUP.checked_indices(np.array([], dtype=np.int64)).shape == (0,)
        assert SUP.checked_indices([]).dtype == np.int64


    # an int64 cast would truncate 3.7 to 3 and turn nan or inf into some label
    @pytest.mark.parametrize("bad, why", [(3.7, "is not a whole number"),
                                          (np.nan, "is not a whole number"),
                                          (np.inf, "outside support"),
                                          (-np.inf, "outside support")])
    def test_label_that_is_not_a_finite_whole_number_rejected(self, bad, why):
        with pytest.raises(InvalidLabelError, match=f"^label {bad} {why}"):
            SUP.index_of(bad)
        with pytest.raises(InvalidLabelError, match=f"^label {bad} {why}"):
            SUP.indices_of([3.0, bad])

    def test_whole_float_labels_accepted(self):
        assert SUP.index_of(3.0) == 3
        idx = SUP.indices_of(np.array([3.0, 10.0]))
        assert idx.dtype == np.int64 and idx.tolist() == [3, 10]


class TestWholeNumber:
    @pytest.mark.parametrize("value", [3, 3.0, "3", np.int64(3), np.float32(3.0)])
    def test_whole_values_convert(self, value):
        assert whole_number(value) == 3 and type(whole_number(value)) is int

    @pytest.mark.parametrize("value", [1.5, np.float32(1.5), math.nan, math.inf, True,
                                       np.bool_(False)])
    def test_fraction_nan_and_bool_rejected(self, value):
        with pytest.raises(InvalidParameterError, match="expected a whole number"):
            whole_number(value)


def gaussian_oracle(y, sigma, support=SUP):
    """Direct pure-python evaluation of the target density, renormalized."""
    w = [math.exp(-((k - y) ** 2) / (2.0 * sigma * sigma))
         for k in range(support.min_label, support.max_label + 1)]
    total = sum(w)
    return [v / total for v in w]


class TestGaussianLabelDistribution:
    def test_symmetry_about_mean(self):
        d = gaussian_label_distribution(50, 2.0, SUP)
        assert d[48] == d[52]
        assert d[45] == d[55]

    def test_center_value_against_oracle(self):
        d = gaussian_label_distribution(50, 2.0, SUP)
        oracle = gaussian_oracle(50, 2.0)
        np.testing.assert_allclose(d, oracle, rtol=0, atol=1e-15)
        assert abs(d[50] - 0.1995) < 1e-4

    def test_boundary_truncation_renormalizes(self):
        d = gaussian_label_distribution(0, 2.0, SUP)
        assert abs(d.sum() - 1.0) <= 1e-9
        assert d[0] > d[1] > d[2]

    def test_sigma_nonpositive_rejected(self):
        with pytest.raises(InvalidParameterError):
            gaussian_label_distribution(50, 0.0, SUP)
        with pytest.raises(InvalidParameterError):
            gaussian_label_distribution(50, -1.0, SUP)

    def test_label_outside_support_rejected(self):
        with pytest.raises(InvalidLabelError):
            gaussian_label_distribution(101, 2.0, SUP)

    def test_label_that_is_not_a_finite_whole_number_rejected(self):
        for bad in (3.7, np.nan, np.inf):
            with pytest.raises(InvalidLabelError):
                gaussian_label_distribution(bad, 2.0, SUP)
        np.testing.assert_array_equal(gaussian_label_distribution(3.0, 2.0, SUP),
                                      gaussian_label_distribution(3, 2.0, SUP))

    @given(y=st.integers(0, 100),
           sigma=st.floats(0.05, 8.0, allow_nan=False))
    def test_always_a_distribution(self, y, sigma):
        d = gaussian_label_distribution(y, sigma, SUP)
        assert np.all(d >= 0.0)
        assert abs(d.sum() - 1.0) <= 1e-9

    @given(y=st.integers(10, 90), delta=st.integers(1, 10),
           sigma=st.floats(0.3, 5.0))
    def test_symmetric_where_unclipped(self, y, delta, sigma):
        d = gaussian_label_distribution(y, sigma, SUP)
        assert d[y - delta] == d[y + delta]


def batch_terms(logits, idx, alphas, table, loss_mode="saw"):
    """The batched kernel on label indices already inside ``table``'s support."""
    return core._loss_terms(logits, idx, table.target[idx], alphas, table.support, loss_mode)


def softmax(logits):
    """The predictions ``_loss_terms`` gives for one logit vector or for each
    row of a batch, over a support as wide as the logits."""
    z = np.asarray(logits, dtype=np.float64)
    rows = np.atleast_2d(z)
    n, width = rows.shape
    terms = core._loss_terms(rows, np.zeros(n, dtype=np.int64), np.zeros((n, width)),
                             np.full(n, 0.5), LabelSupport(0, width - 1), "kl")
    return terms.preds if z.ndim == 2 else terms.preds[0]


def kl_divergence(p, q):
    """KL(p || q) through ``core._kl``, with floored logs."""
    p, q = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    return float(core._kl(p, core._floored_log(p), core._floored_log(q)))


def logits_of(pred):
    """Logits whose softmax is ``pred``; a zero entry gets about 1e-300."""
    return np.log(np.maximum(pred, 1e-300))


def cross_entropy(pred, label):
    return saw_loss(logits_of(pred), label, 2.0, 0.5, SUP).ce


def onehot(label):
    pred = np.zeros(SUP.size)
    pred[label] = 1.0
    return pred


class TestSoftmax:
    def test_zero_logits_uniform(self):
        p = softmax(np.zeros(101))
        np.testing.assert_allclose(p, np.full(101, 1 / 101), atol=1e-15)

    def test_two_entry_example(self):
        p = softmax(np.array([0.0, math.log(3.0)]))
        np.testing.assert_allclose(p, [0.25, 0.75], atol=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            softmax(np.array([0.0, np.inf]))
        with pytest.raises(InvalidInputError):
            softmax(np.array([np.nan, 0.0]))

    # finiteness is tested on the sum first (which NumPy may warn about); an
    # overflowing sum of finite logits falls back to the entries
    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_finite_logits_whose_sum_overflows_accepted(self):
        np.testing.assert_allclose(softmax(np.full(101, 1e307)), 1 / 101, rtol=1e-15)
        np.testing.assert_allclose(softmax(np.full((2, 101), 1e307)), 1 / 101, rtol=1e-15)
        for bad in (np.inf, -np.inf, np.nan):
            z = np.full((2, 101), 1e307)
            z[1, 7] = bad
            with pytest.raises(InvalidInputError):
                softmax(z)
            with pytest.raises(InvalidInputError):
                softmax(z[1])
        with pytest.raises(InvalidInputError):  # inf + -inf sums to nan
            softmax(np.array([np.inf, -np.inf, 0.0]))

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=20),
           st.floats(-1000, 1000))
    def test_shift_invariance(self, logits, c):
        z = np.array(logits)
        np.testing.assert_allclose(softmax(z), softmax(z + c), atol=1e-12)

    def test_large_logits_no_overflow(self):
        p = softmax(np.array([1000.0, 999.0, 0.0]))
        assert np.all(np.isfinite(p))
        assert abs(p.sum() - 1.0) <= 1e-12


def random_distribution(rng, n=101):
    p = rng.random(n) + 1e-6
    return p / p.sum()


def table_at(sigma, support=SUP):
    """Every label's target at one spread."""
    return TargetTable.build(np.full(support.size, sigma), support)


def per_sample(labels, preds):
    """``kl_gradient_sigma`` statistics with one sample per label: count 1,
    and the sample's floored log predictions as the label's sum."""
    return labels, np.ones(np.shape(labels)), core._floored_log(np.asarray(preds, float))


class TestKlDivergence:
    def test_identical_is_zero(self):
        p = random_distribution(np.random.default_rng(0))
        assert kl_divergence(p, p) <= 1e-12

    def test_onehot_vs_uniform_pair(self):
        val = kl_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        assert abs(val - math.log(2.0)) < 1e-12

    def test_floored_onehot_stays_finite(self):
        p = np.array([0.5, 0.5])
        q = np.array([1.0, 0.0])
        val = kl_divergence(p, q)
        assert np.isfinite(val)
        assert val > 1.0

    @given(st.integers(0, 2**32 - 1))
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        p, q = random_distribution(rng), random_distribution(rng)
        assert kl_divergence(p, q) >= 0.0

    @given(st.integers(0, 2**32 - 1))
    def test_zero_iff_equal(self, seed):
        rng = np.random.default_rng(seed)
        p = random_distribution(rng)
        q = random_distribution(rng)
        assert kl_divergence(p, p) <= 1e-12
        if np.max(np.abs(p - q)) > 1e-3:
            assert kl_divergence(p, q) > 1e-12


class TestCrossEntropy:
    def test_onehot_at_truth_is_zero(self):
        assert cross_entropy(onehot(30), 30) <= 1e-9

    def test_label_that_is_not_a_finite_whole_number_rejected(self):
        pred = np.full(101, 1 / 101)
        for bad in (3.7, np.nan, -np.inf):
            with pytest.raises(InvalidLabelError):
                cross_entropy(pred, bad)
        assert cross_entropy(pred, 3.0) == cross_entropy(pred, 3)

    def test_uniform_prediction(self):
        pred = np.full(101, 1 / 101)
        assert abs(cross_entropy(pred, 7) - math.log(101)) < 1e-12
        assert abs(math.log(101) - 4.6151) < 1e-4

    def test_batch_mean_is_mean(self):
        a, b = 0.3, 1.1
        assert (a + b) / 2 == pytest.approx(np.mean([a, b]))

    def test_label_outside_support(self):
        with pytest.raises(InvalidLabelError):
            cross_entropy(np.full(101, 1 / 101), -1)

    def test_monotone_in_true_label_mass(self):
        # shifting mass onto the true label strictly reduces the loss
        losses = []
        for mass in (0.2, 0.5, 0.9):
            pred = np.full(101, (1 - mass) / 100)
            pred[40] = mass
            losses.append(cross_entropy(pred, 40))
        assert losses[0] > losses[1] > losses[2]


class TestMseAndExpectation:
    def test_mse_fixtures(self):
        # a one-hot prediction at k reads out exactly k
        def mse_loss(k, label):
            return saw_loss(logits_of(onehot(k)), label, 2.0, 0.5, SUP).mse

        assert mse_loss(30, 30) == 0.0
        assert mse_loss(32, 30) == 4.0
        assert np.mean([mse_loss(1, 0), mse_loss(3, 0)]) == 5.0

    def test_expected_age_fixtures(self):
        assert core._expectation(onehot(30), SUP) == 30.0
        assert core._expectation(np.full(101, 1 / 101), SUP) == pytest.approx(50.0)
        bimodal = np.zeros(101)
        bimodal[20] = bimodal[40] = 0.5
        assert core._expectation(bimodal, SUP) == pytest.approx(30.0)


class TestSawLoss:
    def test_component_arithmetic(self):
        b = LossBreakdown.compose(kl=0.4, ce=0.6, mse=9.0, alpha=0.5)
        assert b.total == pytest.approx(0.2 + 0.3 + 0.09)

    def test_alpha_limits(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=101)
        hi = saw_loss(z, 40, 2.0, 1.0 - 1e-12, SUP)
        assert hi.total == pytest.approx(hi.kl + MSE_WEIGHT * hi.mse, rel=1e-9)
        lo = saw_loss(z, 40, 2.0, 1e-12, SUP)
        assert lo.total == pytest.approx(lo.ce + MSE_WEIGHT * lo.mse, rel=1e-9)

    def test_alpha_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            saw_loss(np.zeros(101), 40, 2.0, 0.0, SUP)
        with pytest.raises(InvalidParameterError):
            saw_loss(np.zeros(101), 40, 2.0, 1.0, SUP)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_total_recomposition_identity(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=101)
        y = int(rng.integers(0, 101))
        sigma = float(rng.uniform(0.5, 4.0))
        alpha = float(rng.uniform(0.05, 0.95))
        b = saw_loss(z, y, sigma, alpha, SUP)
        recomposed = b.alpha_used * b.kl + (1 - b.alpha_used) * b.ce + MSE_WEIGHT * b.mse
        assert abs(b.total - recomposed) <= 1e-9


def finite_difference_gradient(z, y, sigma, alpha, h=1e-5):
    fd = np.zeros_like(z)
    for k in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[k] += h
        zm[k] -= h
        fd[k] = (saw_loss(zp, y, sigma, alpha, SUP).total
                 - saw_loss(zm, y, sigma, alpha, SUP).total) / (2 * h)
    return fd


class TestSawGradient:
    def test_each_term_stationary_at_its_own_minimum(self):
        target = gaussian_label_distribution(50, 2.0, SUP)
        z = np.log(target + 1e-300)
        pred = softmax(z)
        # KL part (pred - target) vanishes when the prediction reproduces
        # the target; the expectation read-out then equals the label (the
        # target is unclipped at 50), so the squared-error part vanishes too.
        np.testing.assert_allclose(pred, target, atol=1e-15)
        assert abs(core._expectation(pred, SUP) - 50.0) < 1e-9
        # With the composite weight pushed to the KL side the full gradient
        # collapses to those two vanished terms.
        g = saw_gradient_logits(z, 50, 2.0, 1.0 - 1e-9, SUP)
        assert np.max(np.abs(g)) < 1e-6
        # The CE part is stationary at its own minimum, the one-hot.
        g_ce = saw_gradient_logits(np.log(onehot(50) + 1e-300), 50, 2.0, 1e-9, SUP)
        assert np.max(np.abs(g_ce)) < 1e-6

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            z = rng.normal(size=101)
            y = int(rng.integers(0, 101))
            sigma = float(rng.uniform(0.5, 4.0))
            alpha = float(rng.uniform(0.1, 0.9))
            g = saw_gradient_logits(z, y, sigma, alpha, SUP)
            fd = finite_difference_gradient(z, y, sigma, alpha)
            assert np.linalg.norm(g - fd) <= 1e-5 * max(np.linalg.norm(fd), 1e-8)

    def test_component_sums(self):
        # softmax Jacobian rows sum to zero for the KL and CE parts, so the
        # gradient total equals the squared-error part's total
        rng = np.random.default_rng(3)
        z = rng.normal(size=101)
        y, sigma, alpha = 40, 2.0, 0.7
        g = saw_gradient_logits(z, y, sigma, alpha, SUP)
        pred = softmax(z)
        k = SUP.labels().astype(float)
        age_hat = float(k @ pred)
        g_mse = 2.0 * (age_hat - y) * pred * (k - age_hat)
        assert abs(g.sum() - MSE_WEIGHT * g_mse.sum()) < 1e-12


class TestKlGradientSigma:
    def f(self, sigma, y, pred):
        return kl_divergence(gaussian_label_distribution(y, sigma, SUP), pred)

    def test_matches_finite_differences_at_matching_spread(self):
        pred = gaussian_label_distribution(40, 1.5, SUP)
        g = kl_gradient_sigma(*per_sample(40, pred), table_at(1.5))
        h = 1e-5
        fd = (self.f(1.5 + h, 40, pred) - self.f(1.5 - h, 40, pred)) / (2 * h)
        assert abs(g - fd) < 1e-5

    def test_sign_flips_around_matching_spread(self):
        pred = gaussian_label_distribution(40, 1.5, SUP)
        up = kl_gradient_sigma(*per_sample(40, pred), table_at(3.0))
        down = kl_gradient_sigma(*per_sample(40, pred), table_at(0.8))
        assert up > 0 > down
        h = 1e-5
        fd_up = (self.f(3.0 + h, 40, pred) - self.f(3.0 - h, 40, pred)) / (2 * h)
        assert abs(up - fd_up) < 1e-5 * max(abs(fd_up), 1.0)

    def test_matches_finite_differences_random(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            y = int(rng.integers(5, 96))
            sigma = float(rng.uniform(0.6, 4.0))
            pred = random_distribution(rng)
            g = kl_gradient_sigma(*per_sample(y, pred), table_at(sigma))
            h = 1e-5
            fd = (self.f(sigma + h, y, pred) - self.f(sigma - h, y, pred)) / (2 * h)
            assert abs(g - fd) <= 1e-5 * max(abs(fd), 1.0)

    def test_spread_below_floor_or_non_finite_rejected(self):
        for bad in (1e-6, np.nextafter(SIGMA_MIN, 0.0), np.nan, np.inf):
            sigmas = np.full(SUP.size, 2.0)
            sigmas[40] = bad
            with pytest.raises(InvalidParameterError):
                TargetTable.build(sigmas, SUP)
        # SIGMA_MIN + softplus(raw) rounds to SIGMA_MIN itself for raw <= -38.5
        assert np.isfinite(kl_gradient_sigma(*per_sample(40, np.full(101, 1 / 101)),
                                             table_at(SIGMA_MIN)))

    def test_nonpositive_sigma_rejected(self):
        for bad in (0.0, -1.0):
            with pytest.raises(InvalidParameterError):
                table_at(bad)


class TestBatchedSigmaGradient:
    @given(labels=st.lists(st.integers(0, 100), min_size=1, max_size=6),
           sigma=st.floats(0.6, 4.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_equals_sum_of_single_calls_and_finite_difference(self, labels, sigma, seed):
        rng = np.random.default_rng(seed)
        preds = np.stack([random_distribution(rng) for _ in labels])
        table = table_at(sigma)
        g = kl_gradient_sigma(*per_sample(np.array(labels), preds), table)
        assert isinstance(g, float)
        singles = [kl_gradient_sigma(*per_sample(y, p), table) for y, p in zip(labels, preds)]
        assert g == pytest.approx(sum(singles), rel=1e-12, abs=1e-12)

        def summed_kl(s):
            return sum(kl_divergence(gaussian_label_distribution(y, s, SUP), p)
                       for y, p in zip(labels, preds))

        h = 1e-5
        fd = (summed_kl(sigma + h) - summed_kl(sigma - h)) / (2 * h)
        assert abs(g - fd) <= 1e-5 * max(abs(fd), 1.0)

    @given(labels=st.lists(st.integers(0, 100), min_size=1, max_size=12),
           sigma=st.floats(0.6, 4.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_label_sums_equal_sum_of_per_sample_calls(self, labels, sigma, seed):
        rng = np.random.default_rng(seed)
        labels = np.array(labels + labels[:3])  # some labels hold several samples
        preds = np.stack([random_distribution(rng) for _ in labels])
        table = table_at(sigma)
        distinct, inverse, counts = np.unique(labels, return_inverse=True,
                                              return_counts=True)
        sums = np.zeros((distinct.size, SUP.size))
        np.add.at(sums, inverse, core._floored_log(preds))
        g = kl_gradient_sigma(distinct, counts, sums, table)
        assert isinstance(g, float)
        singles = [kl_gradient_sigma(*per_sample(y, p), table) for y, p in zip(labels, preds)]
        # relative to the magnitude of the summed terms, so cancellation cannot hide a bug
        scale = sum(np.abs(table.dsigma[y] * (table.log_target[y] - core._floored_log(p))).sum()
                    for y, p in zip(labels, preds))
        assert abs(g - sum(singles)) <= 1e-12 * scale

    def test_shape_and_label_checked(self):
        preds = np.full((2, 101), 1 / 101)
        table = table_at(1.5)
        with pytest.raises(ShapeError):
            kl_gradient_sigma(*per_sample(np.array([3, 4, 5]), preds), table)
        for bad in (-1, 101):
            with pytest.raises(InvalidLabelError):
                kl_gradient_sigma(*per_sample(np.array([3, bad]), preds), table)
        with pytest.raises(ShapeError):  # one count per label
            kl_gradient_sigma(np.array([3, 4]), np.ones(3), np.zeros((2, 101)), table)

    def test_label_that_is_not_a_finite_whole_number_rejected(self):
        preds = np.full((2, 101), 1 / 101)
        table = table_at(1.5)
        for bad in (3.7, np.nan, np.inf):
            with pytest.raises(InvalidLabelError):
                kl_gradient_sigma(*per_sample(np.array([3.0, bad]), preds), table)
        assert (kl_gradient_sigma(*per_sample(np.array([3.0, 4.0]), preds), table)
                == kl_gradient_sigma(*per_sample(np.array([3, 4]), preds), table))


class TestLossTerms:
    @pytest.mark.parametrize("mode", ["kl", "ce", "saw"])
    def test_gradient_matches_finite_differences(self, mode):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(3, 101))
        sigmas = np.full(SUP.size, 2.0)
        sigmas[5], sigmas[95] = 0.8, 3.0
        idx, alphas = np.array([5, 50, 95]), np.array([0.2, 0.5, 0.7])
        t = batch_terms(z, idx, alphas, TargetTable.build(sigmas, SUP), mode)

        def objective(i, zi):
            # sample i's objective from the single-sample loss
            b = saw_loss(zi, idx[i], sigmas[idx[i]], alphas[i], SUP)
            return {"kl": b.kl, "ce": b.ce, "saw": b.total}[mode]

        h = 1e-5
        for i in range(3):
            for k in (0, 5, 49, 50, 95, 100):
                zp, zm = z[i].copy(), z[i].copy()
                zp[k] += h
                zm[k] -= h
                fd = (objective(i, zp) - objective(i, zm)) / (2 * h)
                assert abs(t.dlogits[i, k] - fd) <= 1e-6

    def test_unknown_mode_and_non_finite_logits_rejected(self):
        ok = (np.array([1]), np.array([0.5]), table_at(2.0))
        with pytest.raises(InvalidParameterError):
            batch_terms(np.zeros((1, 101)), *ok, loss_mode="mse")
        with pytest.raises(InvalidInputError):
            batch_terms(np.full((1, 101), np.nan), *ok)


def _unfused_saw_gradient(terms, idx, alphas, table):
    """The composite logit gradient as the weighted sum of its three terms."""
    p, k, a = terms.preds, SUP.grid, alphas[:, None]
    g_ce = p.copy()
    g_ce[np.arange(idx.size), idx] -= 1.0
    g_mse = 2.0 * (terms.pred_ages - k[idx])[:, None] * p * (k - terms.pred_ages[:, None])
    return a * (p - table.target[idx]) + (1.0 - a) * g_ce + MSE_WEIGHT * g_mse


@given(labels=st.lists(st.integers(0, 100), min_size=0, max_size=6),
       spread=st.floats(0.0, 30.0), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_fused_saw_gradient_equals_weighted_terms(labels, spread, seed):
    rng = np.random.default_rng(seed)
    idx = np.array([0, 100] + labels)  # both support edges, every time
    z = spread * rng.uniform(-1.0, 1.0, size=(idx.size, SUP.size))
    alphas = rng.uniform(1e-3, 1.0 - 1e-3, size=idx.size)
    table = TargetTable.build(rng.uniform(SIGMA_MIN, 6.0, size=SUP.size), SUP)
    terms = batch_terms(z, idx, alphas, table, "saw")
    np.testing.assert_allclose(terms.dlogits, _unfused_saw_gradient(terms, idx, alphas, table),
                               rtol=1e-12, atol=1e-15)


def _arrays(z, idx, alphas, table, loss_mode="saw") -> list[np.ndarray]:
    """The kernel's three arrays and each sample's KL, CE and squared error."""
    terms = batch_terms(z, idx, alphas, table, loss_mode)
    return [*terms, *core._sample_losses(terms, idx, table.target[idx], table.support)]


def _bits(z, idx, alphas, table) -> list[bytes]:
    return [arr.tobytes() for arr in _arrays(z, idx, alphas, table)]


class TestTargetRowMemo:
    """``_loss_terms`` and ``kl_gradient_sigma`` read each label's target row
    from a ``TargetTable``, the rows built once for one spread per label."""

    @given(sigmas=st.lists(st.floats(SIGMA_MIN, 6.0), min_size=1, max_size=4),
           boundaries=st.lists(st.integers(1, 100), max_size=3, unique=True),
           subset=st.lists(st.integers(0, 100), min_size=1, max_size=8),
           other=st.floats(SIGMA_MIN, 6.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_cold_and_filled_memo_agree_bitwise(self, sigmas, boundaries, subset, other,
                                                seed):
        # stage spreads over a random partition, as train_sav builds them
        stage = np.searchsorted(sorted(boundaries), SUP.labels(), side="right")
        per_label = np.resize(sigmas, len(boundaries) + 1)[stage]
        table = TargetTable.build(per_label, SUP)
        idx = np.array(subset)
        # each table row equals its label's row built cold, on its own
        for name, rows in zip(("target", "log_target", "dsigma"),
                              core._build_rows(idx, per_label[idx], SUP)):
            assert getattr(table, name)[idx].tobytes() == rows.tobytes()

        rng = np.random.default_rng(seed)
        z = rng.normal(size=(idx.size, SUP.size))
        alphas = rng.uniform(0.1, 0.9, idx.size)
        preds = softmax(z)

        def results(t):
            return (_bits(z, idx, alphas, t),
                    kl_gradient_sigma(*per_sample(idx, preds), t))

        first = results(table)
        results(table_at(other))  # rows filled at other spreads leave no trace
        assert results(table) == first
        assert results(TargetTable.build(per_label, SUP)) == first

    @given(label=st.integers(0, 100), s1=st.floats(0.3, 6.0), s2=st.floats(0.3, 6.0),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_each_label_reads_its_own_spread(self, label, s1, s2, seed):
        rng = np.random.default_rng(seed)
        other = (label + 7) % 101
        idx = np.array([label, other, label, other])
        per_label = np.full(SUP.size, s1)
        per_label[other] = s2
        table = TargetTable.build(per_label, SUP)
        z = rng.normal(size=(4, SUP.size))
        alphas = np.full(4, 0.3)
        # the KL objective and its gradient are row-wise, so each row must equal
        # its own n = 1 call bit for bit
        preds, _, dlogits, kl, _, _ = _arrays(z, idx, alphas, table, "kl")
        for i in range(4):
            alone = _arrays(z[i:i + 1], idx[i:i + 1], alphas[i:i + 1], table, "kl")
            assert kl[i].tobytes() == alone[3][0].tobytes()
            assert dlogits[i].tobytes() == alone[2][0].tobytes()
        # each sample's KL is against its own label's spread
        for i in range(4):
            target = gaussian_oracle(int(idx[i]), float(per_label[idx[i]]))
            assert kl[i] == pytest.approx(kl_divergence(target, preds[i]),
                                          rel=1e-12, abs=1e-12)

    def test_sigma_gradient_matches_direct_formula_bitwise(self):
        # the formula built per call, with the spread cubed as a Python float
        rng = np.random.default_rng(5)
        for sigma in rng.uniform(0.3, 6.0, 300):
            idx = rng.integers(0, 101, 3)
            preds = softmax(rng.normal(size=(3, SUP.size)))
            d, sq_dist = core._gaussian_targets(idx, sigma, SUP)
            a = sq_dist / float(sigma) ** 3
            a_bar = (d * a).sum(axis=-1, keepdims=True)
            log_ratio = np.log(np.maximum(d, core.PROB_FLOOR)) - np.log(
                np.maximum(preds, core.PROB_FLOOR))
            direct = float(np.where(d > 0.0, d * (a - a_bar) * log_ratio, 0.0).sum())
            assert kl_gradient_sigma(*per_sample(idx, preds), table_at(sigma)) == direct

    def test_returned_arrays_do_not_alias_the_memo(self):
        table = table_at(1.5)
        for arr in (table.target, table.log_target, table.dsigma):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 7.0
        args = (np.array([3, 40, 40]), np.full(3, 0.5), table)
        z = np.linspace(-1.0, 1.0, 3 * SUP.size).reshape(3, SUP.size)
        first = _bits(z, *args)
        for arr in _arrays(z, *args):
            assert not any(np.shares_memory(arr, row)
                           for row in (table.target, table.log_target, table.dsigma))
            arr[...] = 7.0
        assert _bits(z, *args) == first
        dist = gaussian_label_distribution(40, 1.5, SUP)
        before = dist.copy()
        dist[:] = 0.0
        np.testing.assert_array_equal(gaussian_label_distribution(40, 1.5, SUP), before)
        np.testing.assert_array_equal(table.target[40], before)
