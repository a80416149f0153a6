"""Classifier tests: determinism, hand-computed forward passes, finite
difference gradient checks, and exact checkpoint round trips."""

import json

import numpy as np
import pytest
from hypothesis import example, given
import hypothesis.strategies as st
from hypothesis.extra.numpy import arrays

from saldl.core import (
    MSE_WEIGHT,
    LabelSupport,
    LossBreakdown,
    LossTerms,
    _loss_terms,
    _sample_losses,
    saw_loss,
)
from saldl.errors import EmptyInputError, InvalidLabelError, InvalidParameterError, ShapeError
from saldl.model import (
    _act_grad,
    backward_step,
    forward,
    forward_batch,
    init_model,
    model_from_dict,
    model_to_dict,
    predict_ages,
    stage_target_table,
)
from saldl.staging import StagePartition
from saldl.trainer import StageParams

SUP = LabelSupport()
PART = StagePartition(boundaries=(0, 50), support=SUP, provenance="manual")
PARAMS = StageParams.from_values([1.5, 2.5], [0.4, 0.7])


class TestInitModel:
    def test_same_seed_identical(self):
        a = init_model((16, 64, 32, 101), "relu", 5, SUP)
        b = init_model((16, 64, 32, 101), "relu", 5, SUP)
        assert a.equals(b)

    def test_different_seed_differs(self):
        a = init_model((16, 64, 32, 101), "relu", 5, SUP)
        b = init_model((16, 64, 32, 101), "relu", 6, SUP)
        assert not a.equals(b)

    def test_linear_model_accepted(self):
        m = init_model((4, 101), "relu", 0, SUP)
        assert len(m.weights) == 1

    def test_mismatched_final_width_rejected(self):
        with pytest.raises(InvalidParameterError):
            init_model((4, 64, 100), "relu", 0, SUP)

    @pytest.mark.parametrize("width", [16.5, True, 0])
    def test_width_that_is_not_a_positive_whole_number_rejected(self, width):
        with pytest.raises(InvalidParameterError):
            init_model((4, width, 101), "relu", 0, SUP)

    def test_bad_activation_rejected(self):
        with pytest.raises(InvalidParameterError):
            init_model((4, 101), "sigmoid", 0, SUP)

    def test_zero_biases_and_weight_scale(self):
        m = init_model((16, 8, 101), "tanh", 0, SUP)
        assert all(np.all(b == 0.0) for b in m.biases)
        assert np.max(np.abs(m.weights[0])) <= 1 / np.sqrt(16)


class TestForward:
    def test_zero_weights_give_uniform_softmax(self):
        m = init_model((4, 101), "relu", 0, SUP)
        m.weights[0][:] = 0.0
        tr = forward(m, np.ones(4))
        assert np.all(tr.logits == 0.0)
        ages = predict_ages(m, np.ones((1, 4)), SUP)
        assert ages[0] == pytest.approx(50.0)

    def test_deterministic(self):
        m = init_model((4, 16, 101), "tanh", 1, SUP)
        x = np.array([0.3, -0.2, 1.0, 0.5])
        t1, t2 = forward(m, x), forward(m, x)
        np.testing.assert_array_equal(t1.logits, t2.logits)

    def test_hand_computed_linear_logits(self):
        sup2 = LabelSupport(0, 1)
        m = init_model((2, 2), "relu", 0, sup2)
        m.weights[0] = np.array([[1.0, 2.0], [3.0, -1.0]])
        m.biases[0] = np.array([0.5, -0.5])
        tr = forward(m, np.array([2.0, 1.0]))
        np.testing.assert_allclose(tr.logits, [2 + 3 + 0.5, 4 - 1 - 0.5])
        np.testing.assert_array_equal(tr.embedding, [2.0, 1.0])

    def test_embedding_feeds_final_layer(self):
        m = init_model((6, 12, 8, 101), "relu", 3, SUP)
        x = np.random.default_rng(0).normal(size=6)
        tr = forward(m, x)
        rebuilt = tr.embedding @ m.weights[-1] + m.biases[-1]
        np.testing.assert_allclose(rebuilt, tr.logits, atol=1e-12)
        assert tr.embedding.shape == (8,)

    def test_width_mismatch_rejected(self):
        m = init_model((6, 101), "relu", 0, SUP)
        with pytest.raises(ShapeError):
            forward(m, np.zeros(5))


def sample_losses(stats, y):
    """Each sample's KL, CE and squared error from a step's ``LossTerms`` on
    labels ``y`` at PARAMS."""
    idx = y - SUP.min_label
    return _sample_losses(stats, idx, stage_target_table(PARAMS, PART, SUP).target[idx], SUP)


def batch_saw_loss(model, X, y):
    """Independent loss path: per-sample composite loss via the public
    single-sample operations, averaged."""
    total = 0.0
    for i in range(len(y)):
        s = PART.stage_of(int(y[i]))
        tr = forward(model, X[i])
        total += saw_loss(tr.logits, int(y[i]), PARAMS.sigmas[s],
                          PARAMS.alphas[s], SUP).total
    return total / len(y)


class TestBackwardStep:
    def setup_method(self):
        self.rng = np.random.default_rng(42)
        self.model = init_model((8, 16, 8, 101), "tanh", 1, SUP)
        self.X = self.rng.normal(size=(5, 8))
        self.y = np.array([10, 45, 60, 80, 99])

    def test_zero_learning_rate_keeps_parameters(self):
        m = self.model.copy()
        backward_step(m, self.X, self.y, PARAMS, PART, 0.0, SUP)
        assert m.equals(self.model)

    def test_gradients_match_finite_differences(self):
        # with lr = 1 the parameter delta is exactly the analytic gradient
        stepped = self.model.copy()
        backward_step(stepped, self.X, self.y, PARAMS, PART, 1.0, SUP)
        rng = np.random.default_rng(7)
        h = 1e-5
        for _ in range(20):
            layer = int(rng.integers(0, len(self.model.weights)))
            i = int(rng.integers(0, self.model.weights[layer].shape[0]))
            j = int(rng.integers(0, self.model.weights[layer].shape[1]))
            analytic = self.model.weights[layer][i, j] - stepped.weights[layer][i, j]
            mp, mm = self.model.copy(), self.model.copy()
            mp.weights[layer][i, j] += h
            mm.weights[layer][i, j] -= h
            fd = (batch_saw_loss(mp, self.X, self.y)
                  - batch_saw_loss(mm, self.X, self.y)) / (2 * h)
            assert abs(analytic - fd) <= 1e-4 * max(abs(fd), abs(analytic)) + 1e-6

    def test_one_sample_batch_gradient(self):
        stepped = self.model.copy()
        X1, y1 = self.X[:1], self.y[:1]
        backward_step(stepped, X1, y1, PARAMS, PART, 1.0, SUP)
        h = 1e-5
        rng = np.random.default_rng(3)
        for _ in range(8):
            layer = int(rng.integers(0, len(self.model.weights)))
            i = int(rng.integers(0, self.model.weights[layer].shape[0]))
            j = int(rng.integers(0, self.model.weights[layer].shape[1]))
            analytic = self.model.weights[layer][i, j] - stepped.weights[layer][i, j]
            mp, mm = self.model.copy(), self.model.copy()
            mp.weights[layer][i, j] += h
            mm.weights[layer][i, j] -= h
            fd = (batch_saw_loss(mp, X1, y1) - batch_saw_loss(mm, X1, y1)) / (2 * h)
            assert abs(analytic - fd) <= 1e-4 * max(abs(fd), abs(analytic)) + 1e-6

    @pytest.mark.parametrize("mode", ["kl", "ce", "saw"])
    @pytest.mark.parametrize("lr", [0.0, 0.3])
    def test_equals_step_scaled_after_the_matmuls(self, mode, lr):
        # the reference backpropagates dlogits / n and scales each layer's
        # gradient by the learning rate afterwards
        ref = self.model.copy()
        logits, acts = forward_batch(ref, self.X)
        table = stage_target_table(PARAMS, PART, SUP)
        idx = self.y - SUP.min_label
        delta = _loss_terms(logits, idx, table.target[idx], PARAMS.alphas[PART.stages_of(self.y)],
                            SUP, mode).dlogits / len(self.y)
        for layer in range(len(ref.weights) - 1, -1, -1):
            grad_w, grad_b = acts[layer].T @ delta, delta.sum(axis=0)
            if layer > 0:
                # this layer's input's own pre-activation, before that layer's update
                pre = acts[layer - 1] @ ref.weights[layer - 1] + ref.biases[layer - 1]
                delta = (delta @ ref.weights[layer].T) * (1.0 - np.tanh(pre) ** 2)
            ref.weights[layer] -= lr * grad_w
            ref.biases[layer] -= lr * grad_b
        got = self.model.copy()
        backward_step(got, self.X, self.y, PARAMS, PART, lr, SUP, loss_mode=mode)
        for a, b in zip(got.weights + got.biases, ref.weights + ref.biases):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0)
        if lr == 0.0:
            assert got.equals(self.model)

    def test_loss_decreases_over_fifty_steps(self):
        m = init_model((8, 16, 8, 101), "relu", 0, SUP)
        losses = []
        for _ in range(50):
            m, bd = backward_step(m, self.X, self.y, PARAMS, PART, 1e-2, SUP)
            losses.append(bd.total)
        assert losses[-1] < losses[0]

    def test_pre_step_loss_reported(self):
        m = self.model.copy()
        expected = batch_saw_loss(m, self.X, self.y)
        _, bd = backward_step(m, self.X, self.y, PARAMS, PART, 0.5, SUP)
        assert bd.total == pytest.approx(expected, rel=1e-12)

    def test_kl_and_ce_modes_move_different_directions(self):
        m_kl = self.model.copy()
        m_ce = self.model.copy()
        backward_step(m_kl, self.X, self.y, PARAMS, PART, 0.1, SUP, loss_mode="kl")
        backward_step(m_ce, self.X, self.y, PARAMS, PART, 0.1, SUP, loss_mode="ce")
        assert not m_kl.equals(m_ce)

    def test_empty_batch_rejected(self):
        with pytest.raises(EmptyInputError):
            backward_step(self.model.copy(), self.X[:0], self.y[:0], PARAMS,
                          PART, 0.1, SUP)

    @pytest.mark.parametrize("mode", ["kl", "ce", "saw"])
    def test_stats_objective_is_per_sample_objective(self, mode):
        _, _, stats = backward_step(self.model.copy(), self.X, self.y, PARAMS, PART,
                                    0.1, SUP, loss_mode=mode, return_stats=True)
        kl, ce, sq_err = sample_losses(stats, self.y)
        for i, y in enumerate(self.y):
            s = PART.stage_of(int(y))
            logits = forward(self.model, self.X[i]).logits
            sigma, alpha = PARAMS.sigmas[s], PARAMS.alphas[s]
            want = saw_loss(logits, int(y), sigma, alpha, SUP)
            got = {"kl": kl[i], "ce": ce[i],
                   "saw": alpha * kl[i] + (1.0 - alpha) * ce[i] + MSE_WEIGHT * sq_err[i]}
            want = {"kl": want.kl, "ce": want.ce, "saw": want.total}
            assert got[mode] == pytest.approx(want[mode], rel=1e-12)

    def test_stages_read_on_a_wider_partition_support(self):
        wide = StagePartition(boundaries=(-30, 50), support=LabelSupport(-30, 100),
                              provenance="manual")
        m_wide, m = self.model.copy(), self.model.copy()
        _, _, got = backward_step(m_wide, self.X, self.y, PARAMS, wide, 0.1, SUP,
                                  return_stats=True)
        _, _, want = backward_step(m, self.X, self.y, PARAMS, PART, 0.1, SUP,
                                   return_stats=True)
        # the composite gradient weighs each sample by its stage's alpha
        np.testing.assert_array_equal(got.dlogits, want.dlogits)
        assert m_wide.equals(m)

    @pytest.mark.parametrize("mode", ["kl", "ce", "saw"])
    def test_checked_path_equals_positional_path_bitwise(self, mode):
        table = stage_target_table(PARAMS, PART, SUP)
        idx = self.y - SUP.min_label
        m_pos, m_kw = self.model.copy(), self.model.copy()
        _, _, want = backward_step(m_pos, self.X, self.y, PARAMS, PART, 0.1, SUP,
                                   loss_mode=mode, return_stats=True, table=table)
        _, _, got = backward_step(m_kw, self.X, self.y, PARAMS, PART, 0.1, SUP,
                                  loss_mode=mode, return_stats=True, table=table,
                                  checked=(idx, PARAMS.alphas[PART.stages_of(self.y)]))
        assert m_kw.equals(m_pos)
        for name, a, b in zip(LossTerms._fields, got, want):
            np.testing.assert_array_equal(a, b, name)

    @pytest.mark.parametrize("mode", ["kl", "ce", "saw"])
    def test_breakdown_is_from_sums_of_its_own_stats(self, mode):
        _, bd = backward_step(self.model.copy(), self.X, self.y, PARAMS, PART, 0.1, SUP,
                              loss_mode=mode)
        _, _, stats = backward_step(self.model.copy(), self.X, self.y, PARAMS, PART, 0.1,
                                    SUP, loss_mode=mode, return_stats=True)
        a = PARAMS.alphas[PART.stages_of(self.y)]
        kl, ce, sq_err = sample_losses(stats, self.y)
        assert bd == LossBreakdown.from_sums(a @ kl, (1.0 - a) @ ce, sq_err.sum(), a.sum(), len(a))
        assert bd.total == pytest.approx(bd.alpha_used * bd.kl + (1 - bd.alpha_used) * bd.ce
                                         + MSE_WEIGHT * bd.mse, rel=1e-12)
        # CE over n - sum(alpha) rather than sum(1 - alpha): the same value up to rounding
        assert bd.ce == pytest.approx((1.0 - a) @ ce / (1.0 - a).sum(), rel=1e-12)

    @pytest.mark.parametrize("bad", [3.7, np.nan])
    def test_label_that_is_not_a_whole_number_rejected(self, bad):
        # an int64 cast would train on label 3, or on some label for nan
        m = self.model.copy()
        with pytest.raises(InvalidLabelError, match="is not a whole number"):
            backward_step(m, self.X[:2], [10, bad], PARAMS, PART, 0.1, SUP)
        with pytest.raises(InvalidLabelError, match="is not a whole number"):
            backward_step(m, self.X[:1], [bad], PARAMS, PART, 0.1, SUP, return_stats=True)
        assert m.equals(self.model)

    @pytest.mark.parametrize("bad", [-1, 101])
    def test_label_outside_support_rejected(self, bad):
        # unchecked, NumPy would wrap -1 to the last label and fail on 101 with IndexError
        m = self.model.copy()
        with pytest.raises(InvalidLabelError, match=f"label {bad} outside"):
            backward_step(m, self.X[:2], [10, bad], PARAMS, PART, 0.1, SUP, return_stats=True)
        assert m.equals(self.model)

    def test_whole_float_labels_train_as_integers(self):
        m_int, m_float = self.model.copy(), self.model.copy()
        _, want = backward_step(m_int, self.X, self.y, PARAMS, PART, 0.1, SUP)
        _, got = backward_step(m_float, self.X, self.y.astype(float), PARAMS, PART, 0.1, SUP)
        assert m_float.equals(m_int) and got == want

    def test_breakdown_identity_with_mixed_stages(self):
        _, bd = backward_step(self.model.copy(), self.X, self.y, PARAMS, PART,
                              0.1, SUP)
        recomposed = (bd.alpha_used * bd.kl + (1 - bd.alpha_used) * bd.ce
                      + 0.01 * bd.mse)
        assert abs(bd.total - recomposed) <= 1e-9


class TestPredictAges:
    def test_rules_differ_on_skewed_distribution(self):
        m = init_model((3, 101), "relu", 0, SUP)
        m.weights[0][:] = 0.0
        m.biases[0][:] = 0.0
        m.biases[0][10] = 5.0
        m.biases[0][90] = 4.9
        x = np.zeros((1, 3))
        assert predict_ages(m, x, SUP, "argmax")[0] == 10.0
        expectation = predict_ages(m, x, SUP, "expectation")[0]
        assert 10.0 < expectation < 90.0

    def test_unknown_rule_rejected(self):
        m = init_model((3, 101), "relu", 0, SUP)
        with pytest.raises(InvalidParameterError):
            predict_ages(m, np.zeros((1, 3)), SUP, "mode")


class TestCheckpointRoundTrip:
    def test_dict_round_trip(self):
        m = init_model((7, 33, 12, 101), "tanh", 9, SUP)
        for w in m.weights:
            w += np.random.default_rng(1).normal(size=w.shape) * 0.37
        again = model_from_dict(json.loads(json.dumps(model_to_dict(m))))
        assert again.equals(m)
        assert again.layer_dims == m.layer_dims
        assert again.activation == m.activation

    def test_bit_exact(self, tmp_path):
        m = init_model((7, 33, 12, 101), "tanh", 9, SUP)
        for w in m.weights:
            w += np.random.default_rng(1).normal(size=w.shape) * 0.37
        # values that compare equal to, or underflow towards, zero
        m.weights[0][0, 0] = -0.0
        m.biases[-1][0] = 5e-324
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_to_dict(m)), encoding="utf-8")
        loaded = model_from_dict(json.loads(path.read_text(encoding="utf-8")))
        for a, b in zip(loaded.weights + loaded.biases, m.weights + m.biases):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    def test_version_checked(self):
        doc = model_to_dict(init_model((4, 101), "relu", 2, SUP))
        doc["version"] = 99
        with pytest.raises(InvalidParameterError):
            model_from_dict(doc)

    def test_fractional_layer_width_rejected(self):
        # int() would truncate the width to 4
        doc = model_to_dict(init_model((4, 101), "relu", 2, SUP))
        doc["layer_dims"] = [4.5, 101]
        with pytest.raises(InvalidParameterError, match="whole number"):
            model_from_dict(doc)


def test_forward_batch_matches_single():
    m = init_model((5, 9, 101), "relu", 4, SUP)
    X = np.random.default_rng(2).normal(size=(6, 5))
    logits, acts = forward_batch(m, X)
    emb = acts[-1]
    for i in range(6):
        tr = forward(m, X[i])
        np.testing.assert_allclose(logits[i], tr.logits, atol=1e-12)
        np.testing.assert_allclose(emb[i], tr.embedding, atol=1e-12)


def test_forward_batch_keeps_the_input_and_one_activation_per_hidden_layer():
    m = init_model((5, 9, 7, 101), "tanh", 4, SUP)
    X = np.random.default_rng(2).normal(size=(6, 5))
    logits, acts = forward_batch(m, X)
    assert [a.shape for a in acts] == [(6, 5), (6, 9), (6, 7)]
    assert acts[0] is X
    np.testing.assert_array_equal(acts[1], np.tanh(X @ m.weights[0] + m.biases[0]))
    np.testing.assert_array_equal(logits, acts[2] @ m.weights[2] + m.biases[2])


@pytest.mark.parametrize("kind", ["relu", "tanh"])
@given(z=arrays(np.float64, st.integers(1, 32),
                elements=st.floats(allow_nan=True, allow_infinity=True)))
@example(z=np.array([0.0, -0.0, np.nan, -np.nan, 1e300, -1e300, np.inf, -np.inf, 20.0, -20.0,
                     5e-324, -5e-324]))
def test_act_grad_from_the_activation_is_the_derivative_at_the_pre_activation(kind, z):
    """``_act_grad`` of the activation, applied in place as the forward pass
    does, has the bits of the derivative taken at the pre-activation."""
    h = z.copy()
    if kind == "relu":
        np.maximum(h, 0.0, out=h)
        want = z > 0.0
    else:
        np.tanh(h, out=h)
        t = np.tanh(z)
        want = 1.0 - t * t
    got = _act_grad(h, kind)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
