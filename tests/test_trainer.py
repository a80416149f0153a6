"""Outer-loop tests: stage parameterization, proposal mechanics, snapshot
rules, determinism, and divergence handling."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from saldl import core, evaluation, trainer
from saldl.core import PROB_FLOOR, SIGMA_MIN, LabelSupport
from saldl.data import AmbiguityProfile, Dataset, generate_synthetic, split
from saldl.errors import (
    EmptyInputError,
    InvalidParameterError,
    ParseError,
    TrainingDivergedError,
)
from saldl.model import BLOCK_ROWS, backward_step, forward_batch, init_model
from saldl.staging import StagePartition
from saldl.trainer import (
    StageParams,
    TrainConfig,
    evaluate_l1,
    initial_stage_params,
    load_checkpoint,
    propose_stage_update,
    save_checkpoint,
    train_sav,
)

SUP = LabelSupport()
PART = StagePartition(boundaries=(0, 50), support=SUP, provenance="manual")


def tiny_dataset(seed=0, n_per_label=4, levels=(4.0, 1.0), noise=0.05):
    profile = AmbiguityProfile(levels=levels, partition=PART, feature_dim=8,
                               noise_scale=noise)
    return generate_synthetic(profile, n_per_label=n_per_label, seed=seed)


def small_model(seed=0, feature_dim=8):
    return init_model((feature_dim, 24, 12, SUP.size), "relu", seed, SUP)


class TestStageParams:
    def test_initial_values(self):
        p = StageParams.initial(10)
        assert p.k == 10
        # softplus(0) = ln 2 above the floor
        np.testing.assert_allclose(p.sigmas, SIGMA_MIN + np.log(2.0))
        np.testing.assert_allclose(p.alphas, 0.5)

    def test_from_values_round_trip(self):
        p = StageParams.from_values([0.5, 2.0, 3.0], [0.1, 0.5, 0.9])
        np.testing.assert_allclose(p.sigmas, [0.5, 2.0, 3.0], atol=1e-12)
        np.testing.assert_allclose(p.alphas, [0.1, 0.5, 0.9], atol=1e-12)

    def test_from_values_rejects_sigma_at_floor(self):
        with pytest.raises(InvalidParameterError):
            StageParams.from_values([SIGMA_MIN], [0.5])

    @pytest.mark.parametrize("name, raw", [("raw_sigma", [np.nan, 0.0]),
                                           ("raw_alpha", [0.0, np.inf])])
    def test_non_finite_raw_value_rejected_naming_it(self, name, raw):
        values = {"raw_sigma": [0.0, 0.0], "raw_alpha": [0.0, 0.0], name: raw}
        with pytest.raises(InvalidParameterError, match=f"^{name}: expected finite numbers"):
            StageParams(**values)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12))
    def test_sigma_always_above_floor(self, raw):
        p = StageParams(raw_sigma=np.array(raw), raw_alpha=np.zeros(len(raw)))
        assert np.all(p.sigmas >= SIGMA_MIN)

    @given(st.lists(st.floats(-80, 80), min_size=1, max_size=12))
    def test_alpha_strictly_inside_unit_interval(self, raw):
        p = StageParams(raw_sigma=np.zeros(len(raw)), raw_alpha=np.array(raw))
        assert np.all(p.alphas > 0.0)
        assert np.all(p.alphas < 1.0)

    def test_serialization_round_trip(self):
        p = StageParams.from_values([1.3, 2.7], [0.25, 0.75])
        q = StageParams.from_dict(p.to_dict())
        assert q.equals(p)

    def test_values_fixed_at_construction(self):
        raw_sigma, raw_alpha = np.zeros(2), np.zeros(2)
        p = StageParams(raw_sigma=raw_sigma, raw_alpha=raw_alpha)
        sigmas, alphas = p.sigmas.copy(), p.alphas.copy()
        raw_sigma[:] = 5.0  # the caller's arrays are not the parameters
        raw_alpha[:] = -5.0
        q = StageParams(raw_sigma=np.full(2, 5.0), raw_alpha=np.full(2, -5.0))
        np.testing.assert_array_equal(p.raw_sigma, np.zeros(2))
        np.testing.assert_array_equal(p.sigmas, sigmas)
        np.testing.assert_array_equal(p.alphas, alphas)
        assert not np.array_equal(q.sigmas, sigmas)
        assert p.sigmas is p.sigmas  # computed once
        for arr in (p.raw_sigma, p.raw_alpha, p.sigmas, p.alphas):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0


def gradient_config(**kw):
    """Gradient mode with no walking coordinate: a proposal is the sigma step."""
    return TrainConfig(adaptation_mode="gradient", sav=True, loss_mode="kl", **kw)


# every (sav, loss_mode, adaptation_mode) switch setting
WALK_CONFIGS = [dict(sav=sav, loss_mode=loss_mode, adaptation_mode=mode)
                for sav in (True, False) for loss_mode in ("kl", "ce", "saw")
                for mode in ("grid", "gradient")]


def walks(sav, loss_mode, adaptation_mode):
    """(sigma walks, alpha walks): sigma walks the grid only in grid mode,
    and never in a pure-CE or a fixed-sigma run; alpha walks under saw."""
    return (sav and loss_mode != "ce" and adaptation_mode == "grid", loss_mode == "saw")


class TestProposeStageUpdate:
    def test_gradient_zero_grads_identity(self):
        p = StageParams.initial(3)
        q = propose_stage_update(p, 0, np.zeros(3), gradient_config(stage_lr=0.5))
        assert q.equals(p)

    def test_gradient_missing_grads_leave_param(self):
        p = StageParams.initial(2)
        q = propose_stage_update(p, 0, np.array([1.0, -1.0]), gradient_config(stage_lr=0.1))
        np.testing.assert_array_equal(q.raw_alpha, p.raw_alpha)
        assert not np.array_equal(q.raw_sigma, p.raw_sigma)

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=6))
    def test_gradient_step_respects_sigma_floor(self, grads):
        p = StageParams.initial(len(grads))
        q = propose_stage_update(p, 0, np.array(grads), gradient_config(stage_lr=2.0))
        assert np.all(q.sigmas >= SIGMA_MIN)

    def test_grid_walk_order_is_deterministic(self):
        cfg = TrainConfig(sav=True, loss_mode="saw", adaptation_mode="grid",
                          sigma_grid=(0.5, 1.0), alpha_grid=(0.2, 0.8))
        p = StageParams.initial(2)
        seen = []
        for step in range(8):
            q = propose_stage_update(p, step, None, cfg)
            ds = np.flatnonzero(~np.isclose(q.sigmas, p.sigmas))
            da = np.flatnonzero(~np.isclose(q.alphas, p.alphas))
            if ds.size:
                seen.append(("sigma", int(ds[0]), float(q.sigmas[ds[0]])))
            else:
                seen.append(("alpha", int(da[0]), float(q.alphas[da[0]])))
        # stages round-robin; each stage alternates sigma then alpha, each
        # parameter cycling its own grid pointer
        assert seen == [
            ("sigma", 0, 0.5), ("sigma", 1, 0.5),
            ("alpha", 0, 0.2), ("alpha", 1, 0.2),
            ("sigma", 0, 1.0), ("sigma", 1, 1.0),
            ("alpha", 0, 0.8), ("alpha", 1, 0.8),
        ]

    def test_grid_single_value_is_constant(self):
        cfg = TrainConfig(sav=True, loss_mode="kl", adaptation_mode="grid",
                          sigma_grid=(2.0,), alpha_grid=(0.5,))
        p = StageParams.from_values([2.0, 2.0], [0.5, 0.5])
        for step in range(5):
            q = propose_stage_update(p, step, None, cfg)
            np.testing.assert_allclose(q.sigmas, p.sigmas, atol=1e-12)

    def test_switch_settings_cover_every_walk(self):
        assert {walks(**switches) for switches in WALK_CONFIGS} == {
            (True, True), (True, False), (False, True), (False, False)}

    @given(switches=st.sampled_from(WALK_CONFIGS), k=st.integers(1, 5),
           sigma_grid=st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0]), min_size=1, max_size=4),
           alpha_grid=st.lists(st.sampled_from([0.1, 0.3, 0.5, 0.9]), min_size=1, max_size=4),
           steps=st.integers(0, 60), with_grads=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_grid_walk_equals_pointer_cursor(self, switches, k, sigma_grid, alpha_grid,
                                             steps, with_grads):
        """Proposal ``step`` makes the move the pointer cursor below makes on
        its ``step``-th call; that cursor is the walk kept in place. Given
        sigma gradients, the proposal then steps the raw sigmas along them."""
        adapt_sigma, adapt_alpha = walks(**switches)
        cfg = TrainConfig(sigma_grid=tuple(sigma_grid), alpha_grid=tuple(alpha_grid),
                          stage_lr=0.3, **switches)
        grads = np.linspace(-1.0, 1.0, k) if with_grads else None
        stage, sigma_ptr, alpha_ptr, next_is_sigma = 0, [0] * k, [0] * k, [True] * k
        p = StageParams.from_values(np.full(k, 1.3), np.full(k, 0.45))
        for step in range(steps):
            want = p
            if adapt_sigma or adapt_alpha:
                if adapt_sigma and (next_is_sigma[stage] or not adapt_alpha):
                    want = p.with_sigma(stage, sigma_grid[sigma_ptr[stage]])
                    sigma_ptr[stage] = (sigma_ptr[stage] + 1) % len(sigma_grid)
                else:
                    want = p.with_alpha(stage, alpha_grid[alpha_ptr[stage]])
                    alpha_ptr[stage] = (alpha_ptr[stage] + 1) % len(alpha_grid)
                if adapt_sigma and adapt_alpha:
                    next_is_sigma[stage] = not next_is_sigma[stage]
                stage = (stage + 1) % k
            if grads is not None:
                want = StageParams(raw_sigma=want.raw_sigma - 0.3 * grads,
                                   raw_alpha=want.raw_alpha)
            assert propose_stage_update(p, step, grads, cfg).equals(want)


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.adaptation_mode == "grid"
        assert cfg.loss_mode == "saw"

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            TrainConfig(epochs=-1)
        with pytest.raises(InvalidParameterError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(InvalidParameterError):
            TrainConfig(sigma_grid=(0.1,))
        with pytest.raises(InvalidParameterError):
            TrainConfig(alpha_grid=(0.0, 0.5))
        with pytest.raises(InvalidParameterError):
            TrainConfig(adaptation_mode="random")
        with pytest.raises(InvalidParameterError):
            TrainConfig(loss_mode="mae")
        with pytest.raises(InvalidParameterError):
            TrainConfig(fixed_sigma=0.1)

    # nan passed every x <= 0 check, and infinity every lower bound
    @pytest.mark.parametrize("field, value", [
        ("learning_rate", np.nan), ("learning_rate", np.inf), ("stage_lr", np.nan),
        ("stage_lr", np.inf), ("fixed_sigma", np.nan), ("fixed_sigma", np.inf),
        ("sigma_grid", (1.0, np.nan)), ("sigma_grid", (np.inf,))])
    def test_non_finite_value_rejected(self, field, value):
        with pytest.raises(InvalidParameterError, match=f"^{field}: "):
            TrainConfig(**{field: value})

    # a bool read as 1.0 and a string as its characters' digits
    @pytest.mark.parametrize("field, value", [
        ("fixed_sigma", True), ("learning_rate", True), ("stage_lr", np.True_),
        ("sigma_grid", "12"), ("sigma_grid", (True, 2.0)), ("alpha_grid", [np.True_])])
    def test_bool_or_string_is_no_number(self, field, value):
        with pytest.raises(InvalidParameterError, match=f"^{field}: "):
            TrainConfig(**{field: value})

    def test_ce_mode_disables_sigma_adaptation(self):
        cfg = TrainConfig(loss_mode="ce", sav=True)
        assert not cfg.adapt_sigma
        assert not cfg.adapt_alpha


class TestTrainSav:
    def test_zero_epochs_identity(self):
        data = tiny_dataset()
        tr, va, te = split(data, (0.7, 0.15, 0.15), seed=0)
        cfg = TrainConfig(epochs=0, seed=0)
        m0 = small_model()
        p0 = StageParams.initial(PART.k)
        best_m, best_p, hist = train_sav(tr, va, PART, m0, p0, cfg)
        assert len(hist) == 0
        assert best_m.equals(m0)
        assert best_p.equals(p0)

    def test_single_age_dataset_learned(self):
        profile = AmbiguityProfile(levels=(1.0, 1.0), partition=PART,
                                   feature_dim=8, noise_scale=0.05)
        full = generate_synthetic(profile, n_per_label=3, seed=1)
        only42 = np.flatnonzero(full.labels == 42)
        # replicate the group so the stratified split has enough samples
        from saldl.data import Dataset
        data = Dataset(ids=tuple(f"{full.ids[j]}-{i}" for j in only42 for i in range(20)),
                       labels=[42] * (20 * len(only42)),
                       features=[full.features[j] + 0.001 * i
                                 for j in only42 for i in range(20)],
                       support=SUP)
        tr, va, te = split(data, (0.6, 0.2, 0.2), seed=0)
        cfg = TrainConfig(epochs=10, batch_size=16, learning_rate=0.2, seed=0)
        best_m, _, hist = train_sav(tr, va, PART, small_model(),
                                    StageParams.initial(PART.k), cfg)
        assert min(r.val_l1 for r in hist.records) < 0.5
        assert any(r.snapshot for r in hist.records)

    def test_snapshot_sequence_strictly_decreasing(self):
        data = tiny_dataset()
        tr, va, _ = split(data, (0.7, 0.15, 0.15), seed=0)
        cfg = TrainConfig(epochs=15, learning_rate=0.1, seed=0)
        _, _, hist = train_sav(tr, va, PART, small_model(),
                               StageParams.initial(PART.k), cfg)
        accepted = hist.accepted_l1()
        assert len(accepted) >= 1
        assert all(a > b for a, b in zip(accepted, accepted[1:]))

    def test_rejected_proposals_do_not_leak_into_result(self):
        data = tiny_dataset()
        tr, va, _ = split(data, (0.7, 0.15, 0.15), seed=0)
        cfg = TrainConfig(epochs=20, learning_rate=0.1, seed=0)
        _, best_p, hist = train_sav(tr, va, PART, small_model(),
                                    StageParams.initial(PART.k), cfg)
        last_snapshot = [r for r in hist.records if r.snapshot][-1]
        np.testing.assert_allclose(best_p.sigmas, last_snapshot.sigmas, atol=1e-12)
        np.testing.assert_allclose(best_p.alphas, last_snapshot.alphas, atol=1e-12)

    def test_adaptation_disabled_keeps_sigma_constant(self):
        data = tiny_dataset()
        tr, va, _ = split(data, (0.7, 0.15, 0.15), seed=0)
        cfg = TrainConfig(epochs=8, learning_rate=0.1, seed=0, stage_lr=0.0,
                          sigma_grid=(2.0,), alpha_grid=(0.5,), sav=True,
                          loss_mode="saw")
        p0 = StageParams.from_values([2.0, 2.0], [0.5, 0.5])
        _, best_p, hist = train_sav(tr, va, PART, small_model(), p0, cfg)
        for r in hist.records:
            assert r.sigmas == (2.0, 2.0)
            assert r.alphas == (0.5, 0.5)
        np.testing.assert_allclose(best_p.sigmas, [2.0, 2.0])

    def test_alpha_extreme_degenerates_to_kl_plus_mse(self):
        data = tiny_dataset()
        X = data.features_matrix()[:32]
        y = data.labels[:32]
        params = StageParams(raw_sigma=np.zeros(2), raw_alpha=np.full(2, 40.0))
        _, bd = backward_step(small_model(), X, y, params, PART, 0.1, SUP)
        assert bd.total == pytest.approx(bd.kl + 0.01 * bd.mse, rel=1e-6)

    def test_deterministic_history(self):
        data = tiny_dataset()
        tr, va, _ = split(data, (0.7, 0.15, 0.15), seed=0)
        cfg = TrainConfig(epochs=6, learning_rate=0.1, seed=3)
        runs = []
        for _ in range(2):
            _, _, hist = train_sav(tr, va, PART, small_model(),
                                   StageParams.initial(PART.k), cfg)
            runs.append(hist.records)
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("loss_mode", ["kl", "saw"])  # the sav and full arms
    def test_row_memo_leaves_no_trace_in_training(self, loss_mode):
        data = tiny_dataset()
        tr, va, _ = split(data, (0.7, 0.15, 0.15), seed=0)
        cfg = TrainConfig(epochs=5, learning_rate=0.1, stage_lr=0.3, seed=0,
                          adaptation_mode="gradient", loss_mode=loss_mode)

        def run(params0):
            model, params, hist = train_sav(tr, va, PART, small_model(), params0, cfg)
            return (json.dumps(hist.to_dicts()),
                    [a.tobytes() for a in (*model.weights, *model.biases,
                                           params.raw_sigma, params.raw_alpha)])

        first = run(StageParams.initial(PART.k))
        run(StageParams.from_values([0.9, 3.1], [0.3, 0.6]))  # tables at other sigmas
        assert run(StageParams.initial(PART.k)) == first

    def test_divergence_raises_with_history(self):
        # Overflow-safe softmax and floored logs keep the loss finite for any
        # finite parameters, so non-finite state is injected directly (a
        # corrupt warm start) to exercise the contract.
        data = tiny_dataset()
        tr, va, _ = split(data, (0.7, 0.15, 0.15), seed=0)
        cfg = TrainConfig(epochs=30, learning_rate=0.1, seed=0)
        poisoned = small_model()
        poisoned.weights[0][0, 0] = np.inf
        with pytest.raises(TrainingDivergedError) as exc_info:
            train_sav(tr, va, PART, poisoned, StageParams.initial(PART.k), cfg)
        from saldl.trainer import TrainHistory
        assert isinstance(exc_info.value.history, TrainHistory)

    def test_empty_split_rejected(self):
        data = tiny_dataset()
        tr, va, _ = split(data, (0.7, 0.15, 0.15), seed=0)
        from saldl.data import Dataset
        empty = Dataset(ids=(), labels=[], features=np.zeros((0, 8)), support=SUP)
        with pytest.raises(EmptyInputError):
            train_sav(empty, va, PART, small_model(),
                      StageParams.initial(PART.k), TrainConfig())
        with pytest.raises(EmptyInputError):
            train_sav(tr, empty, PART, small_model(),
                      StageParams.initial(PART.k), TrainConfig())

    def test_split_or_partition_on_another_support_rejected(self):
        # a validation split on 0..120 was scored on the train grid
        tr, va, _ = split(tiny_dataset(), (0.7, 0.15, 0.15), seed=0)
        wide = LabelSupport(0, 120)
        va_wide = Dataset(ids=va.ids, labels=va.labels, features=va.features, support=wide)
        part_wide = StagePartition(boundaries=(0, 50), support=wide, provenance="manual")
        for val, part in ((va_wide, PART), (va, part_wide)):
            with pytest.raises(InvalidParameterError, match="max_label=120.*max_label=100"):
                train_sav(tr, val, part, small_model(), StageParams.initial(PART.k),
                          TrainConfig(epochs=1))

    def test_params_partition_size_mismatch_rejected(self):
        data = tiny_dataset()
        tr, va, _ = split(data, (0.7, 0.15, 0.15), seed=0)
        with pytest.raises(InvalidParameterError):
            train_sav(tr, va, PART, small_model(), StageParams.initial(5),
                      TrainConfig())


# (arm switches, adaptation mode, kl_gradient_sigma calls per epoch)
SIGMA_GRADIENT_CALLS = {
    "sav": (dict(sav=True, loss_mode="kl"), "gradient", PART.k),
    "full": (dict(sav=True, loss_mode="saw"), "gradient", PART.k),
    "sav-grid": (dict(sav=True, loss_mode="kl"), "grid", 0),
    "full-grid": (dict(sav=True, loss_mode="saw"), "grid", 0),
    "fixed": (dict(sav=False, loss_mode="kl"), "gradient", 0),
    "ce": (dict(sav=False, loss_mode="ce"), "gradient", 0),
    "saw": (dict(sav=False, loss_mode="saw"), "gradient", 0),
}


class TestSigmaGradientReduction:
    """Gradient-mode sigma arms reduce dKL/dsigma once per stage per epoch."""

    def run(self, monkeypatch, arm, epochs=4):
        switches, mode, _ = SIGMA_GRADIENT_CALLS[arm]
        events = []
        step, grad = trainer.backward_step, trainer.kl_gradient_sigma

        def spy_step(*args, **kwargs):
            out = step(*args, **kwargs)
            events.append(("step", np.array(args[2]), out[2].preds.copy()))
            return out

        def spy_grad(*args):
            events.append(("grad", args, grad(*args)))
            return events[-1][2]

        monkeypatch.setattr(trainer, "backward_step", spy_step)
        monkeypatch.setattr(trainer, "kl_gradient_sigma", spy_grad)
        tr, va, _ = split(tiny_dataset(), (0.7, 0.15, 0.15), seed=0)
        cfg = TrainConfig(epochs=epochs, learning_rate=0.2, stage_lr=0.3, seed=0,
                          adaptation_mode=mode, **switches)
        train_sav(tr, va, PART, small_model(), initial_stage_params(PART.k, cfg), cfg)
        return events

    @pytest.mark.parametrize("arm", SIGMA_GRADIENT_CALLS)
    def test_one_call_per_stage_per_epoch(self, monkeypatch, arm):
        grads = [e for e in self.run(monkeypatch, arm) if e[0] == "grad"]
        assert len(grads) == 4 * SIGMA_GRADIENT_CALLS[arm][2]
        ends = (*PART.boundaries[1:], SUP.max_label + 1)
        for i, (_, args, _) in enumerate(grads):  # each over its stage's labels
            s = i % PART.k
            np.testing.assert_array_equal(args[0], np.arange(PART.boundaries[s], ends[s]))

    @pytest.mark.parametrize("arm", ["sav", "full"])
    def test_equals_sum_of_the_epochs_per_sample_gradients(self, monkeypatch, arm):
        labels, preds = [], []
        for kind, a, b in self.run(monkeypatch, arm):
            if kind == "step":
                labels.append(a)
                preds.append(b)
                continue
            table = a[3]
            y, p = np.concatenate(labels), np.concatenate(preds)
            mine = (y >= a[0][0]) & (y <= a[0][-1])
            log_p = np.log(np.maximum(p[mine], PROB_FLOOR))
            terms = table.dsigma[y[mine]] * (table.log_target[y[mine]] - log_p)
            assert abs(b - terms.sum()) <= 1e-12 * np.abs(terms).sum()
            if a[0][-1] == SUP.max_label:  # the epoch's last stage
                labels, preds = [], []

    # saw proposes alphas only; sav moves both sigmas every epoch
    @pytest.mark.parametrize("arm, builds", [("fixed", 1), ("ce", 1), ("saw", 1), ("sav", 4)])
    def test_target_table_rebuilt_only_when_sigmas_change(self, monkeypatch, arm, builds):
        tables = []
        build = trainer.stage_target_table
        monkeypatch.setattr(trainer, "stage_target_table",
                            lambda *a: tables.append(build(*a)) or tables[-1])
        self.run(monkeypatch, arm)
        assert len(tables) == builds


def test_rejected_proposal_gradient_moves_the_next_proposal(monkeypatch):
    """Pins today's rule: the sigma gradient measured in an epoch whose
    proposal validation rejects still steps the accepted parameters next."""
    grads, steps = [], []
    grad, propose = trainer.kl_gradient_sigma, trainer.propose_stage_update

    def spy_grad(*args):
        grads.append(grad(*args))
        return grads[-1]

    def spy_propose(params, step, sigma_grads, config):
        out = propose(params, step, sigma_grads, config)
        steps.append((params, sigma_grads, out))
        return out

    monkeypatch.setattr(trainer, "kl_gradient_sigma", spy_grad)
    monkeypatch.setattr(trainer, "propose_stage_update", spy_propose)
    tr, va, _ = split(tiny_dataset(), (0.7, 0.15, 0.15), seed=0)
    # a step size at which validation rejects the proposals of epochs 8 and 9
    cfg = TrainConfig(epochs=12, learning_rate=1.0, stage_lr=1.0, seed=0,
                      adaptation_mode="gradient", sav=True, loss_mode="kl")
    params0 = initial_stage_params(PART.k, cfg)
    _, _, hist = train_sav(tr, va, PART, small_model(), params0, cfg)

    counts = np.bincount(PART.stages_of(tr.labels), minlength=PART.k)
    used = [params0] + [out for _, _, out in steps]  # each epoch's stage params
    accepted = params0
    rejected = 0
    for epoch, record in enumerate(hist.records[:-1]):
        if record.snapshot:
            accepted = used[epoch]
            continue
        rejected += 1
        base, sigma_grads, out = steps[epoch]  # the proposal of epoch + 1
        measured = np.array(grads[epoch * PART.k:(epoch + 1) * PART.k])
        want = measured * trainer.sigmoid(used[epoch].raw_sigma) / counts
        assert not used[epoch].equals(accepted)
        assert base.equals(accepted)
        np.testing.assert_array_equal(sigma_grads, want)
        np.testing.assert_array_equal(out.raw_sigma,
                                      accepted.raw_sigma - cfg.stage_lr * want)
        assert not out.equals(accepted)
    assert rejected >= 2


# The acceptance arms on a tiny task, gradient mode, 8 epochs: SHA-256 of the
# history (``to_dicts`` as JSON) and of the final raw_sigma, raw_alpha,
# weight and bias bytes. All ten were re-recorded when the SGD step folded
# the learning rate into the backward delta, the composite logit gradient
# became one fused expression and the epoch's squared error one sum: weights
# and losses moved by rounding only (below 1e-12 relative) and every arm kept
# its snapshot epochs. The fixed and sav history digests were re-recorded
# again when the per-label log-prediction sums began to add in row order
# (``np.bincount``) instead of a BLAS one-hot product: their loss records
# moved by at most 1.8e-16 relative, and every snapshot epoch and final
# state stayed the same. Any later change in the last bit of training shows
# here. The values hold for one NumPy / BLAS build
# (NumPy 2.4.6, OpenBLAS, x86-64).
GOLDEN_ARMS = {
    "fixed": (dict(sav=False, loss_mode="kl"),
              "1ce04168fb11c5b4c55c1eec9b3bf2ed8e1cdcadab70ae5b22c9966fb0e6bd9d",
              "ce2ec42d52e8d22af636f509ca393c7bc0c1c785aa99dbb8081b6127e43e889c"),
    "sav": (dict(sav=True, loss_mode="kl"),
            "762c4c0d8c314055047ab61707997dd86fb2d999db9d406eec03a3eed35e13aa",
            "a91fc4ba2b883cfdc7856c70ec770e6844c3bc3ca58402ab104dd5d66260fd4d"),
    "ce": (dict(sav=False, loss_mode="ce"),
           "9e240efdddaca3e239035cc5f04672ab398e395d399be5eb202a5e601193e580",
           "72cfa0cbe96a9f826a6cb2c81d11acfabb4399f6dbe966e935f5fc910174aae1"),
    "saw": (dict(sav=False, loss_mode="saw"),
            "9b379efdd07ea2f062a54082dc597cb7bb48b3ec12df6fb28abb0736b8536848",
            "bc2825a8d3a4e0c05bb3af024a33258cb5773cd2c79551dc78b60e124047c7b4"),
    "full": (dict(sav=True, loss_mode="saw"),
             "e719483ac4c9306a438c28faca64d9134d9e510a3d057c15fe58ce7746c3fd65",
             "30f6bdced3aa03fc0215a464c6277526dec865baef4c265479e36acdcf516b8c"),
}


@pytest.mark.parametrize("arm", GOLDEN_ARMS)
def test_acceptance_arm_bytes_pinned(arm):
    switches, history_sha, state_sha = GOLDEN_ARMS[arm]
    tr, va, _ = split(tiny_dataset(), (0.7, 0.15, 0.15), seed=0)
    cfg = TrainConfig(epochs=8, batch_size=32, learning_rate=0.2, stage_lr=0.3,
                      adaptation_mode="gradient", fixed_sigma=2.0, seed=0, **switches)
    model, params, hist = train_sav(tr, va, PART, small_model(),
                                    initial_stage_params(PART.k, cfg), cfg)
    state = b"".join(a.tobytes() for a in (params.raw_sigma, params.raw_alpha,
                                           *model.weights, *model.biases))
    assert hashlib.sha256(json.dumps(hist.to_dicts()).encode()).hexdigest() == history_sha
    assert hashlib.sha256(state).hexdigest() == state_sha


# The sav, saw and full arms of GOLDEN_ARMS in grid mode, the default
# adaptation mode: SHA-256 of the history and of the final state, as above.
# Recorded before the grid walk became a function of the proposal number,
# in place of a cursor advanced by each proposal. The saw digests equal the
# gradient-mode ones: that arm adapts alpha only, on the grid in both modes.
GRID_ARMS = {
    "sav": ("49c9d365168691993f7a174e9e430b9cedd17122792db8a88e5d4039acc00ece",
            "d8328257c4b4a69ff19e79b1e59e21a2724d30a818b64c6725f4cb9dc1bb03d7"),
    "saw": ("9b379efdd07ea2f062a54082dc597cb7bb48b3ec12df6fb28abb0736b8536848",
            "bc2825a8d3a4e0c05bb3af024a33258cb5773cd2c79551dc78b60e124047c7b4"),
    "full": ("283344b24a741075d0fb9935c946aa96147d20e1940871429a39ade3a8349bcb",
             "db71297e64b54f15748ac722cb8bbdbc6768e4c29c1d5766d68c62d137333bc8"),
}


@pytest.mark.parametrize("arm", GRID_ARMS)
def test_grid_arm_bytes_pinned(arm):
    history_sha, state_sha = GRID_ARMS[arm]
    tr, va, _ = split(tiny_dataset(), (0.7, 0.15, 0.15), seed=0)
    cfg = TrainConfig(epochs=8, batch_size=32, learning_rate=0.2, stage_lr=0.3,
                      adaptation_mode="grid", fixed_sigma=2.0, seed=0, **GOLDEN_ARMS[arm][0])
    model, params, hist = train_sav(tr, va, PART, small_model(),
                                    initial_stage_params(PART.k, cfg), cfg)
    state = b"".join(a.tobytes() for a in (params.raw_sigma, params.raw_alpha,
                                           *model.weights, *model.biases))
    assert hashlib.sha256(json.dumps(hist.to_dicts()).encode()).hexdigest() == history_sha
    assert hashlib.sha256(state).hexdigest() == state_sha


def run_golden_arm(arm, monkeypatch, on_step):
    """The pinned arm's run, with ``on_step`` called before each SGD step on
    that step's arguments; returns the train split and the history."""
    step = trainer.backward_step

    def spy(*args, **kwargs):
        on_step(*args, **kwargs)
        return step(*args, **kwargs)

    monkeypatch.setattr(trainer, "backward_step", spy)
    tr, va, _ = split(tiny_dataset(), (0.7, 0.15, 0.15), seed=0)
    cfg = TrainConfig(epochs=8, batch_size=32, learning_rate=0.2, stage_lr=0.3,
                      adaptation_mode="gradient", fixed_sigma=2.0, seed=0,
                      **GOLDEN_ARMS[arm][0])
    _, _, hist = train_sav(tr, va, PART, small_model(),
                           initial_stage_params(PART.k, cfg), cfg)
    return tr, hist


@pytest.mark.parametrize("arm", GOLDEN_ARMS)
def test_loss_record_equals_per_sample_sums(arm, monkeypatch):
    """Each epoch's recorded losses equal its batches' per-sample losses,
    replayed through ``_loss_terms`` and ``_sample_losses`` on the pre-step
    logits and reduced as the record defines them."""
    batches = []

    def replay(model, X, y, params, part, *args, loss_mode, table, **kwargs):
        idx, alphas = y - SUP.min_label, params.alphas[part.stages_of(y)]
        terms = core._loss_terms(forward_batch(model, X)[0], idx, table.target[idx], alphas,
                                 SUP, loss_mode)
        kl, ce, mse = core._sample_losses(terms, idx, table.target[idx], SUP)
        objective = {"kl": kl, "ce": ce,
                     "saw": alphas * kl + (1 - alphas) * ce + core.MSE_WEIGHT * mse}[loss_mode]
        batches.append((kl, ce, mse, objective, alphas))

    tr, hist = run_golden_arm(arm, monkeypatch, replay)
    per_epoch = -(-len(tr) // 32)
    assert len(batches) == per_epoch * len(hist)
    for record, start in zip(hist.records, range(0, len(batches), per_epoch)):
        kl, ce, mse, objective, a = map(np.concatenate, zip(*batches[start:start + per_epoch]))
        want = dict(kl=a @ kl / a.sum(), ce=(1 - a) @ ce / (1 - a).sum(), mse=mse.mean(),
                    objective=objective.mean(), alpha_mean=a.mean())
        want["total"] = (want["alpha_mean"] * want["kl"] + (1 - want["alpha_mean"]) * want["ce"]
                         + core.MSE_WEIGHT * want["mse"])
        for name, value in want.items():
            assert getattr(record, name) == pytest.approx(value, rel=1e-12), name


@pytest.mark.parametrize("arm", GOLDEN_ARMS)
def test_kl_reduced_once_per_epoch_not_per_step(arm, monkeypatch):
    """Training computes no per-sample KL: the epoch's KL sums come from one
    ``_kl`` call on per-label sums after the epoch's last step."""
    events = []
    kl = core._kl
    monkeypatch.setattr(core, "_kl", lambda *a, **kw: events.append("kl") or kl(*a, **kw))
    tr, hist = run_golden_arm(arm, monkeypatch, lambda *a, **kw: events.append("step"))
    assert events == (["step"] * -(-len(tr) // 32) + ["kl"]) * len(hist)


def run_recording_sums(monkeypatch, n_per_label, batch_size, epochs=3):
    """A full-arm run that records each step's labels and floored log
    predictions, and each epoch's per-label sums as ``loss_sums`` reads them."""
    steps, sums = [], []
    step, reduce = trainer.backward_step, trainer.loss_sums

    def spy_step(*args, **kwargs):
        out = step(*args, **kwargs)
        steps.append((np.array(args[2]), core._floored_log(out[2].preds)))
        return out

    def spy_sums(counts, log_pred_sums, *args):
        sums.append(log_pred_sums.copy())
        return reduce(counts, log_pred_sums, *args)

    monkeypatch.setattr(trainer, "backward_step", spy_step)
    monkeypatch.setattr(trainer, "loss_sums", spy_sums)
    tr, va, _ = split(tiny_dataset(n_per_label=n_per_label), (0.7, 0.15, 0.15), seed=0)
    cfg = TrainConfig(epochs=epochs, batch_size=batch_size, learning_rate=0.2, stage_lr=0.3,
                      adaptation_mode="gradient", sav=True, loss_mode="saw", seed=0)
    _, _, hist = train_sav(tr, va, PART, small_model(), initial_stage_params(PART.k, cfg), cfg)
    return len(tr), steps, sums, hist


# (n_per_label, batch_size): 202 rows, less than one flush of 256; 808 rows in
# 101 full batches, four flushes; 303 rows in batches of 40, the last of 23
@pytest.mark.parametrize("n_per_label, batch_size", [(3, 32), (12, 8), (4, 40)])
def test_label_sums_equal_add_at_reference(monkeypatch, n_per_label, batch_size):
    n, steps, sums, _ = run_recording_sums(monkeypatch, n_per_label, batch_size)
    per_epoch = -(-n // batch_size)
    assert {(3, 32): n < BLOCK_ROWS, (12, 8): n > 3 * BLOCK_ROWS
            and n % batch_size == 0, (4, 40): n % batch_size != 0}[n_per_label, batch_size]
    assert len(steps) == per_epoch * len(sums)
    for epoch, got in enumerate(sums):
        want = np.zeros((SUP.size, SUP.size))
        for labels, log_preds in steps[epoch * per_epoch:(epoch + 1) * per_epoch]:
            np.add.at(want, labels - SUP.min_label, log_preds)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("n_per_label, batch_size", [(3, 32), (12, 8), (4, 40)])
def test_floored_log_taken_once_per_flush_block_not_per_step(monkeypatch, n_per_label,
                                                             batch_size):
    """No SGD step takes a floored log; ``train_sav`` takes one per flush
    block, in place over the buffered predictions."""
    events, in_step = [], []
    floored_log, step = core._floored_log, trainer.backward_step

    def spy_core_log(p, out=None):
        if in_step:
            events.append("log in step")
        return floored_log(p, out)

    def spy_flush_log(p, out=None):
        events.append(("log", len(p), out is p))
        return floored_log(p, out)

    def spy_step(*args, **kwargs):
        in_step.append(True)
        out = step(*args, **kwargs)
        in_step.pop()
        events.append(("step", len(args[2])))
        return out

    monkeypatch.setattr(core, "_floored_log", spy_core_log)
    monkeypatch.setattr(trainer, "_floored_log", spy_flush_log)
    monkeypatch.setattr(trainer, "backward_step", spy_step)
    tr, va, _ = split(tiny_dataset(n_per_label=n_per_label), (0.7, 0.15, 0.15), seed=0)
    cfg = TrainConfig(epochs=2, batch_size=batch_size, learning_rate=0.2, stage_lr=0.3,
                      adaptation_mode="gradient", sav=True, loss_mode="saw", seed=0)
    _, _, hist = train_sav(tr, va, PART, small_model(), initial_stage_params(PART.k, cfg), cfg)
    n = len(tr)
    block = min(n, batch_size * max(1, BLOCK_ROWS // batch_size))
    want, added = [], 0
    for start in range(0, n, batch_size):
        end = min(start + batch_size, n)
        want.append(("step", end - start))
        if end % block == 0 or end == n:
            want.append(("log", end - added, True))
            added = end
    assert events == want * len(hist)


def test_label_sums_identical_across_runs(monkeypatch):
    _, _, first, hist = run_recording_sums(monkeypatch, 12, 32)
    monkeypatch.undo()
    _, _, second, again = run_recording_sums(monkeypatch, 12, 32)
    for a, b in zip(first, second, strict=True):
        assert a.tobytes() == b.tobytes()
    assert hist.to_dicts() == again.to_dicts()


class TestEvaluateL1:
    def test_perfect_predictions(self):
        data = tiny_dataset()
        m = small_model()
        # build an oracle: features are ignored; not possible via model, so
        # check the arithmetic through the metrics module instead
        preds = data.labels.astype(float)
        assert evaluation.mae(preds, data.labels) == 0.0

    def test_mean_of_absolute_errors(self):
        assert evaluation.mae(np.array([1.0, 7.0]), np.array([0, 4])) == 2.0

    def test_matches_metrics_mae(self):
        data = tiny_dataset()
        tr, va, _ = split(data, (0.7, 0.15, 0.15), seed=0)
        m = small_model()
        from saldl.model import predict_ages
        l1 = evaluate_l1(m, va, "expectation")
        preds = predict_ages(m, va.features_matrix(), SUP, "expectation")
        assert l1 == evaluation.mae(preds, va.labels)

    def test_empty_rejected(self):
        from saldl.data import Dataset
        with pytest.raises(EmptyInputError):
            evaluate_l1(small_model(), Dataset(ids=(), labels=[],
                                               features=np.zeros((0, 8)), support=SUP))


class TestHistoryExport:
    def make_history(self):
        data = tiny_dataset()
        tr, va, _ = split(data, (0.7, 0.15, 0.15), seed=0)
        cfg = TrainConfig(epochs=5, learning_rate=0.1, seed=0)
        _, _, hist = train_sav(tr, va, PART, small_model(),
                               StageParams.initial(PART.k), cfg)
        return hist

    def test_csv_deterministic_bytes(self, tmp_path):
        hist = self.make_history()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        hist.to_csv(a)
        hist.to_csv(b)
        assert a.read_bytes() == b.read_bytes()

    def test_csv_shape(self, tmp_path):
        hist = self.make_history()
        path = tmp_path / "h.csv"
        hist.to_csv(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + len(hist)
        header = lines[0].split(",")
        assert header[:3] == ["epoch", "objective", "total"]
        assert "sigma_0" in header and "alpha_1" in header

    def test_json_round_trip_values(self, tmp_path):
        hist = self.make_history()
        path = tmp_path / "h.json"
        hist.to_json(path)
        docs = json.loads(path.read_text())
        assert len(docs) == len(hist)
        assert docs[0]["epoch"] == 0


class TestCheckpointBundle:
    def test_round_trip_bit_exact(self, tmp_path):
        m = small_model(3)
        p = StageParams.from_values([1.1, 2.9], [0.3, 0.6])
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, m, p, PART)
        m2, p2, part2, sup2 = load_checkpoint(path)
        assert m2.equals(m)
        assert p2.equals(p)
        assert part2 == PART
        assert sup2 == SUP

    def test_malformed_file_is_parse_error(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, small_model(), StageParams.initial(2), PART)
        text = path.read_text()
        path.write_text(text[:len(text) // 2])
        with pytest.raises(ParseError, match="checkpoint.json"):
            load_checkpoint(path)
        doc = json.loads(text)
        del doc["stage_params"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="stage_params"):
            load_checkpoint(path)

    # NaN and Infinity are what Python's json writes for them; "1e999" parses as infinity
    @pytest.mark.parametrize("name, raw", [("raw_sigma", [float("nan"), "1e999"]),
                                           ("raw_alpha", [0.0, float("-inf")])])
    def test_non_finite_stage_value_is_parse_error(self, tmp_path, name, raw):
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, small_model(), StageParams.initial(2), PART)
        doc = json.loads(path.read_text())
        doc["stage_params"][name] = raw
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError,
                           match=f"checkpoint.json: {name}: expected finite numbers"):
            load_checkpoint(path)

    def test_fractional_support_is_parse_error(self, tmp_path):
        # int() would truncate the support's minimum to 0
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, small_model(), StageParams.initial(2), PART)
        doc = json.loads(path.read_text())
        doc["support"]["min_label"] = 0.5
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError,
                           match="checkpoint.json: min_label: expected a whole number"):
            load_checkpoint(path)
