"""Validation-gated training loop with per-stage adaptive spread and weights.

Each epoch trains the classifier by SGD on the configured loss, evaluates
mean absolute error on the validation split, and snapshots (model, stage
parameters) whenever that error reaches a new minimum. Between epochs the
per-stage sigma and alpha values are perturbed by a proposal mechanism
(deterministic grid coordinate search by default, or gradient steps on the
raw parameterizations); proposals only survive if validation improves.

Each epoch's columns, grid indices and per-sample alphas are gathered once
and every SGD step gets slices of them. The floored log predictions of a
few hundred rows at a time are added into per-label sums by one
``np.bincount``, each cell in row order; the epoch's loss record and sigma
gradients reduce from those sums.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import evaluation
from .artifacts import read_json, write_csv, write_json
from .core import LOSS_MODES, SIGMA_MIN, LabelSupport, LossBreakdown, kl_gradient_sigma, loss_sums
from .data import Dataset
from .errors import (
    EmptyInputError,
    InvalidInputError,
    InvalidParameterError,
    TrainingDivergedError,
)
from .model import (
    PREDICTION_RULES,
    Model,
    backward_step,
    model_from_dict,
    model_to_dict,
    predict_ages,
    stage_target_table,
)
from .staging import StagePartition

ADAPTATION_MODES = ("grid", "gradient")

# Keeps alphas strictly inside (0, 1) even for extreme raw values.
_ALPHA_EPS = 1e-15


def softplus(x):
    return np.logaddexp(0.0, x)


def softplus_inv(y):
    y = np.asarray(y, dtype=np.float64)
    if np.any(y <= 0):
        raise InvalidParameterError("softplus inverse needs positive input")
    return y + np.log1p(-np.exp(-y))


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return np.clip(out, _ALPHA_EPS, 1.0 - _ALPHA_EPS)


def logit(a):
    a = np.asarray(a, dtype=np.float64)
    if np.any((a <= 0) | (a >= 1)):
        raise InvalidParameterError("logit needs values strictly in (0, 1)")
    return np.log(a / (1.0 - a))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class StageParams:
    """Per-stage spread and loss weight, stored in unconstrained form.

    sigma = SIGMA_MIN + softplus(raw_sigma) keeps every spread above the
    floor; alpha = logistic(raw_alpha) keeps weights strictly in (0, 1).
    """

    raw_sigma: np.ndarray
    raw_alpha: np.ndarray

    def __post_init__(self):
        # read-only copies, so the values derived from them stay valid
        rs = _read_only(np.array(self.raw_sigma, dtype=np.float64))
        ra = _read_only(np.array(self.raw_alpha, dtype=np.float64))
        if rs.shape != ra.shape or rs.ndim != 1 or rs.size < 1:
            raise InvalidParameterError(
                f"stage parameter vectors disagree: {rs.shape} vs {ra.shape}"
            )
        object.__setattr__(self, "raw_sigma", rs)
        object.__setattr__(self, "raw_alpha", ra)

    @property
    def k(self) -> int:
        return self.raw_sigma.size

    @functools.cached_property
    def sigmas(self) -> np.ndarray:
        return _read_only(SIGMA_MIN + softplus(self.raw_sigma))

    @functools.cached_property
    def alphas(self) -> np.ndarray:
        return _read_only(sigmoid(self.raw_alpha))

    @classmethod
    def initial(cls, k: int) -> "StageParams":
        return cls(raw_sigma=np.zeros(k), raw_alpha=np.zeros(k))

    @classmethod
    def from_values(cls, sigmas, alphas) -> "StageParams":
        sigmas = np.asarray(sigmas, dtype=np.float64)
        if np.any(sigmas <= SIGMA_MIN):
            raise InvalidParameterError(f"sigmas must exceed {SIGMA_MIN}")
        return cls(raw_sigma=softplus_inv(sigmas - SIGMA_MIN), raw_alpha=logit(alphas))

    def with_sigma(self, stage: int, sigma: float) -> "StageParams":
        raw = self.raw_sigma.copy()
        raw[stage] = softplus_inv(sigma - SIGMA_MIN)
        return StageParams(raw_sigma=raw, raw_alpha=self.raw_alpha)

    def with_alpha(self, stage: int, alpha: float) -> "StageParams":
        raw = self.raw_alpha.copy()
        raw[stage] = logit(alpha)
        return StageParams(raw_sigma=self.raw_sigma, raw_alpha=raw)

    def equals(self, other: "StageParams") -> bool:
        return (np.array_equal(self.raw_sigma, other.raw_sigma)
                and np.array_equal(self.raw_alpha, other.raw_alpha))

    def to_dict(self) -> dict:
        return {
            "raw_sigma": [float(v) for v in self.raw_sigma],
            "raw_alpha": [float(v) for v in self.raw_alpha],
            "sigma_min": SIGMA_MIN,
            "sigmas": [float(v) for v in self.sigmas],
            "alphas": [float(v) for v in self.alphas],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "StageParams":
        return cls(raw_sigma=np.array(d["raw_sigma"], dtype=np.float64),
                   raw_alpha=np.array(d["raw_alpha"], dtype=np.float64))


@dataclass
class TrainConfig:
    """Knobs for one training run; validated on construction."""

    epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 1e-3
    stage_lr: float = 0.05
    adaptation_mode: str = "grid"
    sigma_grid: tuple[float, ...] = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
    alpha_grid: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    seed: int = 0
    prediction_rule: str = "expectation"
    sav: bool = True
    loss_mode: str = "saw"
    fixed_sigma: float = 2.0

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1:
            raise InvalidParameterError("epochs must be >= 0 and batch_size >= 1")
        if self.learning_rate <= 0 or self.stage_lr < 0:
            raise InvalidParameterError("learning_rate must be > 0, stage_lr >= 0")
        if self.adaptation_mode not in ADAPTATION_MODES:
            raise InvalidParameterError(f"adaptation_mode must be one of {ADAPTATION_MODES}")
        if self.prediction_rule not in PREDICTION_RULES:
            raise InvalidParameterError(f"prediction_rule must be one of {PREDICTION_RULES}")
        if self.loss_mode not in LOSS_MODES:
            raise InvalidParameterError(f"loss_mode must be one of {LOSS_MODES}")
        self.sigma_grid = tuple(float(v) for v in self.sigma_grid)
        self.alpha_grid = tuple(float(v) for v in self.alpha_grid)
        if not self.sigma_grid or any(v <= SIGMA_MIN for v in self.sigma_grid):
            raise InvalidParameterError(f"sigma grid values must exceed {SIGMA_MIN}")
        if not self.alpha_grid or any(not 0 < v < 1 for v in self.alpha_grid):
            raise InvalidParameterError("alpha grid values must lie in (0, 1)")
        if self.fixed_sigma <= SIGMA_MIN:
            raise InvalidParameterError(f"fixed_sigma must exceed {SIGMA_MIN}")

    @property
    def adapt_sigma(self) -> bool:
        # sigma never enters a pure-CE objective, so there is nothing to adapt
        return self.sav and self.loss_mode != "ce"

    @property
    def adapt_alpha(self) -> bool:
        return self.loss_mode == "saw"


def initial_stage_params(k: int, config: TrainConfig) -> StageParams:
    """Default starting point: adaptive runs start at the parameterization
    origin (sigma just under 1, alpha 0.5); with adaptation off, sigma is
    pinned to the configured fixed value."""
    params = StageParams.initial(k)
    if not config.sav:
        params = StageParams.from_values(np.full(k, config.fixed_sigma),
                                         params.alphas)
    return params


@dataclass
class GridState:
    """Deterministic coordinate-search cursor.

    Proposals visit stages round-robin; an active stage alternates between
    its sigma move and its alpha move, each advancing that stage's own
    pointer through the grid cyclically. The walk order is independent of
    which proposals get accepted.
    """

    k: int
    adapt_sigma: bool
    adapt_alpha: bool
    stage_ptr: int = 0
    sigma_ptr: list[int] = field(default_factory=list)
    alpha_ptr: list[int] = field(default_factory=list)
    next_is_sigma: list[bool] = field(default_factory=list)

    def __post_init__(self):
        if not self.sigma_ptr:
            self.sigma_ptr = [0] * self.k
        if not self.alpha_ptr:
            self.alpha_ptr = [0] * self.k
        if not self.next_is_sigma:
            self.next_is_sigma = [True] * self.k


def propose_stage_update(params: StageParams, mode: str, *,
                         grid_state: GridState | None = None,
                         sigma_grid: tuple[float, ...] = (),
                         alpha_grid: tuple[float, ...] = (),
                         sigma_grads: np.ndarray | None = None,
                         alpha_grads: np.ndarray | None = None,
                         stage_lr: float = 0.0) -> StageParams:
    """Next candidate stage parameters.

    grid mode advances one (stage, parameter) coordinate per call, mutating
    ``grid_state``; gradient mode takes one descent step on the raw
    parameterizations using the supplied accumulated gradients (a missing
    gradient leaves that parameter untouched).
    """
    if mode == "gradient":
        raw_sigma = params.raw_sigma.copy()
        raw_alpha = params.raw_alpha.copy()
        if sigma_grads is not None:
            raw_sigma -= stage_lr * np.asarray(sigma_grads, dtype=np.float64)
        if alpha_grads is not None:
            raw_alpha -= stage_lr * np.asarray(alpha_grads, dtype=np.float64)
        return StageParams(raw_sigma=raw_sigma, raw_alpha=raw_alpha)
    if mode != "grid":
        raise InvalidParameterError(f"adaptation mode must be one of {ADAPTATION_MODES}")
    if grid_state is None:
        raise InvalidParameterError("grid mode needs a GridState")

    st = grid_state
    if not (st.adapt_sigma or st.adapt_alpha):
        return params
    s = st.stage_ptr
    use_sigma = st.adapt_sigma and (st.next_is_sigma[s] or not st.adapt_alpha)
    if use_sigma:
        candidate = sigma_grid[st.sigma_ptr[s]]
        st.sigma_ptr[s] = (st.sigma_ptr[s] + 1) % len(sigma_grid)
        out = params.with_sigma(s, candidate)
    else:
        candidate = alpha_grid[st.alpha_ptr[s]]
        st.alpha_ptr[s] = (st.alpha_ptr[s] + 1) % len(alpha_grid)
        out = params.with_alpha(s, candidate)
    if st.adapt_sigma and st.adapt_alpha:
        st.next_is_sigma[s] = not st.next_is_sigma[s]
    st.stage_ptr = (s + 1) % st.k
    return out


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    objective: float
    total: float
    kl: float
    ce: float
    mse: float
    alpha_mean: float
    val_l1: float
    val_mae: float
    snapshot: bool
    best_val_l1: float
    sigmas: tuple[float, ...]
    alphas: tuple[float, ...]


@dataclass
class TrainHistory:
    records: list[EpochRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def accepted_l1(self) -> list[float]:
        """Validation L1 values at snapshot events, in order."""
        return [r.val_l1 for r in self.records if r.snapshot]

    def to_dicts(self) -> list[dict]:
        return [asdict(r) for r in self.records]

    def to_json(self, path) -> None:
        write_json(path, self.to_dicts())

    def to_csv(self, path) -> None:
        k = len(self.records[0].sigmas) if self.records else 0
        scalars = [f.name for f in fields(EpochRecord)][:-2]  # all but sigmas, alphas
        header = scalars + [f"sigma_{s}" for s in range(k)] + [f"alpha_{s}" for s in range(k)]

        def row(r: EpochRecord) -> list:
            values = [getattr(r, name) for name in scalars] + [*r.sigmas, *r.alphas]
            # epoch and snapshot as integers, every other value as a round-trip float
            return [int(v) if isinstance(v, int) else repr(float(v)) for v in values]
        write_csv(path, header, map(row, self.records))


# About this many rows of floored log predictions are buffered between
# additions into an epoch's per-label sums, one ``np.bincount`` each.
_FLUSH_ROWS = 256


def _add_label_rows(sums: np.ndarray, label_idx: np.ndarray, rows: np.ndarray) -> None:
    """Add row i of ``rows`` into row ``label_idx[i]`` of the contiguous
    (size, size) per-label ``sums``. Each cell adds its rows in row order."""
    size = rows.shape[1]
    cells = (label_idx[:, None] * size + np.arange(size)).ravel()  # label-major
    sums.reshape(-1)[:] += np.bincount(cells, weights=rows.ravel(), minlength=size * size)


def evaluate_l1(model: Model, data: Dataset, prediction_rule: str = "expectation") -> float:
    """Mean absolute error of the model's age read-out over a dataset."""
    if len(data) == 0:
        raise EmptyInputError("cannot evaluate on an empty dataset")
    preds = predict_ages(model, data.features_matrix(), data.support, prediction_rule)
    return evaluation.mae(preds, data.labels_array())


def train_sav(train: Dataset, val: Dataset, partition: StagePartition,
              model0: Model, params0: StageParams, config: TrainConfig
              ) -> tuple[Model, StageParams, TrainHistory]:
    """Outer training loop; returns the last validation-accepted snapshot.

    Epoch 0 trains at the initial stage parameters to establish a baseline;
    later epochs first apply one proposal on top of the accepted parameters,
    then train, then keep the proposal only if validation L1 reaches a new
    minimum. The model itself always keeps training forward (only snapshots
    are gated), mirroring a single continuous SGD trajectory. Batches are
    slices of the epoch's shuffled columns, checked grid indices and alphas,
    gathered once; the epoch's loss record reduces once from per-label sums
    (``loss_sums``).
    """
    if len(train) == 0 or len(val) == 0:
        raise EmptyInputError("train and validation splits must be non-empty")
    if params0.k != partition.k:
        raise InvalidParameterError(
            f"stage params have {params0.k} stages, partition has {partition.k}"
        )
    support = train.support
    history = TrainHistory()
    if config.epochs == 0:
        return model0.copy(), params0, history

    rng = np.random.default_rng(config.seed)
    model = model0.copy()
    params_accepted = best_params = params0
    best_model = model0.copy()
    min_l1 = float("inf")
    # in gradient mode the grid cursor owns only the alpha coordinate
    grid_state = GridState(
        k=partition.k,
        adapt_sigma=config.adapt_sigma and config.adaptation_mode == "grid",
        adapt_alpha=config.adapt_alpha)
    adapting = config.adapt_sigma or config.adapt_alpha
    last_sigma_grads: np.ndarray | None = None

    features = train.features_matrix()
    labels = train.labels_array()
    n, size = len(train), support.size
    table = table_sigmas = None
    # The loss record and (gradient-mode sigma arms) dKL/dsigma reduce once
    # per epoch from per-label sums of floored log predictions. Every sample
    # is visited once per epoch, so the per-label counts never change.
    sigma_gradient = config.adaptation_mode == "gradient" and config.adapt_sigma
    label_idx = support.checked_indices(labels - support.min_label)
    label_counts = np.bincount(label_idx, minlength=size).astype(np.float64)
    stage_of_label = partition.stages_of(support.labels())
    epoch_features, epoch_labels = np.empty_like(features), np.empty_like(labels)
    epoch_idx, epoch_alphas, pred_ages = np.empty_like(label_idx), np.empty(n), np.empty(n)
    # a whole number of batches of floored log predictions between additions
    buffered = config.batch_size * max(1, _FLUSH_ROWS // config.batch_size)
    log_pred_rows = np.empty((min(n, buffered), size))
    if sigma_gradient:
        # a stage's labels form one contiguous range of the table's rows
        bounds = np.searchsorted(stage_of_label, np.arange(partition.k + 1))
        stage_counts = np.bincount(stage_of_label, weights=label_counts,
                                   minlength=partition.k)

    for epoch in range(config.epochs):
        params_current = params_accepted
        if adapting and epoch > 0:
            params_current = propose_stage_update(
                params_accepted, "grid", grid_state=grid_state,
                sigma_grid=config.sigma_grid, alpha_grid=config.alpha_grid)
            # set in gradient mode only, from the previous epoch
            if config.adapt_sigma and last_sigma_grads is not None:
                params_current = propose_stage_update(
                    params_current, "gradient", sigma_grads=last_sigma_grads,
                    stage_lr=config.stage_lr)

        order = rng.permutation(n)
        np.take(features, order, axis=0, out=epoch_features)
        np.take(labels, order, out=epoch_labels)
        np.take(label_idx, order, out=epoch_idx)
        np.take(params_current.alphas[stage_of_label], epoch_idx, out=epoch_alphas)
        log_pred_sums = np.zeros((size, size))
        added = 0  # the epoch's rows already in log_pred_sums
        # every stage's sigma is fixed for the epoch, so is each label's target;
        # the table changes only when a stage sigma does
        if table is None or not np.array_equal(params_current.sigmas, table_sigmas):
            table = stage_target_table(params_current, partition, support)
            table_sigmas = params_current.sigmas

        for start in range(0, n, config.batch_size):
            end = min(start + config.batch_size, n)
            batch = slice(start, end)
            try:
                model, _, stats = backward_step(
                    model, epoch_features[batch], epoch_labels[batch], params_current,
                    partition, config.learning_rate, support, loss_mode=config.loss_mode,
                    return_stats=True, table=table,
                    checked=(epoch_idx[batch], epoch_alphas[batch]))
            except InvalidInputError as exc:
                raise TrainingDivergedError(
                    f"non-finite state at epoch {epoch}: {exc}", history=history
                ) from exc
            log_pred_rows[start - added:end - added] = stats.log_preds
            if end - added == len(log_pred_rows) or end == n:
                _add_label_rows(log_pred_sums, epoch_idx[added:end], log_pred_rows[:end - added])
                added = end
            pred_ages[batch] = stats.pred_ages

        sq_err = ((pred_ages - support.grid[epoch_idx]) ** 2).sum()
        sums = loss_sums(label_counts, log_pred_sums, table,
                         params_current.alphas[stage_of_label], sq_err, config.loss_mode)
        if not np.all(np.isfinite(sums)):
            raise TrainingDivergedError(f"non-finite loss at epoch {epoch}", history=history)
        wkl, wce, sq_err, alpha_sum, objective = sums
        epoch_breakdown = LossBreakdown.compose(
            kl=wkl / alpha_sum, ce=wce / (n - alpha_sum), mse=sq_err / n, alpha=alpha_sum / n)
        if sigma_gradient:
            grads = np.array([
                kl_gradient_sigma(support.labels()[lo:hi], label_counts[lo:hi],
                                  log_pred_sums[lo:hi], table)
                for lo, hi in zip(bounds[:-1], bounds[1:])])
            if config.loss_mode == "saw":
                grads *= params_current.alphas
            grads *= sigmoid(params_current.raw_sigma)
            last_sigma_grads = np.where(stage_counts > 0,
                                        grads / np.maximum(stage_counts, 1), 0.0)

        val_preds = predict_ages(model, val.features_matrix(), support,
                                 config.prediction_rule)
        if not np.all(np.isfinite(val_preds)):
            raise TrainingDivergedError(
                f"non-finite validation predictions at epoch {epoch}", history=history)
        l1 = evaluation.mae(val_preds, val.labels_array())

        improved = l1 < min_l1
        if improved:
            min_l1 = l1
            best_model = model.copy()
            best_params = params_accepted = params_current
        history.records.append(EpochRecord(
            epoch=epoch,
            objective=objective / n,
            total=epoch_breakdown.total,
            kl=epoch_breakdown.kl,
            ce=epoch_breakdown.ce,
            mse=epoch_breakdown.mse,
            alpha_mean=epoch_breakdown.alpha_used,
            val_l1=l1,
            val_mae=l1,
            snapshot=improved,
            best_val_l1=min_l1,
            sigmas=tuple(float(v) for v in params_current.sigmas),
            alphas=tuple(float(v) for v in params_current.alphas),
        ))

    return best_model, best_params, history


CHECKPOINT_FORMAT = "saldl-checkpoint"
CHECKPOINT_VERSION = 1


def save_checkpoint(path, model: Model, stage_params: StageParams,
                    partition: StagePartition) -> None:
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "support": {"min_label": partition.support.min_label,
                    "max_label": partition.support.max_label},
        "model": model_to_dict(model),
        "stage_params": stage_params.to_dict(),
        "partition": partition.to_dict(),
    }
    write_json(path, doc, indent=None)


def load_checkpoint(path) -> tuple[Model, StageParams, StagePartition, LabelSupport]:
    def build(doc: dict):
        if doc["format"] != CHECKPOINT_FORMAT or doc["version"] != CHECKPOINT_VERSION:
            raise InvalidParameterError(
                f"unsupported checkpoint format {doc['format']!r} v{doc['version']!r}")
        support = LabelSupport(int(doc["support"]["min_label"]),
                               int(doc["support"]["max_label"]))
        return (model_from_dict(doc["model"]), StageParams.from_dict(doc["stage_params"]),
                StagePartition.from_dict(doc["partition"], support), support)
    return read_json(path, build)
