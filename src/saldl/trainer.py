"""Validation-gated training loop with per-stage adaptive spread and weights.

Each epoch proposes stage parameters, trains the classifier by SGD on the
configured loss, evaluates mean absolute error on the validation split, and
snapshots (model, stage parameters) whenever that error reaches a new
minimum; a proposal survives only if it does. A proposal is one pure
function of the accepted parameters, its number and the last sigma
gradient: a move of a deterministic walk over the sigma and alpha grids
(sigma walks in grid mode only), then, in gradient mode, a descent step on
the raw sigmas.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import evaluation
from .artifacts import read_json, write_csv, write_json
from .core import (SIGMA_MIN, LabelSupport, LossBreakdown, _convert_fields, _count, _each,
                   _exactly, _floored_log, _key, _loss_mode, _named, _number, _one_of, _range,
                   _seed, _weight, kl_gradient_sigma, loss_sums, whole_number)
from .data import Dataset
from .errors import (
    EmptyInputError,
    InvalidInputError,
    InvalidParameterError,
    TrainingDivergedError,
)
from .model import (
    BLOCK_ROWS,
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

# A stage sigma lies above the floor its parameterization keeps.
_stage_sigma = _range(_number, SIGMA_MIN, low_open=True)


def softplus(x):
    return np.logaddexp(0.0, x)


def softplus_inv(y):
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
    return np.log(a / (1.0 - a))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _finite_array(values) -> np.ndarray:
    """A float64 copy of ``values``, every one of them finite."""
    arr = np.array(values, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise InvalidParameterError(f"expected finite numbers, got {arr.tolist()}")
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
        rs, ra = (_read_only(_named(name, _finite_array, getattr(self, name)))
                  for name in ("raw_sigma", "raw_alpha"))
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
        """Per-stage sigmas, each above ``SIGMA_MIN``, and alphas, each
        strictly inside (0, 1), in stored form."""
        sigmas = _named("sigmas", np.vectorize(_stage_sigma, otypes=[float]), sigmas)
        alphas = _named("alphas", np.vectorize(_weight, otypes=[float]), alphas)
        return cls(raw_sigma=softplus_inv(sigmas - SIGMA_MIN), raw_alpha=logit(alphas))

    def with_sigma(self, stage: int, sigma: float) -> "StageParams":
        raw = self.raw_sigma.copy()
        raw[stage] = softplus_inv(_named("sigma", _stage_sigma, sigma) - SIGMA_MIN)
        return StageParams(raw_sigma=raw, raw_alpha=self.raw_alpha)

    def with_alpha(self, stage: int, alpha: float) -> "StageParams":
        raw = self.raw_alpha.copy()
        raw[stage] = logit(_named("alpha", _weight, alpha))
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
        return cls(raw_sigma=d["raw_sigma"], raw_alpha=d["raw_alpha"])


@dataclass
class TrainConfig:
    """Knobs for one training run; each field goes through its converter
    on construction."""

    epochs: int = _key(_range(whole_number, 0), 30)
    batch_size: int = _key(_count, 32)
    learning_rate: float = _key(_range(_number, 0, low_open=True), 1e-3)
    stage_lr: float = _key(_range(_number, 0), 0.05)
    adaptation_mode: str = _key(_one_of(ADAPTATION_MODES), "grid")
    sigma_grid: tuple[float, ...] = _key(_each(_stage_sigma, 1), (0.5, 1.0, 1.5, 2.0, 2.5, 3.0))
    alpha_grid: tuple[float, ...] = _key(_each(_weight, 1),
                                         (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9))
    seed: int = _key(_seed, 0)
    prediction_rule: str = _key(_one_of(PREDICTION_RULES), "expectation")
    sav: bool = _key(_exactly(bool), True)
    loss_mode: str = _key(_loss_mode, "saw")
    fixed_sigma: float = _key(_stage_sigma, 2.0)

    def __post_init__(self):
        _convert_fields(self)

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


def _sigma_by_gradient(config: TrainConfig) -> bool:
    """Whether sigma adapts by the measured gradient: sigma walks the grid in
    grid mode only, and is measured and stepped in gradient mode only."""
    return config.adapt_sigma and config.adaptation_mode == "gradient"


def propose_stage_update(params: StageParams, step: int, sigma_grads: np.ndarray | None,
                         config: TrainConfig) -> StageParams:
    """Proposal ``step`` on the accepted ``params``: a move of the grid walk,
    then a step of ``config.stage_lr`` along ``sigma_grads`` when they are
    given.

    The walk moves stage ``step % k`` on that stage's visit ``v = step // k``.
    When sigma and alpha both walk, even visits move sigma and odd visits
    alpha, each to grid index ``(v // 2) % len(grid)``; when one walks, every
    visit moves it to index ``v % len(grid)``; when neither does, the walk
    leaves ``params``. The walk does not depend on which proposals get
    accepted.
    """
    step = _named("step", _seed, step)
    move_sigma = config.adapt_sigma and not _sigma_by_gradient(config)
    if move_sigma or config.adapt_alpha:
        visit, stage = divmod(step, params.k)
        if move_sigma and config.adapt_alpha:  # both walk: visits alternate
            move_sigma, visit = visit % 2 == 0, visit // 2
        if move_sigma:
            params = params.with_sigma(stage, config.sigma_grid[visit % len(config.sigma_grid)])
        else:
            params = params.with_alpha(stage, config.alpha_grid[visit % len(config.alpha_grid)])
    if sigma_grads is None:
        return params
    return StageParams(raw_sigma=params.raw_sigma
                       - config.stage_lr * np.asarray(sigma_grads, dtype=np.float64),
                       raw_alpha=params.raw_alpha)


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
        write_csv(path, header, ([getattr(r, name) for name in scalars] + [*r.sigmas, *r.alphas]
                                 for r in self.records))


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
    return evaluation.mae(preds, data.labels)


class _Run:
    """One ``train_sav`` run: the arrays fixed for the run, the buffers every
    epoch reuses, and the phases of an epoch."""

    def __init__(self, train: Dataset, partition: StagePartition, config: TrainConfig):
        self.config, self.partition, self.support = config, partition, train.support
        self.history, self.rng = TrainHistory(), np.random.default_rng(config.seed)
        self.features, self.labels = train.features_matrix(), train.labels
        self.shuffled = np.empty_like(self.features)
        self.label_idx = self.support.indices_of(self.labels)
        # every sample is visited once per epoch, so the per-label counts never change
        self.label_counts = np.bincount(self.label_idx,
                                        minlength=self.support.size).astype(np.float64)
        self.support_labels = self.support.labels()
        self.stage_of_label = partition.stage_index
        # a stage's labels form one contiguous range of the table's rows
        bounds = np.searchsorted(self.stage_of_label, np.arange(partition.k + 1))
        self.stage_rows = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        self.stage_counts = np.add.reduceat(self.label_counts, bounds[:-1])
        # about BLOCK_ROWS predictions, a whole number of batches, are buffered
        # between additions of their floored logs into an epoch's per-label
        # sums, one ``np.bincount`` each
        buffered = config.batch_size * max(1, BLOCK_ROWS // config.batch_size)
        self.pred_rows = np.empty((min(len(train), buffered), self.support.size))
        self.table = self.table_sigmas = None

    def sgd_pass(self, model: Model, params: StageParams, epoch: int):
        """One shuffled pass of SGD steps at ``params``. Returns the model,
        the per-label sums of the steps' floored log predictions, and the
        epoch record's loss fields reduced from them: the weight-normalized
        losses and the per-sample objective."""
        config, n = self.config, len(self.labels)
        order = self.rng.permutation(n)
        features = np.take(self.features, order, axis=0, out=self.shuffled)
        labels, idx = self.labels[order], self.label_idx[order]
        alphas = params.alphas[self.stage_of_label][idx]
        # every stage's sigma is fixed for the epoch, so is each label's target;
        # the table changes only when a stage sigma does
        if not np.array_equal(params.sigmas, self.table_sigmas):
            self.table = stage_target_table(params, self.partition, self.support)
            self.table_sigmas = params.sigmas
        log_pred_sums, pred_ages = np.zeros((self.support.size,) * 2), np.empty(n)
        added = 0  # the epoch's rows already in log_pred_sums
        for start in range(0, n, config.batch_size):
            end = min(start + config.batch_size, n)
            batch = slice(start, end)
            try:
                model, _, stats = backward_step(
                    model, features[batch], labels[batch], params, self.partition,
                    config.learning_rate, self.support, loss_mode=config.loss_mode,
                    return_stats=True, table=self.table, checked=(idx[batch], alphas[batch]))
            except InvalidInputError as exc:
                raise TrainingDivergedError(f"non-finite state at epoch {epoch}: {exc}",
                                            history=self.history) from exc
            self.pred_rows[start - added:end - added] = stats.preds
            if end - added == len(self.pred_rows) or end == n:
                rows = self.pred_rows[:end - added]
                _add_label_rows(log_pred_sums, idx[added:end], _floored_log(rows, out=rows))
                added = end
            pred_ages[batch] = stats.pred_ages
        sq_err = ((pred_ages - self.support.grid[idx]) ** 2).sum()
        sums = loss_sums(self.label_counts, log_pred_sums, self.table,
                         params.alphas[self.stage_of_label], sq_err, config.loss_mode)
        if not np.all(np.isfinite(sums)):
            raise TrainingDivergedError(f"non-finite loss at epoch {epoch}",
                                        history=self.history)
        wkl, wce, sq_err, alpha_sum, objective = sums
        bd = LossBreakdown.from_sums(wkl, wce, sq_err, alpha_sum, n)
        return model, log_pred_sums, dict(
            objective=objective / n, total=bd.total, kl=bd.kl, ce=bd.ce, mse=bd.mse,
            alpha_mean=bd.alpha_used)

    def sigma_gradient(self, params: StageParams, log_pred_sums: np.ndarray) -> np.ndarray:
        """Per-stage gradient of the objective in the raw sigmas, averaged
        over each stage's samples (0 for a stage with none)."""
        grads = np.array([kl_gradient_sigma(self.support_labels[rows], self.label_counts[rows],
                                            log_pred_sums[rows], self.table)
                          for rows in self.stage_rows])
        if self.config.loss_mode == "saw":
            grads *= params.alphas
        grads *= sigmoid(params.raw_sigma)
        return np.where(self.stage_counts > 0, grads / np.maximum(self.stage_counts, 1), 0.0)


def train_sav(train: Dataset, val: Dataset, partition: StagePartition,
              model0: Model, params0: StageParams, config: TrainConfig
              ) -> tuple[Model, StageParams, TrainHistory]:
    """Outer training loop; returns the last validation-accepted snapshot.

    Epoch 0 trains at the initial stage parameters to establish a baseline.
    Each later epoch runs the same phases: proposal ``epoch - 1`` on top of
    the accepted parameters (``propose_stage_update``: one move of the grid
    walk, then, in gradient mode, a step along the previous epoch's sigma
    gradient), an SGD pass, the epoch's loss record and sigma gradient, the
    validation read-out, and the gate, which keeps the proposal only if
    validation L1 reaches a new minimum. A sigma gradient measured under a
    proposal the gate rejects still steps the next proposal. The model
    itself always keeps training forward (only snapshots are gated),
    mirroring a single continuous SGD trajectory.
    """
    if len(train) == 0 or len(val) == 0:
        raise EmptyInputError("train and validation splits must be non-empty")
    if params0.k != partition.k:
        raise InvalidParameterError(
            f"stage params have {params0.k} stages, partition has {partition.k}")
    for name, support in (("validation split", val.support), ("partition", partition.support)):
        if support != train.support:
            raise InvalidParameterError(
                f"{name} support {support} differs from train support {train.support}")
    run = _Run(train, partition, config)
    model, best_model = model0.copy(), model0.copy()
    params_accepted = best_params = params0
    min_l1, sigma_grads = float("inf"), None

    for epoch in range(config.epochs):
        params = (params_accepted if epoch == 0 else
                  propose_stage_update(params_accepted, epoch - 1, sigma_grads, config))
        model, log_pred_sums, losses = run.sgd_pass(model, params, epoch)
        if _sigma_by_gradient(config):
            sigma_grads = run.sigma_gradient(params, log_pred_sums)
        l1 = evaluate_l1(model, val, config.prediction_rule)
        if not np.isfinite(l1):
            raise TrainingDivergedError(
                f"non-finite validation predictions at epoch {epoch}", history=run.history)

        improved = l1 < min_l1
        if improved:
            min_l1 = l1
            best_model = model.copy()
            best_params = params_accepted = params
        run.history.records.append(EpochRecord(
            epoch=epoch, **losses, val_l1=l1, val_mae=l1, snapshot=improved,
            best_val_l1=min_l1, sigmas=tuple(float(v) for v in params.sigmas),
            alphas=tuple(float(v) for v in params.alphas)))

    return best_model, best_params, run.history


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
        support = LabelSupport(doc["support"]["min_label"], doc["support"]["max_label"])
        model, params = model_from_dict(doc["model"]), StageParams.from_dict(doc["stage_params"])
        partition = StagePartition.from_dict(doc["partition"], support)
        if params.k != partition.k:
            raise InvalidParameterError(f"{params.k} stage parameters for {partition.k} stages")
        return model, params, partition, support
    return read_json(path, build)
