"""Discrete label distributions and the composite training loss.

Targets are Gaussians evaluated on the integer label grid and renormalized,
so boundary-truncated targets stay valid distributions. ``_loss_terms`` is
the one batched kernel: the predictions, their read-outs and the
objective's fused logit gradient. ``_sample_losses`` gives each sample's
KL, CE and squared error, for the single-sample ``saw_loss`` and the
per-batch loss record of ``backward_step``. ``loss_sums`` and
``kl_gradient_sigma`` reduce many samples' per-label sums, which callers
accumulate in any order (``train_sav`` adds rows in row order);
``LossBreakdown.from_sums`` composes the loss record from such sums.
Labels are whole numbers inside a ``LabelSupport``: a fractional, nan or
infinite label raises ``InvalidLabelError`` rather than being cast.
Batched callers read each label's target row from a ``TargetTable``, a
read-only value built once for a fixed spread per label; the module holds
no mutable state.
Gradients are hand-derived and checked against finite differences in the
test suite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import MISSING, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .errors import (
    InvalidInputError,
    InvalidLabelError,
    InvalidParameterError,
    ShapeError,
)

# Floor applied inside logs so KL/CE stay finite for one-hot predictions
# and far-tail target entries.
PROB_FLOOR = 1e-12

# Smallest usable target spread. A spread of zero makes the Gaussian target
# ill-defined, so adaptive spreads are parameterized to stay above this.
SIGMA_MIN = 0.25

# Fixed weight of the squared-error term in the composite loss.
MSE_WEIGHT = 0.01

# Optimized objective: the composite loss, or its KL or CE term alone.
LOSS_MODES = ("kl", "ce", "saw")


def whole_number(value) -> int:
    """``value`` as an int when it is a whole number: 3, 3.0 and "3" pass;
    1.5, nan and a bool raise rather than being cast."""
    if isinstance(value, (bool, np.bool_)) or (
            isinstance(value, (float, np.floating)) and not float(value).is_integer()):
        raise InvalidParameterError(f"expected a whole number, got {value!r}")
    return int(value)


# Converters for values that enter from outside, shared by the library and
# the config loader; each rejects a value with an InvalidParameterError.

def _named(name: str, convert, *args):
    """``convert(*args)``; a TypeError or ValueError it raises becomes an
    InvalidParameterError naming the argument or field ``name``."""
    try:
        return convert(*args)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"{name}: {exc}") from None


def _key(convert, default=MISSING):
    """A dataclass field: its ``default``, and the converter a value given
    for it goes through."""
    return field(default=default, metadata={"convert": convert})


def _convert_fields(obj) -> None:
    """Store each field of the dataclass ``obj`` as its converter returns
    it, in field order; a failure names the field."""
    for f in fields(obj):
        object.__setattr__(obj, f.name, _named(f.name, f.metadata["convert"], getattr(obj, f.name)))


def _number(value) -> float:
    """``value`` as a finite float; true, nan and infinity are no numbers."""
    if isinstance(value, (bool, np.bool_)):
        raise InvalidParameterError(f"expected a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise InvalidParameterError(f"expected a finite number, got {value!r}")
    return number


def _range(convert, low, high=math.inf, low_open=False):
    """``convert``, then a check that ``low <= value < high``; ``low <
    value`` when ``low_open``."""
    def check(value):
        number = convert(value)
        if not ((low < number) if low_open else (low <= number)) or not number < high:
            raise InvalidParameterError(f"expected a value in {'(' if low_open else '['}"
                                        f"{low}, {high}), got {value!r}")
        return number
    return check


def _each(convert, least: int = 0, distinct: bool = False):
    """A list converter: ``convert`` applied to each value of a list or
    tuple of at least ``least`` values, into a tuple; with ``distinct``, no
    value may repeat. A string or a dict is no list."""
    def check(values):
        if not isinstance(values, (list, tuple)):
            raise InvalidParameterError(f"expected a list, got {values!r}")
        if len(values) < least:
            raise InvalidParameterError(f"expected {least} or more values, got {values!r}")
        converted = tuple(map(convert, values))
        if distinct and len(set(converted)) < len(converted):
            raise InvalidParameterError(f"values repeat in {values!r}")
        return converted
    return check


def _one_of(choices: tuple):
    def check(value):
        if value not in choices:
            raise InvalidParameterError(f"{value!r} is not one of {choices}")
        return value
    return check


def _exactly(kind):
    """The value unchanged if it is a ``kind``: the string "false" is no bool."""
    def check(value):
        if isinstance(value, kind):
            return value
        raise InvalidParameterError(f"expected {kind.__name__}, got {value!r}")
    return check


# The rules that library arguments share with config keys.
_seed = _range(whole_number, 0)                  # a seed, or a proposal number
_count = _range(whole_number, 1)                 # samples per label, a group or layer size
_spread = _range(_number, 0, low_open=True)      # a Gaussian target's sigma
_weight = _range(_number, 0, 1, low_open=True)   # the composite loss's alpha
_loss_mode = _one_of(LOSS_MODES)


@dataclass(frozen=True)
class LabelSupport:
    """Consecutive integer labels from ``min_label`` to ``max_label`` inclusive."""

    min_label: int = _key(whole_number, 0)
    max_label: int = _key(whole_number, 100)

    def __post_init__(self):
        _convert_fields(self)
        if self.max_label - self.min_label + 1 < 2:
            raise InvalidParameterError(
                f"label support needs at least 2 labels, got [{self.min_label}, {self.max_label}]")

    @property
    def size(self) -> int:
        return self.max_label - self.min_label + 1

    def labels(self) -> np.ndarray:
        return np.arange(self.min_label, self.max_label + 1)

    @functools.cached_property
    def grid(self) -> np.ndarray:
        """The labels as a read-only float64 array."""
        grid = self.labels().astype(np.float64)
        grid.flags.writeable = False
        return grid

    def contains(self, label: int) -> bool:
        return self.min_label <= label <= self.max_label

    def indices_of(self, labels, ids=None) -> np.ndarray:
        """Grid index of each label, as int64: the one rule a label passes.
        A fraction or nan "is not a whole number", so no int64 cast
        truncates 3.7 to 3 or turns nan into a label, and a label outside
        the support, infinity too, is rejected. The InvalidLabelError names
        the first bad label, and its sample when ``ids`` is given. Integer
        labels skip the fraction scan; others are read as float64, so 3.0
        passes."""
        labels = np.asarray(labels)
        if labels.dtype.kind not in "iu":
            labels = labels.astype(np.float64)
        idx = labels - self.min_label
        # nan fails both comparisons, so it too reaches the scan
        if idx.size and not (idx.min() >= 0 and idx.max() < self.size and (
                labels.dtype.kind in "iu" or (labels == np.trunc(labels)).all())):
            fraction = labels != np.trunc(labels)
            i = np.flatnonzero(fraction | (idx < 0) | (idx >= self.size))[0]
            why = ("is not a whole number" if fraction.flat[i]
                   else f"outside support [{self.min_label}, {self.max_label}]")
            sample = "" if ids is None else f"sample {ids[i]} "
            raise InvalidLabelError(f"{sample}label {labels.flat[i]} {why}")
        return idx.astype(np.int64, copy=False)

    def index_of(self, label: int) -> int:
        return int(self.indices_of(label))


@dataclass(frozen=True)
class LossBreakdown:
    """One composite-loss evaluation split into its weighted components.

    ``total`` always recomposes as ``alpha_used * kl + (1 - alpha_used) * ce
    + MSE_WEIGHT * mse``. For batches with per-sample weights the components
    are weight-normalized means so this identity stays exact.
    """

    kl: float
    ce: float
    mse: float
    total: float
    alpha_used: float

    @classmethod
    def compose(cls, kl: float, ce: float, mse: float, alpha: float) -> "LossBreakdown":
        alpha = _named("alpha", _weight, alpha)
        return cls(kl=float(kl), ce=float(ce), mse=float(mse),
                   total=float(alpha * kl + (1.0 - alpha) * ce + MSE_WEIGHT * mse),
                   alpha_used=float(alpha))

    @classmethod
    def from_sums(cls, wkl, wce, sq_err, alpha_sum, n) -> "LossBreakdown":
        """n samples' record from their sums of alpha KL, (1 - alpha) CE,
        squared error and alpha."""
        return cls.compose(wkl / alpha_sum, wce / (n - alpha_sum), sq_err / n, alpha_sum / n)


class LossTerms(NamedTuple):
    """``_loss_terms`` for n samples."""

    preds: np.ndarray        # (n, support) predicted distributions
    pred_ages: np.ndarray    # (n,) expectation read-outs
    dlogits: np.ndarray      # (n, support) gradient of the objective w.r.t. the logits


def _check_width(arr: np.ndarray, support: LabelSupport, what: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    if arr.shape != (support.size,):
        raise ShapeError(f"{what} has shape {arr.shape}, support size {support.size}")
    return arr


def _check_logits(logits) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    # a sum is finite only if every entry is; a finite sum needs no scan, and
    # one that overflows falls back to the entries themselves
    if not np.isfinite(z.sum()) and not np.isfinite(z).all():
        raise InvalidInputError("logits must be finite")
    return z


# The helpers below work along the last axis, so one sample (a vector) and
# a batch (one row per sample) share each piece of math.

def _softmax(logits: np.ndarray) -> np.ndarray:
    """Probabilities from logits, with max-subtraction for overflow safety."""
    e = logits - logits.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _floored_log(p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.log(np.maximum(p, PROB_FLOOR, out=out), out=out)


def _gaussian_targets(label_idx, sigmas, support: LabelSupport):
    """Targets exp(-d^2 / (2 sigma^2)) renormalized over the support, and the
    squared distances d^2 from the label to each grid label."""
    k = support.grid
    sq_dist = (k - k[np.asarray(label_idx)[..., None]]) ** 2
    w = np.exp(-sq_dist / (2.0 * np.asarray(sigmas, dtype=np.float64)[..., None] ** 2))
    return w / w.sum(axis=-1, keepdims=True), sq_dist


def _build_rows(label_idx: np.ndarray, sigmas: np.ndarray, support: LabelSupport):
    """For each (label, sigma) pair: the target d, its floored log, and the
    target's sigma derivative d_k (a_k - mean_d(a)), a_k = (k - label)^2 / sigma^3."""
    d, sq_dist = _gaussian_targets(label_idx, sigmas, support)
    # a Python float cube per row: NumPy's vectorized ** 3 can differ in the last bit
    cubes = np.array([float(s) ** 3 for s in sigmas])
    a = sq_dist / cubes[:, None]
    a_bar = (d * a).sum(axis=-1, keepdims=True)
    return d, _floored_log(d), d * (a - a_bar)


@dataclass(frozen=True)
class TargetTable:
    """Every label's ``_build_rows`` output at that label's spread.

    Row i belongs to the label at grid index i. ``train_sav`` builds one per
    epoch, since each stage's spread stays fixed for a whole epoch. The
    arrays are read-only.
    """

    support: LabelSupport
    target: np.ndarray       # (size, size) Gaussian targets
    log_target: np.ndarray   # their floored logs
    dsigma: np.ndarray       # their derivatives w.r.t. the row's spread

    @classmethod
    def build(cls, sigma_per_label, support: LabelSupport) -> "TargetTable":
        sig = np.asarray(sigma_per_label, dtype=np.float64)
        if sig.shape != (support.size,):
            raise ShapeError(f"{sig.shape} spreads for support size {support.size}")
        # SIGMA_MIN + softplus(raw) can round to exactly SIGMA_MIN
        bad = ~(np.isfinite(sig) & (sig >= SIGMA_MIN))
        if bad.any():
            raise InvalidParameterError(
                f"spreads must be finite and >= {SIGMA_MIN}, got {sig[bad][0]}")
        rows = _build_rows(np.arange(support.size), sig, support)
        for row in rows:
            row.flags.writeable = False
        return cls(support, *rows)


def _kl(target: np.ndarray, log_target: np.ndarray, log_pred_sums: np.ndarray,
        counts=1.0) -> np.ndarray:
    """KL(target || pred) summed over ``counts`` samples whose floored log
    predictions sum to S: count sum_k t_k log t_k - sum_k t_k S_k; count 1 is
    one sample's KL. A zero target entry adds 0 times a finite log (0 log 0 =
    0). The true value is nonnegative; flooring can leave a ~1e-9 residue."""
    return np.maximum(counts * (target * log_target).sum(axis=-1)
                      - (target * log_pred_sums).sum(axis=-1), 0.0)


def _expectation(probs: np.ndarray, support: LabelSupport) -> np.ndarray:
    """Expectation read-out: sum of label * probability."""
    return probs @ support.grid


def _loss_terms(logits, label_idx: np.ndarray, targets: np.ndarray, alphas,
                support: LabelSupport, loss_mode: str) -> LossTerms:
    """Predictions, read-outs and the ``loss_mode`` objective's logit
    gradient for a batch of (n, support) logits.

    Sample i has the true label at checked grid index ``label_idx[i]``, the
    Gaussian target row ``targets[i]`` and the composite weight
    ``alphas[i]``. Logit gradients: KL term pred - target, CE term
    pred - onehot, squared-error term 2 (age_hat - label) * pred_k *
    (k - age_hat), from the softmax Jacobian applied to the expectation
    read-out; the composite objective weighs them alpha, 1 - alpha and
    ``MSE_WEIGHT``.
    """
    z = _check_logits(logits)
    alphas = np.asarray(alphas, dtype=np.float64)
    rows = np.arange(z.shape[0])
    k = support.grid

    preds = _softmax(z)
    pred_ages = _expectation(preds, support)
    # only the logit-gradient terms the objective weighs
    if loss_mode == "kl":
        dlogits = preds - targets
    elif loss_mode == "ce":
        dlogits = preds.copy()  # pred - onehot
        dlogits[rows, label_idx] -= 1.0
    elif loss_mode == "saw":
        # alpha (p - t) + (1 - alpha) (p - onehot) + MSE_WEIGHT 2 err p (k - age),
        # gathered as p (1 + 2 MSE_WEIGHT err (k - age)) - alpha t - (1 - alpha) onehot
        err = pred_ages - k[label_idx]
        dlogits = (preds * (1.0 + (2.0 * MSE_WEIGHT) * err[:, None] * (k - pred_ages[:, None]))
                   - alphas[:, None] * targets)
        dlogits[rows, label_idx] -= 1.0 - alphas
    else:  # the dispatch is the check: the rule rejects what no branch takes
        _named("loss_mode", _loss_mode, loss_mode)
    return LossTerms(preds, pred_ages, dlogits)


def _sample_losses(terms: LossTerms, label_idx: np.ndarray, targets: np.ndarray,
                   support: LabelSupport):
    """Each sample's KL, CE and squared error, for the samples ``terms`` was
    computed on."""
    log_preds = _floored_log(terms.preds)
    kl = _kl(targets, _floored_log(targets), log_preds)
    ce = -log_preds[np.arange(label_idx.size), label_idx]
    return kl, ce, (terms.pred_ages - support.grid[label_idx]) ** 2


def gaussian_label_distribution(label: int, sigma: float,
                                support: LabelSupport) -> np.ndarray:
    """Gaussian target centered on ``label``, renormalized over the support.

    Entry k is proportional to exp(-(k - label)^2 / (2 sigma^2)); dividing by
    the discrete sum keeps truncated targets (labels near the boundary) valid
    distributions.
    """
    sigma = _named("sigma", _spread, sigma)
    target, _ = _gaussian_targets(support.index_of(label), sigma, support)
    return target


def _one_sample(logits, label: int, sigma: float, alpha: float, support: LabelSupport):
    """``_loss_terms`` of one sample, its grid index and its target row."""
    sigma, alpha = _named("sigma", _spread, sigma), _named("alpha", _weight, alpha)
    idx = np.array([support.index_of(label)])
    z = _check_width(logits, support, "logits")
    d, _ = _gaussian_targets(idx, np.array([sigma], dtype=np.float64), support)
    return _loss_terms(z[None, :], idx, d, np.array([alpha]), support, "saw"), idx, d


def saw_loss(logits: np.ndarray, label: int, sigma: float, alpha: float,
             support: LabelSupport) -> LossBreakdown:
    """Composite loss: alpha * KL + (1 - alpha) * CE + MSE_WEIGHT * squared error.

    The KL target is the Gaussian label distribution at ``sigma``; the
    squared-error term uses the differentiable expectation read-out.
    """
    kl, ce, sq_err = _sample_losses(*_one_sample(logits, label, sigma, alpha, support), support)
    return LossBreakdown.compose(kl[0], ce[0], sq_err[0], alpha)


def saw_gradient_logits(logits: np.ndarray, label: int, sigma: float, alpha: float,
                        support: LabelSupport) -> np.ndarray:
    """Exact gradient of the composite loss w.r.t. each logit (see
    ``_loss_terms`` for the per-term formulas)."""
    return _one_sample(logits, label, sigma, alpha, support)[0].dlogits[0]


def kl_gradient_sigma(labels, counts, log_pred_sums, table: TargetTable) -> float:
    """Derivative of KL(target || pred) w.r.t. the target's spread, summed
    over samples given by per-label sufficient statistics; each target is
    its label's row in ``table``.

    ``labels[j]`` has ``counts[j]`` samples whose floored log predictions
    sum to the (support,) row ``log_pred_sums[j]``; a single label takes a
    scalar count and a (support,) row. One sample per label (counts 1, the
    rows its floored log predictions) is the per-sample form. The sum is a
    derivative w.r.t. one shared spread when the labels share their table
    spread, as one stage's labels do. Differentiates through the
    renormalized Gaussian target: with a_k = (k - label)^2 / sigma^3 the
    target derivative is d_k (a_k - mean_d(a)), the table's ``dsigma`` row,
    so a sample contributes sum_k dsigma_k (log d_k - log pred_k), and a
    label's samples together sum_k dsigma_k (count log d_k - S_k). A zero
    target entry has dsigma_k = 0 and adds nothing.
    """
    support = table.support
    idx = support.indices_of(labels)
    counts = np.asarray(counts, dtype=np.float64)
    sums = np.asarray(log_pred_sums, dtype=np.float64)
    if counts.shape != idx.shape or sums.shape != idx.shape + (support.size,):
        raise ShapeError(f"counts {counts.shape} and log-prediction sums {sums.shape} "
                         f"for {idx.size} labels, support size {support.size}")
    idx = idx.reshape(-1)
    log_ratio = counts.reshape(-1, 1) * table.log_target[idx] - sums.reshape(idx.size, -1)
    return float((table.dsigma[idx] * log_ratio).sum())


def loss_sums(counts, log_pred_sums, table: TargetTable, alphas, sq_err_sum: float,
              loss_mode: str) -> tuple[float, float, float, float, float]:
    """Sums of alpha * KL, (1 - alpha) * CE, squared error, alpha and the
    ``loss_mode`` objective over samples given by per-label statistics: label
    l has ``counts[l]`` samples of weight ``alphas[l]`` whose floored log
    predictions sum to the row S_l = ``log_pred_sums[l]``, and ``sq_err_sum``
    is their summed squared error. The label's KL sum is ``_kl`` at count
    n_l, and its CE sum is -S_l[l]."""
    kl = _kl(table.target, table.log_target, log_pred_sums, counts)
    ce = -np.diagonal(log_pred_sums)
    wkl, wce = float(alphas @ kl), float((1.0 - alphas) @ ce)
    objective = {"kl": kl.sum(), "ce": ce.sum()}.get(loss_mode, wkl + wce + MSE_WEIGHT * sq_err_sum)
    return wkl, wce, float(sq_err_sum), float(counts @ alphas), float(objective)
