"""Discrete label distributions and the composite training loss.

Targets are Gaussians evaluated on the integer label grid and renormalized,
so boundary-truncated targets stay valid distributions. ``loss_terms`` is
the one batched kernel: the objective's fused logit gradient, and per-sample
loss values computed when read (``_weigh`` weighs only these); the
single-sample functions are its n = 1 views. ``loss_sums`` and
``kl_gradient_sigma`` reduce many samples' per-label sums, which callers
accumulate in any order (``train_sav`` adds rows in row order).
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
from dataclasses import dataclass

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


def whole_labels(labels, ids=None) -> np.ndarray:
    """``labels`` as an array that holds no fraction and no nan, so an int64
    cast can neither truncate 3.7 to 3 nor turn nan into a label. Integer
    arrays pass unscanned; other labels become float64, so 3.0 passes. An
    infinite label is left to the caller's support check, which rejects it.
    The error names the first bad label, and its sample id when ``ids`` is
    given."""
    labels = np.asarray(labels)
    if labels.dtype.kind in "iu":
        return labels
    labels = labels.astype(np.float64)
    fraction = np.flatnonzero(labels != np.trunc(labels))  # nan too
    if fraction.size:
        i = fraction[0]
        sample = "" if ids is None else f"sample {ids[i]} "
        raise InvalidLabelError(f"{sample}label {labels.flat[i]} is not a whole number")
    return labels


@dataclass(frozen=True)
class LabelSupport:
    """Consecutive integer labels from ``min_label`` to ``max_label`` inclusive."""

    min_label: int = 0
    max_label: int = 100

    def __post_init__(self):
        if self.max_label - self.min_label + 1 < 2:
            raise InvalidParameterError(
                f"label support needs at least 2 labels, got "
                f"[{self.min_label}, {self.max_label}]"
            )

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

    def indices_of(self, labels) -> np.ndarray:
        """Grid index of each label; a label that is not a whole number or
        lies outside the support raises."""
        return self.checked_indices(whole_labels(labels) - self.min_label)

    def checked_indices(self, idx) -> np.ndarray:
        """Grid indices as an int array; any outside the support raises."""
        idx = np.asarray(idx)
        if idx.size and (idx.min() < 0 or idx.max() >= self.size):
            outside = (idx < 0) | (idx >= self.size)
            raise InvalidLabelError(f"label {self.min_label + idx[outside].flat[0]} outside "
                                    f"support [{self.min_label}, {self.max_label}]")
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
        _check_alpha(alpha)
        return cls(kl=float(kl), ce=float(ce), mse=float(mse),
                   total=float(_weigh("saw", alpha, kl, ce, mse)), alpha_used=float(alpha))


@dataclass
class LossTerms:
    """``loss_terms`` for n samples; the loss values are computed when read."""

    preds: np.ndarray        # (n, support) predicted distributions
    log_preds: np.ndarray    # (n, support) their floored logs
    pred_ages: np.ndarray    # (n,) expectation read-outs
    dlogits: np.ndarray      # (n, support) gradient of the objective w.r.t. the logits
    alphas: np.ndarray       # (n,) composite weights
    label_idx: np.ndarray    # (n,) grid indices of the true labels
    targets: np.ndarray      # (n, support) Gaussian targets
    support: LabelSupport
    loss_mode: str

    @functools.cached_property
    def kl(self) -> np.ndarray:
        return _kl(self.targets, _floored_log(self.targets), self.log_preds)

    @functools.cached_property
    def ce(self) -> np.ndarray:
        return -self.log_preds[np.arange(self.label_idx.size), self.label_idx]

    @functools.cached_property
    def mse(self) -> np.ndarray:
        return (self.pred_ages - self.support.grid[self.label_idx]) ** 2

    @functools.cached_property
    def objective(self) -> np.ndarray:
        return _weigh(self.loss_mode, self.alphas, self.kl, self.ce, self.mse)


def _check_sigma(sigma: float) -> None:
    if not np.isfinite(sigma) or sigma <= 0:
        raise InvalidParameterError(f"sigma must be positive and finite, got {sigma}")


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 1.0):
        raise InvalidParameterError(f"alpha must lie strictly in (0, 1), got {alpha}")


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


def _floored_log(p: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(p, PROB_FLOOR))


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


def _weigh(loss_mode: str, alpha, kl, ce, mse):
    """The optimized objective from its loss values; ``_loss_terms`` fuses
    the same weighting into one composite logit gradient."""
    if loss_mode == "kl":
        return kl
    if loss_mode == "ce":
        return ce
    return alpha * kl + (1.0 - alpha) * ce + MSE_WEIGHT * mse


def _loss_terms(logits, label_idx: np.ndarray, targets: np.ndarray, alphas,
                support: LabelSupport, loss_mode: str) -> LossTerms:
    if loss_mode not in LOSS_MODES:
        raise InvalidParameterError(f"loss_mode must be one of {LOSS_MODES}")
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
    else:
        # alpha (p - t) + (1 - alpha) (p - onehot) + MSE_WEIGHT 2 err p (k - age),
        # gathered as p (1 + 2 MSE_WEIGHT err (k - age)) - alpha t - (1 - alpha) onehot
        err = pred_ages - k[label_idx]
        dlogits = (preds * (1.0 + (2.0 * MSE_WEIGHT) * err[:, None] * (k - pred_ages[:, None]))
                   - alphas[:, None] * targets)
        dlogits[rows, label_idx] -= 1.0 - alphas
    return LossTerms(preds=preds, log_preds=_floored_log(preds), pred_ages=pred_ages,
                     dlogits=dlogits, alphas=alphas, label_idx=label_idx, targets=targets,
                     support=support, loss_mode=loss_mode)


def loss_terms(logits: np.ndarray, label_idx: np.ndarray, alphas: np.ndarray,
               table: TargetTable, loss_mode: str = "saw") -> LossTerms:
    """Loss terms and logit gradient for a batch of (n, support) logits.

    Sample i has the true label at grid index ``label_idx[i]``, the Gaussian
    target of that label's row in ``table`` and the composite weight
    ``alphas[i]``. Logit gradients: KL term pred - target, CE term
    pred - onehot, squared-error term 2 (age_hat - label) * pred_k *
    (k - age_hat), from the softmax Jacobian applied to the expectation
    read-out.
    """
    idx = table.support.checked_indices(label_idx)
    return _loss_terms(logits, idx, table.target[idx], alphas, table.support, loss_mode)


def gaussian_label_distribution(label: int, sigma: float,
                                support: LabelSupport) -> np.ndarray:
    """Gaussian target centered on ``label``, renormalized over the support.

    Entry k is proportional to exp(-(k - label)^2 / (2 sigma^2)); dividing by
    the discrete sum keeps truncated targets (labels near the boundary) valid
    distributions.
    """
    _check_sigma(sigma)
    target, _ = _gaussian_targets(support.index_of(label), np.float64(sigma), support)
    return target


def softmax(logits: np.ndarray) -> np.ndarray:
    """Probability vector from logits, with max-subtraction for overflow safety."""
    return _softmax(_check_logits(logits))


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) with the 0 * log(0 / q) = 0 convention and floored logs."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ShapeError(f"distributions differ in shape: {p.shape} vs {q.shape}")
    return float(_kl(p, _floored_log(p), _floored_log(q)))


def cross_entropy(pred: np.ndarray, label: int, support: LabelSupport) -> float:
    """Negative log-probability of the true label under ``pred`` (one sample)."""
    idx = support.index_of(label)
    pred = _check_width(pred, support, "prediction")
    return float(-_floored_log(pred[idx]))


def mse_loss(pred_age: float, label: int) -> float:
    return float((float(pred_age) - float(label)) ** 2)


def expected_age(dist: np.ndarray, support: LabelSupport) -> float:
    """Expectation read-out: sum of label * probability."""
    return float(_expectation(_check_width(dist, support, "distribution"), support))


def _one_sample(logits, label: int, sigma: float, alpha: float,
                support: LabelSupport) -> LossTerms:
    _check_sigma(sigma)
    _check_alpha(alpha)
    idx = np.array([support.index_of(label)])
    z = _check_width(logits, support, "logits")
    d, _ = _gaussian_targets(idx, np.array([sigma], dtype=np.float64), support)
    return _loss_terms(z[None, :], idx, d, np.array([alpha]), support, "saw")


def saw_loss(logits: np.ndarray, label: int, sigma: float, alpha: float,
             support: LabelSupport) -> LossBreakdown:
    """Composite loss: alpha * KL + (1 - alpha) * CE + MSE_WEIGHT * squared error.

    The KL target is the Gaussian label distribution at ``sigma``; the
    squared-error term uses the differentiable expectation read-out.
    """
    t = _one_sample(logits, label, sigma, alpha, support)
    return LossBreakdown.compose(t.kl[0], t.ce[0], t.mse[0], alpha)


def saw_gradient_logits(logits: np.ndarray, label: int, sigma: float, alpha: float,
                        support: LabelSupport) -> np.ndarray:
    """Exact gradient of the composite loss w.r.t. each logit (see
    ``loss_terms`` for the per-term formulas)."""
    return _one_sample(logits, label, sigma, alpha, support).dlogits[0]


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
