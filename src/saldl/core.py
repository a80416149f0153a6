"""Discrete label distributions and the composite training loss.

Targets are Gaussians evaluated on the integer label grid and renormalized,
so boundary-truncated targets stay valid distributions. ``loss_terms`` is
the one batched kernel: per-sample loss terms and the logit gradient of
the optimized objective. The single-sample functions are n = 1 views of
the same helpers; batch reductions (means) live with the callers.
Each label's target row is memoized per support at the last spread it was
asked for, since a stage's spread stays fixed for a whole epoch.
Gradients are hand-derived and checked against finite differences in the
test suite.
"""

from __future__ import annotations

import functools
import threading
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

    def contains(self, label: int) -> bool:
        return self.min_label <= label <= self.max_label

    def indices_of(self, labels) -> np.ndarray:
        """Grid index of each label; any label outside the support raises."""
        labels = np.asarray(labels, dtype=np.int64)
        outside = (labels < self.min_label) | (labels > self.max_label)
        if outside.any():
            raise InvalidLabelError(f"label {labels[outside].flat[0]} outside support "
                                    f"[{self.min_label}, {self.max_label}]")
        return labels - self.min_label

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


@dataclass(frozen=True)
class LossTerms:
    """Per-sample outputs of ``loss_terms`` for a batch of n samples."""

    preds: np.ndarray        # (n, support) predicted distributions
    pred_ages: np.ndarray    # (n,) expectation read-outs
    kl: np.ndarray           # (n,)
    ce: np.ndarray           # (n,)
    mse: np.ndarray          # (n,)
    objective: np.ndarray    # (n,) the loss_mode objective
    dlogits: np.ndarray      # (n, support) its gradient w.r.t. the logits


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
    if not np.all(np.isfinite(z)):
        raise InvalidInputError("logits must be finite")
    return z


# The helpers below work along the last axis, so one sample (a vector) and
# a batch (one row per sample) share each piece of math.

def _softmax(logits: np.ndarray) -> np.ndarray:
    """Probabilities from logits, with max-subtraction for overflow safety."""
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _floored_log(p: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(p, PROB_FLOOR))


def _gaussian_targets(label_idx, sigmas, support: LabelSupport):
    """Targets exp(-d^2 / (2 sigma^2)) renormalized over the support, and the
    squared distances d^2 from the label to each grid label."""
    k = support.labels().astype(np.float64)
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
class _RowMemo:
    """Row i holds label i's ``_build_rows`` output at spread ``sigma[i]``."""

    sigma: np.ndarray       # (size,) NaN until the row is first built
    rows: tuple             # target, log_target, dsigma; each (size, size)


# held while a memo's rows are checked, refilled and read
_MEMO_LOCK = threading.Lock()


@functools.lru_cache(maxsize=8)
def _row_memo(support: LabelSupport) -> _RowMemo:
    n = support.size
    return _RowMemo(np.full(n, np.nan), tuple(np.empty((n, n)) for _ in range(3)))


def _target_rows(label_idx, sigmas, support: LabelSupport):
    """(target, log_target, dsigma) rows, one per sample, for 1-d label
    indices and per-sample spreads (or one shared spread), read from the
    support's memo.

    A label's row is rebuilt when it is asked for at a spread (compared
    exactly) other than the one it holds. When one call asks for a label at
    two spreads, the memo keeps the last and the other samples get freshly
    built rows. The returned arrays are copies.
    """
    memo = _row_memo(support)
    idx = np.asarray(label_idx)
    sig = np.asarray(sigmas, dtype=np.float64)
    with _MEMO_LOCK:
        stale = memo.sigma.take(idx) != sig
        if stale.any():
            sig = np.broadcast_to(sig, idx.shape)
            refill = np.zeros(support.size, dtype=bool)
            refill[idx[stale]] = True
            refill = np.flatnonzero(refill)
            wanted = memo.sigma.copy()
            wanted[idx[stale]] = sig[stale]  # the last sample asking for a label wins
            for row, built in zip(memo.rows, _build_rows(refill, wanted[refill], support)):
                row[refill] = built
            memo.sigma[refill] = wanted[refill]
            stale = memo.sigma.take(idx) != sig
        out = tuple(row.take(idx, axis=0) for row in memo.rows)
    if stale.any():
        for arr, built in zip(out, _build_rows(idx[stale], sig[stale], support)):
            arr[stale] = built
    return out


def _kl(target: np.ndarray, log_target: np.ndarray, log_pred: np.ndarray) -> np.ndarray:
    """KL(target || pred) with the 0 * log(0 / q) = 0 convention; the true
    value is nonnegative, and flooring can leave a ~1e-9 residue."""
    val = np.where(target > 0.0, target * (log_target - log_pred), 0.0).sum(axis=-1)
    return np.maximum(val, 0.0)


def _expectation(probs: np.ndarray, support: LabelSupport) -> np.ndarray:
    """Expectation read-out: sum of label * probability."""
    return probs @ support.labels().astype(np.float64)


def _weigh(loss_mode: str, alpha, kl, ce, mse):
    """The optimized objective from its terms. Linear in the terms, so it
    weighs the per-sample losses and their logit gradients alike."""
    if loss_mode == "kl":
        return kl
    if loss_mode == "ce":
        return ce
    return alpha * kl + (1.0 - alpha) * ce + MSE_WEIGHT * mse


def loss_terms(logits: np.ndarray, label_idx: np.ndarray, sigmas: np.ndarray,
               alphas: np.ndarray, support: LabelSupport,
               loss_mode: str = "saw") -> LossTerms:
    """Loss terms and logit gradient for a batch of (n, support) logits.

    Sample i has the true label at grid index ``label_idx[i]``, a Gaussian
    target of spread ``sigmas[i]`` and the composite weight ``alphas[i]``.
    Logit gradients: KL term pred - target, CE term pred - onehot,
    squared-error term 2 (age_hat - label) * pred_k * (k - age_hat), from
    the softmax Jacobian applied to the expectation read-out.
    """
    if loss_mode not in LOSS_MODES:
        raise InvalidParameterError(f"loss_mode must be one of {LOSS_MODES}")
    z = _check_logits(logits)
    alphas = np.asarray(alphas, dtype=np.float64)
    rows = np.arange(z.shape[0])
    k = support.labels().astype(np.float64)

    preds = _softmax(z)
    targets, log_targets, _ = _target_rows(label_idx, sigmas, support)
    log_pred = _floored_log(preds)
    kl = _kl(targets, log_targets, log_pred)
    ce = -log_pred[rows, label_idx]
    pred_ages = _expectation(preds, support)
    err = pred_ages - k[label_idx]
    mse = err ** 2

    onehot = np.zeros_like(preds)
    onehot[rows, label_idx] = 1.0
    g_kl = preds - targets
    g_ce = preds - onehot
    g_mse = 2.0 * err[:, None] * preds * (k - pred_ages[:, None])
    return LossTerms(preds=preds, pred_ages=pred_ages, kl=kl, ce=ce, mse=mse,
                     objective=_weigh(loss_mode, alphas, kl, ce, mse),
                     dlogits=_weigh(loss_mode, alphas[:, None], g_kl, g_ce, g_mse))


def gaussian_label_distribution(label: int, sigma: float,
                                support: LabelSupport) -> np.ndarray:
    """Gaussian target centered on ``label``, renormalized over the support.

    Entry k is proportional to exp(-(k - label)^2 / (2 sigma^2)); dividing by
    the discrete sum keeps truncated targets (labels near the boundary) valid
    distributions.
    """
    _check_sigma(sigma)
    return _target_rows([support.index_of(label)], sigma, support)[0][0]


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
    idx = support.index_of(label)
    z = _check_width(logits, support, "logits")
    return loss_terms(z[None, :], np.array([idx]), np.array([sigma]),
                      np.array([alpha]), support)


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


def kl_gradient_sigma(labels, sigma: float, preds: np.ndarray,
                      support: LabelSupport) -> float:
    """Derivative w.r.t. sigma of KL(target(label, sigma) || pred), summed
    over samples that share the one ``sigma``.

    ``labels`` is one label with a (support,) ``preds``, or n labels with
    (n, support) ``preds``. Differentiates through the renormalized
    Gaussian target: with a_k = (k - label)^2 / sigma^3 the target
    derivative is d_k (a_k - mean_d(a)), giving
    dKL/dsigma = sum_k d_k (a_k - mean_d(a)) (log d_k - log pred_k).
    Spreads below SIGMA_MIN are clamped so degenerate inputs stay finite.
    """
    _check_sigma(sigma)
    s = max(float(sigma), SIGMA_MIN)
    idx = support.indices_of(labels)
    preds = np.asarray(preds, dtype=np.float64)
    if preds.shape != idx.shape + (support.size,):
        raise ShapeError(f"predictions have shape {preds.shape} for "
                         f"{idx.size} labels, support size {support.size}")
    idx = idx.reshape(-1)
    d, log_d, dsigma = _target_rows(idx, s, support)
    log_ratio = log_d - _floored_log(preds.reshape(d.shape))
    return float(np.where(d > 0.0, dsigma * log_ratio, 0.0).sum())
