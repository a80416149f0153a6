"""Small feed-forward classifier over the label support.

Forward passes expose the penultimate embedding alongside the logits;
backprop is hand-written against the composite-loss gradient from
``core`` and drives plain SGD. All math is float64 so the finite
difference checks in the tests can run at tight tolerances.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, field

import numpy as np

from .core import (
    MSE_WEIGHT,
    LabelSupport,
    LossBreakdown,
    PROB_FLOOR,
)
from .errors import (
    EmptyInputError,
    InvalidInputError,
    InvalidParameterError,
    ShapeError,
)

ACTIVATIONS = ("relu", "tanh")
CHECKPOINT_VERSION = 1
LOSS_MODES = ("kl", "ce", "saw")
PREDICTION_RULES = ("expectation", "argmax")


@dataclass
class Model:
    """MLP parameters: ``layer_dims[0]`` inputs through to logits over the support."""

    layer_dims: tuple[int, ...]
    activation: str
    weights: list[np.ndarray] = field(repr=False)
    biases: list[np.ndarray] = field(repr=False)

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def output_dim(self) -> int:
        return self.layer_dims[-1]

    @property
    def embedding_dim(self) -> int:
        return self.layer_dims[-2]

    def copy(self) -> "Model":
        return Model(layer_dims=self.layer_dims, activation=self.activation,
                     weights=[w.copy() for w in self.weights],
                     biases=[b.copy() for b in self.biases])

    def equals(self, other: "Model") -> bool:
        return (self.layer_dims == other.layer_dims
                and self.activation == other.activation
                and all(np.array_equal(a, b) for a, b in zip(self.weights, other.weights))
                and all(np.array_equal(a, b) for a, b in zip(self.biases, other.biases)))


@dataclass(frozen=True)
class ForwardTrace:
    """Logits plus the penultimate embedding and cached layer state."""

    logits: np.ndarray
    embedding: np.ndarray
    pre_activations: tuple[np.ndarray, ...]
    activations: tuple[np.ndarray, ...]


def init_model(layer_dims, activation: str, seed: int,
               support: LabelSupport | None = None) -> Model:
    """Deterministic init: fan-in-scaled uniform weights, zero biases."""
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise InvalidParameterError(f"layer_dims must be >= 2 positive widths, got {dims}")
    if support is not None and dims[-1] != support.size:
        raise InvalidParameterError(
            f"final layer width {dims[-1]} must equal support size {support.size}"
        )
    if activation not in ACTIVATIONS:
        raise InvalidParameterError(f"activation must be one of {ACTIVATIONS}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        scale = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-scale, scale, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out, dtype=np.float64))
    return Model(layer_dims=dims, activation=activation, weights=weights, biases=biases)


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    return np.maximum(z, 0.0) if kind == "relu" else np.tanh(z)


def _act_grad(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return (z > 0.0).astype(np.float64)
    t = np.tanh(z)
    return 1.0 - t * t


def forward_batch(model: Model, features: np.ndarray):
    """Run the network on an (n, input_dim) batch.

    Returns (logits, embeddings, pre_activations, hidden_activations) where
    ``hidden_activations[0]`` is the input batch itself.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ShapeError(
            f"features must have shape (n, {model.input_dim}), got {x.shape}"
        )
    pre, acts = [], [x]
    h = x
    n_layers = len(model.weights)
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w + b
        pre.append(z)
        if i < n_layers - 1:
            h = _act(z, model.activation)
            acts.append(h)
    logits = pre[-1]
    embeddings = acts[-1]
    return logits, embeddings, pre, acts


def forward(model: Model, features: np.ndarray) -> ForwardTrace:
    """Single-sample forward pass with the penultimate embedding exposed."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError(f"expected a feature vector, got shape {x.shape}")
    logits, emb, pre, acts = forward_batch(model, x[None, :])
    return ForwardTrace(logits=logits[0], embedding=emb[0],
                        pre_activations=tuple(p[0] for p in pre),
                        activations=tuple(a[0] for a in acts))


def predict_ages(model: Model, features: np.ndarray, support: LabelSupport,
                 prediction_rule: str = "expectation") -> np.ndarray:
    """Per-sample age read-out from the output distribution."""
    if prediction_rule not in PREDICTION_RULES:
        raise InvalidParameterError(f"unknown prediction rule {prediction_rule!r}")
    logits, _, _, _ = forward_batch(model, features)
    k = support.labels().astype(np.float64)
    if prediction_rule == "argmax":
        return k[np.argmax(logits, axis=1)]
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)
    return probs @ k


@dataclass(frozen=True)
class BatchStats:
    """Per-sample quantities from one training step, pre-update."""

    preds: np.ndarray        # (n, support) predicted distributions
    pred_ages: np.ndarray    # (n,) expectation read-outs
    kl: np.ndarray           # (n,)
    ce: np.ndarray           # (n,)
    mse: np.ndarray          # (n,)
    alphas: np.ndarray       # (n,) per-sample stage alphas
    sigmas: np.ndarray       # (n,) per-sample stage sigmas
    stage_idx: np.ndarray    # (n,)


def batch_breakdown(kl, ce, mse, alphas) -> LossBreakdown:
    """Batch-mean loss record with weight-normalized components.

    Reporting kl as sum(alpha_i kl_i) / sum(alpha_i) (and ce analogously)
    keeps the recomposition identity exact even when alpha varies across
    the batch; with a shared alpha it reduces to the plain means.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    kl_rep = float(np.dot(alphas, kl) / alphas.sum())
    ce_rep = float(np.dot(1.0 - alphas, ce) / (1.0 - alphas).sum())
    return LossBreakdown.compose(kl_rep, ce_rep, float(np.mean(mse)),
                                 float(np.mean(alphas)))


def backward_step(model: Model, features: np.ndarray, labels: np.ndarray,
                  stage_params, partition, learning_rate: float,
                  support: LabelSupport, loss_mode: str = "saw",
                  return_stats: bool = False):
    """One SGD step on the batch-mean loss; returns the pre-step loss.

    Each sample uses the sigma and alpha of its label's stage. ``loss_mode``
    selects the optimized objective (the composite loss, or its KL or CE
    term alone); the returned breakdown always reports the full composite
    decomposition so arms stay comparable in training histories.
    """
    if loss_mode not in LOSS_MODES:
        raise InvalidParameterError(f"loss_mode must be one of {LOSS_MODES}")
    if learning_rate < 0:
        raise InvalidParameterError(f"learning_rate must be >= 0, got {learning_rate}")
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ShapeError(f"features {x.shape} and labels {y.shape} disagree")
    n = x.shape[0]
    if n == 0:
        raise EmptyInputError("batch is empty")

    stage_idx = np.array([partition.stage_of(int(v)) for v in y])
    sigmas = np.asarray(stage_params.sigmas, dtype=np.float64)[stage_idx]
    alphas = np.asarray(stage_params.alphas, dtype=np.float64)[stage_idx]

    with np.errstate(invalid="ignore", over="ignore"):
        logits, _, pre, acts = forward_batch(model, x)
    if not np.all(np.isfinite(logits)):
        raise InvalidInputError("non-finite logits; parameters may have diverged")
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    preds = e / e.sum(axis=1, keepdims=True)

    k = support.labels().astype(np.float64)
    y_idx = y - support.min_label
    diff = k[None, :] - k[y_idx][:, None]
    targets = np.exp(-(diff ** 2) / (2.0 * sigmas[:, None] ** 2))
    targets /= targets.sum(axis=1, keepdims=True)

    log_pred = np.log(np.maximum(preds, PROB_FLOOR))
    log_target = np.log(np.maximum(targets, PROB_FLOOR))
    kl = np.where(targets > 0.0, targets * (log_target - log_pred), 0.0).sum(axis=1)
    kl = np.maximum(kl, 0.0)
    ce = -log_pred[np.arange(n), y_idx]
    pred_ages = preds @ k
    mse = (pred_ages - y.astype(np.float64)) ** 2

    onehot = np.zeros_like(preds)
    onehot[np.arange(n), y_idx] = 1.0
    g_kl = preds - targets
    g_ce = preds - onehot
    g_mse = 2.0 * (pred_ages - y)[:, None] * preds * (k[None, :] - pred_ages[:, None])
    if loss_mode == "saw":
        dlogits = alphas[:, None] * g_kl + (1.0 - alphas)[:, None] * g_ce + MSE_WEIGHT * g_mse
    elif loss_mode == "kl":
        dlogits = g_kl
    else:
        dlogits = g_ce
    dlogits = dlogits / n  # batch-mean objective

    delta = dlogits
    for layer in range(len(model.weights) - 1, -1, -1):
        h_in = acts[layer]
        grad_w = h_in.T @ delta
        grad_b = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ model.weights[layer].T) * _act_grad(
                pre[layer - 1], model.activation)
        model.weights[layer] -= learning_rate * grad_w
        model.biases[layer] -= learning_rate * grad_b

    breakdown = batch_breakdown(kl, ce, mse, alphas)
    if return_stats:
        stats = BatchStats(preds=preds, pred_ages=pred_ages, kl=kl, ce=ce, mse=mse,
                           alphas=alphas, sigmas=sigmas, stage_idx=stage_idx)
        return model, breakdown, stats
    return model, breakdown


def _encode(arr: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(arr, dtype=np.float64).tobytes()).decode("ascii")


def _decode(blob: str, shape) -> np.ndarray:
    flat = np.frombuffer(base64.b64decode(blob), dtype=np.float64)
    return flat.reshape(shape).copy()


def model_to_dict(model: Model) -> dict:
    """Versioned checkpoint document; parameters as base64 float64 for an
    exact round trip."""
    return {
        "format": "saldl-model",
        "version": CHECKPOINT_VERSION,
        "layer_dims": list(model.layer_dims),
        "activation": model.activation,
        "weights": [_encode(w) for w in model.weights],
        "biases": [_encode(b) for b in model.biases],
    }


def model_from_dict(d: dict) -> Model:
    if d.get("format") != "saldl-model" or d.get("version") != CHECKPOINT_VERSION:
        raise InvalidParameterError(
            f"unsupported checkpoint format {d.get('format')!r} v{d.get('version')!r}"
        )
    dims = tuple(int(v) for v in d["layer_dims"])
    weights = [_decode(blob, (fan_in, fan_out))
               for blob, fan_in, fan_out in zip(d["weights"], dims[:-1], dims[1:])]
    biases = [_decode(blob, (fan_out,)) for blob, fan_out in zip(d["biases"], dims[1:])]
    return Model(layer_dims=dims, activation=str(d["activation"]),
                 weights=weights, biases=biases)
