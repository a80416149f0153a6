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
    LabelSupport,
    LossBreakdown,
    TargetTable,
    _expectation,
    _loss_terms,
    _softmax,
)
from .errors import (
    EmptyInputError,
    InvalidParameterError,
    ShapeError,
)

ACTIVATIONS = ("relu", "tanh")
MODEL_FORMAT = "saldl-model"
MODEL_VERSION = 1
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
    """Logits plus the penultimate embedding."""

    logits: np.ndarray
    embedding: np.ndarray


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
        return z > 0.0
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
    logits, emb, _, _ = forward_batch(model, x[None, :])
    return ForwardTrace(logits=logits[0], embedding=emb[0])


def predict_ages(model: Model, features: np.ndarray, support: LabelSupport,
                 prediction_rule: str = "expectation") -> np.ndarray:
    """Per-sample age read-out from the output distribution."""
    if prediction_rule not in PREDICTION_RULES:
        raise InvalidParameterError(f"unknown prediction rule {prediction_rule!r}")
    logits, _, _, _ = forward_batch(model, features)
    if prediction_rule == "argmax":
        return support.grid[np.argmax(logits, axis=1)]
    return _expectation(_softmax(logits), support)


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


def stage_target_table(stage_params, partition, support: LabelSupport) -> TargetTable:
    """Every label's target at its stage's sigma."""
    return TargetTable.build(
        np.asarray(stage_params.sigmas)[partition.stages_of(support.labels())], support)


def backward_step(model: Model, features: np.ndarray, labels: np.ndarray,
                  stage_params, partition, learning_rate: float,
                  support: LabelSupport, loss_mode: str = "saw",
                  return_stats: bool = False, table: TargetTable | None = None, *,
                  checked: tuple[np.ndarray, np.ndarray] | None = None):
    """One SGD step on the batch-mean loss.

    Each sample uses the alpha of its label's stage and its label's row of
    ``table``, which defaults to the targets at ``stage_params``' stage
    sigmas. ``loss_mode`` selects the optimized objective (the composite
    loss, or its KL or CE term alone). The output delta is scaled once, by
    ``learning_rate / n``. Returns (model, breakdown): the
    pre-step batch loss with the full composite decomposition, so arms stay
    comparable. With ``return_stats`` it returns (model, None, stats)
    instead: the pre-step ``LossTerms``, whose loss values cost nothing
    unless read, for a caller that reduces its own sums.

    ``checked`` is the batch's (grid indices, alphas), for a caller that
    gathers them once per epoch from labels already checked against
    ``table``'s support. The step then trusts its arguments: ``table`` must
    be given and ``learning_rate`` must be >= 0. Without ``checked`` the
    step checks its arguments and derives the same two arrays.
    """
    if checked is None:
        if learning_rate < 0:
            raise InvalidParameterError(f"learning_rate must be >= 0, got {learning_rate}")
        x = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels, dtype=np.int64)
        if x.ndim != 2 or x.shape[0] != y.shape[0]:
            raise ShapeError(f"features {x.shape} and labels {y.shape} disagree")
        if x.shape[0] == 0:
            raise EmptyInputError("batch is empty")
        if table is None:
            table = stage_target_table(stage_params, partition, support)
        # the labels are checked once, against the table's support
        idx = table.support.checked_indices(y - table.support.min_label)
        stage_idx = (partition.stage_index[idx] if table.support == partition.support
                     else partition.stages_of(y))
        checked = idx, np.asarray(stage_params.alphas, dtype=np.float64)[stage_idx]
    else:
        x = features
    idx, alphas = checked
    n = x.shape[0]

    with np.errstate(invalid="ignore", over="ignore"):
        logits, _, pre, acts = forward_batch(model, x)
    terms = _loss_terms(logits, idx, table.target[idx], alphas, table.support, loss_mode)

    delta = terms.dlogits * (learning_rate / n)  # a step on the batch-mean objective
    for layer in range(len(model.weights) - 1, -1, -1):
        step_w = acts[layer].T @ delta
        step_b = delta.sum(axis=0)
        if layer > 0:
            delta = delta @ model.weights[layer].T
            delta *= _act_grad(pre[layer - 1], model.activation)
        model.weights[layer] -= step_w
        model.biases[layer] -= step_b

    if return_stats:
        return model, None, terms
    return model, batch_breakdown(terms.kl, terms.ce, terms.mse, alphas)


def _encode(arr: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(arr, dtype=np.float64).tobytes()).decode("ascii")


def _decode(blob: str, shape) -> np.ndarray:
    flat = np.frombuffer(base64.b64decode(blob), dtype=np.float64)
    return flat.reshape(shape).copy()


def model_to_dict(model: Model) -> dict:
    """Versioned model document, the ``model`` part of a checkpoint;
    parameters as base64 float64 for an exact round trip."""
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "layer_dims": list(model.layer_dims),
        "activation": model.activation,
        "weights": [_encode(w) for w in model.weights],
        "biases": [_encode(b) for b in model.biases],
    }


def model_from_dict(d: dict) -> Model:
    if d.get("format") != MODEL_FORMAT or d.get("version") != MODEL_VERSION:
        raise InvalidParameterError(
            f"unsupported model format {d.get('format')!r} v{d.get('version')!r}"
        )
    dims = tuple(int(v) for v in d["layer_dims"])
    weights = [_decode(blob, (fan_in, fan_out))
               for blob, fan_in, fan_out in zip(d["weights"], dims[:-1], dims[1:])]
    biases = [_decode(blob, (fan_out,)) for blob, fan_out in zip(d["biases"], dims[1:])]
    return Model(layer_dims=dims, activation=str(d["activation"]),
                 weights=weights, biases=biases)
