"""Small feed-forward classifier over the label support.

Forward passes keep the logits and each layer's activation, from the input
to the penultimate embedding, and no pre-activation: backprop, hand-written
against the composite-loss gradient from ``core`` and driving plain SGD,
reads each activation's derivative from the activation itself. All math is
float64 so the finite difference checks in the tests can run at tight
tolerances.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, field

import numpy as np

from .core import (
    LabelSupport,
    LossBreakdown,
    TargetTable,
    _count,
    _each,
    _expectation,
    _loss_terms,
    _named,
    _number,
    _one_of,
    _range,
    _sample_losses,
    _seed,
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
# Rows of predictions held at once: the read-out's block, and about the
# training loop's buffer between additions to its per-label sums.
BLOCK_ROWS = 256


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


# Layer widths into a tuple: any number of hidden layers, and a model's
# two or more layers.
_widths, _layer_dims = _each(_count), _each(_count, 2)


def init_model(layer_dims, activation: str, seed: int,
               support: LabelSupport | None = None) -> Model:
    """Deterministic init: fan-in-scaled uniform weights, zero biases."""
    dims, seed = _named("layer_dims", _layer_dims, layer_dims), _named("seed", _seed, seed)
    if support is not None and dims[-1] != support.size:
        raise InvalidParameterError(
            f"final layer width {dims[-1]} must equal support size {support.size}")
    _named("activation", _one_of(ACTIVATIONS), activation)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        scale = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-scale, scale, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out, dtype=np.float64))
    return Model(layer_dims=dims, activation=activation, weights=weights, biases=biases)


def _act_grad(h: np.ndarray, kind: str) -> np.ndarray:
    """The derivative at the pre-activation z, from h = relu(z) or tanh(z)."""
    if kind == "relu":
        return h > 0.0
    return 1.0 - h * h


def _batch(model: Model, features) -> np.ndarray:
    """``features`` as a float64 (n, input_dim) batch."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ShapeError(f"features must have shape (n, {model.input_dim}), got {x.shape}")
    return x


def forward_batch(model: Model, features: np.ndarray):
    """Run the network on an (n, input_dim) batch.

    Returns (logits, activations): ``activations[0]`` is the input batch
    itself and ``activations[-1]`` the penultimate embedding.
    """
    acts = [_batch(model, features)]
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        z = acts[-1] @ w + b
        # the activation overwrites its pre-activation
        if model.activation == "relu":
            np.maximum(z, 0.0, out=z)
        else:
            np.tanh(z, out=z)
        acts.append(z)
    return acts[-1] @ model.weights[-1] + model.biases[-1], acts


def forward(model: Model, features: np.ndarray) -> ForwardTrace:
    """Single-sample forward pass with the penultimate embedding exposed."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError(f"expected a feature vector, got shape {x.shape}")
    logits, acts = forward_batch(model, x[None, :])
    return ForwardTrace(logits=logits[0], embedding=acts[-1][0])


def _blocked(model: Model, features, width: tuple, read) -> np.ndarray:
    """``read(logits, activations)`` of each ``BLOCK_ROWS``-row block, into
    one (n, *width) array: the working set does not grow with the input. A
    one-row tail joins the block before it, since NumPy multiplies a single
    row by a matrix-vector product, which rounds differently from a block's
    matrix product. Each row then has the bits of one pass over the whole
    input wherever BLAS runs that pass with the blocks' kernels: OpenBLAS
    0.3.31 does for every split the tests and the benchmark read out, but
    not for a 24 -> 12 layer from about 3 500 rows."""
    x = _batch(model, features)
    n = len(x)
    out = np.empty((n, *width))
    stops = [*range(BLOCK_ROWS, n - 1, BLOCK_ROWS), n]
    for start, stop in zip([0, *stops], stops):
        out[start:stop] = read(*forward_batch(model, x[start:stop]))
    return out


def predict_ages(model: Model, features: np.ndarray, support: LabelSupport,
                 prediction_rule: str = "expectation") -> np.ndarray:
    """Per-sample age read-out from the output distribution, in
    ``_blocked``'s blocks."""
    _named("prediction_rule", _one_of(PREDICTION_RULES), prediction_rule)
    return _blocked(model, features, (), lambda logits, _: (
        support.grid[np.argmax(logits, axis=1)] if prediction_rule == "argmax"
        else _expectation(_softmax(logits), support)))


def embeddings(model: Model, features: np.ndarray) -> np.ndarray:
    """Each row's penultimate embedding, in ``_blocked``'s blocks."""
    return _blocked(model, features, (model.layer_dims[-2],), lambda _, acts: acts[-1])


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
    instead: the pre-step ``LossTerms`` (predictions, read-outs and logit
    gradient), for a caller that reduces its own sums.

    ``checked`` is the batch's (grid indices, alphas), for a caller that
    gathers them once per epoch from labels already checked against
    ``table``'s support. The step then trusts its arguments: ``table`` must
    be given and ``learning_rate`` must be >= 0. Without ``checked`` the
    step checks its arguments and derives the same two arrays.
    """
    if checked is None:
        learning_rate = _named("learning_rate", _range(_number, 0), learning_rate)
        x = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels)
        if x.ndim != 2 or y.shape != x.shape[:1]:
            raise ShapeError(f"features {x.shape} and labels {y.shape} disagree")
        if x.shape[0] == 0:
            raise EmptyInputError("batch is empty")
        if table is None:
            table = stage_target_table(stage_params, partition, support)
        # the labels are checked once, against the table's support
        idx = table.support.indices_of(y)
        stage_idx = (partition.stage_index[idx] if table.support == partition.support
                     else partition.stages_of(y))
        checked = idx, np.asarray(stage_params.alphas, dtype=np.float64)[stage_idx]
    else:
        x = features
    idx, alphas = checked
    n = x.shape[0]

    with np.errstate(invalid="ignore", over="ignore"):
        logits, acts = forward_batch(model, x)
    terms = _loss_terms(logits, idx, table.target[idx], alphas, table.support, loss_mode)

    delta = terms.dlogits * (learning_rate / n)  # a step on the batch-mean objective
    for layer in range(len(model.weights) - 1, -1, -1):
        step_w = acts[layer].T @ delta
        step_b = delta.sum(axis=0)
        if layer > 0:
            delta = delta @ model.weights[layer].T
            delta *= _act_grad(acts[layer], model.activation)
        model.weights[layer] -= step_w
        model.biases[layer] -= step_b

    if return_stats:
        return model, None, terms
    kl, ce, sq_err = _sample_losses(terms, idx, table.target[idx], table.support)
    return model, LossBreakdown.from_sums(alphas @ kl, (1.0 - alphas) @ ce,
                                          sq_err.sum(), alphas.sum(), n)


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
            f"unsupported model format {d.get('format')!r} v{d.get('version')!r}")
    dims = _layer_dims(d["layer_dims"])
    _one_of(ACTIVATIONS)(d["activation"])
    if not len(d["weights"]) == len(d["biases"]) == len(dims) - 1:
        raise InvalidParameterError(f"{len(dims)} layer widths need {len(dims) - 1} weights "
                                    f"and biases, got {len(d['weights'])} and {len(d['biases'])}")
    weights = [_decode(blob, (fan_in, fan_out))
               for blob, fan_in, fan_out in zip(d["weights"], dims[:-1], dims[1:])]
    biases = [_decode(blob, (fan_out,)) for blob, fan_out in zip(d["biases"], dims[1:])]
    return Model(layer_dims=dims, activation=d["activation"], weights=weights, biases=biases)
