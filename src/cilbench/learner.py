"""Feedforward classifier with a growable single head and rehearsal losses.

Training combines plain cross-entropy over all current classes with a
temperature-smoothed distillation term against a frozen teacher taken at
the previous task boundary: loss = beta * distill + (1 - beta) * ce.
On the first task there is no teacher and only cross-entropy is used.
Everything is plain numpy with analytic gradients, so the whole chain
can be validated against finite differences.

No code writes a model's arrays after train_task or init_mlp has
returned them: train_task trains a copy.  So a teacher snapshot and a
grown head share the arrays they do not change instead of copying them.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError, DivergenceError, ShapeError

_PROB_FLOOR = 1e-12


@dataclass
class MlpModel:
    weights: list[np.ndarray]  # weights[k]: (fan_in, fan_out)
    biases: list[np.ndarray]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def num_classes(self) -> int:
        return self.weights[-1].shape[1]


@dataclass
class TeacherSnapshot:
    model: MlpModel
    num_classes: int


@dataclass(frozen=True)
class LossConfig:
    temperature: float = 2.0
    beta: float = 0.5

    def validate(self) -> None:
        if self.temperature <= 1.0:
            raise ConfigurationError("temperature must be > 1")
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigurationError("beta must be in [0, 1]")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 70
    batch_size: int = 128
    learning_rate: float = 0.01
    momentum: float = 0.01

    def validate(self) -> None:
        if min(self.epochs, self.batch_size) < 1:
            raise ConfigurationError("epochs and batch_size must be >= 1")
        if self.learning_rate <= 0 or self.momentum < 0:
            raise ConfigurationError("learning_rate must be > 0, momentum >= 0")


def init_mlp(
    input_dim: int, hidden: tuple[int, ...], num_classes: int, seed: int
) -> MlpModel:
    """Fan-in-scaled uniform init for every layer; ReLU hiddens, linear head."""
    rng = np.random.default_rng(seed)
    sizes = [input_dim, *hidden, num_classes]
    weights, biases = [], []
    for a, b in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(a)
        weights.append(rng.uniform(-bound, bound, size=(a, b)))
        biases.append(np.zeros(b))
    return MlpModel(weights=weights, biases=biases)


def snapshot_teacher(model: MlpModel) -> TeacherSnapshot:
    """The frozen teacher: a new model object over the same arrays (nothing
    writes them; see the module docstring)."""
    model = MlpModel(weights=list(model.weights), biases=list(model.biases))
    return TeacherSnapshot(model=model, num_classes=model.num_classes)


def grow_head(model: MlpModel, q_new: int, seed: int) -> MlpModel:
    """Widen the output layer by q_new units; old weights kept bit-exactly,
    new columns drawn from fan-in-scaled uniform noise, new biases zero.
    Only the head is new: the hidden layers are the input model's arrays."""
    if q_new < 1:
        raise ConfigurationError("q_new must be >= 1")
    rng = np.random.default_rng(seed)
    fan_in = model.weights[-1].shape[0]
    bound = 1.0 / np.sqrt(fan_in)
    new_cols = rng.uniform(-bound, bound, size=(fan_in, q_new))
    return MlpModel(
        weights=[*model.weights[:-1], np.hstack([model.weights[-1], new_cols])],
        biases=[*model.biases[:-1], np.concatenate([model.biases[-1], np.zeros(q_new)])],
    )


# ---------------------------------------------------------------------------
# Forward / backward


def as_features(X: np.ndarray, dtype=np.float32) -> np.ndarray:
    """Feature rows as floats.  Pixel bytes (uint8) become byte / 255,
    computed in float32 and written into an array of dtype; float rows
    pass through, widened only where dtype is wider."""
    if X.dtype != np.uint8:
        return X.astype(np.promote_types(X.dtype, dtype), copy=False)
    return np.divide(X, np.float32(255), out=np.empty(X.shape, dtype), dtype=np.float32)


def forward_batch(model: MlpModel, X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Returns (logits, activations); activations[k] is the input to layer k."""
    X = np.asarray(X)
    if X.dtype == np.uint8:
        raise DataError("forward_batch got pixel bytes (uint8); scale them with as_features")
    X = X.astype(np.float64, copy=False)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ShapeError(f"input shape {X.shape} != (rows, {model.input_dim})")
    acts = [X]
    h = X
    last = len(model.weights) - 1
    # bias and ReLU in place: one new array per layer, not three.  Freeing the
    # extra batch x width temporaries every step can make glibc trim and
    # re-fault its heap (68k minor faults against 1k in tsne-blobs training).
    for k, (W, b) in enumerate(zip(model.weights, model.biases)):
        h = h @ W
        h += b
        if k != last:
            np.maximum(h, 0.0, out=h)
            acts.append(h)
    return h, acts


def backprop(
    model: MlpModel,
    acts: list[np.ndarray],
    dlogits: np.ndarray,
    grads: list[tuple[np.ndarray, np.ndarray]] | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Gradients of sum(dlogits * logits) w.r.t. each (W, b), written into
    grads (one pair of arrays shaped like each layer's, allocated when None)."""
    if grads is None:
        grads = [(np.empty_like(W), np.empty_like(b)) for W, b in zip(model.weights, model.biases)]
    delta = dlogits
    for k in range(len(model.weights) - 1, -1, -1):
        gW, gb = grads[k]
        np.matmul(acts[k].T, delta, out=gW)
        np.sum(delta, axis=0, out=gb)
        if k > 0:
            delta = delta @ model.weights[k].T
            delta *= acts[k] > 0
    return grads


# ---------------------------------------------------------------------------
# Losses


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def forward_chunked(
    model: MlpModel,
    X: np.ndarray,
    rows: int,
    per_chunk: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """per_chunk(logits, penultimate features) of every row of X, stacked by
    row.  X goes through forward_batch min(rows, len(X)) rows at a time,
    each chunk scaled with as_features and freed before the next is made,
    so no float copy of X is larger than one chunk; per_chunk keeps what
    its caller needs of a chunk and nothing else.

    BLAS picks its kernel from the matrix shapes (one row goes through a
    matrix-vector kernel, small products through a small-matrix one), and
    the kernels round differently.  So every forward here has exactly
    `rows` rows, as a full training batch does: when len(X) is not a
    multiple of it, the last chunk overlaps the one before.
    """
    if rows < 1 or len(X) == 0:
        raise ConfigurationError("a chunked forward needs rows >= 1 and at least one row of X")
    out = None
    for start in range(0, len(X), rows):
        lo = max(0, min(start, len(X) - rows))
        logits, acts = forward_batch(model, as_features(X[lo : lo + rows], np.float64))
        part = per_chunk(logits, acts[-1])
        if out is None:
            out = np.empty((len(X), *part.shape[1:]), part.dtype)
        out[lo : lo + len(part)] = part
        del logits, acts, part  # frees the scaled chunk before the next is made
    return out


def teacher_targets(
    teacher: TeacherSnapshot, X: np.ndarray, temperature: float, chunk: int
) -> np.ndarray:
    """softmax(teacher logits / temperature) for every row of X, from
    forwards of exactly min(chunk, len(X)) rows (see forward_chunked)."""
    return forward_chunked(
        teacher.model, X, chunk, lambda logits, _: softmax(logits / temperature)
    )


def _loss_and_grads(
    model: MlpModel,
    X: np.ndarray,
    y: np.ndarray,
    p_t: np.ndarray | None,
    lcfg: LossConfig,
    grads: list[tuple[np.ndarray, np.ndarray]] | None = None,
) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
    """Mean per-example loss over rows X with in-range labels y, given the
    teacher's distilled targets p_t (None: cross-entropy only), and its
    gradients written into grads."""
    logits, acts = forward_batch(model, X)
    n = len(y)
    rows = np.arange(n)
    probs = softmax(logits)
    ce = -np.log(np.maximum(probs[rows, y], _PROB_FLOOR))
    dlogits = probs  # probs - onehot(y), in place
    dlogits[rows, y] -= 1.0

    if p_t is None:
        loss = float(ce.mean())
        dlogits /= n
    else:
        T = lcfg.temperature
        ell = p_t.shape[1]
        p_s = softmax(logits[:, :ell] / T)
        kd = -np.sum(p_t * np.log(np.maximum(p_s, _PROB_FLOOR)), axis=1)
        loss = float((lcfg.beta * kd + (1.0 - lcfg.beta) * ce).mean())
        dlogits *= 1.0 - lcfg.beta
        dlogits[:, :ell] += lcfg.beta * (p_s - p_t) / T
        dlogits /= n
    return loss, backprop(model, acts, dlogits, grads)


def batch_loss_and_grads(
    model: MlpModel,
    X: np.ndarray,
    y: np.ndarray,
    teacher: TeacherSnapshot | None,
    lcfg: LossConfig,
) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
    """Mean per-example loss over the batch and its analytic gradients."""
    y = np.asarray(y)
    if np.any((y < 0) | (y >= model.num_classes)):
        raise ShapeError("label outside model head")
    p_t = None if teacher is None else teacher_targets(teacher, X, lcfg.temperature, len(X))
    return _loss_and_grads(model, X, y, p_t, lcfg)


def _layer_views(flat: np.ndarray, model: MlpModel) -> list[tuple[np.ndarray, np.ndarray]]:
    """Consecutive views of flat shaped like each layer's (W, b)."""
    views, at = [], 0
    for W, b in zip(model.weights, model.biases):
        mid, end = at + W.size, at + W.size + b.size
        views.append((flat[at:mid].reshape(W.shape), flat[mid:end]))
        at = end
    return views


# ---------------------------------------------------------------------------
# Training


def train_task(
    model: MlpModel,
    X: np.ndarray,
    y: np.ndarray,
    teacher: TeacherSnapshot | None = None,
    *,
    seed: int,
    lcfg: LossConfig = LossConfig(),
    tcfg: TrainConfig = TrainConfig(),
) -> tuple[MlpModel, list[float]]:
    """Mini-batch gradient descent with momentum on rows X with head-slot
    labels y; returns the trained model and the per-epoch mean loss trace.
    Deterministic given seed, which orders the mini-batches.  X may be
    pixel bytes: each mini-batch is scaled with as_features once gathered."""
    lcfg.validate()
    tcfg.validate()
    y = np.asarray(y)
    if len(y) == 0:
        raise ConfigurationError("empty training data")
    if len(X) != len(y):
        raise ShapeError(f"{len(X)} feature rows but {len(y)} labels")
    if np.any((y < 0) | (y >= model.num_classes)):
        raise ShapeError("label outside model head")
    if teacher is not None and teacher.num_classes > model.num_classes:
        raise ShapeError(
            f"teacher head {teacher.num_classes} wider than student head {model.num_classes}"
        )

    # the trained model's arrays are views into one buffer, a copy of the
    # input's; momentum and gradients live in buffers of the same layout,
    # so one step is four whole-buffer operations.  The step lr * vel goes
    # into the gradient buffer, which the next backprop overwrites in full.
    flat = np.concatenate(
        [a.ravel() for W, b in zip(model.weights, model.biases) for a in (W, b)],
        dtype=np.float64,
    )
    params = _layer_views(flat, model)
    model = MlpModel(weights=[w for w, _ in params], biases=[b for _, b in params])
    grad = np.empty_like(flat)
    grads = _layer_views(grad, model)
    vel = np.zeros_like(flat)

    # the teacher's targets for a full batch come from one pass per task; a
    # short last batch gets a forward of its own shape (see teacher_targets)
    full = min(tcfg.batch_size, len(y))
    p_t = None if teacher is None else teacher_targets(teacher, X, lcfg.temperature, full)
    rng = np.random.default_rng(seed)
    trace: list[float] = []
    for epoch in range(tcfg.epochs):
        order = rng.permutation(len(y))
        losses = []
        for start in range(0, len(y), tcfg.batch_size):
            batch = order[start : start + tcfg.batch_size]
            xb = as_features(X[batch], np.float64)
            if p_t is None:
                targets = None
            elif len(batch) == full:
                targets = p_t[batch]
            else:
                targets = teacher_targets(teacher, xb, lcfg.temperature, len(batch))
            loss, _ = _loss_and_grads(model, xb, y[batch], targets, lcfg, grads)
            losses.append(loss * len(batch))
            vel *= tcfg.momentum
            vel += grad
            np.multiply(vel, tcfg.learning_rate, out=grad)
            flat -= grad
        epoch_loss = float(np.sum(losses) / len(y))
        if not np.isfinite(epoch_loss):
            raise DivergenceError(epoch)
        trace.append(epoch_loss)
    return model, trace
