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

from .errors import ConfigurationError, DivergenceError, ShapeError

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


@dataclass(frozen=True)
class LossConfig:
    temperature: float = 2.0
    beta: float = 0.5

    def validate(self) -> None:
        if not self.temperature > 1:
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
        if not self.learning_rate > 0:
            raise ConfigurationError("learning_rate must be > 0")
        if not 0 <= self.momentum < 1:
            raise ConfigurationError("momentum must be in [0, 1)")


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
    return TeacherSnapshot(MlpModel(weights=list(model.weights), biases=list(model.biases)))


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
    pass through, widened only where dtype is wider.  With the default
    dtype this is the dtype the learner computes in: float32 for pixel
    bytes and float32 rows, the rows' own dtype for float64 rows."""
    if X.dtype != np.uint8:
        return X.astype(np.promote_types(X.dtype, dtype), copy=False)
    return np.divide(X, np.float32(255), out=np.empty(X.shape, dtype), dtype=np.float32)


def forward_batch(model: MlpModel, X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Returns (logits, activations); activations[k] is the input to layer k.
    The forward computes in the model's dtype (its first layer's): pixel
    bytes (uint8) are scaled into it with as_features, other rows cast."""
    X, dtype = np.asarray(X), model.weights[0].dtype
    X = as_features(X, dtype) if X.dtype == np.uint8 else X.astype(dtype, copy=False)
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
    work: list[tuple[np.ndarray, np.ndarray]] | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Gradients of sum(dlogits * logits) w.r.t. each (W, b), written into
    grads (one pair of arrays shaped like each layer's, allocated when None).
    work[k - 1] holds the delta backpropagated into hidden layer k and its
    ReLU mask: a float and a bool array shaped like acts[k] (allocated
    when None)."""
    if grads is None:
        grads = [(np.empty_like(W), np.empty_like(b)) for W, b in zip(model.weights, model.biases)]
    if work is None:
        work = [(np.empty_like(a), np.empty(a.shape, bool)) for a in acts[1:]]
    delta = dlogits
    for k in range(len(model.weights) - 1, -1, -1):
        gW, gb = grads[k]
        np.matmul(acts[k].T, delta, out=gW)
        np.add.reduce(delta, axis=0, out=gb)
        if k > 0:
            below, relu = work[k - 1]
            np.matmul(delta, model.weights[k].T, out=below)
            np.multiply(below, np.greater(acts[k], 0, out=relu), out=below)
            delta = below
    return grads


# ---------------------------------------------------------------------------
# Losses


def _softmax_inplace(z: np.ndarray, col: np.ndarray | None = None) -> np.ndarray:
    """Softmax of each row of the 2-D array z, written over z and returned;
    col is an (rows, 1) column for the row maxima and sums (allocated
    when None)."""
    col = np.empty((len(z), 1), z.dtype) if col is None else col
    np.subtract(z, np.maximum.reduce(z, axis=1, keepdims=True, out=col), out=z)
    np.exp(z, out=z)
    return np.divide(z, np.add.reduce(z, axis=1, keepdims=True, out=col), out=z)


def forward_chunked(
    model: MlpModel,
    X: np.ndarray,
    rows: int,
    per_chunk: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """per_chunk(logits, penultimate features) of every row of X, stacked by
    row.  X goes through forward_batch min(rows, len(X)) rows at a time,
    so no float copy of X is larger than one chunk; per_chunk keeps what
    its caller needs of a chunk and nothing else.  Each forward computes
    in the model's dtype (see forward_batch).

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
        logits, acts = forward_batch(model, X[lo : lo + rows])
        part = per_chunk(logits, acts[-1])
        if out is None:
            out = np.empty((len(X), *part.shape[1:]), part.dtype)
        out[lo : lo + len(part)] = part
        del logits, acts, part  # frees the chunk's float copy before the next is made
    return out


def teacher_targets(
    teacher: TeacherSnapshot, X: np.ndarray, temperature: float, chunk: int
) -> np.ndarray:
    """softmax(teacher logits / temperature) for every row of X, from
    forwards of exactly min(chunk, len(X)) rows (see forward_chunked)."""
    return forward_chunked(
        teacher.model, X, chunk, lambda logits, _: _softmax_inplace(logits / temperature)
    )


class _Workspace:
    """The arrays a training step of `rows` rows writes besides the model's
    gradients, made once per task: a column for each softmax's row maxima
    and row sums, the labels' entries of the logit gradient, the
    distillation part of it (rows x teacher slots) and backprop's deltas
    and ReLU masks.  The step's scalars are 0-d arrays of the training
    dtype, which numpy's elementwise calls take fastest (faster than a
    Python float or a numpy scalar)."""

    def __init__(self, model: MlpModel, rows: int, slots: int, lcfg: LossConfig, dtype):
        self.col = np.empty((rows, 1), dtype)
        self.label = np.empty(rows, dtype)
        self.distill = np.empty((rows, slots), dtype)
        self.backprop = [
            (np.empty((rows, len(W)), dtype), np.empty((rows, len(W)), bool))
            for W in model.weights[1:]
        ]
        self.rows, self.one = np.array(rows, dtype), np.array(1.0, dtype)
        self.T, self.beta, self.rest = (
            np.array(v, dtype) for v in (lcfg.temperature, lcfg.beta, 1.0 - lcfg.beta)
        )


def _step(
    model: MlpModel,
    ws: _Workspace,
    X: np.ndarray,
    label_at: np.ndarray,
    p_t: np.ndarray | None,
    grads: list[tuple[np.ndarray, np.ndarray]] | None,
    p_label: np.ndarray,
    p_s: np.ndarray | None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The gradients of the mean loss over rows X, written into grads (see
    backprop); label_at indexes each row's label in the flattened logits,
    and p_t holds the teacher's distilled targets (None: cross-entropy
    only).  Each row's probability of its label goes into p_label and,
    with p_t, its distilled probabilities into p_s: _row_losses turns
    them into the loss."""
    logits, acts = forward_batch(model, X)
    if p_t is not None:
        np.divide(logits[:, : p_s.shape[1]], ws.T, out=p_s)
        _softmax_inplace(p_s, ws.col)
    dlogits = _softmax_inplace(logits, ws.col)
    flat = dlogits.reshape(-1)
    flat.take(label_at, out=p_label)
    flat[label_at] = np.subtract(p_label, ws.one, out=ws.label)  # probs - onehot(labels)
    if p_t is not None:
        dlogits *= ws.rest
        distill = np.subtract(p_s, p_t, out=ws.distill)
        distill *= ws.beta
        distill /= ws.T
        dlogits[:, : p_s.shape[1]] += distill
    dlogits /= ws.rows
    return backprop(model, acts, dlogits, grads, ws.backprop)


def _row_losses(
    lcfg: LossConfig, p_label: np.ndarray, p_s: np.ndarray | None, p_t: np.ndarray | None
) -> np.ndarray:
    """Each row's loss, beta * kd + (1 - beta) * ce (ce alone without teacher
    targets p_t), from the terms _step recorded; written over them."""
    ce = np.log(np.maximum(p_label, _PROB_FLOOR, out=p_label), out=p_label)
    np.negative(ce, out=ce)
    if p_t is None:
        return ce
    log_s = np.log(np.maximum(p_s, _PROB_FLOOR, out=p_s), out=p_s)
    kd = np.add.reduce(np.multiply(p_t, log_s, out=log_s), axis=1)
    np.negative(kd, out=kd)
    kd *= lcfg.beta
    ce *= 1.0 - lcfg.beta
    kd += ce
    return kd


def batch_loss_and_grads(
    model: MlpModel,
    X: np.ndarray,
    y: np.ndarray,
    teacher: TeacherSnapshot | None,
    lcfg: LossConfig,
) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
    """Mean per-example loss over the batch and its analytic gradients, as
    one training step computes them (in the model's dtype)."""
    y = np.asarray(y)
    if np.any((y < 0) | (y >= model.num_classes)):
        raise ShapeError("label outside model head")
    dtype = model.weights[0].dtype
    p_t = p_s = None
    if teacher is not None:
        p_t = teacher_targets(teacher, X, lcfg.temperature, len(X)).astype(dtype, copy=False)
        p_s = np.empty_like(p_t)
    p_label = np.empty(len(y), dtype)
    ws = _Workspace(model, len(y), 0 if p_t is None else p_t.shape[1], lcfg, dtype)
    label_at = np.arange(len(y)) * model.num_classes + y
    grads = _step(model, ws, X, label_at, p_t, None, p_label, p_s)
    return float(_row_losses(lcfg, p_label, p_s, p_t).mean()), grads


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
    pixel bytes: each step takes its rows as stored (see forward_batch).

    Training computes in the features' dtype, as_features(X)'s: float32
    for pixel bytes and float32 rows, float64 for float64 rows.  The
    model's and the teacher targets' values are cast to it on entry, and
    the returned model's arrays are of that dtype."""
    lcfg.validate()
    tcfg.validate()
    y = np.asarray(y)
    if len(y) == 0:
        raise ConfigurationError("empty training data")
    if len(X) != len(y):
        raise ShapeError(f"{len(X)} feature rows but {len(y)} labels")
    if np.any((y < 0) | (y >= model.num_classes)):
        raise ShapeError("label outside model head")
    if teacher is not None and teacher.model.num_classes > model.num_classes:
        raise ShapeError(
            f"teacher head {teacher.model.num_classes} wider than student head {model.num_classes}"
        )

    # the trained model's arrays are views into one buffer, a copy of the
    # input's; momentum and gradients live in buffers of the same layout,
    # so one step is four whole-buffer operations.  The step lr * vel goes
    # into the gradient buffer, which the next backprop overwrites in full.
    dtype = as_features(X[:0]).dtype
    flat = np.concatenate(
        [a.ravel() for W, b in zip(model.weights, model.biases) for a in (W, b)],
        dtype=dtype,
    )
    params = _layer_views(flat, model)
    model = MlpModel(weights=[w for w, _ in params], biases=[b for _, b in params])
    grad = np.empty_like(flat)
    grads = _layer_views(grad, model)
    vel = np.zeros_like(flat)
    momentum, lr = np.array(tcfg.momentum, dtype), np.array(tcfg.learning_rate, dtype)

    # the teacher's targets for a full batch come from one pass per task; a
    # short last batch gets a forward of its own shape (see teacher_targets)
    n = len(y)
    full = min(tcfg.batch_size, n)
    slots = 0 if teacher is None else teacher.model.num_classes
    workspaces = {
        rows: _Workspace(model, rows, slots, lcfg, dtype) for rows in {full, n % full or full}
    }
    p_t = p_t_epoch = p_s = None
    if teacher is not None:
        p_t = teacher_targets(teacher, X, lcfg.temperature, full).astype(dtype, copy=False)
        p_t_epoch, p_s = np.empty_like(p_t), np.empty_like(p_t)
    # a step records its rows' loss terms at their places in the epoch's
    # order; the loss is computed from them once the epoch is done.  Each
    # place's row starts at row_at in its batch's flattened logits.
    p_label = np.empty(n, dtype)
    row_at = np.arange(n) % full * model.num_classes
    batches = [slice(start, start + full) for start in range(0, n, full)]
    rng = np.random.default_rng(seed)
    trace: list[float] = []
    for epoch in range(tcfg.epochs):
        order = rng.permutation(n)
        label_at = row_at + y[order]
        if p_t is not None:
            np.take(p_t, order, axis=0, out=p_t_epoch)
        for rows in batches:
            batch = order[rows]
            xb = X[batch]
            targets = None if p_t is None else p_t_epoch[rows]
            if targets is not None and len(batch) != full:
                targets[...] = teacher_targets(teacher, xb, lcfg.temperature, len(batch))
            _step(model, workspaces[len(batch)], xb, label_at[rows], targets, grads,
                  p_label[rows], None if p_s is None else p_s[rows])
            vel *= momentum
            vel += grad
            np.multiply(vel, lr, out=grad)
            flat -= grad
        row_loss = _row_losses(lcfg, p_label, p_s, p_t_epoch)
        # each batch's mean, weighted by its length; one call for the full batches
        k, short = divmod(n, full)
        losses = row_loss[: k * full].reshape(k, full).mean(axis=1).astype(np.float64) * full
        if short:
            losses = np.append(losses, float(row_loss[k * full :].mean()) * short)
        epoch_loss = float(np.sum(losses) / n)
        if not np.isfinite(epoch_loss):
            raise DivergenceError(epoch)
        trace.append(epoch_loss)
    return model, trace
